// Top-level model generation (the role Extra-P plays in the paper): hand
// model::generate a MeasurementSet per metric, get back a human-readable
// requirement model with quality statistics.
#pragma once

#include <string_view>
#include <vector>

#include "model/fitter.hpp"

namespace exareq::model {

/// Name of the process-count parameter; collective functions attach to it.
inline constexpr std::string_view kProcessParameter = "p";

/// Per-metric hints controlling the hypothesis space.
struct MetricTraits {
  /// Communication metrics search over collective cost functions in the
  /// process-count parameter (paper Table II models like "Allreduce(p)").
  bool is_communication = false;
  /// Collectives admissible for this metric (narrowed per call path by the
  /// measurement layer); ignored unless is_communication.
  std::vector<SpecialFn> collectives{kCollectives.begin(), kCollectives.end()};
};

/// The two settings of a fit; defaults reproduce the paper's setup.
struct GeneratorOptions {
  SearchSpace space = SearchSpace::paper_default();
  FitOptions fit;
};

/// Generates a requirement model for one metric of any parameter count:
/// the fitter's search over multi_parameter_pool. Throws InvalidArgument
/// when the measurement design violates the paper's five-values rule
/// (MeasurementSet::validate_for_modeling).
FitResult generate(const MeasurementSet& data, const MetricTraits& traits = {},
                   const GeneratorOptions& options = {});

}  // namespace exareq::model
