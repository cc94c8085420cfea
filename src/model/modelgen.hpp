// Top-level model generator facade (the role Extra-P plays in the paper):
// hand it a MeasurementSet per metric, get back a human-readable
// requirement model with quality statistics.
#pragma once

#include <string>
#include <vector>

#include "model/fitter.hpp"
#include "model/multiparam.hpp"

namespace exareq::model {

/// Per-metric hints controlling the hypothesis space.
struct MetricTraits {
  /// Communication metrics search over collective cost functions in the
  /// process-count parameter (paper Table II models like "Allreduce(p)").
  bool is_communication = false;
  /// Collectives admissible for this metric (narrowed per call path by the
  /// measurement layer); ignored unless is_communication.
  std::vector<SpecialFn> collectives{SpecialFn::kAllreduce, SpecialFn::kBcast,
                                     SpecialFn::kAlltoall};
};

/// Generator configuration; defaults reproduce the paper's setup.
struct GeneratorOptions {
  SearchSpace space = SearchSpace::paper_default();
  FitOptions fit;
  std::size_t top_factors_per_parameter = 3;
  /// Name of the process-count parameter; collectives attach to it.
  std::string process_parameter = "p";
  /// Paper rule of thumb: at least five distinct values per parameter.
  std::size_t min_distinct_values = 5;
};

/// Facade dispatching between single- and multi-parameter fitting.
class ModelGenerator {
 public:
  explicit ModelGenerator(GeneratorOptions options = {});

  const GeneratorOptions& options() const { return options_; }

  /// Generates a requirement model for one metric. Throws InvalidArgument
  /// when the measurement design violates the five-values rule.
  FitResult generate(const MeasurementSet& data,
                     const MetricTraits& traits = {}) const;

  /// The multi-parameter options `generate` fits `data` with: the
  /// generator's space and fit options, with collectives on the
  /// process-count parameter for communication metrics.
  MultiParamOptions multi_parameter_options(
      const MeasurementSet& data, const MetricTraits& traits = {}) const;

 private:
  GeneratorOptions options_;
};

}  // namespace exareq::model
