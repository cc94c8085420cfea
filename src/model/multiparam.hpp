// Multi-parameter model generation (paper Eq. 2), following the
// "fast multi-parameter performance modeling" strategy of Calotoiu et al.
// (CLUSTER 2016) that the paper builds on:
//
//   1. For each model parameter, fit single-parameter hypotheses on a data
//      slice along that parameter (the other parameters pinned to their
//      smallest measured values) and keep the best few candidate factors.
//   2. Build a joint term pool from those factors: each factor alone plus
//      all cross-parameter products.
//   3. Run the same cross-validated greedy term selection as the
//      single-parameter fitter on the full data set.
#pragma once

#include <vector>

#include "model/fitter.hpp"
#include "model/measurement.hpp"
#include "model/search_space.hpp"

namespace exareq::model {

/// Options of the multi-parameter generator.
struct MultiParamOptions {
  SearchSpace space = SearchSpace::paper_default();
  /// Parameters (by index) whose factor pool includes the collective
  /// functions; typically just the process-count parameter for
  /// communication metrics.
  std::vector<std::size_t> collective_parameters;
  /// Which collective functions are admissible. A communication call path
  /// that only ever invokes MPI_Allreduce should not be modeled with
  /// Alltoall(p); the measurement layer records which collectives each
  /// channel used (simmpi::ChannelStats) and narrows this list.
  std::vector<SpecialFn> allowed_collectives{
      SpecialFn::kAllreduce, SpecialFn::kBcast, SpecialFn::kAlltoall};
  FitOptions fit;
  /// How many of the best single-parameter factors survive into the joint
  /// pool, per parameter.
  std::size_t top_factors_per_parameter = 4;
};

/// Candidate factors for one parameter ranked by single-parameter
/// cross-validation score on the given slice; exposed for tests and the
/// ablation bench. When `stats_out` is non-null the slice engine's counters
/// are accumulated into it.
std::vector<Factor> rank_candidate_factors(const MeasurementSet& slice,
                                           std::size_t parameter,
                                           const MultiParamOptions& options,
                                           EngineStats* stats_out = nullptr);

/// Builds the joint term pool (singles and pairwise products; for three or
/// more parameters also the product of every parameter's best factor).
std::vector<Term> build_joint_pool(
    const std::vector<std::vector<Factor>>& factors_per_parameter);

/// The term pool fit_multi_parameter searches: the search space's factors
/// of the one parameter (collectives included when it is a collective
/// parameter), or else the joint pool of every parameter's ranked factors,
/// each ranked on its slice through the anchor with the most points. When
/// `stats_out` is non-null the ranking engines' counters are accumulated
/// into it.
std::vector<Term> multi_parameter_pool(const MeasurementSet& data,
                                       const MultiParamOptions& options,
                                       EngineStats* stats_out = nullptr);

/// Fits a model of any parameter count: the fitter's search over
/// multi_parameter_pool.
FitResult fit_multi_parameter(const MeasurementSet& data,
                              const MultiParamOptions& options = {});

}  // namespace exareq::model
