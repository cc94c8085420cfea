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
//      single-parameter fitter on the full data set (model::generate).
#pragma once

#include <vector>

#include "model/fitter.hpp"
#include "model/measurement.hpp"
#include "model/modelgen.hpp"
#include "model/search_space.hpp"

namespace exareq::model {

/// How many of the best single-parameter factors survive into the joint
/// pool, per parameter.
inline constexpr std::size_t kTopFactorsPerParameter = 3;

/// Candidate factors for one parameter ranked by single-parameter
/// cross-validation score on the given slice; exposed for tests and the
/// ablation bench. `parameter` is the parameter's index in the full data
/// set; the slice's one parameter name decides whether collectives are
/// candidates (communication metrics, process count), and then only
/// `traits.collectives` are. When `stats_out` is non-null the slice
/// engine's counters are accumulated into it.
std::vector<Factor> rank_candidate_factors(const MeasurementSet& slice,
                                           std::size_t parameter,
                                           const MetricTraits& traits = {},
                                           const GeneratorOptions& options = {},
                                           EngineStats* stats_out = nullptr);

/// Builds the joint term pool (singles and pairwise products; for three or
/// more parameters also the product of every parameter's best factor).
std::vector<Term> build_joint_pool(
    const std::vector<std::vector<Factor>>& factors_per_parameter);

/// The term pool model::generate searches: the search space's factors of
/// the one parameter (with the admissible collectives when it is the
/// process count of a communication metric), or else the joint pool of
/// every parameter's ranked factors, each ranked on its slice through the
/// anchor with the most points. When `stats_out` is non-null the ranking
/// engines' counters are accumulated into it.
std::vector<Term> multi_parameter_pool(const MeasurementSet& data,
                                       const MetricTraits& traits = {},
                                       const GeneratorOptions& options = {},
                                       EngineStats* stats_out = nullptr);

}  // namespace exareq::model
