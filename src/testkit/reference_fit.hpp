// Reference leave-one-out scorer for the model fitter.
//
// Production scores a hypothesis with one retained QR factorization and a
// rank-one downdate per fold (model/fitter.cpp). The reference computes the
// same score the plain way: one weighted least-squares solve for the full
// data and one per fold, each through the public
// `model::weighted_least_squares`. The two share two rules and no code but
// the first: the model layer's sign rule (`model::negligible_coefficient`)
// and the fold singularity guard (a row whose leverage is within 1e-12 of
// 1 makes its fold singular). A disagreement between them is a bug in one
// of the two CV algorithms, not in a shared helper.
#pragma once

#include <cstddef>
#include <limits>
#include <string>
#include <vector>

#include "model/fitter.hpp"
#include "model/measurement.hpp"
#include "model/model.hpp"

namespace exareq::testkit {

/// A reference CV score and the conditioning it was computed under.
struct ReferenceScore {
  /// Raw leave-one-out score (+inf when inadmissible). Production's
  /// collapse of scores below model::kRoundingFloor to 0 is not applied.
  double score = std::numeric_limits<double>::infinity();
  /// max over rows of 1 / (1 - h_r), h_r the row's leverage in the full
  /// weighted fit: how much a leave-one-out residual amplifies rounding.
  double amplification = 1.0;
};

/// Leave-one-out CV score of `basis` on `data` with relative residuals,
/// refitting every fold from scratch. Inadmissible when there are too few
/// points, when the full fit or a fold fit is rank-deficient or
/// non-finite, when a term coefficient is negative beyond rounding
/// (model::negligible_coefficient), when a row's leverage is within 1e-12
/// of 1 (its fold is singular; found by fitting the row's indicator), or
/// when fold coefficients spread beyond model::kMaxCoefficientSpread. When
/// `solves` is non-null, every least-squares solve adds one to it.
ReferenceScore reference_cv_score(const model::MeasurementSet& data,
                                  const std::vector<model::Term>& basis,
                                  std::size_t* solves = nullptr);

/// "" when a production CV score agrees with a reference score, else a
/// report naming `label`. Verdicts (finite vs +inf) must match exactly.
/// Finite scores must agree within 1e-12 absolute or a relative band of
/// max(1e-7, 1e-14 * amplification), after the reference is collapsed to
/// 0 below model::kRoundingFloor like production's. Production forms each
/// fold's residual by the PRESS identity e / (1 - h), whose relative
/// rounding grows with 1 / (1 - h); the band follows it, and stays far
/// below the smallest score difference that can influence selection
/// (model::kTieTolerance = 5e-2) unless a row's leverage is within 1e-11
/// of 1.
std::string diff_scores(const std::string& label, double production,
                        const ReferenceScore& reference);

/// The basis a fitted model selected: its terms in order, unit coefficients.
std::vector<model::Term> selected_basis(const model::Model& model);

/// Outcome of `check_neighbourhood`.
struct NeighbourhoodCheck {
  std::string diff;             ///< "" when every hypothesis agrees
  std::size_t hypotheses = 0;   ///< hypotheses scored by both scorers
  std::size_t reference_solves = 0;
  model::EngineStats production;  ///< the production engine's counters
};

/// Scores the selected basis S and its one-move neighbourhood over `pool`
/// with a fresh production FitEngine and with reference_cv_score, and
/// compares every pair with diff_scores. The neighbourhood is S itself, S
/// plus one pool term (production scores these as one score_extensions
/// block), S with one term replaced by a pool term, and S with one term
/// dropped (production's cv_score); pool terms that duplicate a term of S
/// are skipped, as in the search. `reported_cv`, production's
/// FitQuality::cv_score for S, must match the reference score of S too.
/// Stops at the first disagreement.
NeighbourhoodCheck check_neighbourhood(const model::MeasurementSet& data,
                                       const std::vector<model::Term>& pool,
                                       const std::vector<model::Term>& selected,
                                       double reported_cv,
                                       const model::FitOptions& options = {});

}  // namespace exareq::testkit
