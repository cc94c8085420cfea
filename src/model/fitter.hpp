// Empirical model fitting (the Extra-P substitute's core).
//
// The fitter mirrors the paper's iterative procedure (Sec. II-C): starting
// from the constant hypothesis, candidate terms from a pool are added one
// at a time; each enlarged hypothesis is refit by (weighted) least squares
// and scored by leave-one-out cross-validation on relative errors; growth
// stops when no candidate improves the score significantly or the maximum
// number of terms is reached. Among near-equal candidates the structurally
// simplest wins, which keeps models interpretable.
#pragma once

#include <cmath>
#include <memory>
#include <span>
#include <vector>

#include "model/linalg.hpp"
#include "model/measurement.hpp"
#include "model/model.hpp"
#include "model/search_space.hpp"

namespace exareq {
class ThreadPool;
}

namespace exareq::model {

/// Relative size below which the fitter treats a quantity as rounding
/// noise: a CV score (a mean relative error) below it reads as exactly 0,
/// and so does a term coefficient whose largest relative contribution to
/// the weighted fit is below it.
inline constexpr double kRoundingFloor = 1e-8;

/// The sign rule every CV and coefficient check shares: a fitted term
/// coefficient counts as zero when its largest contribution to the weighted
/// fit, |coefficient| * max_r |w_r * column_r| (`column_scale`), is at most
/// kRoundingFloor of the weighted observations' size max_r |w_r * y_r|
/// (`rhs_scale`). Such a coefficient is rounding noise around an exact zero
/// (a redundant term of an exact fit), so its sign says nothing. The floor
/// must cover the rounding of both CV routes: a per-fold refit leaves such
/// coefficients up to ~1e-10 of the observations on planted exact data, so
/// the solvers' 1e-12 rank tolerance would let the routes disagree. Used by
/// the CV engine for the full fit and every fold, by the full-data
/// coefficient fit, and by testkit's per-fold reference scorer.
inline bool negligible_coefficient(double coefficient, double column_scale,
                                   double rhs_scale) {
  return std::fabs(coefficient) * column_scale <= kRoundingFloor * rhs_scale;
}

// The search's thresholds. They are constants: the paper's workflow is one
// search, and every metric and every caller uses the same thresholds.

/// Maximum number of non-constant terms in a hypothesis.
inline constexpr std::size_t kMaxTerms = 3;

/// A term is only added if it shrinks the cross-validation score by at
/// least this fraction (the paper's "no significant improvement" rule).
/// Genuine terms on counter-precision data improve the score by 50-100%;
/// terms chasing measurement noise rarely exceed ~30%, so the bar sits
/// between the two.
inline constexpr double kImprovementThreshold = 0.35;

/// Hypothesis growth stops once the score falls below this bound — the
/// model already explains the data to measurement precision, and further
/// terms would chase sub-noise residuals. It corresponds to a 0.05%
/// relative error, well below the reproducibility of real hardware
/// counters. Scores below kRoundingFloor (far under this bound) are
/// reported as exactly 0: their digits measure rounding noise, and they
/// differ between exact hypotheses only by the column order the engine
/// happened to factor them in. Collapsing them makes selection among
/// numerically-exact hypotheses a deterministic tie-break on complexity
/// within the one engine, instead of a coin flip on last-ulp differences.
inline constexpr double kScoreTolerance = 5e-4;

/// Candidates scoring within this fraction of the best are considered
/// ties and resolved toward lower structural complexity. Generous on
/// purpose: the PMNF grid contains many shapes that only differ beyond
/// measurement precision, and the paper's workflow values interpretable
/// (simple) models.
inline constexpr double kTieTolerance = 0.05;

/// Terms whose largest relative contribution over the measured points
/// falls below this share are dropped from the final model: they fit
/// sub-noise residuals in-sample yet can dominate (and wreck) the
/// extrapolation — a p^3 term with a 0.2% in-sample share is invisible to
/// cross-validation but grows 8x per process-count doubling.
inline constexpr double kMinTermContribution = 0.01;

/// Hypotheses whose term coefficients vary by more than this relative
/// spread (stddev / |mean|) across the leave-one-out folds are rejected:
/// a genuine requirement term is estimable from any subset of the
/// measurements, while a noise-chasing term's coefficient is dictated by
/// whichever points happen to be in the fold. Fold coefficients that are
/// zero up to rounding count as exactly zero here.
inline constexpr double kMaxCoefficientSpread = 0.5;

/// Number of first-term candidates the search branches on. PMNF grids
/// contain near-degenerate shapes (x^1.125 vs x * log2(x) over narrow
/// ranges); a purely greedy first pick can trap the search in a mixture
/// that fits well but extrapolates badly. Branching on the best few first
/// terms and keeping the best final hypothesis resolves this. Beyond
/// kBeamWidth the search keeps branching on candidates within 4x of the
/// best single-term score, up to kMaxBeamWidth branches.
inline constexpr std::size_t kBeamWidth = 6;
inline constexpr std::size_t kMaxBeamWidth = 16;

// Two rules are not thresholds and hold for every fit:
// - Hypotheses whose fitted term coefficients are negative are rejected;
//   requirement metrics are counts and cannot shrink below zero. A
//   coefficient that is zero up to rounding is not negative
//   (`negligible_coefficient`).
// - Residuals are relative: each row is weighted by 1 / |y| (floored at
//   1e-9 of the largest |y|). Relative residuals make small-scale
//   configurations count as much as large ones, which is what an
//   extrapolating model needs.

/// The one setting of a fit.
struct FitOptions {
  /// Threads used by the search engine: candidate scoring, replacement
  /// moves, and (one level up) per-metric fits run on a shared pool of this
  /// size. 1 runs everything inline on the caller; 0 means hardware
  /// concurrency. Every thread count selects bit-identical models: tasks
  /// are pure and reduced serially in index order.
  std::size_t threads = 1;
};

/// Observability counters of the model-search engine, aggregated per fit
/// and summable across metrics (engine-stats layer).
struct EngineStats {
  std::size_t hypotheses_scored = 0;  ///< CV scorings requested (incl. memo hits)
  std::size_t score_cache_hits = 0;   ///< served from the hypothesis-score memo
  /// Least-squares factorizations built from scratch: one per cv_score
  /// memo miss, one shared prefix per score_extensions generation and one
  /// per replacement-move position of the search (each only when at least
  /// one of its candidates missed the memo), plus the full-data coefficient
  /// solves. Leave-one-out folds are never solves (they are downdates), and
  /// candidates that extend a retained prefix are not either — they cost a
  /// few Householder columns, not a refactorization — and are counted in
  /// qr_extensions instead.
  std::size_t cv_solves = 0;
  /// Candidate factorizations built by copying a retained prefix and
  /// appending columns: one per extension candidate (its one column) and
  /// one per replacement trial (its candidate, then the selected terms
  /// after the replaced position).
  std::size_t qr_extensions = 0;
  std::size_t downdates = 0;          ///< rank-one LOO downdates, one per fold
  std::size_t basis_column_hits = 0;  ///< basis columns served from the cache
  std::size_t basis_columns_built = 0;  ///< distinct basis columns evaluated
  double wall_seconds = 0.0;          ///< wall time of the fit
  std::size_t threads = 1;            ///< resolved engine thread count

  /// Fraction of score + column lookups answered from a cache.
  double cache_hit_rate() const;

  EngineStats& operator+=(const EngineStats& other);
};

/// Quality summary of a fitted model over its training data.
struct FitQuality {
  double cv_score = 0.0;  ///< leave-one-out mean relative error
  double smape = 0.0;     ///< symmetric MAPE of the final fit
  double r_squared = 0.0; ///< R^2 of the final fit (1 if constant data)
  std::vector<double> relative_errors;  ///< per measurement point
};

/// A fitted model together with its quality metrics and the engine-stats
/// counters accumulated while searching for it.
struct FitResult {
  Model model;
  FitQuality quality;
  EngineStats stats;
};

/// Memoizing scoring engine over one MeasurementSet: owns the basis-column
/// cache, a hypothesis-score memo, and the observability counters. All
/// scoring entry points are thread-safe; the free fitting functions create
/// one engine per fit, and `rank_candidate_factors` shares one per slice
/// between its ranking and its slice fit.
class FitEngine {
 public:
  /// The data set must outlive the engine. Resolves `options.threads`
  /// (0 = hardware concurrency) and attaches the shared pool when > 1.
  FitEngine(const MeasurementSet& data, const FitOptions& options);
  ~FitEngine();

  FitEngine(const FitEngine&) = delete;
  FitEngine& operator=(const FitEngine&) = delete;

  const MeasurementSet& data() const;

  /// Resolved thread count; the pool itself (null when serial).
  std::size_t thread_count() const;
  exareq::ThreadPool* pool() const;

  /// Memoized leave-one-out CV score of a basis (+inf when inadmissible).
  double cv_score(const std::vector<Term>& basis);

  /// Scores one hypothesis generation as a block: the CV score of
  /// `selected` + extensions[j] for every j, in extension order (+inf for
  /// inadmissible candidates). The shared selected-prefix is QR-factored
  /// once and each candidate appends a single column to a copy —
  /// bit-identical to scoring each trial through cv_score. Memoized and
  /// thread-safe like cv_score; candidates run on the engine's pool.
  std::vector<double> score_extensions(const std::vector<Term>& selected,
                                       const std::vector<Term>& extensions);

  /// Full-data refit of a fixed basis plus its CV score: one coefficient
  /// solve and one CV factorization. Throws NumericError when the basis is
  /// inadmissible. Fills
  /// stats.wall_seconds with this call's duration.
  FitResult refit(const std::vector<Term>& basis);

  /// Snapshot of the counters (wall_seconds stays 0; the fit drivers stamp
  /// their own duration into the results they return).
  EngineStats stats() const;

  /// Opaque implementation; defined in fitter.cpp where the search helpers
  /// operate on it directly.
  struct Impl;

 private:
  friend FitResult fit_with_pool_engine(FitEngine& engine,
                                        const std::vector<Term>& pool);
  std::unique_ptr<Impl> impl_;
};

/// Fits the best hypothesis built from `pool` (terms whose coefficients are
/// ignored; only the basis matters) to `data`. The pool may reference any
/// of data's parameters. Throws InvalidArgument on an empty data set.
FitResult fit_with_pool(const MeasurementSet& data, const std::vector<Term>& pool,
                        const FitOptions& options = {});

/// Same search, but on a caller-provided engine so several fits over the
/// same data can share its caches and counters.
FitResult fit_with_pool_engine(FitEngine& engine, const std::vector<Term>& pool);

/// One single-factor term (unit coefficient) per factor of `space` for
/// parameter 0, with the admissible `collectives` among them
/// (SearchSpace::factors_for): the pool fit_single_parameter searches.
std::vector<Term> single_factor_pool(
    const SearchSpace& space, std::span<const SpecialFn> collectives = {});

/// Single-parameter fit over the full search space (paper Eq. 1).
FitResult fit_single_parameter(const MeasurementSet& data,
                               const SearchSpace& space = SearchSpace::paper_default(),
                               const FitOptions& options = {});

/// Scores one fixed hypothesis (list of basis terms) by refitting its
/// coefficients: returns the fitted model and quality without any search.
/// Useful for comparing externally supplied hypotheses (ablation benches).
FitResult refit_hypothesis(const MeasurementSet& data, const std::vector<Term>& basis,
                           const FitOptions& options = {});

/// Leave-one-out cross-validation score of a fixed basis (lower is better;
/// +inf when the hypothesis is inadmissible for this data).
double cross_validation_score(const MeasurementSet& data,
                              const std::vector<Term>& basis,
                              const FitOptions& options = {});

}  // namespace exareq::model
