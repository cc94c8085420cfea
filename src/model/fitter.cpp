#include "model/fitter.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <mutex>
#include <span>
#include <unordered_map>

#include "model/term_cache.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/error.hpp"
#include "support/stats.hpp"
#include "support/thread_pool.hpp"

namespace exareq::model {
namespace {

constexpr double kInfinity = std::numeric_limits<double>::infinity();

/// Scale used to turn absolute deviations at near-zero observations into
/// meaningful relative errors.
double observation_scale(std::span<const double> values) {
  double max_abs = 0.0;
  for (double v : values) max_abs = std::max(max_abs, std::fabs(v));
  return max_abs > 0.0 ? max_abs : 1.0;
}

double relative_error(double predicted, double observed, double scale) {
  const double denom = std::max(std::fabs(observed), 1e-9 * scale);
  return std::fabs(predicted - observed) / denom;
}

/// Cached basis columns of the hypothesis under evaluation, one per term,
/// each spanning every coordinate of the data set.
using Columns = std::vector<const std::vector<double>*>;

/// Design matrix of [1, basis_1, ..., basis_k] over every measured point,
/// assembled from cached columns.
Matrix design_matrix(const Columns& columns, std::size_t rows) {
  Matrix a(rows, columns.size() + 1);
  for (std::size_t r = 0; r < rows; ++r) {
    a(r, 0) = 1.0;
    for (std::size_t c = 0; c < columns.size(); ++c) {
      a(r, c + 1) = (*columns[c])[r];
    }
  }
  return a;
}

struct CoefficientFit {
  double constant = 0.0;
  std::vector<double> coefficients;
  bool admissible = false;
};

Model make_model(const MeasurementSet& data, const std::vector<Term>& basis,
                 const CoefficientFit& fit) {
  std::vector<Term> terms;
  terms.reserve(basis.size());
  for (std::size_t i = 0; i < basis.size(); ++i) {
    Term term = basis[i];
    term.coefficient = fit.coefficients[i];
    if (term.coefficient != 0.0) terms.push_back(std::move(term));
  }
  return Model(data.parameter_names(), fit.constant, std::move(terms));
}

FitQuality evaluate_quality(const MeasurementSet& data, const Model& model,
                            double cv_score) {
  FitQuality quality;
  quality.cv_score = cv_score;
  const std::vector<double> predicted = model.predict(data);
  const std::vector<double>& observed = data.values();
  quality.smape = exareq::smape(observed, predicted);
  const double scale = observation_scale(observed);
  quality.relative_errors.reserve(observed.size());
  for (std::size_t i = 0; i < observed.size(); ++i) {
    quality.relative_errors.push_back(
        relative_error(predicted[i], observed[i], scale));
  }
  // R^2 is undefined for constant observations; report a perfect 1.0 there,
  // which matches the constant model being exact.
  bool constant_data = true;
  for (double v : observed) {
    if (v != observed.front()) {
      constant_data = false;
      break;
    }
  }
  quality.r_squared =
      constant_data ? 1.0 : exareq::r_squared(observed, predicted);
  return quality;
}

/// Hash and equality of ordered term-id sequences, the score memo's key.
/// Transparent, so a lookup takes a span and builds no key object.
struct IdSequenceHash {
  using is_transparent = void;
  std::size_t operator()(std::span<const TermId> ids) const {
    std::size_t seed = ids.size();
    for (TermId id : ids) {
      seed ^= id + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2);
    }
    return seed;
  }
};

struct IdSequenceEqual {
  using is_transparent = void;
  bool operator()(std::span<const TermId> a, std::span<const TermId> b) const {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }
};

/// Per-thread scratch of the batched CV engine. Every buffer keeps its
/// capacity between uses, so once a thread has scored the largest
/// hypothesis of a fit, scoring another candidate allocates nothing. A
/// parallel task touches only its own thread's workspace.
struct Workspace {
  RetainedQr trial;                       ///< one candidate's factorization
  std::vector<double> column;             ///< weighted candidate column
  std::vector<double> fold;               ///< one fold's k + 1 coefficients
  std::vector<double> fold_coefficients;  ///< k x m, term-major
  std::vector<TermId> key;                ///< memo key being assembled
};

Workspace& workspace() {
  thread_local Workspace local;
  return local;
}

}  // namespace

double EngineStats::cache_hit_rate() const {
  const double hits =
      static_cast<double>(score_cache_hits + basis_column_hits);
  const double lookups = static_cast<double>(
      hypotheses_scored + basis_column_hits + basis_columns_built);
  return lookups > 0.0 ? hits / lookups : 0.0;
}

EngineStats& EngineStats::operator+=(const EngineStats& other) {
  hypotheses_scored += other.hypotheses_scored;
  score_cache_hits += other.score_cache_hits;
  cv_solves += other.cv_solves;
  qr_extensions += other.qr_extensions;
  downdates += other.downdates;
  basis_column_hits += other.basis_column_hits;
  basis_columns_built += other.basis_columns_built;
  wall_seconds += other.wall_seconds;
  threads = std::max(threads, other.threads);
  return *this;
}

struct FitEngine::Impl {
  const MeasurementSet& data;
  std::size_t threads;  ///< FitOptions::threads, 0 resolved
  TermCache cache;
  exareq::ThreadPool* pool = nullptr;
  std::atomic<std::size_t> hypotheses{0};
  std::atomic<std::size_t> score_hits{0};
  std::atomic<std::size_t> solves{0};
  std::atomic<std::size_t> extension_count{0};
  std::atomic<std::size_t> downdate_count{0};
  std::mutex memo_mutex;
  /// Keyed by the ordered term-id sequence: order-sensitive, because column
  /// order changes the rounding of the factorization.
  std::unordered_map<std::vector<TermId>, double, IdSequenceHash,
                     IdSequenceEqual>
      score_memo;

  // Precomputed once per engine: the fitter's weighted view of the data.
  // Residuals are relative, so row r carries the weight w_r = 1 / |y_r|
  // (floored at 1e-9 of the largest |y|, relative_error's denominator).
  // The CV engine factors [w*1, w*col_1, ...] against w*y directly, so
  // the row weights and weighted observations are shared by every
  // hypothesis the engine ever scores.
  double obs_scale = 1.0;
  std::vector<double> row_weights;       ///< w
  std::vector<double> weighted_values;   ///< w*y
  double rhs_scale = 0.0;  ///< max |w*y|, the sign rule's reference size

  Impl(const MeasurementSet& data_in, const FitOptions& options_in)
      : data(data_in), threads(options_in.threads), cache(data_in) {
    if (threads == 0) threads = exareq::ThreadPool::hardware_threads();
    if (threads > 1) pool = &exareq::shared_pool(threads);
    obs_scale = observation_scale(data.values());
    const std::size_t m = data.size();
    row_weights.resize(m);
    weighted_values.resize(m);
    for (std::size_t r = 0; r < m; ++r) {
      row_weights[r] =
          1.0 / std::max(std::fabs(data.value(r)), 1e-9 * obs_scale);
      weighted_values[r] = data.value(r) * row_weights[r];
    }
    for (double v : weighted_values) {
      rhs_scale = std::max(rhs_scale, std::fabs(v));
    }
  }

  /// Runs body(i) for i in [0, count), on the pool when attached. Bodies
  /// must write results only under their own index; callers reduce serially
  /// afterwards, which keeps every thread count bit-identical.
  void for_each_index(std::size_t count,
                      const std::function<void(std::size_t)>& body) {
    if (pool == nullptr) {
      for (std::size_t i = 0; i < count; ++i) body(i);
    } else {
      pool->parallel_for(count, body);
    }
  }

  std::vector<TermId> intern_all(const std::vector<Term>& basis) {
    std::vector<TermId> ids;
    ids.reserve(basis.size());
    for (const Term& term : basis) ids.push_back(cache.intern(term));
    return ids;
  }

  Columns columns_for(std::span<const TermId> ids) {
    Columns columns;
    columns.reserve(ids.size());
    for (TermId id : ids) columns.push_back(&cache.column(id));
    return columns;
  }

  /// Coefficient-stability guard: every term must be estimable
  /// consistently from any m-1 of the measurements.
  /// `fold_coefficients` holds `terms` runs of `folds` values, term-major.
  bool coefficients_stable(std::span<const double> fold_coefficients,
                           std::size_t terms, std::size_t folds) const {
    if (folds < 2) return true;
    for (std::size_t c = 0; c < terms; ++c) {
      const auto run = fold_coefficients.subspan(c * folds, folds);
      const double mean_coefficient = exareq::mean(run);
      const double spread = exareq::stddev(run);
      if (spread > kMaxCoefficientSpread *
                       std::max(std::fabs(mean_coefficient), 1e-300)) {
        return false;
      }
    }
    return true;
  }

  /// Appends w .* column (the candidate column in the weighted problem),
  /// staged in `scratch`.
  void append_weighted(RetainedQr& qr, const std::vector<double>& column,
                       std::vector<double>& scratch) const {
    scratch.resize(column.size());
    for (std::size_t r = 0; r < column.size(); ++r) {
      scratch[r] = column[r] * row_weights[r];
    }
    qr.append_column(scratch);
  }

  /// Factors the weighted design [w*1, w*col_1, ..., w*col_k] against w*y
  /// into `qr`, retaining the reflectors so callers can extend or downdate
  /// it. Stops appending at the first dependent column.
  void factor_columns(const Columns& columns, RetainedQr& qr,
                      std::vector<double>& scratch) const {
    qr.reset(weighted_values);
    qr.append_column(row_weights);
    for (const std::vector<double>* column : columns) {
      if (qr.rank_deficient()) break;
      append_weighted(qr, *column, scratch);
    }
  }

  /// Full-data weighted least-squares fit of a basis: the model's
  /// coefficients. Inadmissible when underdetermined, rank-deficient or
  /// non-finite, or when a term coefficient is negative beyond rounding.
  CoefficientFit fit_coefficients(const Columns& columns) {
    CoefficientFit fit;
    const std::size_t m = data.size();
    if (m < columns.size() + 1) return fit;  // underdetermined
    const Matrix a = design_matrix(columns, m);
    solves.fetch_add(1, std::memory_order_relaxed);
    const LeastSquaresResult solved =
        weighted_least_squares(a, data.values(), row_weights);
    if (solved.rank_deficient) return fit;
    for (double c : solved.solution) {
      if (!std::isfinite(c)) return fit;
    }
    fit.constant = solved.solution[0];
    fit.coefficients.assign(solved.solution.begin() + 1, solved.solution.end());
    for (std::size_t c = 0; c < columns.size(); ++c) {
      const double coefficient = fit.coefficients[c];
      if (coefficient < 0.0 &&
          !negligible_coefficient(coefficient, weighted_max(*columns[c]),
                                  rhs_scale)) {
        return fit;
      }
    }
    fit.admissible = true;
    return fit;
  }

  /// max_r |w_r * column_r|: the column's size in the weighted problem,
  /// which is also the equilibration scale the factorization applies.
  double weighted_max(const std::vector<double>& column) const {
    double max_abs = 0.0;
    for (std::size_t r = 0; r < column.size(); ++r) {
      max_abs = std::max(max_abs, std::fabs(column[r] * row_weights[r]));
    }
    return max_abs;
  }

  /// Coefficient `c` of `qr` (0 is the intercept) under the shared sign
  /// rule: zero when negligible at the factorization's column scale.
  double rounded_coefficient(const RetainedQr& qr, std::size_t c,
                             double coefficient) const {
    return negligible_coefficient(coefficient, qr.column_scale(c), rhs_scale)
               ? 0.0
               : coefficient;
  }

  /// LOO score from an already-solved factorization of a k-term hypothesis:
  /// admissibility of the full fit, then one rank-one downdate per fold
  /// instead of a refit. A fold is rejected when non-finite, when a term
  /// coefficient is negative beyond rounding, or when the left-out row's
  /// leverage makes the downdated system singular.
  /// Coefficients that are zero up to rounding count as exactly zero in the
  /// sign and spread checks (`negligible_coefficient`).
  double cv_from_factored(const RetainedQr& qr, std::size_t k, Workspace& ws) {
    const std::size_t m = data.size();
    const std::span<const double> beta = qr.solution();
    for (double c : beta) {
      if (!std::isfinite(c)) return kInfinity;
    }
    for (std::size_t c = 1; c <= k; ++c) {
      if (rounded_coefficient(qr, c, beta[c]) < 0.0) return kInfinity;
    }

    ws.fold.resize(k + 1);
    ws.fold_coefficients.resize(k * m);
    std::size_t folds = 0;
    const auto reject = [&] {
      downdate_count.fetch_add(folds, std::memory_order_relaxed);
      return kInfinity;
    };
    double total = 0.0;
    for (std::size_t left_out = 0; left_out < m; ++left_out) {
      ++folds;
      double loo_residual = 0.0;
      if (!qr.leave_one_out(left_out, ws.fold, &loo_residual)) return reject();
      for (double c : ws.fold) {
        if (!std::isfinite(c)) return reject();
      }
      for (std::size_t c = 0; c < k; ++c) {
        const double coefficient =
            rounded_coefficient(qr, c + 1, ws.fold[c + 1]);
        if (coefficient < 0.0) return reject();
        ws.fold_coefficients[c * m + left_out] = coefficient;
      }
      // The fold's prediction error comes from the PRESS residual, not
      // from re-summing the downdated coefficients — the factored form is
      // exact where the coefficient reconstruction cancels on near-exact
      // fits. The residual lives in the weighted problem; dividing by the
      // row weight (== 1 / relative_error's denominator) takes it back.
      const double predicted =
          data.value(left_out) - loo_residual / row_weights[left_out];
      total += relative_error(predicted, data.value(left_out), obs_scale);
    }
    downdate_count.fetch_add(folds, std::memory_order_relaxed);
    if (!coefficients_stable(ws.fold_coefficients, k, m)) return kInfinity;
    return total / static_cast<double>(m);
  }

  /// CV of the hypothesis `ids`: one retained QR, m downdates.
  double compute_cv(std::span<const TermId> ids) {
    const std::size_t m = data.size();
    // Need at least one spare point beyond the coefficients to leave out.
    if (m < ids.size() + 2) return kInfinity;
    const Columns columns = columns_for(ids);
    solves.fetch_add(1, std::memory_order_relaxed);
    Workspace& ws = workspace();
    factor_columns(columns, ws.trial, ws.column);
    if (ws.trial.rank_deficient()) return kInfinity;
    ws.trial.solve();
    return cv_from_factored(ws.trial, ids.size(), ws);
  }

  /// CV scores below kRoundingFloor, far under the convergence tolerance,
  /// measure rounding noise, not model quality: their exact digits depend
  /// on column order and on the CV algorithm (rank-one downdates here,
  /// per-fold refits in testkit's reference). Collapsing them to exactly 0
  /// makes every numerically-exact hypothesis an exact tie, so selection
  /// among them falls to the deterministic tie-breaks (complexity, pool
  /// order).
  double selection_score(double score) const {
    return score < kRoundingFloor ? 0.0 : score;
  }

  /// Memoized CV score of the hypothesis `ids` (in column order).
  double cv_score(std::span<const TermId> ids) {
    hypotheses.fetch_add(1, std::memory_order_relaxed);
    {
      const std::lock_guard<std::mutex> lock(memo_mutex);
      const auto it = score_memo.find(ids);
      if (it != score_memo.end()) {
        score_hits.fetch_add(1, std::memory_order_relaxed);
        return it->second;
      }
    }
    const double score = selection_score(compute_cv(ids));
    {
      const std::lock_guard<std::mutex> lock(memo_mutex);
      score_memo.emplace(std::vector<TermId>(ids.begin(), ids.end()), score);
    }
    return score;
  }

  /// Looks up every trial of a block in the memo under one lock. Trial j's
  /// id sequence is written into `key` by `make_key(j, key)`. Counts the
  /// block as scored, fills `scores` with the hits and returns the indices
  /// of the misses in order.
  template <typename MakeKey>
  std::vector<std::size_t> memo_lookup_block(std::vector<double>& scores,
                                             const MakeKey& make_key) {
    hypotheses.fetch_add(scores.size(), std::memory_order_relaxed);
    std::vector<TermId>& key = workspace().key;
    std::vector<std::size_t> missing;
    const std::lock_guard<std::mutex> lock(memo_mutex);
    for (std::size_t j = 0; j < scores.size(); ++j) {
      make_key(j, key);
      const auto it = score_memo.find(std::span<const TermId>(key));
      if (it != score_memo.end()) {
        score_hits.fetch_add(1, std::memory_order_relaxed);
        scores[j] = it->second;
      } else {
        missing.push_back(j);
      }
    }
    return missing;
  }

  /// Publishes the freshly computed scores of a block's misses.
  template <typename MakeKey>
  void memo_store_block(std::vector<double>& scores,
                        const std::vector<std::size_t>& missing,
                        const std::vector<double>& fresh,
                        const MakeKey& make_key) {
    std::vector<TermId>& key = workspace().key;
    const std::lock_guard<std::mutex> lock(memo_mutex);
    for (std::size_t idx = 0; idx < missing.size(); ++idx) {
      scores[missing[idx]] = fresh[idx];
      make_key(missing[idx], key);
      score_memo.emplace(key, fresh[idx]);
    }
  }

  /// Factors [w*1, w*prefix...] once, then scores prefix + candidates[i] +
  /// suffix for every i on the pool: each task copies the prefix into its
  /// own thread's workspace and appends its candidate and the suffix — the
  /// same column sequence a from-scratch factorization of the trial
  /// appends, so the scores are bit-identical to cv_score's. Inadmissible
  /// trials keep +inf in `fresh`.
  void extend_prefix(const Columns& prefix, const Columns& candidates,
                     const Columns& suffix, std::vector<double>& fresh) {
    solves.fetch_add(1, std::memory_order_relaxed);
    RetainedQr shared;
    factor_columns(prefix, shared, workspace().column);
    if (shared.rank_deficient()) return;  // every trial is dependent
    extension_count.fetch_add(candidates.size(), std::memory_order_relaxed);
    const std::size_t k = prefix.size() + 1 + suffix.size();
    for_each_index(candidates.size(), [&](std::size_t i) {
      Workspace& ws = workspace();
      ws.trial = shared;
      append_weighted(ws.trial, *candidates[i], ws.column);
      for (const std::vector<double>* column : suffix) {
        if (ws.trial.rank_deficient()) break;
        append_weighted(ws.trial, *column, ws.column);
      }
      if (ws.trial.rank_deficient()) return;
      ws.trial.solve();
      fresh[i] = selection_score(cv_from_factored(ws.trial, k, ws));
    });
  }

  /// Scores the whole generation selected + extensions[j]: the shared
  /// prefix [w*1, w*selected...] is factored once, and each candidate
  /// extends a copy of it by a single Householder column update.
  std::vector<double> score_extensions_batch(
      std::span<const TermId> selected, std::span<const TermId> extensions) {
    const auto make_key = [&](std::size_t j, std::vector<TermId>& key) {
      key.assign(selected.begin(), selected.end());
      key.push_back(extensions[j]);
    };
    std::vector<double> scores(extensions.size(), kInfinity);
    const std::vector<std::size_t> missing =
        memo_lookup_block(scores, make_key);
    if (missing.empty()) return scores;
    std::vector<double> fresh(missing.size(), kInfinity);
    // Every trial has selected.size() + 2 coefficients; with fewer points
    // than that plus a spare all candidates are inadmissible at once.
    if (data.size() >= selected.size() + 3) {
      const Columns prefix = columns_for(selected);
      Columns candidates;
      candidates.reserve(missing.size());
      for (std::size_t j : missing) {
        candidates.push_back(&cache.column(extensions[j]));
      }
      extend_prefix(prefix, candidates, {}, fresh);
    }
    memo_store_block(scores, missing, fresh, make_key);
    return scores;
  }

  /// Scores the replacement move selected[position] := replacements[j] for
  /// every j. The prefix [w*1, w*s_0 ... w*s_{position-1}] is
  /// factored once and each trial appends its candidate and then the
  /// suffix s_{position+1} ....
  std::vector<double> score_replacements(std::span<const TermId> selected,
                                         std::size_t position,
                                         std::span<const TermId> replacements) {
    const auto make_key = [&](std::size_t j, std::vector<TermId>& key) {
      key.assign(selected.begin(), selected.end());
      key[position] = replacements[j];
    };
    std::vector<double> scores(replacements.size(), kInfinity);
    const std::vector<std::size_t> missing =
        memo_lookup_block(scores, make_key);
    if (missing.empty()) return scores;
    const std::size_t k = selected.size();
    std::vector<double> fresh(missing.size(), kInfinity);
    if (data.size() >= k + 2) {
      // Each trial reads its k columns through the cache exactly as a
      // from-scratch scoring would, so the basis-column counters do not
      // depend on how the factorization is shared.
      Columns kept(k, nullptr);
      Columns candidates;
      candidates.reserve(missing.size());
      for (std::size_t j : missing) {
        for (std::size_t t = 0; t < k; ++t) {
          if (t == position) {
            candidates.push_back(&cache.column(replacements[j]));
          } else {
            kept[t] = &cache.column(selected[t]);
          }
        }
      }
      const auto split = kept.begin() + static_cast<std::ptrdiff_t>(position);
      extend_prefix(Columns(kept.begin(), split), candidates,
                    Columns(split + 1, kept.end()), fresh);
    }
    memo_store_block(scores, missing, fresh, make_key);
    return scores;
  }
};

FitEngine::FitEngine(const MeasurementSet& data, const FitOptions& options)
    : impl_(std::make_unique<Impl>(data, options)) {}

FitEngine::~FitEngine() = default;

const MeasurementSet& FitEngine::data() const { return impl_->data; }
std::size_t FitEngine::thread_count() const { return impl_->threads; }
exareq::ThreadPool* FitEngine::pool() const { return impl_->pool; }

double FitEngine::cv_score(const std::vector<Term>& basis) {
  return impl_->cv_score(impl_->intern_all(basis));
}

std::vector<double> FitEngine::score_extensions(
    const std::vector<Term>& selected, const std::vector<Term>& extensions) {
  return impl_->score_extensions_batch(impl_->intern_all(selected),
                                       impl_->intern_all(extensions));
}

FitResult FitEngine::refit(const std::vector<Term>& basis) {
  exareq::require(!impl_->data.empty(), "refit_hypothesis: empty measurement set");
  const auto started = std::chrono::steady_clock::now();
  const std::vector<TermId> ids = impl_->intern_all(basis);
  const CoefficientFit fit = impl_->fit_coefficients(impl_->columns_for(ids));
  if (!fit.admissible) {
    throw exareq::NumericError(
        "refit_hypothesis: hypothesis inadmissible for this data "
        "(underdetermined, rank-deficient, or negative coefficients)");
  }
  FitResult result;
  result.model = make_model(impl_->data, basis, fit);
  result.quality =
      evaluate_quality(impl_->data, result.model, impl_->cv_score(ids));
  result.stats = stats();
  result.stats.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started)
          .count();
  return result;
}

EngineStats FitEngine::stats() const {
  EngineStats snapshot;
  snapshot.hypotheses_scored = impl_->hypotheses.load();
  snapshot.score_cache_hits = impl_->score_hits.load();
  snapshot.cv_solves = impl_->solves.load();
  snapshot.qr_extensions = impl_->extension_count.load();
  snapshot.downdates = impl_->downdate_count.load();
  snapshot.basis_column_hits = impl_->cache.hits();
  snapshot.basis_columns_built = impl_->cache.misses();
  snapshot.threads = impl_->threads;
  return snapshot;
}

double cross_validation_score(const MeasurementSet& data,
                              const std::vector<Term>& basis,
                              const FitOptions& options) {
  FitEngine engine(data, options);
  return engine.cv_score(basis);
}

FitResult refit_hypothesis(const MeasurementSet& data, const std::vector<Term>& basis,
                           const FitOptions& options) {
  exareq::require(!data.empty(), "refit_hypothesis: empty measurement set");
  const auto started = std::chrono::steady_clock::now();
  FitEngine engine(data, options);
  FitResult result = engine.refit(basis);
  result.stats.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started)
          .count();
  return result;
}

namespace {

struct ScoredCandidate {
  std::size_t pool_index = 0;
  double score = kInfinity;
  double complexity = 0.0;
};

/// The search's view of the pool: the terms and their interned ids.
struct Pool {
  const std::vector<Term>& terms;
  std::vector<TermId> ids;
};

/// A hypothesis as pool indices, in column order.
struct Hypothesis {
  std::vector<std::size_t> selected;
  double score = kInfinity;

  double complexity(const Pool& pool) const {
    double total = 0.0;
    for (std::size_t index : selected) total += pool.terms[index].complexity();
    return total;
  }

  std::vector<TermId> ids(const Pool& pool) const {
    std::vector<TermId> out;
    out.reserve(selected.size());
    for (std::size_t index : selected) out.push_back(pool.ids[index]);
    return out;
  }

  std::vector<Term> terms(const Pool& pool) const {
    std::vector<Term> out;
    out.reserve(selected.size());
    for (std::size_t index : selected) out.push_back(pool.terms[index]);
    return out;
  }
};

bool duplicates_selected(const Pool& pool, const std::vector<std::size_t>& selected,
                         const Term& term, std::size_t skip_position = SIZE_MAX) {
  for (std::size_t i = 0; i < selected.size(); ++i) {
    if (i != skip_position && pool.terms[selected[i]].same_basis(term)) {
      return true;
    }
  }
  return false;
}

/// Scores every pool term as an extension of `selected` (duplicates and
/// inadmissible hypotheses excluded), best score first. The whole
/// generation goes through the engine's batched scorer — one shared-prefix
/// factorization, one column update per candidate — with candidates running
/// in parallel across the engine's pool; the ranking itself is a serial
/// reduction in pool order, so the result is thread-count invariant.
std::vector<ScoredCandidate> score_extensions(FitEngine::Impl& engine,
                                              const Pool& pool,
                                              const Hypothesis& hypothesis) {
  std::vector<std::size_t> eligible;
  eligible.reserve(pool.terms.size());
  for (std::size_t i = 0; i < pool.terms.size(); ++i) {
    if (!duplicates_selected(pool, hypothesis.selected, pool.terms[i])) {
      eligible.push_back(i);
    }
  }
  std::vector<TermId> extensions;
  extensions.reserve(eligible.size());
  for (std::size_t index : eligible) extensions.push_back(pool.ids[index]);
  std::vector<double> scores;
  {
    obs::ScopedSpan span("score_extensions", "model");
    span.arg("candidates", static_cast<double>(eligible.size()));
    span.arg("selected_terms", static_cast<double>(hypothesis.selected.size()));
    scores = engine.score_extensions_batch(hypothesis.ids(pool), extensions);
  }

  std::vector<ScoredCandidate> candidates;
  candidates.reserve(eligible.size());
  for (std::size_t j = 0; j < eligible.size(); ++j) {
    if (!std::isfinite(scores[j])) continue;
    candidates.push_back(
        {eligible[j], scores[j], pool.terms[eligible[j]].complexity()});
  }
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const ScoredCandidate& a, const ScoredCandidate& b) {
                     return a.score < b.score;
                   });
  return candidates;
}

/// The tie rule: among candidates within kTieTolerance of the best score,
/// prefer the structurally simplest.
const ScoredCandidate* pick_candidate(
    const std::vector<ScoredCandidate>& candidates) {
  if (candidates.empty()) return nullptr;
  const double best_score = candidates.front().score;
  const ScoredCandidate* chosen = nullptr;
  for (const ScoredCandidate& c : candidates) {
    if (c.score > best_score * (1.0 + kTieTolerance) + 1e-12) continue;
    if (chosen == nullptr || c.complexity < chosen->complexity) chosen = &c;
  }
  return chosen;
}

/// Greedy continuation: keeps adding the best significant term.
void grow_hypothesis(FitEngine::Impl& engine, const Pool& pool,
                     Hypothesis& hypothesis) {
  while (hypothesis.selected.size() < kMaxTerms &&
         hypothesis.score > kScoreTolerance) {
    const auto candidates = score_extensions(engine, pool, hypothesis);
    const ScoredCandidate* chosen = pick_candidate(candidates);
    if (chosen == nullptr) break;
    const bool significant =
        chosen->score < hypothesis.score * (1.0 - kImprovementThreshold);
    if (!significant) break;
    hypothesis.selected.push_back(chosen->pool_index);
    hypothesis.score = chosen->score;
  }
}

/// Local-search refinement: tries replacing every selected term with every
/// pool term (accepting clear improvements) and dropping terms that do not
/// pull their weight. Escapes local optima the greedy growth cannot leave —
/// the PMNF grid is full of near-degenerate shapes, and the exact hypothesis
/// often differs from the greedy one only in a single factor. Replacement
/// candidates for one position share one factorization of the terms before
/// it and are scored in parallel; the winner is chosen by a serial scan in
/// pool order, matching the sequential semantics exactly.
void refine_hypothesis(FitEngine::Impl& engine, const Pool& pool,
                       Hypothesis& hypothesis) {
  for (int round = 0; round < 4; ++round) {
    bool improved = false;

    // Replacement moves.
    for (std::size_t position = 0; position < hypothesis.selected.size();
         ++position) {
      const Term& current = pool.terms[hypothesis.selected[position]];
      std::vector<std::size_t> trials;
      std::vector<TermId> replacements;
      trials.reserve(pool.terms.size());
      replacements.reserve(pool.terms.size());
      for (std::size_t i = 0; i < pool.terms.size(); ++i) {
        if (duplicates_selected(pool, hypothesis.selected, pool.terms[i],
                                position) ||
            current.same_basis(pool.terms[i])) {
          continue;
        }
        trials.push_back(i);
        replacements.push_back(pool.ids[i]);
      }
      const std::vector<double> scores = engine.score_replacements(
          hypothesis.ids(pool), position, replacements);
      std::size_t best_index = SIZE_MAX;
      double best_score = hypothesis.score;
      for (std::size_t j = 0; j < trials.size(); ++j) {
        if (scores[j] < best_score * (1.0 - kTieTolerance) - 1e-15) {
          best_score = scores[j];
          best_index = trials[j];
        }
      }
      if (best_index != SIZE_MAX) {
        hypothesis.selected[position] = best_index;
        hypothesis.score = best_score;
        improved = true;
      }
    }

    // Pruning moves: drop any term whose removal does not hurt the score
    // beyond the tie tolerance (simpler models extrapolate better).
    for (std::size_t position = 0; position < hypothesis.selected.size();) {
      Hypothesis trial = hypothesis;
      trial.selected.erase(trial.selected.begin() +
                           static_cast<std::ptrdiff_t>(position));
      const double score = engine.cv_score(trial.ids(pool));
      // A term is dropped when its removal keeps the score within the tie
      // band or below the noise floor — it was fitting sub-noise residuals.
      const double keep_bound =
          std::max(hypothesis.score * (1.0 + kTieTolerance), kScoreTolerance);
      if (std::isfinite(score) && score <= keep_bound + 1e-15) {
        hypothesis.selected = std::move(trial.selected);
        hypothesis.score = score;
        improved = true;
      } else {
        ++position;
      }
    }

    if (!improved) break;
  }
}

}  // namespace

FitResult fit_with_pool_engine(FitEngine& engine_handle,
                               const std::vector<Term>& pool_terms) {
  FitEngine::Impl& engine = *engine_handle.impl_;
  const MeasurementSet& data = engine.data;
  const auto started = std::chrono::steady_clock::now();
  obs::ScopedSpan span("fit_with_pool", "model");
  span.arg("pool_terms", static_cast<double>(pool_terms.size()));
  span.arg("points", static_cast<double>(data.size()));
  const EngineStats stats_before = engine_handle.stats();
  exareq::require(!data.empty(), "fit_with_pool: empty measurement set");
  const Pool pool{pool_terms, engine.intern_all(pool_terms)};

  double constant_score = engine.cv_score({});
  // A constant hypothesis can be inadmissible only for tiny data sets; fall
  // back to scoring it as the in-sample error then.
  if (!std::isfinite(constant_score)) {
    const double scale = observation_scale(data.values());
    const double constant = exareq::mean(data.values());
    constant_score = 0.0;
    for (double v : data.values()) {
      constant_score += relative_error(constant, v, scale);
    }
    constant_score /= static_cast<double>(data.size());
  }

  // Branch on the most promising first terms (beam), continue each greedily,
  // keep the best final hypothesis. The PMNF grid contains near-degenerate
  // shapes, so the best *single* term is not always the right foundation.
  Hypothesis best;
  best.score = constant_score;
  if (constant_score > kScoreTolerance) {
    const auto first_candidates = score_extensions(engine, pool, Hypothesis{});
    // Branch on every candidate whose single-term score sits within a
    // factor of the best one (the PMNF grid clusters many near-degenerate
    // shapes at the top, and the right *foundation* term is frequently not
    // the single best fit), bounded by a hard cap for cost control.
    const double band =
        first_candidates.empty() ? 0.0 : first_candidates.front().score * 4.0;
    std::size_t branched = 0;
    for (const ScoredCandidate& seed : first_candidates) {
      if (branched >= kBeamWidth &&
          (branched >= kMaxBeamWidth || seed.score > band)) {
        break;
      }
      const bool significant =
          seed.score < constant_score * (1.0 - kImprovementThreshold);
      if (!significant) break;  // candidates are sorted; none further qualify
      ++branched;
      Hypothesis branch;
      branch.selected = {seed.pool_index};
      branch.score = seed.score;
      grow_hypothesis(engine, pool, branch);
      refine_hypothesis(engine, pool, branch);
      const bool better =
          branch.score < best.score * (1.0 - kTieTolerance) - 1e-12;
      const bool tied_but_simpler =
          branch.score < best.score * (1.0 + kTieTolerance) + 1e-12 &&
          branch.complexity(pool) < best.complexity(pool);
      if (better || (tied_but_simpler && !best.selected.empty())) {
        best = std::move(branch);
      }
    }
  }

  double current_score = best.score;

  // Negligible-term pruning: refit, measure each term's largest relative
  // contribution over the data, and drop terms below the threshold.
  for (bool pruned = true; pruned && !best.selected.empty();) {
    pruned = false;
    const std::vector<Term> selected = best.terms(pool);
    const CoefficientFit trial_fit =
        engine.fit_coefficients(engine.columns_for(best.ids(pool)));
    if (!trial_fit.admissible) break;
    const Model trial_model = make_model(data, selected, trial_fit);
    for (std::size_t t = 0; t < selected.size(); ++t) {
      Term contributing = selected[t];
      contributing.coefficient = trial_fit.coefficients[t];
      double max_share = 0.0;
      for (std::size_t k = 0; k < data.size(); ++k) {
        const double total = std::fabs(trial_model.evaluate(data.coordinate(k)));
        if (total <= 0.0) continue;
        max_share = std::max(
            max_share,
            std::fabs(contributing.evaluate(data.coordinate(k))) / total);
      }
      if (max_share >= kMinTermContribution) continue;
      Hypothesis trial = best;
      trial.selected.erase(trial.selected.begin() + static_cast<std::ptrdiff_t>(t));
      const double rescored = engine.cv_score(trial.ids(pool));
      // The pruned basis can be CV-inadmissible even though the full
      // hypothesis was fine (the dropped term may be what keeps a fold fit
      // non-negative or stable). Pruning must never launder a finite score
      // into +inf: keep the term and the pre-prune score in that case.
      if (!std::isfinite(rescored)) continue;
      best.selected = std::move(trial.selected);
      current_score = rescored;
      pruned = true;
      break;
    }
  }

  std::vector<Term> selected = best.terms(pool);
  CoefficientFit fit =
      engine.fit_coefficients(engine.columns_for(best.ids(pool)));
  if (!fit.admissible) {
    // Degenerate data (fewer points than coefficients was excluded by the
    // CV admissibility test, so this only happens for the constant case on
    // a single point); fall back to the constant model.
    selected.clear();
    fit.constant = exareq::mean(data.values());
    fit.coefficients.clear();
    fit.admissible = true;
  }

  FitResult result;
  result.model = make_model(data, selected, fit);
  result.quality = evaluate_quality(data, result.model, current_score);
  result.stats = engine_handle.stats();
  result.stats.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started)
          .count();

  // Publish this call's share of the engine counters (the engine may be
  // reused, so the registry gets the delta, not the running totals). The
  // references are resolved once: multi-parameter ranking funnels thousands
  // of small slice fits through here, so per-call registry lookups would
  // show up as measurable overhead.
  auto& metrics = obs::MetricRegistry::instance();
  static obs::Counter& fits_counter = metrics.counter("model.fits");
  static obs::Counter& hypotheses_counter =
      metrics.counter("model.hypotheses_scored");
  static obs::Counter& cache_hits_counter =
      metrics.counter("model.score_cache_hits");
  static obs::Counter& cv_solves_counter = metrics.counter("model.cv_solves");
  static obs::Counter& extensions_counter =
      metrics.counter("model.qr_extensions");
  static obs::Counter& downdates_counter = metrics.counter("model.downdates");
  static obs::Counter& columns_counter =
      metrics.counter("model.basis_columns_built");
  fits_counter.add(1);
  hypotheses_counter.add(result.stats.hypotheses_scored -
                         stats_before.hypotheses_scored);
  cache_hits_counter.add(result.stats.score_cache_hits -
                         stats_before.score_cache_hits);
  cv_solves_counter.add(result.stats.cv_solves - stats_before.cv_solves);
  extensions_counter.add(result.stats.qr_extensions -
                         stats_before.qr_extensions);
  downdates_counter.add(result.stats.downdates - stats_before.downdates);
  columns_counter.add(result.stats.basis_columns_built -
                      stats_before.basis_columns_built);
  span.arg("cv_solves", static_cast<double>(result.stats.cv_solves -
                                            stats_before.cv_solves));
  span.arg("qr_extensions", static_cast<double>(result.stats.qr_extensions -
                                                stats_before.qr_extensions));
  span.arg("downdates", static_cast<double>(result.stats.downdates -
                                            stats_before.downdates));
  span.arg("selected_terms", static_cast<double>(selected.size()));
  return result;
}

FitResult fit_with_pool(const MeasurementSet& data, const std::vector<Term>& pool,
                        const FitOptions& options) {
  const auto started = std::chrono::steady_clock::now();
  FitEngine engine(data, options);
  FitResult result = fit_with_pool_engine(engine, pool);
  result.stats.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started)
          .count();
  return result;
}

std::vector<Term> single_factor_pool(const SearchSpace& space,
                                     std::span<const SpecialFn> collectives) {
  std::vector<Term> pool;
  for (const Factor& factor : space.factors_for(0, collectives)) {
    Term term;
    term.coefficient = 1.0;
    term.factors = {factor};
    pool.push_back(std::move(term));
  }
  return pool;
}

FitResult fit_single_parameter(const MeasurementSet& data, const SearchSpace& space,
                               const FitOptions& options) {
  exareq::require(data.parameter_count() == 1,
                  "fit_single_parameter: data must have exactly one parameter");
  return fit_with_pool(data, single_factor_pool(space), options);
}

}  // namespace exareq::model
