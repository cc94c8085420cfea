#include "model/multiparam.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <span>
#include <string>

#include "obs/trace.hpp"
#include "support/error.hpp"

namespace exareq::model {
namespace {

/// Chooses the anchor coordinate whose slice along `parameter` contains the
/// most points, preferring small values in the other parameters (cheap runs,
/// as in the paper's measurement methodology).
Coordinate best_anchor(const MeasurementSet& data, std::size_t parameter) {
  Coordinate best;
  std::size_t best_size = 0;
  for (std::size_t k = 0; k < data.size(); ++k) {
    const Coordinate& candidate = data.coordinate(k);
    const std::size_t size = data.slice(parameter, candidate).size();
    bool better = size > best_size;
    if (size == best_size && !best.empty()) {
      // Tie: prefer lexicographically smaller other-parameter values.
      for (std::size_t l = 0; l < candidate.size(); ++l) {
        if (l == parameter) continue;
        if (candidate[l] != best[l]) {
          better = candidate[l] < best[l];
          break;
        }
      }
    }
    if (better) {
      best = candidate;
      best_size = size;
    }
  }
  return best;
}

bool contains_factor(const std::vector<Factor>& factors, const Factor& f) {
  // Ranking happens on single-parameter slices (parameter index 0), so
  // compare shape only.
  for (const Factor& existing : factors) {
    if (existing.poly_exponent == f.poly_exponent &&
        existing.log_exponent == f.log_exponent && existing.special == f.special) {
      return true;
    }
  }
  return false;
}

/// Whether collectives attach to the parameter called `name`: the process
/// count of a communication metric.
bool collective_parameter(const std::string& name, const MetricTraits& traits) {
  return traits.is_communication && name == kProcessParameter;
}

/// The collectives admissible as factors of the parameter called `name`.
std::span<const SpecialFn> admissible_collectives(const std::string& name,
                                                  const MetricTraits& traits) {
  if (!collective_parameter(name, traits)) return {};
  return traits.collectives;
}

}  // namespace

std::vector<Factor> rank_candidate_factors(const MeasurementSet& slice,
                                           std::size_t parameter,
                                           const MetricTraits& traits,
                                           const GeneratorOptions& options,
                                           EngineStats* stats_out) {
  exareq::require(slice.parameter_count() == 1,
                  "rank_candidate_factors: slice must be single-parameter");
  const auto started = std::chrono::steady_clock::now();
  obs::ScopedSpan span("rank_candidate_factors", "model");
  span.arg("parameter", static_cast<double>(parameter));
  span.arg("slice_points", static_cast<double>(slice.size()));
  const std::string& name = slice.parameter_names()[0];

  // One engine per slice: the ranking, and below it the greedy slice fit,
  // share the basis-column cache and score memo. All single-factor
  // candidates are scored as one batch (empty selected prefix) through the
  // engine's generation scorer, in parallel on its pool; ranking itself is
  // a serial stable sort, so the result is thread-count invariant.
  FitEngine engine(slice, options.fit);
  const std::vector<Term> candidate_terms =
      single_factor_pool(options.space, admissible_collectives(name, traits));
  const std::vector<double> scores = engine.score_extensions({}, candidate_terms);

  struct Scored {
    Factor factor;
    double score;
  };
  std::vector<Scored> scored;
  for (std::size_t i = 0; i < candidate_terms.size(); ++i) {
    if (std::isfinite(scores[i])) {
      scored.push_back({candidate_terms[i].factors.front(), scores[i]});
    }
  }
  std::stable_sort(scored.begin(), scored.end(), [](const Scored& a, const Scored& b) {
    return a.score < b.score;
  });

  std::vector<Factor> ranked;
  for (const Scored& s : scored) {
    if (ranked.size() >= kTopFactorsPerParameter) break;
    ranked.push_back(s.factor);
  }

  // The slice may be an additive mixture of shapes that no single factor
  // explains; a greedy multi-term fit on the slice surfaces exactly those
  // component factors, so merge them in. The fit reuses the slice engine,
  // so every single-factor hypothesis it scores is a memo hit.
  if (slice.size() >= 4) {
    // Known leak (docs/MODELING.md §5): on a collective parameter the slice
    // fit searches all three collectives, not just the admissible
    // `candidate_terms`, so a collective the metric never called can enter
    // the joint pool. Kept until the pinned clean fits are re-pinned.
    std::span<const SpecialFn> slice_collectives;
    if (collective_parameter(name, traits)) slice_collectives = kCollectives;
    const FitResult slice_fit = fit_with_pool_engine(
        engine, single_factor_pool(options.space, slice_collectives));
    for (const Term& term : slice_fit.model.terms()) {
      for (const Factor& factor : term.factors) {
        if (!contains_factor(ranked, factor)) ranked.push_back(factor);
      }
    }
  }

  // Canonical shapes are always admitted: when a parameter's effect on the
  // slice is near the noise floor, the ranking above is essentially random,
  // yet the joint fit over the full grid may still identify a clean linear
  // or logarithmic dependence — provided the factor is in the pool.
  for (const Factor& canonical :
       {pmnf_factor(0, 1.0, 0.0), pmnf_factor(0, 0.0, 1.0),
        pmnf_factor(0, 0.5, 0.0), pmnf_factor(0, 1.0, 1.0)}) {
    if (!contains_factor(ranked, canonical)) ranked.push_back(canonical);
  }

  for (Factor& factor : ranked) factor.parameter = parameter;
  if (stats_out != nullptr) {
    EngineStats slice_stats = engine.stats();
    slice_stats.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      started)
            .count();
    *stats_out += slice_stats;
  }
  return ranked;
}

std::vector<Term> build_joint_pool(
    const std::vector<std::vector<Factor>>& factors_per_parameter) {
  std::vector<Term> pool;
  const std::size_t m = factors_per_parameter.size();

  const auto add_term = [&pool](std::vector<Factor> factors) {
    Term term;
    term.coefficient = 1.0;
    term.factors = std::move(factors);
    for (const Term& existing : pool) {
      if (existing.same_basis(term)) return;
    }
    pool.push_back(std::move(term));
  };

  for (const auto& factors : factors_per_parameter) {
    for (const Factor& f : factors) add_term({f});
  }
  for (std::size_t l1 = 0; l1 < m; ++l1) {
    for (std::size_t l2 = l1 + 1; l2 < m; ++l2) {
      for (const Factor& f1 : factors_per_parameter[l1]) {
        for (const Factor& f2 : factors_per_parameter[l2]) {
          add_term({f1, f2});
        }
      }
    }
  }
  if (m >= 3) {
    // Full product of each parameter's best factor; higher-order mixed
    // products explode combinatorially and rarely win cross-validation.
    std::vector<Factor> best;
    for (const auto& factors : factors_per_parameter) {
      if (factors.empty()) {
        best.clear();
        break;
      }
      best.push_back(factors.front());
    }
    if (!best.empty()) add_term(std::move(best));
  }
  return pool;
}

std::vector<Term> multi_parameter_pool(const MeasurementSet& data,
                                       const MetricTraits& traits,
                                       const GeneratorOptions& options,
                                       EngineStats* stats_out) {
  const std::size_t m = data.parameter_count();
  if (m == 1) {
    return single_factor_pool(
        options.space, admissible_collectives(data.parameter_names()[0], traits));
  }
  std::vector<std::vector<Factor>> factors_per_parameter(m);
  for (std::size_t l = 0; l < m; ++l) {
    const Coordinate anchor = best_anchor(data, l);
    const MeasurementSet slice = data.slice(l, anchor);
    factors_per_parameter[l] =
        rank_candidate_factors(slice, l, traits, options, stats_out);
  }
  return build_joint_pool(factors_per_parameter);
}

}  // namespace exareq::model
