#include "testkit/reference_fit.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <optional>

#include "model/linalg.hpp"
#include "support/stats.hpp"

namespace exareq::testkit {
namespace {

/// Relative rounding of production's PRESS residual e / (1 - h) per unit
/// of leverage amplification 1 / (1 - h): 1 - h is formed as 1 - |u|^2,
/// whose few ulps of absolute error become relative error 1 / (1 - h)
/// times larger. Against a long-double refit it measured up to 6e-16 per
/// unit on the planted cases examined, and over planted seeds 1-10 the
/// widest production-vs-reference gap used about half of this band.
constexpr double kPressRounding = 1e-14;

std::string render(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string describe(const model::MeasurementSet& data,
                     const std::vector<model::Term>& basis) {
  std::string out = "{1";
  for (const model::Term& term : basis) {
    out += ", " + term.to_string(data.parameter_names());
  }
  return out + "}";
}

bool duplicates(const std::vector<model::Term>& selected,
                const model::Term& term) {
  return std::any_of(selected.begin(), selected.end(),
                     [&](const model::Term& t) { return t.same_basis(term); });
}

}  // namespace

ReferenceScore reference_cv_score(const model::MeasurementSet& data,
                                  const std::vector<model::Term>& basis,
                                  std::size_t* solves) {
  ReferenceScore inadmissible;
  const std::size_t m = data.size();
  const std::size_t k = basis.size();
  if (m < k + 2) return inadmissible;
  const std::vector<double>& y = data.values();

  double scale = 0.0;
  for (double v : y) scale = std::max(scale, std::fabs(v));
  if (scale == 0.0) scale = 1.0;
  const auto denominator = [&](double observed) {
    return std::max(std::fabs(observed), 1e-9 * scale);
  };
  // Relative residuals: row r weighs 1 / denominator(y_r), like the engine.
  std::vector<double> weights(m);
  for (std::size_t r = 0; r < m; ++r) weights[r] = 1.0 / denominator(y[r]);

  std::vector<std::vector<double>> columns(k, std::vector<double>(m));
  for (std::size_t c = 0; c < k; ++c) {
    for (std::size_t r = 0; r < m; ++r) {
      columns[c][r] = basis[c].evaluate_basis(data.coordinate(r));
    }
  }
  // The sign rule's sizes, over every measured point: the weighted
  // observations and each weighted column.
  double rhs_scale = 0.0;
  for (std::size_t r = 0; r < m; ++r) {
    rhs_scale = std::max(rhs_scale, std::fabs(weights[r] * y[r]));
  }
  std::vector<double> column_scale(k, 0.0);
  for (std::size_t c = 0; c < k; ++c) {
    for (std::size_t r = 0; r < m; ++r) {
      column_scale[c] =
          std::max(column_scale[c], std::fabs(weights[r] * columns[c][r]));
    }
  }
  const auto rounded = [&](std::size_t c, double coefficient) {
    return model::negligible_coefficient(coefficient, column_scale[c],
                                         rhs_scale)
               ? 0.0
               : coefficient;
  };

  // Solves [1, basis...] x ~ rhs on every row but `skip` (none when
  // skip == m), weighted like the engine.
  const auto solve = [&](std::size_t skip, const std::vector<double>& rhs) {
    const std::size_t rows = skip < m ? m - 1 : m;
    model::Matrix a(rows, k + 1);
    std::vector<double> b(rows);
    std::vector<double> w(rows);
    std::size_t row = 0;
    for (std::size_t r = 0; r < m; ++r) {
      if (r == skip) continue;
      a(row, 0) = 1.0;
      for (std::size_t c = 0; c < k; ++c) a(row, c + 1) = columns[c][r];
      b[row] = rhs[r];
      w[row] = weights[r];
      ++row;
    }
    if (solves != nullptr) ++*solves;
    return model::weighted_least_squares(a, b, w);
  };
  // The admissible coefficients of the fit without row `skip`, if any.
  const auto fit = [&](std::size_t skip) -> std::optional<std::vector<double>> {
    const model::LeastSquaresResult solved = solve(skip, y);
    if (solved.rank_deficient) return std::nullopt;
    for (double c : solved.solution) {
      if (!std::isfinite(c)) return std::nullopt;
    }
    for (std::size_t c = 0; c < k; ++c) {
      if (rounded(c, solved.solution[c + 1]) < 0.0) return std::nullopt;
    }
    return solved.solution;
  };

  if (!fit(m)) return inadmissible;
  // Leverage of each row in the full weighted fit: fitting the indicator
  // of row r (scaled by 1 / w_r) yields h_r = w_r * (a_r . x) as the
  // weighted fitted value at r. A row with 1 - h_r below 1e-12 alone
  // supports a direction of the fit, so its fold is singular — the guard
  // production applies to its downdates.
  double amplification = 1.0;
  std::vector<double> indicator(m, 0.0);
  for (std::size_t r = 0; r < m; ++r) {
    indicator[r] = 1.0 / weights[r];
    const model::LeastSquaresResult solved = solve(m, indicator);
    indicator[r] = 0.0;
    double fitted = solved.solution[0];
    for (std::size_t c = 0; c < k; ++c) {
      fitted += solved.solution[c + 1] * columns[c][r];
    }
    const double spare = 1.0 - weights[r] * fitted;
    if (spare < 1e-12) return inadmissible;
    amplification = std::max(amplification, 1.0 / spare);
  }

  double total = 0.0;
  std::vector<std::vector<double>> fold_coefficients(k, std::vector<double>(m));
  for (std::size_t left_out = 0; left_out < m; ++left_out) {
    const std::optional<std::vector<double>> solution = fit(left_out);
    if (!solution) return inadmissible;
    double predicted = (*solution)[0];
    for (std::size_t c = 0; c < k; ++c) {
      predicted += (*solution)[c + 1] * columns[c][left_out];
      fold_coefficients[c][left_out] = rounded(c, (*solution)[c + 1]);
    }
    total += std::fabs(predicted - y[left_out]) / denominator(y[left_out]);
  }
  for (const std::vector<double>& run : fold_coefficients) {
    const double size = std::max(std::fabs(exareq::mean(run)), 1e-300);
    if (exareq::stddev(run) > model::kMaxCoefficientSpread * size) {
      return inadmissible;
    }
  }
  return {total / static_cast<double>(m), amplification};
}

std::string diff_scores(const std::string& label, double production,
                        const ReferenceScore& reference) {
  const double expected = reference.score < model::kRoundingFloor
                              ? 0.0
                              : reference.score;
  if (std::isinf(production) || std::isinf(expected)) {
    if (production == expected) return {};
    return label + ": verdicts diverge: production " + render(production) +
           " vs reference " + render(expected);
  }
  const double relative =
      std::max(1e-7, kPressRounding * reference.amplification);
  const double tolerance = std::max(1e-12, relative * std::fabs(expected));
  if (std::fabs(production - expected) <= tolerance) return {};
  return label + ": scores diverge beyond tolerance: production " +
         render(production) + " vs reference " + render(expected) +
         " (leverage amplification " + render(reference.amplification) + ")";
}

std::vector<model::Term> selected_basis(const model::Model& model) {
  std::vector<model::Term> basis = model.terms();
  for (model::Term& term : basis) term.coefficient = 1.0;
  return basis;
}

NeighbourhoodCheck check_neighbourhood(const model::MeasurementSet& data,
                                       const std::vector<model::Term>& pool,
                                       const std::vector<model::Term>& selected,
                                       double reported_cv,
                                       const model::FitOptions& options) {
  NeighbourhoodCheck check;
  model::FitEngine engine(data, options);
  // Scores `basis` with the reference and records the first disagreement
  // with production's score; returns the reference score.
  const auto compare = [&](const std::vector<model::Term>& basis,
                           double production) {
    ++check.hypotheses;
    const ReferenceScore reference =
        reference_cv_score(data, basis, &check.reference_solves);
    if (check.diff.empty()) {
      check.diff = diff_scores(describe(data, basis), production, reference);
    }
    return reference;
  };

  const ReferenceScore reference =
      compare(selected, engine.cv_score(selected));
  if (check.diff.empty()) {
    check.diff = diff_scores("reported cv of " + describe(data, selected),
                             reported_cv, reference);
  }

  std::vector<model::Term> extensions;
  for (const model::Term& term : pool) {
    if (!duplicates(selected, term)) extensions.push_back(term);
  }
  const std::vector<double> extended =
      engine.score_extensions(selected, extensions);
  for (std::size_t j = 0; j < extensions.size() && check.diff.empty(); ++j) {
    std::vector<model::Term> basis = selected;
    basis.push_back(extensions[j]);
    compare(basis, extended[j]);
  }

  for (std::size_t position = 0;
       position < selected.size() && check.diff.empty(); ++position) {
    for (std::size_t j = 0; j < extensions.size() && check.diff.empty(); ++j) {
      std::vector<model::Term> basis = selected;
      basis[position] = extensions[j];
      compare(basis, engine.cv_score(basis));
    }
  }

  for (std::size_t position = 0;
       position < selected.size() && check.diff.empty(); ++position) {
    std::vector<model::Term> basis = selected;
    basis.erase(basis.begin() + static_cast<std::ptrdiff_t>(position));
    compare(basis, engine.cv_score(basis));
  }
  check.production = engine.stats();
  return check;
}

}  // namespace exareq::testkit
