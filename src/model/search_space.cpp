#include "model/search_space.hpp"

#include <algorithm>
#include <cmath>

#include "support/error.hpp"

namespace exareq::model {
namespace {

std::vector<double> paper_poly_grid() {
  std::vector<double> grid;
  for (int i = 0; i <= 24; ++i) grid.push_back(static_cast<double>(i) / 8.0);
  for (int i = 0; i <= 9; ++i) grid.push_back(static_cast<double>(i) / 3.0);
  std::sort(grid.begin(), grid.end());
  // Merge near-duplicates (e.g. 0/8 and 0/3) with a tolerance far below the
  // 1/24 grid spacing.
  std::vector<double> unique;
  for (double value : grid) {
    if (unique.empty() || value - unique.back() > 1e-9) unique.push_back(value);
  }
  return unique;
}

}  // namespace

SearchSpace SearchSpace::paper_default() {
  SearchSpace space;
  space.poly_exponents = paper_poly_grid();
  space.log_exponents = {0.0, 0.5, 1.0, 1.5, 2.0};
  return space;
}

SearchSpace SearchSpace::coarse() {
  SearchSpace space;
  space.poly_exponents = {0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0};
  space.log_exponents = {0.0, 1.0, 2.0};
  return space;
}

std::vector<Factor> SearchSpace::factors_for(
    std::size_t parameter, std::span<const SpecialFn> collectives) const {
  exareq::require(!poly_exponents.empty() && !log_exponents.empty(),
                  "SearchSpace: exponent grids must be non-empty");
  std::vector<Factor> factors;
  factors.reserve(poly_exponents.size() * log_exponents.size() +
                  kCollectives.size());
  for (double i : poly_exponents) {
    for (double j : log_exponents) {
      if (i == 0.0 && j == 0.0) continue;  // identity: covered by the constant
      factors.push_back(pmnf_factor(parameter, i, j));
    }
  }
  for (SpecialFn fn : kCollectives) {
    if (std::find(collectives.begin(), collectives.end(), fn) !=
        collectives.end()) {
      factors.push_back(special_factor(parameter, fn));
    }
  }
  std::stable_sort(factors.begin(), factors.end(),
                   [](const Factor& a, const Factor& b) {
                     return a.complexity() < b.complexity();
                   });
  return factors;
}

}  // namespace exareq::model
