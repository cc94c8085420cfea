// Hypothesis search space of the model generator.
//
// The paper (Sec. III) generates models "considering polynomial and
// logarithmic exponents. The polynomial exponents take values between 0 and
// 3, including all fractions of the types i/8 and i/3. For logarithms, we
// used the exponents {0; 0.5; 1; 1.5; 2}." This module materializes exactly
// that grid, optionally extended by the named collective functions used for
// communication metrics.
#pragma once

#include <array>
#include <span>
#include <vector>

#include "model/basis.hpp"

namespace exareq::model {

/// The named collective functions, in the order factors_for appends them.
inline constexpr std::array<SpecialFn, 3> kCollectives{
    SpecialFn::kAllreduce, SpecialFn::kBcast, SpecialFn::kAlltoall};

/// The exponent grid from which candidate factors are drawn.
struct SearchSpace {
  std::vector<double> poly_exponents;
  std::vector<double> log_exponents;

  /// The paper's grid: poly {i/8} U {i/3} for 0 <= value <= 3,
  /// log {0, 0.5, 1, 1.5, 2}.
  static SearchSpace paper_default();

  /// A coarser grid (integer and half-integer poly exponents) for quick
  /// fits and for ablation benchmarks.
  static SearchSpace coarse();

  /// All candidate factors for one parameter (identity excluded, sorted by
  /// ascending complexity): the grid's PMNF factors plus one factor per
  /// collective function named in `collectives` (communication metrics in
  /// the process count). The collectives keep the kCollectives order
  /// whatever order `collectives` lists them in.
  std::vector<Factor> factors_for(
      std::size_t parameter, std::span<const SpecialFn> collectives = {}) const;
};

}  // namespace exareq::model
