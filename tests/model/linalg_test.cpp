#include "model/linalg.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "support/error.hpp"
#include "support/rng.hpp"

namespace exareq::model {
namespace {

TEST(LinalgTest, MatrixAccessAndMultiply) {
  Matrix a(2, 3);
  a(0, 0) = 1.0;
  a(0, 1) = 2.0;
  a(0, 2) = 3.0;
  a(1, 0) = 4.0;
  a(1, 1) = 5.0;
  a(1, 2) = 6.0;
  const std::vector<double> x{1.0, 1.0, 1.0};
  const auto y = a.multiply(x);
  EXPECT_DOUBLE_EQ(y[0], 6.0);
  EXPECT_DOUBLE_EQ(y[1], 15.0);
}

TEST(LinalgTest, MatrixRejectsOutOfRange) {
  Matrix a(2, 2);
  EXPECT_THROW(a(2, 0), exareq::InvalidArgument);
  EXPECT_THROW(a(0, 2), exareq::InvalidArgument);
}

TEST(LinalgTest, SolvesExactSquareSystem) {
  Matrix a(2, 2);
  a(0, 0) = 2.0;
  a(0, 1) = 1.0;
  a(1, 0) = 1.0;
  a(1, 1) = 3.0;
  const std::vector<double> b{5.0, 10.0};
  const auto result = least_squares(a, b);
  EXPECT_FALSE(result.rank_deficient);
  EXPECT_NEAR(result.solution[0], 1.0, 1e-12);
  EXPECT_NEAR(result.solution[1], 3.0, 1e-12);
  EXPECT_NEAR(result.residual_norm, 0.0, 1e-10);
}

TEST(LinalgTest, OverdeterminedRecoversPlantedCoefficients) {
  Rng rng(123);
  const std::vector<double> truth{3.5, -2.0, 0.75};
  Matrix a(20, 3);
  std::vector<double> b(20);
  for (std::size_t r = 0; r < 20; ++r) {
    double acc = 0.0;
    for (std::size_t c = 0; c < 3; ++c) {
      a(r, c) = rng.uniform(-5.0, 5.0);
      acc += a(r, c) * truth[c];
    }
    b[r] = acc;
  }
  const auto result = least_squares(a, b);
  for (std::size_t c = 0; c < 3; ++c) {
    EXPECT_NEAR(result.solution[c], truth[c], 1e-10);
  }
}

TEST(LinalgTest, HandlesWildlyScaledColumns) {
  // Columns differing by 12 orders of magnitude (constant vs n^3 basis).
  Rng rng(7);
  Matrix a(10, 2);
  std::vector<double> b(10);
  for (std::size_t r = 0; r < 10; ++r) {
    const double x = 10.0 + static_cast<double>(r);
    a(r, 0) = 1.0;
    a(r, 1) = x * x * x * 1e9;
    b[r] = 4.0 + 2.5e-9 * a(r, 1);
  }
  (void)rng;
  const auto result = least_squares(a, b);
  EXPECT_NEAR(result.solution[0], 4.0, 1e-6);
  EXPECT_NEAR(result.solution[1], 2.5e-9, 1e-15);
}

TEST(LinalgTest, DetectsCollinearColumns) {
  Matrix a(5, 2);
  for (std::size_t r = 0; r < 5; ++r) {
    a(r, 0) = static_cast<double>(r + 1);
    a(r, 1) = 2.0 * static_cast<double>(r + 1);  // exactly collinear
  }
  const std::vector<double> b{1.0, 2.0, 3.0, 4.0, 5.0};
  const auto result = least_squares(a, b);
  EXPECT_TRUE(result.rank_deficient);
}

TEST(LinalgTest, DetectsZeroColumn) {
  Matrix a(4, 2);
  for (std::size_t r = 0; r < 4; ++r) {
    a(r, 0) = static_cast<double>(r + 1);
    a(r, 1) = 0.0;
  }
  const std::vector<double> b{2.0, 4.0, 6.0, 8.0};
  const auto result = least_squares(a, b);
  EXPECT_TRUE(result.rank_deficient);
  EXPECT_NEAR(result.solution[0], 2.0, 1e-12);
  EXPECT_DOUBLE_EQ(result.solution[1], 0.0);
}

TEST(LinalgTest, RequiresEnoughRows) {
  Matrix a(2, 3);
  const std::vector<double> b{1.0, 2.0};
  EXPECT_THROW(least_squares(a, b), exareq::InvalidArgument);
}

TEST(LinalgTest, ResidualNormOfInconsistentSystem) {
  // Fit a constant to {0, 2}: best value 1, residual sqrt(2).
  Matrix a(2, 1);
  a(0, 0) = 1.0;
  a(1, 0) = 1.0;
  const std::vector<double> b{0.0, 2.0};
  const auto result = least_squares(a, b);
  EXPECT_NEAR(result.solution[0], 1.0, 1e-12);
  EXPECT_NEAR(result.residual_norm, std::sqrt(2.0), 1e-12);
}

TEST(LinalgTest, WeightedLeastSquaresFavorsHeavyRows) {
  // Two incompatible observations of a constant; all weight on the second.
  Matrix a(2, 1);
  a(0, 0) = 1.0;
  a(1, 0) = 1.0;
  const std::vector<double> b{0.0, 2.0};
  const std::vector<double> w{0.0, 1.0};
  const auto result = weighted_least_squares(a, b, w);
  EXPECT_NEAR(result.solution[0], 2.0, 1e-12);
}

TEST(LinalgTest, WeightedLeastSquaresRejectsNegativeWeights) {
  Matrix a(2, 1);
  a(0, 0) = 1.0;
  a(1, 0) = 1.0;
  const std::vector<double> b{1.0, 1.0};
  const std::vector<double> w{1.0, -1.0};
  EXPECT_THROW(weighted_least_squares(a, b, w), exareq::InvalidArgument);
}

// --- RetainedQr: the batched fitter's incremental factorization --------

std::vector<double> matrix_column(const Matrix& a, std::size_t c) {
  std::vector<double> column(a.rows());
  for (std::size_t r = 0; r < a.rows(); ++r) column[r] = a(r, c);
  return column;
}

TEST(RetainedQrTest, MatchesLeastSquaresOnOverdeterminedSystem) {
  Rng rng(42);
  const std::vector<double> truth{1.25, -0.5, 6.0};
  Matrix a(12, 3);
  std::vector<double> b(12);
  for (std::size_t r = 0; r < 12; ++r) {
    double acc = 0.0;
    for (std::size_t c = 0; c < 3; ++c) {
      a(r, c) = rng.uniform(-4.0, 4.0);
      acc += a(r, c) * truth[c];
    }
    b[r] = acc + rng.uniform(-0.01, 0.01);  // keep it inconsistent
  }
  const auto reference = least_squares(a, b);
  RetainedQr qr(12, b);
  for (std::size_t c = 0; c < 3; ++c) qr.append_column(matrix_column(a, c));
  EXPECT_FALSE(qr.rank_deficient());
  qr.solve();
  for (std::size_t c = 0; c < 3; ++c) {
    EXPECT_NEAR(qr.solution()[c], reference.solution[c], 1e-12);
  }
}

TEST(RetainedQrTest, ExtensionFromCopiedPrefixMatchesStandaloneBuild) {
  // The batched scorer factors the selected prefix once and extends a copy
  // per candidate; the copy-then-append path must be bit-identical to
  // appending every column into a fresh factorization.
  Rng rng(9);
  Matrix a(10, 3);
  std::vector<double> b(10);
  for (std::size_t r = 0; r < 10; ++r) {
    for (std::size_t c = 0; c < 3; ++c) a(r, c) = rng.uniform(0.5, 8.0);
    b[r] = rng.uniform(1.0, 100.0);
  }
  RetainedQr fresh(10, b);
  for (std::size_t c = 0; c < 3; ++c) fresh.append_column(matrix_column(a, c));
  fresh.solve();

  RetainedQr prefix(10, b);
  prefix.append_column(matrix_column(a, 0));
  prefix.append_column(matrix_column(a, 1));
  RetainedQr extended = prefix;
  extended.append_column(matrix_column(a, 2));
  extended.solve();

  ASSERT_EQ(extended.cols(), fresh.cols());
  for (std::size_t c = 0; c < 3; ++c) {
    EXPECT_DOUBLE_EQ(extended.solution()[c], fresh.solution()[c]);
  }
}

TEST(RetainedQrTest, LeaveOneOutMatchesExplicitSubsetRefit) {
  Rng rng(77);
  const std::size_t m = 9;
  Matrix a(m, 2);
  std::vector<double> b(m);
  for (std::size_t r = 0; r < m; ++r) {
    a(r, 0) = 1.0;
    a(r, 1) = rng.uniform(1.0, 50.0);
    b[r] = 3.0 + 0.5 * a(r, 1) + rng.uniform(-1.0, 1.0);
  }
  RetainedQr qr(m, b);
  qr.append_column(matrix_column(a, 0));
  qr.append_column(matrix_column(a, 1));
  qr.solve();
  for (std::size_t left_out = 0; left_out < m; ++left_out) {
    std::vector<double> loo(2);
    double press = 0.0;
    ASSERT_TRUE(qr.leave_one_out(left_out, loo, &press));
    // Explicit refit over the other m - 1 rows.
    Matrix sub(m - 1, 2);
    std::vector<double> sub_b(m - 1);
    std::size_t i = 0;
    for (std::size_t r = 0; r < m; ++r) {
      if (r == left_out) continue;
      sub(i, 0) = a(r, 0);
      sub(i, 1) = a(r, 1);
      sub_b[i] = b[r];
      ++i;
    }
    const auto reference = least_squares(sub, sub_b);
    EXPECT_NEAR(loo[0], reference.solution[0], 1e-9);
    EXPECT_NEAR(loo[1], reference.solution[1], 1e-9);
    // The PRESS residual is the left-out row's prediction error under the
    // subset fit.
    const double predicted = reference.solution[0] * a(left_out, 0) +
                             reference.solution[1] * a(left_out, 1);
    EXPECT_NEAR(press, b[left_out] - predicted, 1e-9);
  }
}

TEST(RetainedQrTest, DetectsCollinearAppendedColumn) {
  std::vector<double> b{1.0, 2.0, 3.0, 4.0, 5.0};
  RetainedQr qr(5, b);
  std::vector<double> first{1.0, 2.0, 3.0, 4.0, 5.0};
  std::vector<double> collinear{2.0, 4.0, 6.0, 8.0, 10.0};
  qr.append_column(first);
  EXPECT_FALSE(qr.rank_deficient());
  qr.append_column(collinear);
  EXPECT_TRUE(qr.rank_deficient());
  EXPECT_THROW(qr.solve(), exareq::InvalidArgument);
}

TEST(RetainedQrTest, DetectsZeroColumn) {
  std::vector<double> b{2.0, 4.0, 6.0, 8.0};
  RetainedQr qr(4, b);
  qr.append_column(std::vector<double>{0.0, 0.0, 0.0, 0.0});
  EXPECT_TRUE(qr.rank_deficient());
}

TEST(RetainedQrTest, LeverageOneRowReportsSingularDowndate) {
  // Row 3 is the only row with a nonzero second coordinate: removing it
  // collapses the rank, so its leverage is 1 and the downdate must refuse.
  std::vector<double> b{1.0, 1.1, 0.9, 7.0};
  Matrix a(4, 2);
  for (std::size_t r = 0; r < 4; ++r) {
    a(r, 0) = 1.0;
    a(r, 1) = (r == 3) ? 1.0 : 0.0;
  }
  RetainedQr qr(4, b);
  qr.append_column(matrix_column(a, 0));
  qr.append_column(matrix_column(a, 1));
  ASSERT_FALSE(qr.rank_deficient());
  qr.solve();
  std::vector<double> loo(2);
  EXPECT_FALSE(qr.leave_one_out(3, loo));
  EXPECT_TRUE(qr.leave_one_out(0, loo));
}

TEST(RetainedQrTest, ValidatesArguments) {
  std::vector<double> b{1.0, 2.0, 3.0};
  RetainedQr qr(3, b);
  EXPECT_THROW(qr.append_column(std::vector<double>{1.0, 2.0}),
               exareq::InvalidArgument);
  EXPECT_THROW(qr.solve(), exareq::InvalidArgument);  // no columns yet
  qr.append_column(std::vector<double>{1.0, 1.0, 1.0});
  std::vector<double> out(1);
  EXPECT_THROW(qr.leave_one_out(0, out), exareq::InvalidArgument);  // unsolved
  qr.solve();
  EXPECT_THROW(qr.leave_one_out(3, out), exareq::InvalidArgument);  // row range
  EXPECT_THROW(qr.append_column(std::vector<double>{1.0, 2.0, 3.0}),
               exareq::InvalidArgument);  // append after solve
}

// --- RetainedQr workspaces: reuse must not change a single bit ----------

/// A random well-conditioned rows x cols design and right-hand side.
struct System {
  Matrix a;
  std::vector<double> b;
};

System random_system(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  Rng rng(seed);
  System system{Matrix(rows, cols), std::vector<double>(rows)};
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      system.a(r, c) = rng.uniform(0.5, 8.0) * std::pow(10.0, double(c % 3));
    }
    system.b[r] = rng.uniform(1.0, 100.0);
  }
  return system;
}

RetainedQr factor_fresh(const System& system, std::size_t cols) {
  RetainedQr qr(system.a.rows(), system.b);
  for (std::size_t c = 0; c < cols; ++c) {
    qr.append_column(matrix_column(system.a, c));
  }
  return qr;
}

/// Solution and every leave-one-out output of `qr` equal `reference`'s
/// bit for bit.
void expect_same_fit(RetainedQr& qr, RetainedQr& reference) {
  ASSERT_EQ(qr.cols(), reference.cols());
  ASSERT_EQ(qr.rows(), reference.rows());
  qr.solve();
  reference.solve();
  for (std::size_t c = 0; c < qr.cols(); ++c) {
    EXPECT_EQ(qr.solution()[c], reference.solution()[c]) << "column " << c;
  }
  std::vector<double> loo(qr.cols());
  std::vector<double> expected(qr.cols());
  for (std::size_t row = 0; row < qr.rows(); ++row) {
    double press = 0.0;
    double expected_press = 0.0;
    const bool ok = qr.leave_one_out(row, loo, &press);
    ASSERT_EQ(ok, reference.leave_one_out(row, expected, &expected_press));
    if (!ok) continue;
    EXPECT_EQ(press, expected_press) << "row " << row;
    for (std::size_t c = 0; c < qr.cols(); ++c) {
      EXPECT_EQ(loo[c], expected[c]) << "row " << row << ", column " << c;
    }
  }
}

TEST(RetainedQrTest, CopyAssignIntoWorkspaceThatHeldALargerSystem) {
  const System big = random_system(30, 6, 3);
  const System small = random_system(12, 3, 4);
  RetainedQr workspace = factor_fresh(big, 6);
  workspace.solve();  // a solved, wider, taller system

  const RetainedQr prefix = factor_fresh(small, 2);
  workspace = prefix;
  workspace.append_column(matrix_column(small.a, 2));
  RetainedQr reference = factor_fresh(small, 3);
  expect_same_fit(workspace, reference);
}

TEST(RetainedQrTest, CopyAssignIntoWorkspaceThatHeldASmallerSystem) {
  const System small = random_system(8, 2, 5);
  const System big = random_system(25, 5, 6);
  RetainedQr workspace = factor_fresh(small, 2);
  workspace.solve();

  const RetainedQr prefix = factor_fresh(big, 4);
  workspace = prefix;
  workspace.append_column(matrix_column(big.a, 4));
  RetainedQr reference = factor_fresh(big, 5);
  expect_same_fit(workspace, reference);

  // Copying a solved factorization carries its solution and residuals.
  RetainedQr solved = factor_fresh(big, 5);
  solved.solve();
  RetainedQr copy = factor_fresh(small, 1);
  copy = solved;
  std::vector<double> loo(5);
  std::vector<double> expected(5);
  ASSERT_TRUE(copy.leave_one_out(7, loo));
  ASSERT_TRUE(solved.leave_one_out(7, expected));
  EXPECT_EQ(loo, expected);
}

TEST(RetainedQrTest, GrowsPastItsInitialColumnCapacity) {
  // An intercept and eight terms: nine columns against an initial capacity of
  // four, so the buffers regrow twice while the factorization is live. The
  // reference is a workspace whose buffers already hold twelve columns, so
  // it appends the same nine without regrowing.
  const System system = random_system(20, 9, 7);
  RetainedQr grown(system.a.rows(), system.b);
  RetainedQr roomy = factor_fresh(random_system(30, 12, 10), 12);
  roomy.reset(system.b);
  for (std::size_t c = 0; c < 9; ++c) {
    grown.append_column(matrix_column(system.a, c));
    roomy.append_column(matrix_column(system.a, c));
  }
  ASSERT_FALSE(grown.rank_deficient());
  const auto reference = least_squares(system.a, system.b);
  expect_same_fit(grown, roomy);
  for (std::size_t c = 0; c < 9; ++c) {
    EXPECT_NEAR(grown.solution()[c], reference.solution[c],
                1e-9 * std::max(1.0, std::fabs(reference.solution[c])));
  }

  // A workspace seeded from a 3-column prefix extends past its capacity too.
  RetainedQr workspace;
  workspace = factor_fresh(system, 3);
  for (std::size_t c = 3; c < 9; ++c) {
    workspace.append_column(matrix_column(system.a, c));
  }
  RetainedQr fresh = factor_fresh(system, 9);
  expect_same_fit(workspace, fresh);
}

TEST(RetainedQrTest, ResetReusesAWorkspaceForANewSystem) {
  const System first = random_system(15, 4, 8);
  const System second = random_system(11, 3, 9);
  RetainedQr workspace = factor_fresh(first, 4);
  workspace.solve();
  workspace.reset(second.b);
  EXPECT_EQ(workspace.rows(), 11u);
  EXPECT_EQ(workspace.cols(), 0u);
  for (std::size_t c = 0; c < 3; ++c) {
    workspace.append_column(matrix_column(second.a, c));
  }
  RetainedQr reference = factor_fresh(second, 3);
  expect_same_fit(workspace, reference);
}

}  // namespace
}  // namespace exareq::model
