// Small dense linear algebra for the model fitter.
//
// The fitter solves least-squares problems with at most a handful of
// columns (one per model term) and a few dozen rows (one per measurement),
// so a straightforward Householder QR is both fast and numerically robust;
// basis columns can differ by many orders of magnitude (n^3 vs log n), so
// columns are equilibrated before factorization.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace exareq::model {

/// Row-major dense matrix of doubles.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  double& operator()(std::size_t r, std::size_t c);
  double operator()(std::size_t r, std::size_t c) const;

  /// Matrix-vector product; x.size() must equal cols().
  std::vector<double> multiply(std::span<const double> x) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// Result of a least-squares solve.
struct LeastSquaresResult {
  std::vector<double> solution;    ///< coefficient vector x
  double residual_norm = 0.0;      ///< ||A x - b||_2
  bool rank_deficient = false;     ///< a pivot column collapsed numerically
};

/// Minimizes ||A x - b||_2 via column-equilibrated Householder QR.
/// Requires rows >= cols >= 1. Rank-deficient columns get coefficient 0 and
/// set the rank_deficient flag.
LeastSquaresResult least_squares(const Matrix& a, std::span<const double> b);

/// Weighted least squares: minimizes ||diag(w) (A x - b)||_2.
/// Weights must be non-negative and match b's size.
LeastSquaresResult weighted_least_squares(const Matrix& a,
                                          std::span<const double> b,
                                          std::span<const double> weights);

/// Incremental Householder least-squares factorization for the batched
/// fitter. Columns are appended one at a time and reduced against the
/// retained reflectors, so one hypothesis generation can factor its shared
/// selected-prefix once, extend a copy per candidate with a single
/// Householder update, and obtain every leave-one-out fit from the solved
/// system by a rank-one downdate instead of a refit.
///
/// Numerics match `least_squares`: every column is equilibrated to unit
/// max-norm on entry and solutions are reported in the original scaling; a
/// column whose trailing norm collapses below 1e-12 marks the factorization
/// rank-deficient.
///
/// Storage is flat and column-major: the equilibrated design and the
/// reflectors each live in one rows x capacity buffer (reflector k occupies
/// rows [k, rows) of its column), and R is packed upper-triangular by
/// column. The column capacity grows on demand. Copy-assigning into an
/// existing factorization copies only the used prefix and reuses its
/// buffers, so a per-thread workspace that is re-seeded from a shared
/// prefix for every candidate allocates nothing once it has seen the
/// largest system.
class RetainedQr {
 public:
  /// Starts an empty factorization of a `rows`-row system against `rhs`.
  RetainedQr(std::size_t rows, std::span<const double> rhs);
  /// An empty workspace of no rows, to be reset() or copy-assigned into.
  RetainedQr() = default;

  RetainedQr(const RetainedQr& other);
  /// Copies `other`'s used prefix; allocates only when this object's
  /// buffers are too small for it.
  RetainedQr& operator=(const RetainedQr& other);
  RetainedQr(RetainedQr&&) noexcept = default;
  RetainedQr& operator=(RetainedQr&&) noexcept = default;

  /// Restarts as an empty factorization of a rhs.size()-row system against
  /// `rhs`, keeping the buffers (no allocation when they are large enough).
  void reset(std::span<const double> rhs);

  /// Appends one design column: equilibrates it, applies the retained
  /// reflectors in order (exactly the reflections `least_squares` would
  /// apply), and reduces the trailing part with one new reflector.
  /// O(rows x cols()). Requires cols() < rows() and a column of rows()
  /// values; no-op once the factorization is rank-deficient.
  void append_column(std::span<const double> column);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool rank_deficient() const { return rank_deficient_; }
  /// Equilibration scale of column `c`: its max-norm as appended (1 for an
  /// all-zero column).
  double column_scale(std::size_t c) const { return column_scale_[c]; }

  /// Solves R x = Q^T b and caches the residuals; call after the last
  /// append. Requires a full-rank factorization with cols() >= 1.
  void solve();

  /// Coefficients in the original column scaling (call solve() first).
  std::span<const double> solution() const;

  /// Coefficients of the fit with row `row` removed (original scaling), by
  /// a Sherman-Morrison rank-one downdate of the factored system —
  /// O(cols^2) instead of a refit, with no heap work for up to
  /// kStackColumns columns. Returns false when the downdated system
  /// is numerically singular: the row's leverage is within tolerance of 1,
  /// so removing it would drop the rank (the analogue of the per-fold
  /// rank deficiency a refit would detect). Requires solve() first.
  ///
  /// When `loo_residual` is non-null it receives the left-out row's
  /// prediction error under the downdated fit, b_row - a_row . x_loo, via
  /// the PRESS identity e / (1 - h). That form is exact in the factored
  /// quantities, so prefer it over re-deriving the error from the returned
  /// coefficients: the coefficient reconstruction cancels catastrophically
  /// on near-exact fits, PRESS does not.
  bool leave_one_out(std::size_t row, std::span<double> out,
                     double* loo_residual = nullptr) const;

  /// Column count up to which leave_one_out keeps its scratch on the stack.
  static constexpr std::size_t kStackColumns = 16;

 private:
  /// Columns a freshly constructed factorization has room for before its
  /// first regrowth.
  static constexpr std::size_t kInitialColumns = 4;

  /// Makes every buffer large enough for `columns` columns of the current
  /// row count, keeping the used prefix.
  void reserve_columns(std::size_t columns);
  double& r_at(std::size_t row, std::size_t col) {
    return r_[col * (col + 1) / 2 + row];
  }
  double r_at(std::size_t row, std::size_t col) const {
    return r_[col * (col + 1) / 2 + row];
  }

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  bool rank_deficient_ = false;
  bool solved_ = false;
  std::vector<double> qtb_;           ///< Q^T b, updated per reflector
  std::vector<double> residuals_;     ///< b - A~ x~ per row
  std::vector<double> column_scale_;
  /// Equilibrated design, column c at [c * rows, (c + 1) * rows) (the
  /// downdate reads whole rows of it).
  std::vector<double> design_;
  /// Reflector k at [k * rows + k, (k + 1) * rows); one per column except
  /// the collapsed last one of a rank-deficient factorization.
  std::vector<double> reflectors_;
  std::vector<double> reflector_norm_sq_;
  /// R packed by column: R(i, c) at c * (c + 1) / 2 + i for i <= c.
  std::vector<double> r_;
  std::vector<double> scaled_solution_;  ///< in equilibrated scaling
  std::vector<double> solution_;         ///< in original scaling
};

}  // namespace exareq::model
