#include "model/linalg.hpp"

#include <algorithm>
#include <cmath>

#include "support/error.hpp"

namespace exareq::model {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {
  exareq::require(rows >= 1 && cols >= 1, "Matrix: dimensions must be positive");
}

double& Matrix::operator()(std::size_t r, std::size_t c) {
  exareq::require(r < rows_ && c < cols_, "Matrix: index out of range");
  return data_[r * cols_ + c];
}

double Matrix::operator()(std::size_t r, std::size_t c) const {
  exareq::require(r < rows_ && c < cols_, "Matrix: index out of range");
  return data_[r * cols_ + c];
}

std::vector<double> Matrix::multiply(std::span<const double> x) const {
  exareq::require(x.size() == cols_, "Matrix::multiply: size mismatch");
  std::vector<double> out(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    double acc = 0.0;
    for (std::size_t c = 0; c < cols_; ++c) acc += data_[r * cols_ + c] * x[c];
    out[r] = acc;
  }
  return out;
}

LeastSquaresResult least_squares(const Matrix& a, std::span<const double> b) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  exareq::require(b.size() == m, "least_squares: rhs size mismatch");
  exareq::require(m >= n, "least_squares: need rows >= cols");

  // Column equilibration: scale each column to unit max-norm so that basis
  // functions of wildly different magnitude coexist in one factorization.
  std::vector<double> column_scale(n, 1.0);
  Matrix work = a;
  for (std::size_t c = 0; c < n; ++c) {
    double max_abs = 0.0;
    for (std::size_t r = 0; r < m; ++r) {
      max_abs = std::max(max_abs, std::fabs(work(r, c)));
    }
    if (max_abs > 0.0) {
      column_scale[c] = max_abs;
      for (std::size_t r = 0; r < m; ++r) work(r, c) /= max_abs;
    }
  }

  std::vector<double> rhs(b.begin(), b.end());
  LeastSquaresResult result;
  result.solution.assign(n, 0.0);

  // Householder QR applied in place; R overwrites the upper triangle.
  std::vector<bool> dead_column(n, false);
  for (std::size_t k = 0; k < n; ++k) {
    double norm = 0.0;
    for (std::size_t r = k; r < m; ++r) norm += work(r, k) * work(r, k);
    norm = std::sqrt(norm);
    if (norm < 1e-12) {
      dead_column[k] = true;
      result.rank_deficient = true;
      continue;
    }
    const double alpha = work(k, k) >= 0.0 ? -norm : norm;
    std::vector<double> v(m - k, 0.0);
    v[0] = work(k, k) - alpha;
    for (std::size_t r = k + 1; r < m; ++r) v[r - k] = work(r, k);
    double v_norm_sq = 0.0;
    for (double value : v) v_norm_sq += value * value;
    if (v_norm_sq < 1e-300) {
      work(k, k) = alpha;
      continue;
    }
    // Apply H = I - 2 v v^T / (v^T v) to the remaining columns and rhs.
    for (std::size_t c = k; c < n; ++c) {
      double dot = 0.0;
      for (std::size_t r = k; r < m; ++r) dot += v[r - k] * work(r, c);
      const double factor = 2.0 * dot / v_norm_sq;
      for (std::size_t r = k; r < m; ++r) work(r, c) -= factor * v[r - k];
    }
    double dot = 0.0;
    for (std::size_t r = k; r < m; ++r) dot += v[r - k] * rhs[r];
    const double factor = 2.0 * dot / v_norm_sq;
    for (std::size_t r = k; r < m; ++r) rhs[r] -= factor * v[r - k];
  }

  // Back substitution on R x = Q^T b, skipping dead columns.
  for (std::size_t ki = n; ki-- > 0;) {
    if (dead_column[ki]) {
      result.solution[ki] = 0.0;
      continue;
    }
    double acc = rhs[ki];
    for (std::size_t c = ki + 1; c < n; ++c) {
      acc -= work(ki, c) * result.solution[c];
    }
    const double diag = work(ki, ki);
    if (std::fabs(diag) < 1e-12) {
      result.solution[ki] = 0.0;
      result.rank_deficient = true;
    } else {
      result.solution[ki] = acc / diag;
    }
  }

  // Undo column scaling.
  for (std::size_t c = 0; c < n; ++c) result.solution[c] /= column_scale[c];

  // Residual in the original (unscaled) problem.
  const std::vector<double> predicted = a.multiply(result.solution);
  double residual = 0.0;
  for (std::size_t r = 0; r < m; ++r) {
    residual += (predicted[r] - b[r]) * (predicted[r] - b[r]);
  }
  result.residual_norm = std::sqrt(residual);
  return result;
}

namespace {

/// Copies the first `count` values of `from` into `to`, growing `to` only
/// when it is shorter than that (never shrinking it).
void copy_prefix(std::vector<double>& to, const std::vector<double>& from,
                 std::size_t count) {
  if (to.size() < count) to.resize(count);
  std::copy_n(from.begin(), count, to.begin());
}

}  // namespace

RetainedQr::RetainedQr(std::size_t rows, std::span<const double> rhs) {
  exareq::require(rhs.size() == rows, "RetainedQr: rhs size mismatch");
  reset(rhs);
  reserve_columns(kInitialColumns);
}

void RetainedQr::reset(std::span<const double> rhs) {
  exareq::require(!rhs.empty(), "RetainedQr: need at least one row");
  rows_ = rhs.size();
  cols_ = 0;
  rank_deficient_ = false;
  solved_ = false;
  if (qtb_.size() < rows_) qtb_.resize(rows_);
  if (residuals_.size() < rows_) residuals_.resize(rows_);
  std::copy(rhs.begin(), rhs.end(), qtb_.begin());
  reserve_columns(column_scale_.size());
}

RetainedQr::RetainedQr(const RetainedQr& other) { *this = other; }

RetainedQr& RetainedQr::operator=(const RetainedQr& other) {
  if (this == &other) return *this;
  rows_ = other.rows_;
  cols_ = other.cols_;
  rank_deficient_ = other.rank_deficient_;
  solved_ = other.solved_;
  reserve_columns(cols_);
  copy_prefix(qtb_, other.qtb_, rows_);
  copy_prefix(column_scale_, other.column_scale_, cols_);
  copy_prefix(design_, other.design_, rows_ * cols_);
  copy_prefix(reflectors_, other.reflectors_, rows_ * cols_);
  copy_prefix(reflector_norm_sq_, other.reflector_norm_sq_, cols_);
  copy_prefix(r_, other.r_, cols_ * (cols_ + 1) / 2);
  if (residuals_.size() < rows_) residuals_.resize(rows_);
  if (solved_) {
    copy_prefix(residuals_, other.residuals_, rows_);
    copy_prefix(scaled_solution_, other.scaled_solution_, cols_);
    copy_prefix(solution_, other.solution_, cols_);
  }
  return *this;
}

void RetainedQr::reserve_columns(std::size_t columns) {
  if (column_scale_.size() < columns) {
    const std::size_t capacity = std::max(columns, 2 * column_scale_.size());
    column_scale_.resize(capacity);
    reflector_norm_sq_.resize(capacity);
    scaled_solution_.resize(capacity);
    solution_.resize(capacity);
    r_.resize(capacity * (capacity + 1) / 2);
  }
  const std::size_t values = rows_ * column_scale_.size();
  if (design_.size() < values) {
    design_.resize(values);
    reflectors_.resize(values);
  }
}

void RetainedQr::append_column(std::span<const double> column) {
  exareq::require(column.size() == rows_,
                  "RetainedQr::append_column: column size mismatch");
  exareq::require(!solved_, "RetainedQr::append_column: already solved");
  if (rank_deficient_) return;
  const std::size_t k = cols_;
  exareq::require(k < rows_, "RetainedQr::append_column: more columns than rows");
  reserve_columns(k + 1);

  // Column equilibration to unit max-norm, as in least_squares.
  double max_abs = 0.0;
  for (double value : column) max_abs = std::max(max_abs, std::fabs(value));
  const double scale = max_abs > 0.0 ? max_abs : 1.0;
  double* scaled = design_.data() + k * rows_;
  if (max_abs > 0.0) {
    for (std::size_t r = 0; r < rows_; ++r) scaled[r] = column[r] / scale;
  } else {
    std::copy(column.begin(), column.end(), scaled);
  }
  column_scale_[k] = scale;

  // Reduce against the retained reflectors, oldest first — the same
  // reflections, in the same order, that a full right-looking factorization
  // would have applied to this column. The work column is the new
  // reflector's own slot: its trailing part becomes the reflector in place.
  double* work = reflectors_.data() + k * rows_;
  std::copy_n(scaled, rows_, work);
  for (std::size_t j = 0; j < k; ++j) {
    const double* v = reflectors_.data() + j * rows_;
    double dot = 0.0;
    for (std::size_t r = j; r < rows_; ++r) dot += v[r] * work[r];
    const double factor = 2.0 * dot / reflector_norm_sq_[j];
    for (std::size_t r = j; r < rows_; ++r) work[r] -= factor * v[r];
  }

  double norm = 0.0;
  for (std::size_t r = k; r < rows_; ++r) norm += work[r] * work[r];
  norm = std::sqrt(norm);
  for (std::size_t i = 0; i < k; ++i) r_at(i, k) = work[i];
  cols_ = k + 1;
  if (norm < 1e-12) {
    // The column lies (numerically) in the span of its predecessors.
    rank_deficient_ = true;
    r_at(k, k) = 0.0;
    return;
  }

  const double alpha = work[k] >= 0.0 ? -norm : norm;
  work[k] = work[k] - alpha;
  double norm_sq = 0.0;
  for (std::size_t r = k; r < rows_; ++r) norm_sq += work[r] * work[r];
  reflector_norm_sq_[k] = norm_sq;

  double dot = 0.0;
  for (std::size_t r = k; r < rows_; ++r) dot += work[r] * qtb_[r];
  const double factor = 2.0 * dot / norm_sq;
  for (std::size_t r = k; r < rows_; ++r) qtb_[r] -= factor * work[r];
  r_at(k, k) = alpha;
}

void RetainedQr::solve() {
  exareq::require(!rank_deficient_, "RetainedQr::solve: rank-deficient system");
  const std::size_t n = cols_;
  exareq::require(n >= 1 && n <= rows_, "RetainedQr::solve: bad shape");

  // Back substitution on R x = Q^T b.
  for (std::size_t ki = n; ki-- > 0;) {
    double acc = qtb_[ki];
    for (std::size_t c = ki + 1; c < n; ++c) {
      acc -= r_at(ki, c) * scaled_solution_[c];
    }
    scaled_solution_[ki] = acc / r_at(ki, ki);
  }
  for (std::size_t c = 0; c < n; ++c) {
    solution_[c] = scaled_solution_[c] / column_scale_[c];
  }
  // Residuals of the equilibrated system, which the downdate needs: the
  // Q-side form Q [0; (Q^T b)_{n..m}] instead of b - A x. The direct form
  // cancels catastrophically on near-exact fits (error ~ eps * kappa, which
  // the downdate then amplifies by 1/(1-h)); the orthogonal form is
  // backward stable with no kappa in sight.
  std::copy_n(qtb_.begin(), rows_, residuals_.begin());
  std::fill_n(residuals_.begin(), n, 0.0);
  for (std::size_t k = n; k-- > 0;) {
    const double* v = reflectors_.data() + k * rows_;
    double dot = 0.0;
    for (std::size_t r = k; r < rows_; ++r) dot += v[r] * residuals_[r];
    const double factor = 2.0 * dot / reflector_norm_sq_[k];
    for (std::size_t r = k; r < rows_; ++r) residuals_[r] -= factor * v[r];
  }
  solved_ = true;
}

std::span<const double> RetainedQr::solution() const {
  exareq::require(solved_, "RetainedQr::solution: call solve() first");
  return {solution_.data(), cols_};
}

bool RetainedQr::leave_one_out(std::size_t row, std::span<double> out,
                               double* loo_residual) const {
  exareq::require(solved_, "RetainedQr::leave_one_out: call solve() first");
  exareq::require(row < rows_, "RetainedQr::leave_one_out: row out of range");
  const std::size_t n = cols_;
  exareq::require(out.size() == n, "RetainedQr::leave_one_out: output size");
  exareq::require(rows_ > n, "RetainedQr::leave_one_out: square system");

  double stack_scratch[2 * kStackColumns];
  std::vector<double> heap_scratch;
  double* u = stack_scratch;
  if (n > kStackColumns) {
    heap_scratch.resize(2 * n);
    u = heap_scratch.data();
  }
  double* z = u + n;

  // Sherman-Morrison downdate of the normal equations R^T R x = A^T b with
  // row a removed: with R^T u = a, leverage h = ||u||^2, R z = u, and
  // residual e = b_row - a . x, the leave-one-out solution is
  //   x_loo = x - z * e / (1 - h).
  for (std::size_t i = 0; i < n; ++i) {
    double acc = design_[i * rows_ + row];
    for (std::size_t j = 0; j < i; ++j) acc -= r_at(j, i) * u[j];
    u[i] = acc / r_at(i, i);
  }
  double leverage = 0.0;
  for (std::size_t i = 0; i < n; ++i) leverage += u[i] * u[i];
  // Leverage ~ 1 means this row alone pins a direction of the fit; without
  // it the system drops rank — the analogue of a refit's per-fold rank
  // deficiency.
  if (1.0 - leverage < 1e-12) return false;

  for (std::size_t ki = n; ki-- > 0;) {
    double acc = u[ki];
    for (std::size_t c = ki + 1; c < n; ++c) acc -= r_at(ki, c) * z[c];
    z[ki] = acc / r_at(ki, ki);
  }
  const double gain = residuals_[row] / (1.0 - leverage);
  for (std::size_t c = 0; c < n; ++c) {
    out[c] = (scaled_solution_[c] - z[c] * gain) / column_scale_[c];
  }
  // PRESS: b_row - a_row . x_loo = e_row / (1 - h); `gain` is exactly that.
  if (loo_residual != nullptr) *loo_residual = gain;
  return true;
}

LeastSquaresResult weighted_least_squares(const Matrix& a,
                                          std::span<const double> b,
                                          std::span<const double> weights) {
  exareq::require(weights.size() == b.size(),
                  "weighted_least_squares: weight size mismatch");
  Matrix scaled = a;
  std::vector<double> rhs(b.begin(), b.end());
  for (std::size_t r = 0; r < a.rows(); ++r) {
    exareq::require(weights[r] >= 0.0,
                    "weighted_least_squares: negative weight");
    for (std::size_t c = 0; c < a.cols(); ++c) scaled(r, c) *= weights[r];
    rhs[r] *= weights[r];
  }
  LeastSquaresResult result = least_squares(scaled, rhs);
  // Report the residual of the *weighted* problem, which is what the fitter
  // minimizes and compares across hypotheses.
  return result;
}

}  // namespace exareq::model
