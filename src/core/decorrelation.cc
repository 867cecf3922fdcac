#include "src/core/decorrelation.h"

#include <cmath>
#include <numeric>
#include <vector>

#include "src/math/aligned.h"
#include "src/math/kernels.h"
#include "src/math/sparse.h"

namespace hetefedrec {

template <typename TableT, typename GradT>
double DecorrelationLossAndGrad(const TableT& table, double alpha,
                                size_t sample_rows, Rng* rng, GradT* grad) {
  const size_t n_cols = table.cols();
  HFR_CHECK_GT(n_cols, 0u);
  if (grad) {
    HFR_CHECK_GE(grad->cols(), n_cols);
    HFR_CHECK_EQ(grad->rows(), table.rows());
  }
  if (table.rows() < 2) return 0.0;

  // Row sample (or all rows).
  std::vector<size_t> rows;
  if (sample_rows > 0 && sample_rows < table.rows()) {
    HFR_CHECK(rng != nullptr);
    rows.reserve(sample_rows);
    for (size_t k = 0; k < sample_rows; ++k) {
      rows.push_back(rng->UniformInt(table.rows()));
    }
  } else {
    rows.resize(table.rows());
    std::iota(rows.begin(), rows.end(), 0);
  }
  const size_t m = rows.size();
  const double inv_m = 1.0 / static_cast<double>(m);

  // Column means and variances over the sample. The loss math stays in
  // double on every backend (tiny sample, and the RNG draw sequence above
  // must match fp64 exactly); only the row reads below may be float.
  std::vector<double> mean(n_cols, 0.0), inv_sd(n_cols, 0.0);
  for (size_t r : rows) {
    const auto* row = table.Row(r);
    for (size_t c = 0; c < n_cols; ++c) mean[c] += row[c];
  }
  for (double& v : mean) v *= inv_m;
  std::vector<double> var(n_cols, 0.0);
  for (size_t r : rows) {
    const auto* row = table.Row(r);
    for (size_t c = 0; c < n_cols; ++c) {
      double d = row[c] - mean[c];
      var[c] += d * d;
    }
  }
  constexpr double kEps = 1e-8;
  for (size_t c = 0; c < n_cols; ++c) {
    inv_sd[c] = 1.0 / std::sqrt(var[c] * inv_m + kEps);
  }

  // Standardized sample X (m x N) and C = XᵀX / m. X and G below live in
  // per-thread scratch: at the trainer's sizes (685-1,024 rows of width 32)
  // each is past malloc's mmap threshold, and fresh pages on every call
  // cost about a quarter of the call.
  thread_local AlignedVector<double> x_buf;
  thread_local AlignedVector<double> g_buf;
  x_buf.resize(m * n_cols);
  double* x = x_buf.data();
  for (size_t k = 0; k < m; ++k) {
    const auto* row = table.Row(rows[k]);
    double* xrow = x + k * n_cols;
    for (size_t c = 0; c < n_cols; ++c) {
      xrow[c] = (row[c] - mean[c]) * inv_sd[c];
    }
  }
  // XᵀX is the outer-product accumulation of X's rows with themselves: per
  // entry, ascending rows with exact-zero left operands skipped, from +0.
  // The bias output (column sums) is scratch.
  Matrix c_mat(n_cols, n_cols);
  std::vector<double> col_sums(n_cols, 0.0);
  AccumulateOuterBatch(x, x, m, n_cols, n_cols, c_mat.data().data(),
                       col_sums.data());
  c_mat.Scale(inv_m);

  const double c_norm = c_mat.FrobeniusNorm();
  const double loss = c_norm / static_cast<double>(n_cols);
  if (!grad || c_norm < 1e-12 || alpha == 0.0) return loss;

  // dL/dX = 2 X C / (m N ||C||_F): G = X·C resumed from +0 (per entry,
  // ascending inner index with exact-zero X skipped), then scaled; then
  // exact centering backprop with the per-column sd treated as constant.
  g_buf.resize(m * n_cols);
  double* g = g_buf.data();
  const std::vector<double> zeros(n_cols, 0.0);
  GemvBatchResume(x, m, n_cols, n_cols, c_mat.data().data(), zeros.data(),
                  n_cols, g);
  const double g_scale =
      2.0 * inv_m / (static_cast<double>(n_cols) * c_norm);
  for (size_t t = 0; t < m * n_cols; ++t) g[t] *= g_scale;

  std::vector<double> col_mean_g(n_cols, 0.0);
  for (size_t k = 0; k < m; ++k) {
    const double* grow = g + k * n_cols;
    for (size_t c = 0; c < n_cols; ++c) col_mean_g[c] += grow[c];
  }
  for (double& v : col_mean_g) v *= inv_m;

  for (size_t k = 0; k < m; ++k) {
    const double* grow = g + k * n_cols;
    auto* out = grad->MutableRow(rows[k]);
    for (size_t c = 0; c < n_cols; ++c) {
      out[c] += alpha * (grow[c] - col_mean_g[c]) * inv_sd[c];
    }
  }
  return loss;
}

template double DecorrelationLossAndGrad<Matrix, Matrix>(const Matrix&,
                                                         double, size_t,
                                                         Rng*, Matrix*);
template double DecorrelationLossAndGrad<RowOverlayTable, SparseRowStore>(
    const RowOverlayTable&, double, size_t, Rng*, SparseRowStore*);
template double DecorrelationLossAndGrad<MatrixF, MatrixF>(const MatrixF&,
                                                           double, size_t,
                                                           Rng*, MatrixF*);
template double DecorrelationLossAndGrad<RowOverlayTableF, SparseRowStoreF>(
    const RowOverlayTableF&, double, size_t, Rng*, SparseRowStoreF*);

}  // namespace hetefedrec
