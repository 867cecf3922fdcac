#include "src/core/decorrelation.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "src/math/adam.h"
#include "src/math/eigen.h"
#include "src/math/init.h"
#include "src/math/sparse.h"
#include "src/math/stats.h"

namespace hetefedrec {
namespace {

Matrix CorrelatedTable(size_t rows, size_t cols, uint64_t seed) {
  // All columns are noisy copies of one factor: heavily collapsed.
  Rng rng(seed);
  Matrix m(rows, cols);
  for (size_t r = 0; r < rows; ++r) {
    double t = rng.Normal();
    for (size_t c = 0; c < cols; ++c) m(r, c) = t + 0.05 * rng.Normal();
  }
  return m;
}

Matrix IsotropicTable(size_t rows, size_t cols, uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, cols);
  InitNormal(&m, 1.0, &rng);
  return m;
}

TEST(DecorrelationTest, LossHigherForCorrelatedTable) {
  double collapsed = DecorrelationLossAndGrad(CorrelatedTable(300, 6, 1), 1.0,
                                              0, nullptr, nullptr);
  double isotropic = DecorrelationLossAndGrad(IsotropicTable(300, 6, 2), 1.0,
                                              0, nullptr, nullptr);
  EXPECT_GT(collapsed, isotropic);
  // Fully correlated: C ~ all-ones -> ||C||_F ~ N -> loss ~ 1.
  EXPECT_NEAR(collapsed, 1.0, 0.05);
  // Independent columns: C ~ I -> loss ~ sqrt(N)/N = 1/sqrt(N).
  EXPECT_NEAR(isotropic, 1.0 / std::sqrt(6.0), 0.05);
}

TEST(DecorrelationTest, GradientDescendsTheLossUnderAdam) {
  // Matches real usage: clients feed the DDR gradient to Adam (lr 0.001-
  // 0.01); plain gradient steps would crawl because the loss scales the
  // gradient by 1/(M·N·||C||_F).
  Matrix v = CorrelatedTable(120, 5, 3);
  double before = DecorrelationLossAndGrad(v, 1.0, 0, nullptr, nullptr);
  AdamOptions opt;
  opt.lr = 0.01;
  Adam adam(opt);
  for (int step = 0; step < 300; ++step) {
    Matrix grad(v.rows(), v.cols());
    DecorrelationLossAndGrad(v, 1.0, 0, nullptr, &grad);
    adam.Step(&v, grad);
  }
  double after = DecorrelationLossAndGrad(v, 1.0, 0, nullptr, nullptr);
  EXPECT_LT(after, before * 0.7);
}

TEST(DecorrelationTest, OptimizationReducesSingularValueVariance) {
  // The Table V story: descending Lreg equalizes the covariance
  // eigenvalues.
  Matrix v = CorrelatedTable(200, 4, 5);
  // Normalize scale so the eigenvalue variance comparison is meaningful.
  double before = SingularValueVariance(StandardizeColumns(v));
  AdamOptions opt;
  opt.lr = 0.01;
  Adam adam(opt);
  for (int step = 0; step < 300; ++step) {
    Matrix grad(v.rows(), v.cols());
    DecorrelationLossAndGrad(v, 1.0, 0, nullptr, &grad);
    adam.Step(&v, grad);
  }
  double after = SingularValueVariance(StandardizeColumns(v));
  EXPECT_LT(after, before * 0.5);
}

TEST(DecorrelationTest, GradientScalesLinearlyWithAlpha) {
  Matrix v = CorrelatedTable(80, 4, 7);
  Matrix g1(v.rows(), v.cols());
  Matrix g2(v.rows(), v.cols());
  DecorrelationLossAndGrad(v, 1.0, 0, nullptr, &g1);
  DecorrelationLossAndGrad(v, 2.0, 0, nullptr, &g2);
  for (size_t i = 0; i < g1.data().size(); ++i) {
    EXPECT_NEAR(g2.data()[i], 2.0 * g1.data()[i], 1e-12);
  }
}

TEST(DecorrelationTest, LossInvariantToColumnScaling) {
  // Correlation is scale-free; standardization must absorb column scales.
  Matrix v = CorrelatedTable(150, 4, 9);
  double base = DecorrelationLossAndGrad(v, 1.0, 0, nullptr, nullptr);
  Matrix scaled = v;
  for (size_t r = 0; r < scaled.rows(); ++r) {
    scaled(r, 1) *= 7.0;
    scaled(r, 3) *= 0.01;
  }
  double after = DecorrelationLossAndGrad(scaled, 1.0, 0, nullptr, nullptr);
  // The eps guard in the standardization makes invariance approximate.
  EXPECT_NEAR(base, after, 1e-3);
}

TEST(DecorrelationTest, GradientColumnMeansNearZero) {
  // Exact centering backprop: the gradient of each column sums to ~0.
  Matrix v = CorrelatedTable(100, 5, 11);
  Matrix grad(v.rows(), v.cols());
  DecorrelationLossAndGrad(v, 1.0, 0, nullptr, &grad);
  auto means = ColumnMeans(grad);
  for (double m : means) EXPECT_NEAR(m, 0.0, 1e-12);
}

TEST(DecorrelationTest, RowSamplingApproximatesFullLoss) {
  Matrix v = CorrelatedTable(2000, 4, 13);
  double full = DecorrelationLossAndGrad(v, 1.0, 0, nullptr, nullptr);
  Rng rng(17);
  double sampled = DecorrelationLossAndGrad(v, 1.0, 500, &rng, nullptr);
  EXPECT_NEAR(sampled, full, 0.1 * full);
}

TEST(DecorrelationTest, DegenerateInputsSafe) {
  Matrix one_row(1, 4);
  EXPECT_DOUBLE_EQ(
      DecorrelationLossAndGrad(one_row, 1.0, 0, nullptr, nullptr), 0.0);
  // Constant columns: loss must be finite (eps guards the sd).
  Matrix constant(50, 3);
  constant.Fill(2.5);
  double loss = DecorrelationLossAndGrad(constant, 1.0, 0, nullptr, nullptr);
  EXPECT_FALSE(std::isnan(loss));
}

TEST(DecorrelationTest, ZeroAlphaComputesLossWithoutGrad) {
  Matrix v = CorrelatedTable(60, 4, 19);
  Matrix grad(v.rows(), v.cols());
  double loss = DecorrelationLossAndGrad(v, 0.0, 0, nullptr, &grad);
  EXPECT_GT(loss, 0.0);
  EXPECT_DOUBLE_EQ(grad.MaxAbs(), 0.0);
}

// The DDR formula before its products moved onto the kernel layer: C and
// G through the dense MatMul (per entry, ascending inner index with
// exact-zero left operands skipped, from +0). DecorrelationLossAndGrad must
// reproduce its loss and every gradient value bit for bit.
template <typename TableT, typename GradT>
double OracleDecorrelation(const TableT& table, double alpha,
                           size_t sample_rows, Rng* rng, GradT* grad) {
  const size_t n_cols = table.cols();
  if (table.rows() < 2) return 0.0;
  std::vector<size_t> rows;
  if (sample_rows > 0 && sample_rows < table.rows()) {
    for (size_t k = 0; k < sample_rows; ++k) {
      rows.push_back(rng->UniformInt(table.rows()));
    }
  } else {
    rows.resize(table.rows());
    std::iota(rows.begin(), rows.end(), 0);
  }
  const size_t m = rows.size();
  const double inv_m = 1.0 / static_cast<double>(m);
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
  for (size_t c = 0; c < n_cols; ++c) {
    inv_sd[c] = 1.0 / std::sqrt(var[c] * inv_m + 1e-8);
  }
  Matrix x(m, n_cols);
  for (size_t k = 0; k < m; ++k) {
    const auto* row = table.Row(rows[k]);
    for (size_t c = 0; c < n_cols; ++c) {
      x(k, c) = (row[c] - mean[c]) * inv_sd[c];
    }
  }
  Matrix c_mat = Matrix::MatMul(x.Transposed(), x);
  c_mat.Scale(inv_m);
  const double c_norm = c_mat.FrobeniusNorm();
  const double loss = c_norm / static_cast<double>(n_cols);
  if (!grad || c_norm < 1e-12 || alpha == 0.0) return loss;
  Matrix g = Matrix::MatMul(x, c_mat);
  g.Scale(2.0 * inv_m / (static_cast<double>(n_cols) * c_norm));
  std::vector<double> col_mean_g(n_cols, 0.0);
  for (size_t k = 0; k < m; ++k) {
    for (size_t c = 0; c < n_cols; ++c) col_mean_g[c] += g(k, c);
  }
  for (double& v : col_mean_g) v *= inv_m;
  for (size_t k = 0; k < m; ++k) {
    auto* out = grad->MutableRow(rows[k]);
    for (size_t c = 0; c < n_cols; ++c) {
      out[c] += alpha * (g(k, c) - col_mean_g[c]) * inv_sd[c];
    }
  }
  return loss;
}

uint64_t Bits(double v) {
  uint64_t u;
  std::memcpy(&u, &v, sizeof(u));
  return u;
}

uint32_t Bits(float v) {
  uint32_t u;
  std::memcpy(&u, &v, sizeof(u));
  return u;
}

// A table of `rows` x `width` whose column 0 is constant when
// `constant_column` (its standardized values are all exactly 0, which the
// products skip).
Matrix DdrTable(size_t rows, size_t width, bool constant_column,
                uint64_t seed) {
  Matrix m = CorrelatedTable(rows, width, seed);
  if (constant_column) {
    for (size_t r = 0; r < rows; ++r) m(r, 0) = 0.75;
  }
  return m;
}

template <typename GradT>
void ExpectSameGrad(const GradT& got, const GradT& ref,
                    const std::string& where) {
  ASSERT_EQ(got.rows(), ref.rows()) << where;
  for (size_t r = 0; r < ref.rows(); ++r) {
    const auto* g = got.RowOrNull(r);
    const auto* e = ref.RowOrNull(r);
    ASSERT_EQ(g == nullptr, e == nullptr) << where << " row " << r;
    if (e == nullptr) continue;
    for (size_t c = 0; c < ref.cols(); ++c) {
      ASSERT_EQ(Bits(g[c]), Bits(e[c]))
          << where << " grad(" << r << ", " << c << ")";
    }
  }
}

// Dense gradients expose RowOrNull through a tiny adapter so one checker
// serves both accumulator types.
template <typename T>
struct DenseGrad {
  const MatrixT<T>& m;
  size_t rows() const { return m.rows(); }
  size_t cols() const { return m.cols(); }
  const T* RowOrNull(size_t r) const { return m.Row(r); }
};

// Runs the kernel-layer DDR and the oracle on the same table, sampling seed
// and pre-seeded gradient, over widths {1,5,8,16,32} × sample_rows {all,
// below, above the row count} × with/without a constant column.
template <typename TableT, typename GradT, typename MakeTable,
          typename MakeGrad, typename CheckGrad>
void ExpectDdrMatchesOracle(const MakeTable& make_table,
                            const MakeGrad& make_grad,
                            const CheckGrad& check_grad) {
  constexpr size_t kRows = 150;
  for (size_t width : {size_t{1}, size_t{5}, size_t{8}, size_t{16},
                       size_t{32}}) {
    for (size_t sample_rows : {size_t{0}, size_t{97}, size_t{400}}) {
      for (bool constant_column : {false, true}) {
        const Matrix base =
            DdrTable(kRows, width, constant_column, 40 + width);
        TableT table;
        make_table(base, &table);
        GradT got, ref;
        make_grad(kRows, width, &got);
        make_grad(kRows, width, &ref);
        Rng rng_got(77), rng_ref(77);
        const double loss_got = DecorrelationLossAndGrad(
            table, 0.3, sample_rows, &rng_got, &got);
        const double loss_ref =
            OracleDecorrelation(table, 0.3, sample_rows, &rng_ref, &ref);
        const std::string where = "width=" + std::to_string(width) +
                                  " sample_rows=" +
                                  std::to_string(sample_rows) +
                                  " constant_column=" +
                                  std::to_string(constant_column);
        ASSERT_EQ(Bits(loss_got), Bits(loss_ref)) << where;
        // A one-column constant table has C = 0: loss 0 and no gradient.
        if (width > 1 || !constant_column) {
          EXPECT_GT(loss_got, 0.0) << where;
        }
        check_grad(got, ref, where);
      }
    }
  }
}

template <typename T>
void SeededDenseGrad(size_t rows, size_t width, MatrixT<T>* g) {
  // Nonzero starting values, one −0: the DDR gradient accumulates.
  Matrix seed = CorrelatedTable(rows, width, 99);
  seed(0, 0) = -0.0;
  g->AssignCast(seed);
}

TEST(DecorrelationTest, DenseTableMatchesMatMulOracleBitForBit) {
  ExpectDdrMatchesOracle<Matrix, Matrix>(
      [](const Matrix& base, Matrix* t) { *t = base; },
      [](size_t rows, size_t width, Matrix* g) {
        SeededDenseGrad(rows, width, g);
      },
      [](const Matrix& got, const Matrix& ref, const std::string& where) {
        ExpectSameGrad(DenseGrad<double>{got}, DenseGrad<double>{ref}, where);
      });
}

TEST(DecorrelationTest, FloatDenseTableMatchesMatMulOracleBitForBit) {
  ExpectDdrMatchesOracle<MatrixF, MatrixF>(
      [](const Matrix& base, MatrixF* t) { t->AssignCast(base); },
      [](size_t rows, size_t width, MatrixF* g) {
        SeededDenseGrad(rows, width, g);
      },
      [](const MatrixF& got, const MatrixF& ref, const std::string& where) {
        ExpectSameGrad(DenseGrad<float>{got}, DenseGrad<float>{ref}, where);
      });
}

template <typename T>
void CheckOverlayTableMatchesOracle() {
  // The overlay views a base that must outlive it; keep each case's base.
  std::vector<std::unique_ptr<Matrix>> bases;
  ExpectDdrMatchesOracle<RowOverlayTableT<T>, SparseRowStoreT<T>>(
      [&bases](const Matrix& base, RowOverlayTableT<T>* t) {
        bases.push_back(std::make_unique<Matrix>(base));
        t->Reset(bases.back().get());
        // Some rows read through the overlay, the rest from the base.
        for (size_t r = 0; r < base.rows(); r += 3) {
          T* row = t->MutableRow(r);
          row[0] = row[0] * T(1.5);
        }
      },
      [](size_t rows, size_t width, SparseRowStoreT<T>* g) {
        g->Reset(rows, width);
        T* row = g->MutableRow(1);
        for (size_t c = 0; c < width; ++c) row[c] = T(0.25);
        row[0] = T(-0.0);
      },
      [](const SparseRowStoreT<T>& got, const SparseRowStoreT<T>& ref,
         const std::string& where) {
        EXPECT_EQ(got.touched(), ref.touched()) << where;
        ExpectSameGrad(got, ref, where);
      });
}

TEST(DecorrelationTest, OverlayTableMatchesMatMulOracleBitForBit) {
  CheckOverlayTableMatchesOracle<double>();
}

TEST(DecorrelationTest, FloatOverlayTableMatchesMatMulOracleBitForBit) {
  CheckOverlayTableMatchesOracle<float>();
}

}  // namespace
}  // namespace hetefedrec
