// Dimensional Decorrelation Regularization (DDR), Eq. 12-14.
//
// UDL alone lets a large embedding table satisfy all of its objectives
// inside the low-dimensional prefix shared with small models — dimensional
// collapse. The paper's fix penalizes the Frobenius norm of the correlation
// matrix of the (column-standardized) embedding table:
//
//   Lreg(V) = (1/N) || corr( (V - V̄) / sqrt(var V) ) ||_F        (Eq. 13)
//
// which is an efficient surrogate for equalizing the singular values of the
// covariance matrix (Eq. 12; see Hua et al. 2021, Shi et al. 2022).
//
// Gradient derivation: with X the standardized table (M rows) and
// C = XᵀX / M,
//   dL/dX = 2 · X · C / (M · N · ||C||_F),
// backpropagated exactly through the per-column centering; the per-column
// standard deviation is treated as a constant (stop-gradient), the standard
// simplification in decorrelation losses.
#ifndef HETEFEDREC_CORE_DECORRELATION_H_
#define HETEFEDREC_CORE_DECORRELATION_H_

#include "src/math/matrix.h"
#include "src/math/sparse.h"
#include "src/util/rng.h"

namespace hetefedrec {

/// \brief Computes Lreg(V) and accumulates alpha * dLreg/dV into `grad`.
///
/// \param table item embedding table (rows = items, cols = dims) — a dense
///   `Matrix` or a `RowOverlayTable` view (src/math/sparse.h); only the
///   sampled rows are ever read.
/// \param alpha regularization weight (the loss returned is unweighted;
///   the gradient is scaled by alpha, matching Eq. 14's α·Lreg term).
/// \param sample_rows if > 0 and < rows, the correlation matrix and its
///   gradient are estimated on this many uniformly sampled rows.
/// \param rng used only for row sampling.
/// \param grad accumulator (`Matrix` or `SparseRowStore`) with at least as
///   many columns as `table`; gradients land in the leading table.cols()
///   columns. May be null to compute the loss only.
/// \returns Lreg(V) (the unweighted loss value).
template <typename TableT, typename GradT>
double DecorrelationLossAndGrad(const TableT& table, double alpha,
                                size_t sample_rows, Rng* rng, GradT* grad);

/// Loss-only convenience overload (callers pass a literal nullptr, which
/// cannot deduce GradT).
template <typename TableT>
double DecorrelationLossAndGrad(const TableT& table, double alpha,
                                size_t sample_rows, Rng* rng,
                                std::nullptr_t) {
  using GradM = MatrixT<typename TableT::Scalar>;
  return DecorrelationLossAndGrad(table, alpha, sample_rows, rng,
                                  static_cast<GradM*>(nullptr));
}

/// Explicit instantiations live in decorrelation.cc. The float-table
/// variants (fp32 compute backend) keep the loss math itself in double —
/// the sample is small and the RNG draw sequence must match the fp64
/// backend exactly — only the table reads and gradient writes are float.
/// On every backend the two correlation products, C = XᵀX and G = X·C, run
/// on the fp64 kernel layer (AccumulateOuterBatch and GemvBatchResume in
/// src/math/kernels.h, vectorized on AVX2 CPUs with the scalar loops' bits).
extern template double DecorrelationLossAndGrad<Matrix, Matrix>(
    const Matrix&, double, size_t, Rng*, Matrix*);
extern template double
DecorrelationLossAndGrad<RowOverlayTable, SparseRowStore>(
    const RowOverlayTable&, double, size_t, Rng*, SparseRowStore*);
extern template double DecorrelationLossAndGrad<MatrixF, MatrixF>(
    const MatrixF&, double, size_t, Rng*, MatrixF*);
extern template double
DecorrelationLossAndGrad<RowOverlayTableF, SparseRowStoreF>(
    const RowOverlayTableF&, double, size_t, Rng*, SparseRowStoreF*);

}  // namespace hetefedrec

#endif  // HETEFEDREC_CORE_DECORRELATION_H_
