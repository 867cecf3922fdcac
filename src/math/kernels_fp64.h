// Internal fp64 AVX2 kernel: the fused evaluation forward of the paper's
// [in → 8 → 8 → 1] Θ, four rows in the four lanes of each AVX2 vector with
// all three layers in registers (kernels_avx2.cc, compiled only when the
// build enables the SIMD translation unit, HFR_HAVE_AVX2_TU).
//
// Unlike the fp32 kernels (src/math/kernels_fp32.h), which use fused
// multiply-adds, this kernel keeps fp64's separate multiply and add: it
// only lays the work out across rows, and every lane performs its row's
// scalar operations in the scalar order. Its logits are therefore
// bit-identical to FeedForwardNet::Forward on the assembled rows (pinned by
// tests/math/kernels_test.cc FusedEvalForwardTest).
// FeedForwardNet::ForwardBatchFromPrefix calls it for double nets of this
// shape when CpuSupportsFp32Simd(); everywhere else the per-layer
// GemvBatchResume chain computes the same bits.
#ifndef HETEFEDREC_MATH_KERNELS_FP64_H_
#define HETEFEDREC_MATH_KERNELS_FP64_H_

#include <cstddef>

namespace hetefedrec {
namespace fp64 {

/// Hidden width of the Θ shape the fused kernel serves (§V-D: [8, 8]).
inline constexpr size_t kFusedEvalHidden = 8;

/// Weights of an [in → 8 → 8 → 1] net, as the fused kernel reads them
/// (row-major, layer l's weight is in_l x out_l).
struct FusedEvalNet {
  const double* w0;  // in_dim x 8: the layer-0 rows the batch rows feed
  const double* w1;  // 8 x 8
  const double* b1;  // 8
  const double* w2;  // 8 x 1
  const double* b2;  // 1
};

#ifdef HFR_HAVE_AVX2_TU
/// Evaluation forward resumed from layer-0 partial sums: per row b, layer 0
/// starts at `prefix` (8 accumulators) and consumes scale · x[b, 0..in_dim)
/// (rows `x_stride` scalars apart), then ReLU → layer 1 → ReLU → output;
/// logits[b] receives the output. Per (row, output) every layer adds its
/// terms in ascending input order, multiply then add, with exact-zero
/// inputs skipped and ReLU as x > 0 ? x : 0. With scale ≠ 1 the row's
/// inputs are scale · x[b, i], rounded once. Requires CPU AVX2 support.
void FusedEvalForwardAvx2(const FusedEvalNet& net, const double* prefix,
                          const double* x, size_t batch, size_t x_stride,
                          size_t in_dim, double scale, double* logits);
#endif  // HFR_HAVE_AVX2_TU

}  // namespace fp64
}  // namespace hetefedrec

#endif  // HETEFEDREC_MATH_KERNELS_FP64_H_
