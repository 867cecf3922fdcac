// Internal fp64 SIMD kernels (kernels_avx2.cc, compiled only when the
// build enables the SIMD translation unit, HFR_HAVE_AVX2_TU): the AVX2 arms
// of the fp64 training kernels behind GemvBatchResume, AccumulateOuterBatch
// and GemvBatchTransposed (src/math/kernels.h), and the fused evaluation
// forward of the paper's [in → 8 → 8 → 1] Θ in two arms, AVX-512 (eight
// rows per vector) and AVX2 (four).
//
// Unlike the fp32 kernels (src/math/kernels_fp32.h), which use fused
// multiply-adds, these keep fp64's separate multiply and add: they only lay
// the work out across lanes, and every lane performs its target's scalar
// operations in the scalar order, exact-zero skip included. Their results
// are therefore bit-identical to the scalar loops in kernels.cc and to
// FeedForwardNet::Forward (pinned by tests/math/kernels_test.cc). The
// dispatchers call the AVX2 arms whenever CpuSupportsFp32Simd(), and
// ForwardBatchFromPrefix prefers the AVX-512 arm when CpuSupportsAvx512();
// everywhere else the scalar loops compute the same bits.
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
/// AVX2 arms of the fp64 kernels in src/math/kernels.h, same signatures and
/// contracts (any shape). Require CPU AVX2 support.
void GemvBatchResumeAvx2(const double* x, size_t batch, size_t x_stride,
                         size_t in_dim, const double* w, const double* init,
                         size_t out_dim, double* out);
void AccumulateOuterBatchAvx2(const double* in, const double* delta,
                              size_t batch, size_t in_dim, size_t out_dim,
                              double* grads_w, double* grads_b);
void GemvBatchTransposedAvx2(const double* delta, size_t batch,
                             size_t out_dim, const double* w, size_t in_dim,
                             double* dx);

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

/// FusedEvalForwardAvx2's contract and bits with eight rows per vector; the
/// skip is an opmask on the add. Requires CpuSupportsAvx512().
void FusedEvalForwardAvx512(const FusedEvalNet& net, const double* prefix,
                            const double* x, size_t batch, size_t x_stride,
                            size_t in_dim, double scale, double* logits);
#endif  // HFR_HAVE_AVX2_TU

}  // namespace fp64
}  // namespace hetefedrec

#endif  // HETEFEDREC_MATH_KERNELS_FP64_H_
