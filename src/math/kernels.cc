#include "src/math/kernels.h"

#include <algorithm>
#include <type_traits>

#include "src/math/backend.h"
#include "src/math/kernels_fp32.h"
#include "src/math/kernels_fp64.h"

namespace hetefedrec {

namespace {

// True when the float kernels should run their AVX2 implementations; the
// choice is results-inert (scalar fp32 and AVX2 produce the same bits).
inline bool UseSimd() {
#ifdef HFR_HAVE_AVX2_TU
  return Fp32SimdEnabled();
#else
  return false;
#endif
}

// Fixed-width inner kernels for the double backend: the FFN layer widths
// are tiny (hidden 8, out 1), so compile-time OutDim keeps the whole
// accumulator row in registers and fully unrolls the j loop. Loop nesting
// and unrolling only regroup *independent* accumulator targets — per
// (b, j) the i order (and the exact-zero skip) is the scalar loop's, so
// results are bit-identical.
template <size_t OutDim>
void GemvBatchResumeFixed(const double* x, size_t batch, size_t x_stride,
                          size_t in_dim, const double* w, const double* init,
                          double* out) {
  for (size_t b = 0; b < batch; ++b) {
    const double* xrow = x + b * x_stride;
    double acc[OutDim];
    for (size_t j = 0; j < OutDim; ++j) acc[j] = init[j];
    for (size_t i = 0; i < in_dim; ++i) {
      const double xi = xrow[i];
      if (xi == 0.0) continue;
      const double* wrow = w + i * OutDim;
      for (size_t j = 0; j < OutDim; ++j) acc[j] += xi * wrow[j];
    }
    double* orow = out + b * OutDim;
    for (size_t j = 0; j < OutDim; ++j) orow[j] = acc[j];
  }
}

void GemvBatchResumeGeneric(const double* x, size_t batch, size_t x_stride,
                            size_t in_dim, const double* w,
                            const double* init, size_t out_dim, double* out) {
  for (size_t b = 0; b < batch; ++b) {
    const double* xrow = x + b * x_stride;
    double* orow = out + b * out_dim;
    std::copy(init, init + out_dim, orow);
    for (size_t i = 0; i < in_dim; ++i) {
      const double xi = xrow[i];
      if (xi == 0.0) continue;
      const double* wrow = w + i * out_dim;
      for (size_t j = 0; j < out_dim; ++j) orow[j] += xi * wrow[j];
    }
  }
}

void GemvBatchResumeF64(const double* x, size_t batch, size_t x_stride,
                        size_t in_dim, const double* w, const double* init,
                        size_t out_dim, double* out) {
  switch (out_dim) {
    case 1:
      return GemvBatchResumeFixed<1>(x, batch, x_stride, in_dim, w, init,
                                     out);
    case 2:
      return GemvBatchResumeFixed<2>(x, batch, x_stride, in_dim, w, init,
                                     out);
    case 4:
      return GemvBatchResumeFixed<4>(x, batch, x_stride, in_dim, w, init,
                                     out);
    case 8:
      return GemvBatchResumeFixed<8>(x, batch, x_stride, in_dim, w, init,
                                     out);
    case 16:
      return GemvBatchResumeFixed<16>(x, batch, x_stride, in_dim, w, init,
                                      out);
    default:
      return GemvBatchResumeGeneric(x, batch, x_stride, in_dim, w, init,
                                    out_dim, out);
  }
}

template <size_t OutDim>
void GemvBatchTransposedFixed(const double* delta, size_t batch,
                              const double* w, size_t in_dim, double* dx) {
  for (size_t b = 0; b < batch; ++b) {
    const double* drow = delta + b * OutDim;
    double* dxrow = dx + b * in_dim;
    for (size_t i = 0; i < in_dim; ++i) {
      const double* wrow = w + i * OutDim;
      double acc = 0.0;
      for (size_t j = 0; j < OutDim; ++j) acc += wrow[j] * drow[j];
      dxrow[i] = acc;
    }
  }
}

template <size_t OutDim>
void AccumulateOuterBatchFixed(const double* in, const double* delta,
                               size_t batch, size_t in_dim, double* grads_w,
                               double* grads_b) {
  for (size_t b = 0; b < batch; ++b) {
    const double* drow = delta + b * OutDim;
    const double* irow = in + b * in_dim;
    for (size_t j = 0; j < OutDim; ++j) grads_b[j] += drow[j];
    for (size_t i = 0; i < in_dim; ++i) {
      const double xi = irow[i];
      if (xi == 0.0) continue;
      double* grow = grads_w + i * OutDim;
      for (size_t j = 0; j < OutDim; ++j) grow[j] += xi * drow[j];
    }
  }
}

void AccumulateOuterBatchGeneric(const double* in, const double* delta,
                                 size_t batch, size_t in_dim, size_t out_dim,
                                 double* grads_w, double* grads_b) {
  for (size_t b = 0; b < batch; ++b) {
    const double* drow = delta + b * out_dim;
    const double* irow = in + b * in_dim;
    for (size_t j = 0; j < out_dim; ++j) grads_b[j] += drow[j];
    for (size_t i = 0; i < in_dim; ++i) {
      const double xi = irow[i];
      if (xi == 0.0) continue;
      double* grow = grads_w + i * out_dim;
      for (size_t j = 0; j < out_dim; ++j) grow[j] += xi * drow[j];
    }
  }
}

void GemvBatchTransposedGeneric(const double* delta, size_t batch,
                                size_t out_dim, const double* w,
                                size_t in_dim, double* dx) {
  for (size_t b = 0; b < batch; ++b) {
    const double* drow = delta + b * out_dim;
    double* dxrow = dx + b * in_dim;
    for (size_t i = 0; i < in_dim; ++i) {
      const double* wrow = w + i * out_dim;
      double acc = 0.0;
      for (size_t j = 0; j < out_dim; ++j) acc += wrow[j] * drow[j];
      dxrow[i] = acc;
    }
  }
}

void AccumulateOuterBatchF64(const double* in, const double* delta,
                             size_t batch, size_t in_dim, size_t out_dim,
                             double* grads_w, double* grads_b) {
  // b-outer is exactly the sample-by-sample scalar sequence; the gradient
  // panel (in_dim x out_dim doubles) is small enough to stay resident
  // while the contiguous in/delta rows stream through.
  switch (out_dim) {
    case 1:
      return AccumulateOuterBatchFixed<1>(in, delta, batch, in_dim, grads_w,
                                          grads_b);
    case 2:
      return AccumulateOuterBatchFixed<2>(in, delta, batch, in_dim, grads_w,
                                          grads_b);
    case 4:
      return AccumulateOuterBatchFixed<4>(in, delta, batch, in_dim, grads_w,
                                          grads_b);
    case 8:
      return AccumulateOuterBatchFixed<8>(in, delta, batch, in_dim, grads_w,
                                          grads_b);
    case 16:
      return AccumulateOuterBatchFixed<16>(in, delta, batch, in_dim, grads_w,
                                           grads_b);
    default:
      return AccumulateOuterBatchGeneric(in, delta, batch, in_dim, out_dim,
                                         grads_w, grads_b);
  }
}

void GemvBatchTransposedF64(const double* delta, size_t batch, size_t out_dim,
                            const double* w, size_t in_dim, double* dx) {
  switch (out_dim) {
    case 1:
      return GemvBatchTransposedFixed<1>(delta, batch, w, in_dim, dx);
    case 2:
      return GemvBatchTransposedFixed<2>(delta, batch, w, in_dim, dx);
    case 4:
      return GemvBatchTransposedFixed<4>(delta, batch, w, in_dim, dx);
    case 8:
      return GemvBatchTransposedFixed<8>(delta, batch, w, in_dim, dx);
    case 16:
      return GemvBatchTransposedFixed<16>(delta, batch, w, in_dim, dx);
    default:
      return GemvBatchTransposedGeneric(delta, batch, out_dim, w, in_dim, dx);
  }
}

}  // namespace

template <typename T>
void GemvBatchResume(const T* x, size_t batch, size_t x_stride, size_t in_dim,
                     const T* w, const T* init, size_t out_dim, T* out) {
  if constexpr (std::is_same_v<T, double>) {
    // The AVX2 arms produce the scalar loops' bits, so no backend knob
    // gates them: CPU support alone decides.
#ifdef HFR_HAVE_AVX2_TU
    if (CpuSupportsFp32Simd()) {
      return fp64::GemvBatchResumeAvx2(x, batch, x_stride, in_dim, w, init,
                                       out_dim, out);
    }
#endif
    GemvBatchResumeF64(x, batch, x_stride, in_dim, w, init, out_dim, out);
  } else {
#ifdef HFR_HAVE_AVX2_TU
    if (UseSimd()) {
      return fp32::GemvBatchResumeAvx2(x, batch, x_stride, in_dim, w, init,
                                       out_dim, out);
    }
#endif
    fp32::GemvBatchResumeScalar(x, batch, x_stride, in_dim, w, init, out_dim,
                                out);
  }
}

template <typename T>
void GemvBatchBiased(const T* x, size_t batch, size_t in_dim, const T* w,
                     const T* bias, size_t out_dim, T* out) {
  // A biased GEMV is a resume from the bias with contiguous rows.
  GemvBatchResume(x, batch, in_dim, in_dim, w, bias, out_dim, out);
}

template <typename T>
void AccumulateOuterBatch(const T* in, const T* delta, size_t batch,
                          size_t in_dim, size_t out_dim, T* grads_w,
                          T* grads_b) {
  if constexpr (std::is_same_v<T, double>) {
#ifdef HFR_HAVE_AVX2_TU
    if (CpuSupportsFp32Simd()) {
      return fp64::AccumulateOuterBatchAvx2(in, delta, batch, in_dim, out_dim,
                                            grads_w, grads_b);
    }
#endif
    AccumulateOuterBatchF64(in, delta, batch, in_dim, out_dim, grads_w,
                            grads_b);
  } else {
#ifdef HFR_HAVE_AVX2_TU
    if (UseSimd()) {
      return fp32::AccumulateOuterBatchAvx2(in, delta, batch, in_dim, out_dim,
                                            grads_w, grads_b);
    }
#endif
    fp32::AccumulateOuterBatchScalar(in, delta, batch, in_dim, out_dim,
                                     grads_w, grads_b);
  }
}

template <typename T>
void GemvBatchTransposed(const T* delta, size_t batch, size_t out_dim,
                         const T* w, size_t in_dim, T* dx) {
  if constexpr (std::is_same_v<T, double>) {
#ifdef HFR_HAVE_AVX2_TU
    if (CpuSupportsFp32Simd()) {
      return fp64::GemvBatchTransposedAvx2(delta, batch, out_dim, w, in_dim,
                                           dx);
    }
#endif
    GemvBatchTransposedF64(delta, batch, out_dim, w, in_dim, dx);
  } else {
#ifdef HFR_HAVE_AVX2_TU
    if (UseSimd()) {
      return fp32::GemvBatchTransposedAvx2(delta, batch, out_dim, w, in_dim,
                                           dx);
    }
#endif
    fp32::GemvBatchTransposedScalar(delta, batch, out_dim, w, in_dim, dx);
  }
}

template <typename T>
void GramMatrix(const T* x, size_t k, size_t n, MatrixT<T>* out) {
  HFR_CHECK(out != nullptr);
  HFR_CHECK_EQ(out->rows(), k);
  HFR_CHECK_EQ(out->cols(), k);
  // Upper triangle in square tiles so both operand panels stay cache-hot;
  // every entry is still the backend's dot of two packed rows.
  for (size_t a0 = 0; a0 < k; a0 += kKernelRowBlock) {
    const size_t a1 = std::min(k, a0 + kKernelRowBlock);
    for (size_t c0 = a0; c0 < k; c0 += kKernelRowBlock) {
      const size_t c1 = std::min(k, c0 + kKernelRowBlock);
      for (size_t a = a0; a < a1; ++a) {
        const T* xa = x + a * n;
        for (size_t c = std::max(a, c0); c < c1; ++c) {
          (*out)(a, c) = Dot(xa, x + c * n, n);
        }
      }
    }
  }
  for (size_t a = 0; a < k; ++a) {
    for (size_t c = a + 1; c < k; ++c) (*out)(c, a) = (*out)(a, c);
  }
}

template void GemvBatchBiased<double>(const double*, size_t, size_t,
                                      const double*, const double*, size_t,
                                      double*);
template void GemvBatchBiased<float>(const float*, size_t, size_t,
                                     const float*, const float*, size_t,
                                     float*);
template void GemvBatchResume<double>(const double*, size_t, size_t, size_t,
                                      const double*, const double*, size_t,
                                      double*);
template void GemvBatchResume<float>(const float*, size_t, size_t, size_t,
                                     const float*, const float*, size_t,
                                     float*);
template void AccumulateOuterBatch<double>(const double*, const double*,
                                           size_t, size_t, size_t, double*,
                                           double*);
template void AccumulateOuterBatch<float>(const float*, const float*, size_t,
                                          size_t, size_t, float*, float*);
template void GemvBatchTransposed<double>(const double*, size_t, size_t,
                                          const double*, size_t, double*);
template void GemvBatchTransposed<float>(const float*, size_t, size_t,
                                         const float*, size_t, float*);
template void GramMatrix<double>(const double*, size_t, size_t, Matrix*);
template void GramMatrix<float>(const float*, size_t, size_t, MatrixF*);

}  // namespace hetefedrec
