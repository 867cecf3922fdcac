// Hand-vectorized AVX2+FMA kernels (compiled with -mavx2 -mfma; this is
// the only translation unit with those flags, so nothing here may be
// called unless runtime dispatch confirmed CPU support): the fp32 set and
// the fp64 fused evaluation kernel.
//
// Lockstep contract with kernels_fp32.cc: per output element, the vector
// code performs the same single-rounding multiply-adds in the same order
// as the scalar emulation, and the horizontal reduction is the fixed
// (l0+l4, l1+l5, l2+l6, l3+l7) → (s0+s2, s1+s3) → t0+t1 tree. Any change
// to either file must be mirrored in the other
// (tests/math/kernels_test.cc pins the bit-identity).
//
// The fp64 kernel at the end of the file has the opposite contract: no
// fused multiply-add anywhere (see its section).

#include "src/math/kernels_fp32.h"
#include "src/math/kernels_fp64.h"

#ifdef HFR_HAVE_AVX2_TU

#include <immintrin.h>

#include <algorithm>
#include <cmath>

namespace hetefedrec {
namespace fp32 {

namespace {

// (l0+l4, l1+l5, l2+l6, l3+l7) → (s0+s2, s1+s3) → t0+t1 — the exact tree
// DotImpl in kernels_fp32.cc retires.
inline float ReduceTree(__m256 acc) {
  const __m128 lo = _mm256_castps256_ps128(acc);
  const __m128 hi = _mm256_extractf128_ps(acc, 1);
  const __m128 s = _mm_add_ps(lo, hi);           // (s0, s1, s2, s3)
  const __m128 t = _mm_add_ps(s, _mm_movehl_ps(s, s));  // (s0+s2, s1+s3)
  const __m128 r = _mm_add_ss(t, _mm_shuffle_ps(t, t, 0x55));
  return _mm_cvtss_f32(r);
}

inline float DotImpl(const float* a, const float* b, size_t n) {
  if (n < 8) {
    float r = 0.0f;
    for (size_t i = 0; i < n; ++i) r = std::fmaf(a[i], b[i], r);
    return r;
  }
  __m256 acc = _mm256_mul_ps(_mm256_loadu_ps(a), _mm256_loadu_ps(b));
  size_t i = 8;
  for (; i + 8 <= n; i += 8) {
    acc = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i), acc);
  }
  float r = ReduceTree(acc);
  for (; i < n; ++i) r = std::fmaf(a[i], b[i], r);
  return r;
}

}  // namespace

void GemvBatchResumeAvx2(const float* x, size_t batch, size_t x_stride,
                         size_t in_dim, const float* w, const float* init,
                         size_t out_dim, float* out) {
  if (out_dim == 1) {
    for (size_t b = 0; b < batch; ++b) {
      out[b] = init[0] + DotImpl(x + b * x_stride, w, in_dim);
    }
    return;
  }
  for (size_t b = 0; b < batch; ++b) {
    const float* xrow = x + b * x_stride;
    float* orow = out + b * out_dim;
    size_t j0 = 0;
    for (; j0 + 8 <= out_dim; j0 += 8) {
      __m256 acc = _mm256_loadu_ps(init + j0);
      for (size_t i = 0; i < in_dim; ++i) {
        acc = _mm256_fmadd_ps(_mm256_set1_ps(xrow[i]),
                              _mm256_loadu_ps(w + i * out_dim + j0), acc);
      }
      _mm256_storeu_ps(orow + j0, acc);
    }
    for (; j0 < out_dim; ++j0) {
      float acc = init[j0];
      for (size_t i = 0; i < in_dim; ++i) {
        acc = std::fmaf(xrow[i], w[i * out_dim + j0], acc);
      }
      orow[j0] = acc;
    }
  }
}

void AccumulateOuterBatchAvx2(const float* in, const float* delta,
                              size_t batch, size_t in_dim, size_t out_dim,
                              float* grads_w, float* grads_b) {
  for (size_t b = 0; b < batch; ++b) {
    const float* drow = delta + b * out_dim;
    const float* irow = in + b * in_dim;
    {
      size_t j0 = 0;
      for (; j0 + 8 <= out_dim; j0 += 8) {
        _mm256_storeu_ps(grads_b + j0,
                         _mm256_add_ps(_mm256_loadu_ps(grads_b + j0),
                                       _mm256_loadu_ps(drow + j0)));
      }
      for (; j0 < out_dim; ++j0) grads_b[j0] += drow[j0];
    }
    if (out_dim == 1) {
      // grads_w is a column — vectorize over i instead (independent lanes).
      const __m256 d8 = _mm256_set1_ps(drow[0]);
      size_t i = 0;
      for (; i + 8 <= in_dim; i += 8) {
        _mm256_storeu_ps(grads_w + i,
                         _mm256_fmadd_ps(_mm256_loadu_ps(irow + i), d8,
                                         _mm256_loadu_ps(grads_w + i)));
      }
      for (; i < in_dim; ++i) {
        grads_w[i] = std::fmaf(irow[i], drow[0], grads_w[i]);
      }
      continue;
    }
    for (size_t i = 0; i < in_dim; ++i) {
      const __m256 xi8 = _mm256_set1_ps(irow[i]);
      float* grow = grads_w + i * out_dim;
      size_t j0 = 0;
      for (; j0 + 8 <= out_dim; j0 += 8) {
        _mm256_storeu_ps(grow + j0,
                         _mm256_fmadd_ps(xi8, _mm256_loadu_ps(drow + j0),
                                         _mm256_loadu_ps(grow + j0)));
      }
      for (; j0 < out_dim; ++j0) {
        grow[j0] = std::fmaf(irow[i], drow[j0], grow[j0]);
      }
    }
  }
}

void GemvBatchTransposedAvx2(const float* delta, size_t batch, size_t out_dim,
                             const float* w, size_t in_dim, float* dx) {
  for (size_t b = 0; b < batch; ++b) {
    const float* drow = delta + b * out_dim;
    float* dxrow = dx + b * in_dim;
    for (size_t i = 0; i < in_dim; ++i) {
      dxrow[i] = DotImpl(w + i * out_dim, drow, out_dim);
    }
  }
}

float DotAvx2(const float* a, const float* b, size_t n) {
  return DotImpl(a, b, n);
}

void AxpyAvx2(float alpha, const float* x, float* y, size_t n) {
  const __m256 a8 = _mm256_set1_ps(alpha);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        y + i, _mm256_fmadd_ps(a8, _mm256_loadu_ps(x + i),
                               _mm256_loadu_ps(y + i)));
  }
  for (; i < n; ++i) y[i] = std::fmaf(alpha, x[i], y[i]);
}

}  // namespace fp32

// --- fp64 fused evaluation kernel -------------------------------------------
//
// Four rows (items) ride in the four lanes of each vector; the 8 + 8 + 1
// accumulators of one 4-row block stay in registers through all three
// layers. Per lane, every step is the scalar loop's: acc + x·w as a
// separate multiply and add, inputs in ascending order, and the exact-zero
// skip as a blend that keeps acc in the lanes whose input is 0. A step
// whose mask is all-clear or all-set does the same arithmetic without the
// blend (there it is the identity).
//
// GCC contracts a*b + c into an FMA under -mfma unless told otherwise, and
// the intrinsics below are plain vector * and + to it; a fused step rounds
// once instead of twice and changes the logits' bits. Hence the pragma:
// this kernel must compile to zero vfmadd instructions.
#pragma GCC push_options
#pragma GCC optimize("fp-contract=off")

namespace fp64 {

namespace {

constexpr size_t kH = kFusedEvalHidden;

// acc[j] + x·w[j] for the kH outputs of one input, in the lanes of `live`.
inline void MulAddLive(__m256d* acc, __m256d x, const double* w,
                       __m256d live) {
  const int lanes = _mm256_movemask_pd(live);
  if (lanes == 0) return;
  if (lanes == 0xF) {
    for (size_t j = 0; j < kH; ++j) {
      acc[j] = _mm256_add_pd(acc[j], _mm256_mul_pd(x, _mm256_set1_pd(w[j])));
    }
    return;
  }
  for (size_t j = 0; j < kH; ++j) {
    const __m256d sum =
        _mm256_add_pd(acc[j], _mm256_mul_pd(x, _mm256_set1_pd(w[j])));
    acc[j] = _mm256_blendv_pd(acc[j], sum, live);
  }
}

// Layer-0 step for input x (one element of each lane's row): scaled once,
// as the assembled input is, skipped where the scaled input is exactly zero
// (x != 0 is unordered-true, so NaN inputs are consumed, as in the loop).
inline void Layer0Input(__m256d* h0, __m256d x, const double* w, bool scaled,
                        __m256d scale) {
  if (scaled) x = _mm256_mul_pd(x, scale);
  MulAddLive(h0, x, w, _mm256_cmp_pd(x, _mm256_setzero_pd(), _CMP_NEQ_UQ));
}

// ReLU then the skip: a lane contributes iff its pre-activation is > 0
// (ordered — NaN and ±0 become the +0 the skip drops), and where it does,
// ReLU is the identity, so the pre-activation itself is the input.
inline __m256d Positive(__m256d v) {
  return _mm256_cmp_pd(v, _mm256_setzero_pd(), _CMP_GT_OQ);
}

}  // namespace

void FusedEvalForwardAvx2(const FusedEvalNet& net, const double* prefix,
                          const double* x, size_t batch, size_t x_stride,
                          size_t in_dim, double scale, double* logits) {
  const bool scaled = scale != 1.0;
  const __m256d scale4 = _mm256_set1_pd(scale);
  for (size_t b = 0; b < batch; b += 4) {
    const size_t rows = std::min<size_t>(4, batch - b);
    // Lanes past the batch end re-read the block's first row; their
    // results are never stored.
    const double* r[4];
    for (size_t l = 0; l < 4; ++l) {
      r[l] = x + (b + (l < rows ? l : 0)) * x_stride;
    }

    __m256d h0[kH];
    for (size_t j = 0; j < kH; ++j) h0[j] = _mm256_set1_pd(prefix[j]);
    size_t i = 0;
    for (; i + 4 <= in_dim; i += 4) {
      // 4x4 transpose: permute k holds input i + k of the four rows.
      const __m256d a0 = _mm256_loadu_pd(r[0] + i);
      const __m256d a1 = _mm256_loadu_pd(r[1] + i);
      const __m256d a2 = _mm256_loadu_pd(r[2] + i);
      const __m256d a3 = _mm256_loadu_pd(r[3] + i);
      const __m256d t0 = _mm256_unpacklo_pd(a0, a1);
      const __m256d t1 = _mm256_unpackhi_pd(a0, a1);
      const __m256d t2 = _mm256_unpacklo_pd(a2, a3);
      const __m256d t3 = _mm256_unpackhi_pd(a2, a3);
      const double* w = net.w0 + i * kH;
      Layer0Input(h0, _mm256_permute2f128_pd(t0, t2, 0x20), w, scaled, scale4);
      Layer0Input(h0, _mm256_permute2f128_pd(t1, t3, 0x20), w + kH, scaled,
                  scale4);
      Layer0Input(h0, _mm256_permute2f128_pd(t0, t2, 0x31), w + 2 * kH,
                  scaled, scale4);
      Layer0Input(h0, _mm256_permute2f128_pd(t1, t3, 0x31), w + 3 * kH,
                  scaled, scale4);
    }
    for (; i < in_dim; ++i) {
      Layer0Input(h0, _mm256_set_pd(r[3][i], r[2][i], r[1][i], r[0][i]),
                  net.w0 + i * kH, scaled, scale4);
    }

    __m256d h1[kH];
    for (size_t j = 0; j < kH; ++j) h1[j] = _mm256_set1_pd(net.b1[j]);
    for (size_t i1 = 0; i1 < kH; ++i1) {
      MulAddLive(h1, h0[i1], net.w1 + i1 * kH, Positive(h0[i1]));
    }

    __m256d out = _mm256_set1_pd(net.b2[0]);
    for (size_t i2 = 0; i2 < kH; ++i2) {
      const __m256d sum = _mm256_add_pd(
          out, _mm256_mul_pd(h1[i2], _mm256_set1_pd(net.w2[i2])));
      out = _mm256_blendv_pd(out, sum, Positive(h1[i2]));
    }
    if (rows == 4) {
      _mm256_storeu_pd(logits + b, out);
    } else {
      double tail[4];
      _mm256_storeu_pd(tail, out);
      std::copy(tail, tail + rows, logits + b);
    }
  }
}

}  // namespace fp64

#pragma GCC pop_options

}  // namespace hetefedrec

#endif  // HFR_HAVE_AVX2_TU
