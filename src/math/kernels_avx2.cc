// Hand-vectorized AVX2+FMA kernels (compiled with -mavx2 -mfma; this is
// the only translation unit with those flags, so nothing here may be
// called unless runtime dispatch confirmed CPU support): the fp32 set and
// the fp64 training and fused evaluation kernels.
//
// Lockstep contract with kernels_fp32.cc: per output element, the vector
// code performs the same single-rounding multiply-adds in the same order
// as the scalar emulation, and the horizontal reduction is the fixed
// (l0+l4, l1+l5, l2+l6, l3+l7) → (s0+s2, s1+s3) → t0+t1 tree. Any change
// to either file must be mirrored in the other
// (tests/math/kernels_test.cc pins the bit-identity).
//
// The fp64 kernels at the end of the file have the opposite contract: no
// fused multiply-add anywhere (see their section).

#include "src/math/aligned.h"
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

// --- fp64 kernels -------------------------------------------------------------
//
// Every fp64 kernel below only lays the work out across lanes: per lane,
// each step is the scalar loop's — acc + x·w as a separate multiply and
// add, terms in the scalar order, and the exact-zero skip either as the
// scalar branch (where the skipped input is the same for every lane) or as
// a per-lane blend that adds −0 instead of x·w in the lanes whose input is
// 0. Adding −0 is the identity for every acc (+0, −0, ±Inf and quiet NaN
// included; only a signaling NaN, which no arithmetic produces, would come
// back quieted), so the blended step keeps acc exactly as the skip does. A
// step whose mask is all-clear or all-set does the same arithmetic without
// the blend. Layouts (docs/PERFORMANCE.md "fp64 training kernels"):
//
//   rows in lanes    — GemvBatchResume with out_dim 1 or 8 and the fused
//                      eval forward: four rows per vector, one accumulator
//                      vector per output, inputs read through 4x4
//                      transposes.
//   columns in lanes — GemvBatchResume with any other out_dim (the DDR
//                      product X·C) and AccumulateOuterBatch with
//                      out_dim > 1: one
//                      row's outputs (or a gradient panel's j) across the
//                      lanes; gradient panels stay in registers while the
//                      samples stream through in ascending order.
//   inputs in lanes  — AccumulateOuterBatch with out_dim 1 (its gradient
//                      is a column) and GemvBatchTransposed, which reads
//                      W transposed so four inputs i share each vector.
//
// GCC contracts a*b + c into an FMA under -mfma unless told otherwise, and
// the intrinsics below are plain vector * and + to it; a fused step rounds
// once instead of twice and changes the results' bits. Hence the pragma:
// this section must compile to zero fp64 vfmadd instructions (the
// lint_fp64_no_fma ctest disassembles the object to check).
#pragma GCC push_options
#pragma GCC optimize("fp-contract=off")

namespace fp64 {

namespace {

constexpr size_t kH = kFusedEvalHidden;

// Lanes whose input is consumed: x != 0 is unordered-true, so NaN inputs
// are consumed and only ±0 is skipped, as in the scalar loops.
inline __m256d Nonzero(__m256d x) {
  return _mm256_cmp_pd(x, _mm256_setzero_pd(), _CMP_NEQ_UQ);
}

// ReLU then the skip: a lane contributes iff its pre-activation is > 0
// (ordered — NaN and ±0 become the +0 the skip drops), and where it does,
// ReLU is the identity, so the pre-activation itself is the input.
inline __m256d Positive(__m256d v) {
  return _mm256_cmp_pd(v, _mm256_setzero_pd(), _CMP_GT_OQ);
}

// acc + x·w in the lanes of `live`, acc + (−0) = acc elsewhere. Masking
// the product rather than blending the sum keeps the select off the
// accumulator's dependency chain and avoids vblendvpd.
inline __m256d MulAddBlend(__m256d acc, __m256d x, __m256d w, __m256d live) {
  const __m256d dead = _mm256_andnot_pd(live, _mm256_set1_pd(-0.0));
  return _mm256_add_pd(
      acc, _mm256_or_pd(_mm256_and_pd(_mm256_mul_pd(x, w), live), dead));
}

// acc[j] + x·w[j] for the N outputs of one input, in the lanes of `live`.
template <size_t N>
inline void MulAddLive(__m256d* acc, __m256d x, const double* w,
                       __m256d live) {
  const int lanes = _mm256_movemask_pd(live);
  if (lanes == 0) return;
  if (lanes == 0xF) {
    for (size_t j = 0; j < N; ++j) {
      acc[j] = _mm256_add_pd(acc[j], _mm256_mul_pd(x, _mm256_set1_pd(w[j])));
    }
    return;
  }
  for (size_t j = 0; j < N; ++j) {
    acc[j] = MulAddBlend(acc[j], x, _mm256_set1_pd(w[j]), live);
  }
}

// In-place 4x4 transpose: afterwards v[k] holds element k of each input.
inline void Transpose4(__m256d* v) {
  const __m256d t0 = _mm256_unpacklo_pd(v[0], v[1]);
  const __m256d t1 = _mm256_unpackhi_pd(v[0], v[1]);
  const __m256d t2 = _mm256_unpacklo_pd(v[2], v[3]);
  const __m256d t3 = _mm256_unpackhi_pd(v[2], v[3]);
  v[0] = _mm256_permute2f128_pd(t0, t2, 0x20);
  v[1] = _mm256_permute2f128_pd(t1, t3, 0x20);
  v[2] = _mm256_permute2f128_pd(t0, t2, 0x31);
  v[3] = _mm256_permute2f128_pd(t1, t3, 0x31);
}

// Lane mask of the first n (≤ 4) lanes, for loads and stores past a row's
// end; masked-off lanes load 0 and are never stored.
inline __m256i FirstLanes(size_t n) {
  return _mm256_cmpgt_epi64(_mm256_set1_epi64x(static_cast<long long>(n)),
                            _mm256_set_epi64x(3, 2, 1, 0));
}

// Lane masks of the V vectors over columns [j0, j0 + 4·V) of a row of
// `cols` scalars.
template <size_t V>
inline void PanelMasks(size_t j0, size_t cols, __m256i* mask) {
  for (size_t v = 0; v < V; ++v) {
    const size_t c = j0 + 4 * v;
    mask[v] = FirstLanes(c >= cols ? 0 : std::min<size_t>(4, cols - c));
  }
}

template <bool kFull>
inline __m256d LoadLanes(const double* p, __m256i mask) {
  if constexpr (kFull) return _mm256_loadu_pd(p);
  return _mm256_maskload_pd(p, mask);
}

template <bool kFull>
inline void StoreLanes(double* p, __m256i mask, __m256d v) {
  if constexpr (kFull) {
    _mm256_storeu_pd(p, v);
  } else {
    _mm256_maskstore_pd(p, mask, v);
  }
}

// Row pointers of the 4-row block starting at b; lanes past the batch end
// re-read the block's first row, and their results are never stored.
inline size_t BlockRows(const double* x, size_t b, size_t batch,
                        size_t stride, const double** r) {
  const size_t rows = std::min<size_t>(4, batch - b);
  for (size_t l = 0; l < 4; ++l) {
    r[l] = x + (b + (l < rows ? l : 0)) * stride;
  }
  return rows;
}

// Rows in lanes: out[b, j] = init[j] + Σ_i x[b, i]·w[i, j] for N outputs,
// the four rows of a block in the four lanes.
template <size_t N>
void GemvResumeRowLanes(const double* x, size_t batch, size_t x_stride,
                        size_t in_dim, const double* w, const double* init,
                        double* out) {
  for (size_t b = 0; b < batch; b += 4) {
    const double* r[4];
    const size_t rows = BlockRows(x, b, batch, x_stride, r);
    __m256d acc[N];
    for (size_t j = 0; j < N; ++j) acc[j] = _mm256_set1_pd(init[j]);
    size_t i = 0;
    for (; i + 4 <= in_dim; i += 4) {
      __m256d c[4];
      for (size_t l = 0; l < 4; ++l) c[l] = _mm256_loadu_pd(r[l] + i);
      Transpose4(c);
      for (size_t k = 0; k < 4; ++k) {
        MulAddLive<N>(acc, c[k], w + (i + k) * N, Nonzero(c[k]));
      }
    }
    for (; i < in_dim; ++i) {
      const __m256d c = _mm256_set_pd(r[3][i], r[2][i], r[1][i], r[0][i]);
      MulAddLive<N>(acc, c, w + i * N, Nonzero(c));
    }
    double* orow = out + b * N;
    if (N == 1 && rows == 4) {
      _mm256_storeu_pd(orow, acc[0]);
    } else if (N % 4 == 0 && rows == 4) {
      for (size_t j = 0; j + 4 <= N; j += 4) {
        __m256d t[4] = {acc[j], acc[j + 1], acc[j + 2], acc[j + 3]};
        Transpose4(t);
        for (size_t l = 0; l < 4; ++l) _mm256_storeu_pd(orow + l * N + j, t[l]);
      }
    } else {
      alignas(32) double lanes[4 * N];
      for (size_t j = 0; j < N; ++j) _mm256_store_pd(lanes + 4 * j, acc[j]);
      for (size_t l = 0; l < rows; ++l) {
        for (size_t j = 0; j < N; ++j) orow[l * N + j] = lanes[4 * j + l];
      }
    }
  }
}

// Columns in lanes: one row's outputs [j0, j0 + 16) in four vectors, two
// rows at a time (R = 2) for independent chains. The skip is the scalar
// branch — a row's input is the same in every lane.
constexpr size_t kPanelVecs = 4;
constexpr size_t kPanelCols = 4 * kPanelVecs;

template <size_t R, bool kFull>
void GemvResumeColPanel(const double* x, size_t x_stride, size_t in_dim,
                        const double* w, const double* init, size_t out_dim,
                        size_t j0, const __m256i* mask, double* out) {
  __m256d acc[R][kPanelVecs];
  for (size_t r = 0; r < R; ++r) {
    for (size_t v = 0; v < kPanelVecs; ++v) {
      acc[r][v] = LoadLanes<kFull>(init + j0 + 4 * v, mask[v]);
    }
  }
  for (size_t i = 0; i < in_dim; ++i) {
    const double* wrow = w + i * out_dim + j0;
    for (size_t r = 0; r < R; ++r) {
      const double xi = x[r * x_stride + i];
      if (xi == 0.0) continue;
      const __m256d x4 = _mm256_set1_pd(xi);
      for (size_t v = 0; v < kPanelVecs; ++v) {
        acc[r][v] = _mm256_add_pd(
            acc[r][v],
            _mm256_mul_pd(x4, LoadLanes<kFull>(wrow + 4 * v, mask[v])));
      }
    }
  }
  for (size_t r = 0; r < R; ++r) {
    for (size_t v = 0; v < kPanelVecs; ++v) {
      StoreLanes<kFull>(out + r * out_dim + j0 + 4 * v, mask[v], acc[r][v]);
    }
  }
}

template <bool kFull>
void GemvResumeColLanes(const double* x, size_t batch, size_t x_stride,
                        size_t in_dim, const double* w, const double* init,
                        size_t out_dim, size_t j0, double* out) {
  __m256i mask[kPanelVecs];
  PanelMasks<kPanelVecs>(j0, out_dim, mask);
  size_t b = 0;
  for (; b + 2 <= batch; b += 2) {
    GemvResumeColPanel<2, kFull>(x + b * x_stride, x_stride, in_dim, w, init,
                                 out_dim, j0, mask, out + b * out_dim);
  }
  if (b < batch) {
    GemvResumeColPanel<1, kFull>(x + b * x_stride, x_stride, in_dim, w, init,
                                 out_dim, j0, mask, out + b * out_dim);
  }
}

// Columns in lanes: the I x (4·V) gradient panel starting at (i0, j0) stays
// in registers while every sample adds its in ⊗ delta terms, in ascending
// sample order. Inputs feeding a ReLU layer are zero about half the time,
// so the skip is a blend, not a branch.
template <size_t I, size_t V, bool kFull>
void OuterPanel(const double* in, const double* delta, size_t batch,
                size_t in_dim, size_t out_dim, size_t i0, size_t j0,
                const __m256i* mask, double* grads_w) {
  __m256d acc[I][V];
  for (size_t r = 0; r < I; ++r) {
    for (size_t v = 0; v < V; ++v) {
      acc[r][v] = LoadLanes<kFull>(grads_w + (i0 + r) * out_dim + j0 + 4 * v,
                                   mask[v]);
    }
  }
  for (size_t b = 0; b < batch; ++b) {
    const double* drow = delta + b * out_dim + j0;
    __m256d d[V];
    for (size_t v = 0; v < V; ++v) {
      d[v] = LoadLanes<kFull>(drow + 4 * v, mask[v]);
    }
    const double* irow = in + b * in_dim + i0;
    // One branch per sample: embedding and DDR inputs are almost never
    // exactly zero, and ReLU outputs almost always include one.
    bool all_live = true;
    for (size_t r = 0; r < I; ++r) all_live &= irow[r] != 0.0;
    if (all_live) {
      for (size_t r = 0; r < I; ++r) {
        const __m256d x4 = _mm256_broadcast_sd(irow + r);
        for (size_t v = 0; v < V; ++v) {
          acc[r][v] = _mm256_add_pd(acc[r][v], _mm256_mul_pd(x4, d[v]));
        }
      }
      continue;
    }
    for (size_t r = 0; r < I; ++r) {
      const __m256d x4 = _mm256_broadcast_sd(irow + r);
      const __m256d live = Nonzero(x4);
      for (size_t v = 0; v < V; ++v) {
        acc[r][v] = MulAddBlend(acc[r][v], x4, d[v], live);
      }
    }
  }
  for (size_t r = 0; r < I; ++r) {
    for (size_t v = 0; v < V; ++v) {
      StoreLanes<kFull>(grads_w + (i0 + r) * out_dim + j0 + 4 * v, mask[v],
                        acc[r][v]);
    }
  }
}

// Panels of V vectors (4·V columns) × I inputs, with the trailing inputs
// one at a time: I · V = 8 accumulators.
template <size_t I, size_t V, bool kFull>
void OuterColLanes(const double* in, const double* delta, size_t batch,
                   size_t in_dim, size_t out_dim, size_t j0,
                   double* grads_w) {
  __m256i mask[V];
  PanelMasks<V>(j0, out_dim, mask);
  size_t i0 = 0;
  for (; i0 + I <= in_dim; i0 += I) {
    OuterPanel<I, V, kFull>(in, delta, batch, in_dim, out_dim, i0, j0, mask,
                            grads_w);
  }
  for (; i0 < in_dim; ++i0) {
    OuterPanel<1, V, kFull>(in, delta, batch, in_dim, out_dim, i0, j0, mask,
                            grads_w);
  }
}

template <size_t V>
void OuterColumns(const double* in, const double* delta, size_t batch,
                  size_t in_dim, size_t out_dim, double* grads_w) {
  constexpr size_t kCols = 4 * V;
  constexpr size_t kI = 8 / V;
  size_t j0 = 0;
  for (; j0 + kCols <= out_dim; j0 += kCols) {
    OuterColLanes<kI, V, true>(in, delta, batch, in_dim, out_dim, j0,
                               grads_w);
  }
  if (j0 < out_dim) {
    OuterColLanes<kI, V, false>(in, delta, batch, in_dim, out_dim, j0,
                                grads_w);
  }
}

// Inputs in lanes for a one-column gradient: grads_w[i] over panels of
// eight inputs, samples streaming through in ascending order.
template <bool kFull>
void OuterOneColumnPanel(const double* in, const double* delta, size_t batch,
                         size_t in_dim, size_t i0, double* grads_w) {
  __m256i mask[2];
  PanelMasks<2>(i0, in_dim, mask);
  __m256d acc[2];
  for (size_t v = 0; v < 2; ++v) {
    acc[v] = LoadLanes<kFull>(grads_w + i0 + 4 * v, mask[v]);
  }
  for (size_t b = 0; b < batch; ++b) {
    const __m256d d = _mm256_broadcast_sd(delta + b);
    const double* irow = in + b * in_dim + i0;
    for (size_t v = 0; v < 2; ++v) {
      const __m256d x = LoadLanes<kFull>(irow + 4 * v, mask[v]);
      acc[v] = MulAddBlend(acc[v], x, d, Nonzero(x));
    }
  }
  for (size_t v = 0; v < 2; ++v) {
    StoreLanes<kFull>(grads_w + i0 + 4 * v, mask[v], acc[v]);
  }
}

// grads_b[j] += Σ_b delta[b, j], ascending b, in column-lane panels.
void AccumulateBias(const double* delta, size_t batch, size_t out_dim,
                    double* grads_b) {
  if (out_dim == 1) {
    double acc = grads_b[0];
    for (size_t b = 0; b < batch; ++b) acc += delta[b];
    grads_b[0] = acc;
    return;
  }
  for (size_t j0 = 0; j0 < out_dim; j0 += kPanelCols) {
    __m256i mask[kPanelVecs];
    PanelMasks<kPanelVecs>(j0, out_dim, mask);
    __m256d acc[kPanelVecs];
    for (size_t v = 0; v < kPanelVecs; ++v) {
      acc[v] = _mm256_maskload_pd(grads_b + j0 + 4 * v, mask[v]);
    }
    for (size_t b = 0; b < batch; ++b) {
      const double* drow = delta + b * out_dim + j0;
      for (size_t v = 0; v < kPanelVecs; ++v) {
        acc[v] = _mm256_add_pd(acc[v],
                               _mm256_maskload_pd(drow + 4 * v, mask[v]));
      }
    }
    for (size_t v = 0; v < kPanelVecs; ++v) {
      _mm256_maskstore_pd(grads_b + j0 + 4 * v, mask[v], acc[v]);
    }
  }
}

// Fused-eval layer-0 step for input x (one element of each lane's row):
// scaled once, as the assembled input is, skipped where the scaled input is
// exactly zero.
inline void Layer0Input(__m256d* h0, __m256d x, const double* w, bool scaled,
                        __m256d scale) {
  if (scaled) x = _mm256_mul_pd(x, scale);
  MulAddLive<kH>(h0, x, w, Nonzero(x));
}

}  // namespace

void GemvBatchResumeAvx2(const double* x, size_t batch, size_t x_stride,
                         size_t in_dim, const double* w, const double* init,
                         size_t out_dim, double* out) {
  // The Θ shapes — a hidden layer's 8 outputs, the logit's 1 — put rows in
  // the lanes; every other width (DDR's X·C) puts columns there.
  if (out_dim == 1) {
    return GemvResumeRowLanes<1>(x, batch, x_stride, in_dim, w, init, out);
  }
  if (out_dim == kH) {
    return GemvResumeRowLanes<kH>(x, batch, x_stride, in_dim, w, init, out);
  }
  size_t j0 = 0;
  for (; j0 + kPanelCols <= out_dim; j0 += kPanelCols) {
    GemvResumeColLanes<true>(x, batch, x_stride, in_dim, w, init, out_dim, j0,
                             out);
  }
  if (j0 < out_dim) {
    GemvResumeColLanes<false>(x, batch, x_stride, in_dim, w, init, out_dim,
                              j0, out);
  }
}

void AccumulateOuterBatchAvx2(const double* in, const double* delta,
                              size_t batch, size_t in_dim, size_t out_dim,
                              double* grads_w, double* grads_b) {
  AccumulateBias(delta, batch, out_dim, grads_b);
  if (out_dim == 1) {
    size_t i0 = 0;
    for (; i0 + 8 <= in_dim; i0 += 8) {
      OuterOneColumnPanel<true>(in, delta, batch, in_dim, i0, grads_w);
    }
    if (i0 < in_dim) {
      OuterOneColumnPanel<false>(in, delta, batch, in_dim, i0, grads_w);
    }
  } else if (out_dim <= 8) {
    OuterColumns<2>(in, delta, batch, in_dim, out_dim, grads_w);
  } else {
    OuterColumns<kPanelVecs>(in, delta, batch, in_dim, out_dim, grads_w);
  }
}

void GemvBatchTransposedAvx2(const double* delta, size_t batch,
                             size_t out_dim, const double* w, size_t in_dim,
                             double* dx) {
  // Wᵀ with each row padded to whole vectors: wt[j, i] = w[i, j].
  const size_t pad = (in_dim + 3) / 4 * 4;
  thread_local AlignedVector<double> wt;
  wt.assign(out_dim * pad, 0.0);
  for (size_t i = 0; i < in_dim; ++i) {
    for (size_t j = 0; j < out_dim; ++j) wt[j * pad + i] = w[i * out_dim + j];
  }
  const __m256i tail = FirstLanes(in_dim % 4);
  // dx[b, i] = +0 + Σ_j w[i, j]·delta[b, j] in ascending j, four i per
  // vector; two vectors per pass share the delta broadcasts.
  for (size_t b = 0; b < batch; ++b) {
    const double* drow = delta + b * out_dim;
    double* dxrow = dx + b * in_dim;
    size_t i0 = 0;
    for (; i0 + 8 <= pad; i0 += 8) {
      __m256d acc0 = _mm256_setzero_pd();
      __m256d acc1 = _mm256_setzero_pd();
      for (size_t j = 0; j < out_dim; ++j) {
        const __m256d d = _mm256_broadcast_sd(drow + j);
        const double* wtj = wt.data() + j * pad + i0;
        acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(_mm256_load_pd(wtj), d));
        acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(_mm256_load_pd(wtj + 4), d));
      }
      _mm256_storeu_pd(dxrow + i0, acc0);
      if (i0 + 8 <= in_dim) {
        _mm256_storeu_pd(dxrow + i0 + 4, acc1);
      } else {
        _mm256_maskstore_pd(dxrow + i0 + 4, tail, acc1);
      }
    }
    if (i0 < pad) {
      __m256d acc = _mm256_setzero_pd();
      for (size_t j = 0; j < out_dim; ++j) {
        acc = _mm256_add_pd(
            acc, _mm256_mul_pd(_mm256_load_pd(wt.data() + j * pad + i0),
                               _mm256_broadcast_sd(drow + j)));
      }
      if (i0 + 4 <= in_dim) {
        _mm256_storeu_pd(dxrow + i0, acc);
      } else {
        _mm256_maskstore_pd(dxrow + i0, tail, acc);
      }
    }
  }
}

void FusedEvalForwardAvx2(const FusedEvalNet& net, const double* prefix,
                          const double* x, size_t batch, size_t x_stride,
                          size_t in_dim, double scale, double* logits) {
  const bool scaled = scale != 1.0;
  const __m256d scale4 = _mm256_set1_pd(scale);
  for (size_t b = 0; b < batch; b += 4) {
    const double* r[4];
    const size_t rows = BlockRows(x, b, batch, x_stride, r);

    __m256d h0[kH];
    for (size_t j = 0; j < kH; ++j) h0[j] = _mm256_set1_pd(prefix[j]);
    size_t i = 0;
    for (; i + 4 <= in_dim; i += 4) {
      __m256d c[4];
      for (size_t l = 0; l < 4; ++l) c[l] = _mm256_loadu_pd(r[l] + i);
      Transpose4(c);
      for (size_t k = 0; k < 4; ++k) {
        Layer0Input(h0, c[k], net.w0 + (i + k) * kH, scaled, scale4);
      }
    }
    for (; i < in_dim; ++i) {
      Layer0Input(h0, _mm256_set_pd(r[3][i], r[2][i], r[1][i], r[0][i]),
                  net.w0 + i * kH, scaled, scale4);
    }

    __m256d h1[kH];
    for (size_t j = 0; j < kH; ++j) h1[j] = _mm256_set1_pd(net.b1[j]);
    for (size_t i1 = 0; i1 < kH; ++i1) {
      MulAddLive<kH>(h1, h0[i1], net.w1 + i1 * kH, Positive(h0[i1]));
    }

    __m256d out = _mm256_set1_pd(net.b2[0]);
    for (size_t i2 = 0; i2 < kH; ++i2) {
      out = MulAddBlend(out, h1[i2], _mm256_set1_pd(net.w2[i2]),
                        Positive(h1[i2]));
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

// --- AVX-512 arm of the fused eval forward ------------------------------------
//
// The same per-lane steps as FusedEvalForwardAvx2 with eight rows in the
// eight lanes of a zmm vector. The skip is an opmask: the masked add keeps
// acc bit for bit in the lanes whose input is skipped, exactly as the
// scalar `continue` does, so no blend and no movemask branch is needed.
//
// The translation unit is built for AVX2 only; this block alone targets
// AVX-512F, and it sits inside the fp-contract=off region so that region's
// rule holds here too. Everything defined in it runs only after
// CpuSupportsAvx512(); nothing outside it may call into it, and no code
// shared with the AVX2 arms may be defined in it (GCC would compile that
// code with EVEX encodings, which fault on AVX2-only CPUs). lint_fp64_no_fma
// fails on zmm, opmask or xmm16-31 registers in any function whose name
// does not contain Avx512.
#pragma GCC push_options
#pragma GCC target("avx512f")

namespace {

// In-place 8x8 transpose: afterwards v[k] holds element k of each input.
inline void Transpose8Avx512(__m512d* v) {
  __m512d t[8];
  for (size_t p = 0; p < 4; ++p) {
    t[2 * p] = _mm512_unpacklo_pd(v[2 * p], v[2 * p + 1]);
    t[2 * p + 1] = _mm512_unpackhi_pd(v[2 * p], v[2 * p + 1]);
  }
  // 128-bit lanes {0, 2} and {1, 3} of each pair of rows' unpacks.
  __m512d s[8];
  for (size_t q = 0; q < 2; ++q) {
    for (size_t h = 0; h < 2; ++h) {
      const __m512d a = t[4 * q + h];
      const __m512d b = t[4 * q + 2 + h];
      s[4 * q + h] = _mm512_shuffle_f64x2(a, b, 0x88);
      s[4 * q + 2 + h] = _mm512_shuffle_f64x2(a, b, 0xDD);
    }
  }
  for (size_t h = 0; h < 2; ++h) {
    v[h] = _mm512_shuffle_f64x2(s[h], s[4 + h], 0x88);
    v[4 + h] = _mm512_shuffle_f64x2(s[h], s[4 + h], 0xDD);
    v[2 + h] = _mm512_shuffle_f64x2(s[2 + h], s[6 + h], 0x88);
    v[6 + h] = _mm512_shuffle_f64x2(s[2 + h], s[6 + h], 0xDD);
  }
}

// Layer-0 step for input x (one element of each lane's row): scaled once,
// as the assembled input is, and skipped where the scaled input is exactly
// zero (x != 0 is unordered-true, so NaN inputs are consumed).
inline void Layer0InputAvx512(__m512d* h0, __m512d x, const double* w,
                              bool scaled, __m512d scale) {
  if (scaled) x = _mm512_mul_pd(x, scale);
  const __mmask8 live = _mm512_cmp_pd_mask(x, _mm512_setzero_pd(),
                                           _CMP_NEQ_UQ);
  for (size_t j = 0; j < kH; ++j) {
    h0[j] = _mm512_mask_add_pd(h0[j], live, h0[j],
                               _mm512_mul_pd(x, _mm512_set1_pd(w[j])));
  }
}

// acc[j] + x·w[j] for the N outputs fed by a ReLU output x, in the lanes
// whose pre-activation is > 0 (ordered: NaN and ±0 are the +0 the skip
// drops, and where a lane contributes, ReLU is the identity).
template <size_t N>
inline void ReluMulAddAvx512(__m512d* acc, __m512d x, const double* w) {
  const __mmask8 live = _mm512_cmp_pd_mask(x, _mm512_setzero_pd(),
                                           _CMP_GT_OQ);
  for (size_t j = 0; j < N; ++j) {
    acc[j] = _mm512_mask_add_pd(acc[j], live, acc[j],
                                _mm512_mul_pd(x, _mm512_set1_pd(w[j])));
  }
}

}  // namespace

void FusedEvalForwardAvx512(const FusedEvalNet& net, const double* prefix,
                            const double* x, size_t batch, size_t x_stride,
                            size_t in_dim, double scale, double* logits) {
  const bool scaled = scale != 1.0;
  const __m512d scale8 = _mm512_set1_pd(scale);
  const size_t tail = in_dim % 8;
  const __mmask8 tail_lanes = static_cast<__mmask8>((1u << tail) - 1);
  for (size_t b = 0; b < batch; b += 8) {
    // Lanes past the batch end re-read the block's first row; their
    // results are never stored. (No std:: template is instantiated in this
    // block: an out-of-line copy compiled for AVX-512 could be shared.)
    const size_t rows = batch - b < 8 ? batch - b : 8;
    const double* r[8];
    for (size_t l = 0; l < 8; ++l) {
      r[l] = x + (b + (l < rows ? l : 0)) * x_stride;
    }

    __m512d h0[kH];
    for (size_t j = 0; j < kH; ++j) h0[j] = _mm512_set1_pd(prefix[j]);
    size_t i = 0;
    for (; i + 8 <= in_dim; i += 8) {
      __m512d c[8];
      for (size_t l = 0; l < 8; ++l) c[l] = _mm512_loadu_pd(r[l] + i);
      Transpose8Avx512(c);
#pragma GCC unroll 8
      for (size_t k = 0; k < 8; ++k) {
        Layer0InputAvx512(h0, c[k], net.w0 + (i + k) * kH, scaled, scale8);
      }
    }
    if (tail != 0) {
      __m512d c[8];
      for (size_t l = 0; l < 8; ++l) {
        c[l] = _mm512_maskz_loadu_pd(tail_lanes, r[l] + i);
      }
      Transpose8Avx512(c);
      for (size_t k = 0; k < tail; ++k) {
        Layer0InputAvx512(h0, c[k], net.w0 + (i + k) * kH, scaled, scale8);
      }
    }

    __m512d h1[kH];
    for (size_t j = 0; j < kH; ++j) h1[j] = _mm512_set1_pd(net.b1[j]);
    for (size_t i1 = 0; i1 < kH; ++i1) {
      ReluMulAddAvx512<kH>(h1, h0[i1], net.w1 + i1 * kH);
    }

    __m512d out = _mm512_set1_pd(net.b2[0]);
    for (size_t i2 = 0; i2 < kH; ++i2) {
      ReluMulAddAvx512<1>(&out, h1[i2], net.w2 + i2);
    }
    _mm512_mask_storeu_pd(logits + b,
                          static_cast<__mmask8>((1u << rows) - 1), out);
  }
}

#pragma GCC pop_options

}  // namespace fp64

#pragma GCC pop_options

}  // namespace hetefedrec

#endif  // HFR_HAVE_AVX2_TU
