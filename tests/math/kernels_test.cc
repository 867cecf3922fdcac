// The batched micro-kernels must be bit-identical to their scalar
// reference loops — batching regroups independent accumulator targets but
// never the additions into one target. EXPECT_EQ on doubles is deliberate.
#include "src/math/kernels.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "src/math/backend.h"
#include "src/math/init.h"
#include "src/math/kernels_fp32.h"
#include "src/math/kernels_fp64.h"
#include "src/models/ffn.h"
#include "src/util/rng.h"

namespace hetefedrec {
namespace {

std::vector<double> RandomBlock(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (double& x : v) x = rng.Normal(0.0, 0.3);
  return v;
}

// The scalar FFN-layer loop (ffn.cc's original Forward body).
void ScalarGemv(const double* x, size_t in_dim, const double* w,
                const double* bias, size_t out_dim, double* out) {
  for (size_t j = 0; j < out_dim; ++j) out[j] = bias[j];
  for (size_t i = 0; i < in_dim; ++i) {
    double xi = x[i];
    if (xi == 0.0) continue;
    for (size_t j = 0; j < out_dim; ++j) out[j] += xi * w[i * out_dim + j];
  }
}

TEST(GemvBatchBiasedTest, BitIdenticalToPerSampleGemv) {
  // Batch sizes straddle the kKernelRowBlock boundary.
  for (size_t batch : {size_t{1}, size_t{7}, size_t{31}, size_t{32},
                       size_t{33}, size_t{100}}) {
    for (size_t in_dim : {size_t{5}, size_t{16}, size_t{64}}) {
      const size_t out_dim = 8;
      std::vector<double> x = RandomBlock(batch * in_dim, 1 + batch);
      std::vector<double> w = RandomBlock(in_dim * out_dim, 2 + in_dim);
      std::vector<double> bias = RandomBlock(out_dim, 3);
      // Exercise the zero-skip path.
      for (size_t t = 0; t < x.size(); t += 3) x[t] = 0.0;

      std::vector<double> batched(batch * out_dim);
      GemvBatchBiased(x.data(), batch, in_dim, w.data(), bias.data(),
                      out_dim, batched.data());

      std::vector<double> ref(out_dim);
      for (size_t b = 0; b < batch; ++b) {
        ScalarGemv(x.data() + b * in_dim, in_dim, w.data(), bias.data(),
                   out_dim, ref.data());
        for (size_t j = 0; j < out_dim; ++j) {
          ASSERT_EQ(batched[b * out_dim + j], ref[j])
              << "batch=" << batch << " b=" << b << " j=" << j;
        }
      }
    }
  }
}

TEST(AccumulateOuterBatchTest, BitIdenticalToSampleOrderAccumulation) {
  const size_t in_dim = 12, out_dim = 8;
  for (size_t batch : {size_t{1}, size_t{7}, size_t{64}}) {
    std::vector<double> in = RandomBlock(batch * in_dim, 11 + batch);
    std::vector<double> delta = RandomBlock(batch * out_dim, 13 + batch);
    for (size_t t = 0; t < in.size(); t += 5) in[t] = 0.0;

    std::vector<double> gw(in_dim * out_dim, 0.25);
    std::vector<double> gb(out_dim, -0.5);
    std::vector<double> gw_ref = gw;
    std::vector<double> gb_ref = gb;

    AccumulateOuterBatch(in.data(), delta.data(), batch, in_dim, out_dim,
                         gw.data(), gb.data());

    for (size_t b = 0; b < batch; ++b) {
      const double* irow = in.data() + b * in_dim;
      const double* drow = delta.data() + b * out_dim;
      for (size_t j = 0; j < out_dim; ++j) gb_ref[j] += drow[j];
      for (size_t i = 0; i < in_dim; ++i) {
        if (irow[i] == 0.0) continue;
        for (size_t j = 0; j < out_dim; ++j) {
          gw_ref[i * out_dim + j] += irow[i] * drow[j];
        }
      }
    }
    for (size_t t = 0; t < gw.size(); ++t) ASSERT_EQ(gw[t], gw_ref[t]);
    for (size_t t = 0; t < gb.size(); ++t) ASSERT_EQ(gb[t], gb_ref[t]);
  }
}

TEST(GemvBatchTransposedTest, BitIdenticalToPerSampleDots) {
  const size_t in_dim = 16, out_dim = 8;
  for (size_t batch : {size_t{1}, size_t{7}, size_t{64}}) {
    std::vector<double> delta = RandomBlock(batch * out_dim, 17 + batch);
    std::vector<double> w = RandomBlock(in_dim * out_dim, 19);
    std::vector<double> dx(batch * in_dim);
    GemvBatchTransposed(delta.data(), batch, out_dim, w.data(), in_dim,
                        dx.data());
    for (size_t b = 0; b < batch; ++b) {
      for (size_t i = 0; i < in_dim; ++i) {
        double acc = 0.0;
        for (size_t j = 0; j < out_dim; ++j) {
          acc += w[i * out_dim + j] * delta[b * out_dim + j];
        }
        ASSERT_EQ(dx[b * in_dim + i], acc) << "b=" << b << " i=" << i;
      }
    }
  }
}

TEST(GramMatrixTest, BitIdenticalToPairwiseDot) {
  // k straddles the tile size; includes an all-zero row.
  for (size_t k : {size_t{1}, size_t{7}, size_t{33}, size_t{70}}) {
    const size_t n = 24;
    std::vector<double> x = RandomBlock(k * n, 23 + k);
    if (k > 2) std::fill(x.begin() + n, x.begin() + 2 * n, 0.0);
    Matrix gram(k, k);
    GramMatrix(x.data(), k, n, &gram);
    for (size_t a = 0; a < k; ++a) {
      for (size_t b = 0; b < k; ++b) {
        ASSERT_EQ(gram(a, b), Dot(x.data() + a * n, x.data() + b * n, n))
            << "k=" << k << " a=" << a << " b=" << b;
      }
    }
  }
}

// --- fp32 backend: accuracy bounds against fp64 ---------------------------
//
// The float kernels are NOT bit-comparable to double (fused multiply-adds,
// no zero skip, tree reductions), so these tests bound the drift instead:
// for inputs cast from the double block, every fp32 output must stay within
// a mixed absolute/relative envelope of the fp64 reference. The envelope is
// sized for <= a few hundred accumulated terms of O(0.3) magnitude — loose
// enough to never flake, tight enough that an algorithmic error (wrong
// element, missed term, unreduced lane) fails by orders of magnitude.
constexpr double kFp32Tol = 1e-4;

void ExpectClose(float got, double want, const char* what, size_t idx) {
  EXPECT_LE(std::fabs(static_cast<double>(got) - want),
            kFp32Tol * (1.0 + std::fabs(want)))
      << what << " idx=" << idx << " fp32=" << got << " fp64=" << want;
}

std::vector<float> Cast(const std::vector<double>& v) {
  return std::vector<float>(v.begin(), v.end());
}

TEST(Fp32AccuracyTest, DotWithinTolerance) {
  for (size_t n : {size_t{1}, size_t{7}, size_t{8}, size_t{37}, size_t{64},
                   size_t{129}}) {
    std::vector<double> a = RandomBlock(n, 101 + n);
    std::vector<double> b = RandomBlock(n, 103 + n);
    std::vector<float> af = Cast(a), bf = Cast(b);
    ExpectClose(Dot(af.data(), bf.data(), n), Dot(a.data(), b.data(), n),
                "Dot", n);
    ExpectClose(Norm2(af.data(), n), Norm2(a.data(), n), "Norm2", n);
    ExpectClose(CosineSimilarity(af.data(), bf.data(), n),
                CosineSimilarity(a.data(), b.data(), n), "Cosine", n);
  }
}

TEST(Fp32AccuracyTest, AxpyWithinTolerance) {
  const size_t n = 67;
  std::vector<double> x = RandomBlock(n, 107);
  std::vector<double> y = RandomBlock(n, 109);
  std::vector<float> xf = Cast(x), yf = Cast(y);
  Axpy(0.37, x.data(), y.data(), n);
  Axpy(0.37f, xf.data(), yf.data(), n);
  for (size_t i = 0; i < n; ++i) ExpectClose(yf[i], y[i], "Axpy", i);
}

TEST(Fp32AccuracyTest, GemvBatchBiasedWithinTolerance) {
  for (size_t batch : {size_t{1}, size_t{33}}) {
    for (size_t in_dim : {size_t{5}, size_t{64}}) {
      const size_t out_dim = 8;
      std::vector<double> x = RandomBlock(batch * in_dim, 211 + batch);
      std::vector<double> w = RandomBlock(in_dim * out_dim, 223 + in_dim);
      std::vector<double> bias = RandomBlock(out_dim, 227);
      std::vector<double> out(batch * out_dim);
      GemvBatchBiased(x.data(), batch, in_dim, w.data(), bias.data(), out_dim,
                      out.data());
      std::vector<float> xf = Cast(x), wf = Cast(w), bf = Cast(bias);
      std::vector<float> outf(batch * out_dim);
      GemvBatchBiased(xf.data(), batch, in_dim, wf.data(), bf.data(), out_dim,
                      outf.data());
      for (size_t t = 0; t < out.size(); ++t) {
        ExpectClose(outf[t], out[t], "GemvBatchBiased", t);
      }
    }
  }
}

TEST(Fp32AccuracyTest, AccumulateOuterBatchWithinTolerance) {
  const size_t batch = 64, in_dim = 12, out_dim = 8;
  std::vector<double> in = RandomBlock(batch * in_dim, 229);
  std::vector<double> delta = RandomBlock(batch * out_dim, 233);
  std::vector<double> gw(in_dim * out_dim, 0.25), gb(out_dim, -0.5);
  std::vector<float> inf = Cast(in), deltaf = Cast(delta);
  std::vector<float> gwf = Cast(gw), gbf = Cast(gb);
  AccumulateOuterBatch(in.data(), delta.data(), batch, in_dim, out_dim,
                       gw.data(), gb.data());
  AccumulateOuterBatch(inf.data(), deltaf.data(), batch, in_dim, out_dim,
                       gwf.data(), gbf.data());
  for (size_t t = 0; t < gw.size(); ++t) {
    ExpectClose(gwf[t], gw[t], "AccumulateOuterBatch.gw", t);
  }
  for (size_t t = 0; t < gb.size(); ++t) {
    ExpectClose(gbf[t], gb[t], "AccumulateOuterBatch.gb", t);
  }
}

TEST(Fp32AccuracyTest, GemvBatchTransposedWithinTolerance) {
  const size_t batch = 33, in_dim = 16, out_dim = 8;
  std::vector<double> delta = RandomBlock(batch * out_dim, 239);
  std::vector<double> w = RandomBlock(in_dim * out_dim, 241);
  std::vector<double> dx(batch * in_dim);
  GemvBatchTransposed(delta.data(), batch, out_dim, w.data(), in_dim,
                      dx.data());
  std::vector<float> deltaf = Cast(delta), wf = Cast(w);
  std::vector<float> dxf(batch * in_dim);
  GemvBatchTransposed(deltaf.data(), batch, out_dim, wf.data(), in_dim,
                      dxf.data());
  for (size_t t = 0; t < dx.size(); ++t) {
    ExpectClose(dxf[t], dx[t], "GemvBatchTransposed", t);
  }
}

TEST(Fp32AccuracyTest, GramMatrixWithinTolerance) {
  const size_t k = 33, n = 24;
  std::vector<double> x = RandomBlock(k * n, 251);
  Matrix gram(k, k);
  GramMatrix(x.data(), k, n, &gram);
  std::vector<float> xf = Cast(x);
  MatrixF gramf(k, k);
  GramMatrix(xf.data(), k, n, &gramf);
  for (size_t a = 0; a < k; ++a) {
    for (size_t b = 0; b < k; ++b) {
      ExpectClose(gramf(a, b), gram(a, b), "GramMatrix", a * k + b);
    }
  }
}

// --- fp32 dispatch: scalar fallback == AVX2, bit for bit -------------------
//
// The portable scalar fp32 set emulates the vector code lane-for-lane
// (std::fmaf chains, the same 8→4→2→1 reduction tree), so on any input the
// two implementations must agree EXACTLY — this is what makes fp32 and
// fp32_simd results-identical and lets the SIMD toggle be results-inert.

std::vector<float> RandomFloats(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.Normal(0.0, 0.3));
  return v;
}

#ifdef HFR_HAVE_AVX2_TU

TEST(Fp32DispatchTest, ScalarMatchesAvx2BitForBit) {
  if (!CpuSupportsFp32Simd()) {
    GTEST_SKIP() << "CPU lacks AVX2+FMA";
  }
  // Lengths straddle every code-path boundary: pure tail (<8), exact
  // chunks, chunks + tail.
  for (size_t n : {size_t{1}, size_t{5}, size_t{8}, size_t{16}, size_t{37},
                   size_t{64}, size_t{129}}) {
    std::vector<float> a = RandomFloats(n, 301 + n);
    std::vector<float> b = RandomFloats(n, 307 + n);
    const float ds = fp32::DotScalar(a.data(), b.data(), n);
    const float dv = fp32::DotAvx2(a.data(), b.data(), n);
    EXPECT_EQ(ds, dv) << "Dot n=" << n;

    std::vector<float> ys = a, yv = a;
    fp32::AxpyScalar(0.37f, b.data(), ys.data(), n);
    fp32::AxpyAvx2(0.37f, b.data(), yv.data(), n);
    for (size_t i = 0; i < n; ++i) EXPECT_EQ(ys[i], yv[i]) << "Axpy " << i;
  }

  const size_t batch = 33, in_dim = 19, out_dim = 8;
  std::vector<float> x = RandomFloats(batch * in_dim, 311);
  std::vector<float> w = RandomFloats(in_dim * out_dim, 313);
  std::vector<float> init = RandomFloats(out_dim, 317);
  std::vector<float> outs(batch * out_dim), outv(batch * out_dim);
  fp32::GemvBatchResumeScalar(x.data(), batch, in_dim, in_dim, w.data(),
                              init.data(), out_dim, outs.data());
  fp32::GemvBatchResumeAvx2(x.data(), batch, in_dim, in_dim, w.data(),
                            init.data(), out_dim, outv.data());
  for (size_t t = 0; t < outs.size(); ++t) {
    EXPECT_EQ(outs[t], outv[t]) << "GemvBatchResume " << t;
  }

  std::vector<float> delta = RandomFloats(batch * out_dim, 331);
  std::vector<float> gws(in_dim * out_dim, 0.25f), gbs(out_dim, -0.5f);
  std::vector<float> gwv = gws, gbv = gbs;
  fp32::AccumulateOuterBatchScalar(x.data(), delta.data(), batch, in_dim,
                                   out_dim, gws.data(), gbs.data());
  fp32::AccumulateOuterBatchAvx2(x.data(), delta.data(), batch, in_dim,
                                 out_dim, gwv.data(), gbv.data());
  for (size_t t = 0; t < gws.size(); ++t) {
    EXPECT_EQ(gws[t], gwv[t]) << "AccumulateOuterBatch.gw " << t;
  }
  for (size_t t = 0; t < gbs.size(); ++t) {
    EXPECT_EQ(gbs[t], gbv[t]) << "AccumulateOuterBatch.gb " << t;
  }

  std::vector<float> dxs(batch * in_dim), dxv(batch * in_dim);
  fp32::GemvBatchTransposedScalar(delta.data(), batch, out_dim, w.data(),
                                  in_dim, dxs.data());
  fp32::GemvBatchTransposedAvx2(delta.data(), batch, out_dim, w.data(),
                                in_dim, dxv.data());
  for (size_t t = 0; t < dxs.size(); ++t) {
    EXPECT_EQ(dxs[t], dxv[t]) << "GemvBatchTransposed " << t;
  }
}

TEST(Fp32DispatchTest, RuntimeToggleIsResultsInert) {
  if (!CpuSupportsFp32Simd()) {
    GTEST_SKIP() << "CPU lacks AVX2+FMA";
  }
  // The public entry points under both switch positions: same bits.
  const bool saved = Fp32SimdEnabled();
  const size_t n = 100;
  std::vector<float> a = RandomFloats(n, 401);
  std::vector<float> b = RandomFloats(n, 403);
  SetFp32SimdEnabled(false);
  const float scalar_dot = Dot(a.data(), b.data(), n);
  MatrixF gram_scalar(4, 4);
  GramMatrix(a.data(), 4, 25, &gram_scalar);
  SetFp32SimdEnabled(true);
  const float simd_dot = Dot(a.data(), b.data(), n);
  MatrixF gram_simd(4, 4);
  GramMatrix(a.data(), 4, 25, &gram_simd);
  SetFp32SimdEnabled(saved);
  EXPECT_EQ(scalar_dot, simd_dot);
  for (size_t t = 0; t < gram_scalar.data().size(); ++t) {
    EXPECT_EQ(gram_scalar.data()[t], gram_simd.data()[t]);
  }
}

#endif  // HFR_HAVE_AVX2_TU

TEST(Fp32DispatchTest, ActivateBackendFallsBackGracefully) {
  const bool saved = Fp32SimdEnabled();
  // fp64 and fp32 never arm the SIMD switch; fp32_simd arms it exactly
  // when the build + CPU can honor it (and reports which happened).
  EXPECT_TRUE(ActivateBackend(ComputeBackend::kFp64));
  EXPECT_FALSE(Fp32SimdEnabled());
  EXPECT_TRUE(ActivateBackend(ComputeBackend::kFp32));
  EXPECT_FALSE(Fp32SimdEnabled());
  const bool armed = ActivateBackend(ComputeBackend::kFp32Simd);
  EXPECT_EQ(armed, CpuSupportsFp32Simd());
  EXPECT_EQ(Fp32SimdEnabled(), CpuSupportsFp32Simd());
  ActivateBackend(ComputeBackend::kFp64);
  SetFp32SimdEnabled(saved);
}

// --- fp64 fused evaluation kernel ------------------------------------------
// The AVX-512 and AVX2 arms, and ForwardBatchFromPrefix which dispatches to
// the widest one the CPU has (or runs the per-layer chain without AVX2),
// must reproduce FeedForwardNet::Forward on the assembled rows
// [user | scale · x] bit for bit — including the sign of zeros, the
// exact-zero skip in front of ±Inf weights, and NaN/Inf propagation. A
// build that contracts the kernel's multiply and add into FMAs fails here.

using fp64::kFusedEvalHidden;

// Scores `batch` rows of `width` inputs, `stride` apart, resumed from
// `prefix` with inputs scale · x, into `logits`.
using FusedScoreFn = std::function<void(
    const FeedForwardNet& net, const double* prefix, const double* x,
    size_t batch, size_t stride, size_t width, double scale, double* logits)>;

uint64_t Bits(double v) {
  uint64_t u;
  std::memcpy(&u, &v, sizeof(u));
  return u;
}

// [2w → 8 → 8 → 1] with nonzero biases. Layer-0 unit 2 and layer-1 unit 5
// have zero weights and a ±0 bias, so their pre-activations are exactly 0.
// With `specials`, ±Inf and NaN weights sit in every layer; suffix input 0
// meets the +Inf weight, and MakeFusedRows zeroes it in every other row.
FeedForwardNet MakeFusedNet(size_t width, bool specials) {
  FeedForwardNet net(2 * width, {kFusedEvalHidden, kFusedEvalHidden});
  Rng rng(900 + width);
  net.InitXavier(&rng);
  for (size_t l = 0; l < net.num_layers(); ++l) {
    for (double& b : net.bias(l).data()) b = rng.Normal(0.0, 0.2);
  }
  for (size_t i = 0; i < 2 * width; ++i) net.weight(0)(i, 2) = 0.0;
  net.bias(0)(0, 2) = -0.0;
  for (size_t i = 0; i < kFusedEvalHidden; ++i) net.weight(1)(i, 5) = 0.0;
  net.bias(1)(0, 5) = 0.0;
  if (specials) {
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    net.weight(0)(width, 3) = inf;
    net.weight(1)(3, 1) = nan;
    net.weight(2)(6, 0) = -inf;
  }
  return net;
}

// `batch` rows of `width` inputs, `stride` apart, with ±0 sprinkled in.
std::vector<double> MakeFusedRows(size_t width, size_t batch, size_t stride,
                                  bool specials) {
  std::vector<double> x = RandomBlock(batch * stride, 950 + width + batch);
  for (size_t t = 0; t < x.size(); t += 7) x[t] = 0.0;
  for (size_t t = 3; t < x.size(); t += 11) x[t] = -0.0;
  if (specials) {
    for (size_t b = 0; b < batch; b += 2) x[b * stride] = 0.0;
  }
  return x;
}

// Runs `score` over widths {1,5,8,16,32} × batches {1..9,15,16,17,127,128,
// 1024} × scale {1,0.5} × plain/special nets and checks every logit's bit
// pattern against Forward and, when given, against the `twin` arm's.
void ExpectMatchesForwardBitForBit(const FusedScoreFn& score,
                                   const FusedScoreFn& twin = nullptr) {
  std::vector<size_t> batches = {1,  2,  3,   4,   5,  6, 7, 8, 9,
                                 15, 16, 17, 127, 128, 1024};
  for (size_t width : {size_t{1}, size_t{5}, size_t{8}, size_t{16},
                       size_t{32}}) {
    for (bool specials : {false, true}) {
      const FeedForwardNet net = MakeFusedNet(width, specials);
      std::vector<double> user = RandomBlock(width, 970 + width);
      user[0] = -0.0;
      std::vector<double> prefix(kFusedEvalHidden);
      net.ForwardPrefix(user.data(), width, prefix.data());
      for (size_t batch : batches) {
        const size_t stride = width + 3;
        const std::vector<double> x =
            MakeFusedRows(width, batch, stride, specials);
        for (double scale : {1.0, 0.5}) {
          std::vector<double> ref(batch);
          std::vector<double> row(2 * width);
          std::copy(user.begin(), user.end(), row.begin());
          for (size_t b = 0; b < batch; ++b) {
            for (size_t i = 0; i < width; ++i) {
              row[width + i] = scale * x[b * stride + i];
            }
            ref[b] = net.Forward(row.data(), nullptr);
          }
          // One slot past the batch guards against stores beyond it.
          std::vector<double> got(batch + 1, 42.0);
          score(net, prefix.data(), x.data(), batch, stride, width, scale,
                got.data());
          ASSERT_EQ(got[batch], 42.0) << "stored past the batch";
          std::vector<double> other(batch, 43.0);
          if (twin) {
            twin(net, prefix.data(), x.data(), batch, stride, width, scale,
                 other.data());
          }
          for (size_t b = 0; b < batch; ++b) {
            ASSERT_EQ(Bits(got[b]), Bits(ref[b]))
                << "width=" << width << " batch=" << batch
                << " scale=" << scale << " specials=" << specials
                << " b=" << b << " got=" << got[b] << " ref=" << ref[b];
            if (twin) {
              ASSERT_EQ(Bits(got[b]), Bits(other[b]))
                  << "vs twin arm: width=" << width << " batch=" << batch
                  << " scale=" << scale << " specials=" << specials
                  << " b=" << b;
            }
          }
        }
      }
    }
  }
}

#ifdef HFR_HAVE_AVX2_TU
// The kernel's view of a [2w → 8 → 8 → 1] net scoring the item half.
fp64::FusedEvalNet FusedView(const FeedForwardNet& net, size_t width) {
  return fp64::FusedEvalNet{
      net.weight(0).data().data() + width * kFusedEvalHidden,
      net.weight(1).data().data(), net.bias(1).data().data(),
      net.weight(2).data().data(), net.bias(2).data().data()};
}

void ScoreAvx2Arm(const FeedForwardNet& net, const double* prefix,
                  const double* x, size_t batch, size_t stride, size_t width,
                  double scale, double* logits) {
  fp64::FusedEvalForwardAvx2(FusedView(net, width), prefix, x, batch, stride,
                             width, scale, logits);
}

void ScoreAvx512Arm(const FeedForwardNet& net, const double* prefix,
                    const double* x, size_t batch, size_t stride,
                    size_t width, double scale, double* logits) {
  fp64::FusedEvalForwardAvx512(FusedView(net, width), prefix, x, batch,
                               stride, width, scale, logits);
}
#endif  // HFR_HAVE_AVX2_TU

TEST(FusedEvalForwardTest, Avx2ArmMatchesForwardBitForBit) {
#ifdef HFR_HAVE_AVX2_TU
  if (!CpuSupportsFp32Simd()) GTEST_SKIP() << "CPU lacks AVX2+FMA";
  ExpectMatchesForwardBitForBit(ScoreAvx2Arm);
#else
  GTEST_SKIP() << "built without the AVX2 translation unit";
#endif
}

TEST(FusedEvalForwardTest, Avx512ArmMatchesForwardAndAvx2ArmBitForBit) {
#ifdef HFR_HAVE_AVX2_TU
  if (!CpuSupportsAvx512()) GTEST_SKIP() << "CPU lacks AVX-512F";
  ExpectMatchesForwardBitForBit(ScoreAvx512Arm, ScoreAvx2Arm);
#else
  GTEST_SKIP() << "built without the AVX2 translation unit";
#endif
}

TEST(FusedEvalForwardTest, ForwardBatchFromPrefixMatchesForwardBitForBit) {
  ExpectMatchesForwardBitForBit([](const FeedForwardNet& net,
                                   const double* prefix, const double* x,
                                   size_t batch, size_t stride, size_t width,
                                   double scale, double* logits) {
    net.ForwardBatchFromPrefix(prefix, x, batch, width, stride, logits, scale);
  });
}

TEST(FusedEvalForwardTest, SpecialsReachTheLogits) {
  // Guards the fixture: the ±Inf/NaN weights and the zero-skip rows must
  // actually shape the outputs, or the bit-for-bit test above proves less.
  const size_t width = 8, batch = 64, stride = width + 3;
  const FeedForwardNet net = MakeFusedNet(width, true);
  const std::vector<double> user = RandomBlock(width, 970 + width);
  std::vector<double> prefix(kFusedEvalHidden);
  net.ForwardPrefix(user.data(), width, prefix.data());
  const std::vector<double> x = MakeFusedRows(width, batch, stride, true);
  std::vector<double> got(batch);
  net.ForwardBatchFromPrefix(prefix.data(), x.data(), batch, width, stride,
                             got.data());
  size_t finite = 0, infinite = 0, nan = 0;
  for (double v : got) {
    if (std::isfinite(v)) ++finite;
    if (std::isinf(v)) ++infinite;
    if (std::isnan(v)) ++nan;
  }
  EXPECT_GT(finite, 0u);
  EXPECT_GT(infinite, 0u);
  EXPECT_GT(nan, 0u);
}

// --- fp64 training kernels: AVX2 arms vs the scalar loops -----------------
//
// Test-local copies of the scalar fp64 loops in kernels.cc (their
// GemvBatchResumeGeneric, AccumulateOuterBatchGeneric and
// GemvBatchTransposedGeneric bodies; the *Fixed variants are the same loops
// with a compile-time out_dim). Every AVX2 arm must reproduce their bits.

void ScalarResume(const double* x, size_t batch, size_t x_stride,
                  size_t in_dim, const double* w, const double* init,
                  size_t out_dim, double* out) {
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

void ScalarOuter(const double* in, const double* delta, size_t batch,
                 size_t in_dim, size_t out_dim, double* grads_w,
                 double* grads_b) {
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

void ScalarTransposed(const double* delta, size_t batch, size_t out_dim,
                      const double* w, size_t in_dim, double* dx) {
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

using ResumeFn = std::function<void(const double*, size_t, size_t, size_t,
                                    const double*, const double*, size_t,
                                    double*)>;
using OuterFn = std::function<void(const double*, const double*, size_t,
                                   size_t, size_t, double*, double*)>;
using TransposedFn = std::function<void(const double*, size_t, size_t,
                                        const double*, size_t, double*)>;

// The NaN the hardware generates (Inf·0, Inf − Inf): sign set, quiet, no
// payload. When two NaNs meet in an add, x86 returns the first operand's,
// and the compiler may order a commutative + either way in the scalar loop
// and the vector code alike — so injecting this one NaN keeps every NaN in
// play the same bits and the comparison exact.
double DefaultNaN() {
  const uint64_t bits = 0xFFF8000000000000ULL;
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

// Normal values with exact +0 and −0 sprinkled in; with `specials`, also
// NaN, +Inf and −Inf.
std::vector<double> TrainingBlock(size_t n, uint64_t seed, bool specials) {
  std::vector<double> v = RandomBlock(n, seed);
  for (size_t t = 0; t < n; t += 5) v[t] = 0.0;
  for (size_t t = 2; t < n; t += 9) v[t] = -0.0;
  if (specials) {
    const double inf = std::numeric_limits<double>::infinity();
    for (size_t t = 3; t < n; t += 97) v[t] = DefaultNaN();
    for (size_t t = 7; t < n; t += 89) v[t] = inf;
    for (size_t t = 11; t < n; t += 83) v[t] = -inf;
  }
  return v;
}

void ExpectSameBits(const std::vector<double>& got,
                    const std::vector<double>& ref, const std::string& where) {
  ASSERT_EQ(got.size(), ref.size()) << where;
  for (size_t t = 0; t < got.size(); ++t) {
    ASSERT_EQ(Bits(got[t]), Bits(ref[t]))
        << where << " t=" << t << " got=" << got[t] << " ref=" << ref[t];
  }
}

const std::vector<size_t> kTrainOutDims = {1, 3, 8, 16, 32};
const std::vector<size_t> kTrainInDims = {1, 5, 8, 16, 32, 64};
const std::vector<size_t> kTrainBatches = {1, 2,  3,   4,   5,   6,   7,
                                           8, 9, 127, 128, 1024};

std::string Shape(size_t out_dim, size_t in_dim, size_t batch,
                  bool specials) {
  return "out_dim=" + std::to_string(out_dim) +
         " in_dim=" + std::to_string(in_dim) +
         " batch=" + std::to_string(batch) +
         " specials=" + std::to_string(specials);
}

void ExpectResumeMatchesScalar(const ResumeFn& resume) {
  for (size_t out_dim : kTrainOutDims) {
    for (size_t in_dim : kTrainInDims) {
      for (size_t batch : kTrainBatches) {
        for (bool specials : {false, true}) {
          const size_t stride = in_dim + 3;
          const uint64_t seed = out_dim * 7919 + in_dim * 131 + batch;
          const std::vector<double> x =
              TrainingBlock(batch * stride, seed, specials);
          const std::vector<double> w =
              TrainingBlock(in_dim * out_dim, seed + 1, specials);
          std::vector<double> init = RandomBlock(out_dim, seed + 2);
          init[0] = -0.0;
          std::vector<double> ref(batch * out_dim);
          ScalarResume(x.data(), batch, stride, in_dim, w.data(), init.data(),
                       out_dim, ref.data());
          std::vector<double> got(batch * out_dim, 42.0);
          resume(x.data(), batch, stride, in_dim, w.data(), init.data(),
                 out_dim, got.data());
          ExpectSameBits(got, ref, Shape(out_dim, in_dim, batch, specials));
        }
      }
    }
  }
}

void ExpectOuterMatchesScalar(const OuterFn& outer) {
  for (size_t out_dim : kTrainOutDims) {
    for (size_t in_dim : kTrainInDims) {
      for (size_t batch : kTrainBatches) {
        for (bool specials : {false, true}) {
          const uint64_t seed = out_dim * 6007 + in_dim * 113 + batch;
          const std::vector<double> in =
              TrainingBlock(batch * in_dim, seed, specials);
          const std::vector<double> delta =
              TrainingBlock(batch * out_dim, seed + 1, specials);
          // Pre-seeded panels: nonzero values and −0.0 (a −0 target stays
          // −0 only while every term is skipped or −0).
          std::vector<double> gw = RandomBlock(in_dim * out_dim, seed + 2);
          for (size_t t = 0; t < gw.size(); t += 4) gw[t] = -0.0;
          std::vector<double> gb = RandomBlock(out_dim, seed + 3);
          gb[0] = -0.0;
          std::vector<double> ref_w = gw, ref_b = gb;
          ScalarOuter(in.data(), delta.data(), batch, in_dim, out_dim,
                      ref_w.data(), ref_b.data());
          outer(in.data(), delta.data(), batch, in_dim, out_dim, gw.data(),
                gb.data());
          const std::string where = Shape(out_dim, in_dim, batch, specials);
          ExpectSameBits(gw, ref_w, where + " grads_w");
          ExpectSameBits(gb, ref_b, where + " grads_b");
        }
      }
    }
  }
}

void ExpectTransposedMatchesScalar(const TransposedFn& transposed) {
  for (size_t out_dim : kTrainOutDims) {
    for (size_t in_dim : kTrainInDims) {
      for (size_t batch : kTrainBatches) {
        for (bool specials : {false, true}) {
          const uint64_t seed = out_dim * 5003 + in_dim * 109 + batch;
          const std::vector<double> delta =
              TrainingBlock(batch * out_dim, seed, specials);
          const std::vector<double> w =
              TrainingBlock(in_dim * out_dim, seed + 1, specials);
          std::vector<double> ref(batch * in_dim);
          ScalarTransposed(delta.data(), batch, out_dim, w.data(), in_dim,
                           ref.data());
          std::vector<double> got(batch * in_dim, 42.0);
          transposed(delta.data(), batch, out_dim, w.data(), in_dim,
                     got.data());
          ExpectSameBits(got, ref, Shape(out_dim, in_dim, batch, specials));
        }
      }
    }
  }
}

TEST(Fp64TrainingKernelsTest, FixtureProducesEverySpecial) {
  // Guards the fixture: the sweeps above only prove the skip and the
  // special-value paths if their inputs actually contain them.
  const std::vector<double> v = TrainingBlock(1024, 1, true);
  size_t pos_zero = 0, neg_zero = 0, nan = 0, pos_inf = 0, neg_inf = 0;
  for (double x : v) {
    if (x == 0.0 && !std::signbit(x)) ++pos_zero;
    if (x == 0.0 && std::signbit(x)) ++neg_zero;
    if (std::isnan(x)) ++nan;
    if (std::isinf(x) && x > 0) ++pos_inf;
    if (std::isinf(x) && x < 0) ++neg_inf;
  }
  EXPECT_GT(pos_zero, 0u);
  EXPECT_GT(neg_zero, 0u);
  EXPECT_GT(nan, 0u);
  EXPECT_GT(pos_inf, 0u);
  EXPECT_GT(neg_inf, 0u);
  volatile double zero = 0.0;  // the hardware's NaN, not the compiler's
  EXPECT_EQ(Bits(DefaultNaN()),
            Bits(std::numeric_limits<double>::infinity() * zero));
}

#ifdef HFR_HAVE_AVX2_TU
TEST(Fp64TrainingKernelsTest, GemvBatchResumeAvx2MatchesScalarBitForBit) {
  if (!CpuSupportsFp32Simd()) GTEST_SKIP() << "CPU lacks AVX2+FMA";
  ExpectResumeMatchesScalar(fp64::GemvBatchResumeAvx2);
}

TEST(Fp64TrainingKernelsTest, AccumulateOuterBatchAvx2MatchesScalarBitForBit) {
  if (!CpuSupportsFp32Simd()) GTEST_SKIP() << "CPU lacks AVX2+FMA";
  ExpectOuterMatchesScalar(fp64::AccumulateOuterBatchAvx2);
}

TEST(Fp64TrainingKernelsTest, GemvBatchTransposedAvx2MatchesScalarBitForBit) {
  if (!CpuSupportsFp32Simd()) GTEST_SKIP() << "CPU lacks AVX2+FMA";
  ExpectTransposedMatchesScalar(fp64::GemvBatchTransposedAvx2);
}
#endif  // HFR_HAVE_AVX2_TU

TEST(Fp64TrainingKernelsTest, DispatchedKernelsMatchScalarBitForBit) {
  // Whatever arm the dispatcher picks on this machine and build.
  ExpectResumeMatchesScalar(GemvBatchResume<double>);
  ExpectOuterMatchesScalar(AccumulateOuterBatch<double>);
  ExpectTransposedMatchesScalar(GemvBatchTransposed<double>);
}

TEST(AlignedStorageTest, MatrixAndKernelBlocksAre32ByteAligned) {
  // The AVX2 kernels load 8-lane vectors straight out of Matrix rows and
  // block scratch; AlignedVector must put every buffer on a 32-byte
  // boundary regardless of shape.
  for (size_t rows : {size_t{1}, size_t{7}, size_t{33}}) {
    Matrix m(rows, 5);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(m.data().data()) % kSimdAlign, 0u);
    MatrixF f(rows, 5);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(f.data().data()) % kSimdAlign, 0u);
  }
  AlignedVector<float> scratch;
  scratch.resize(1000);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(scratch.data()) % kSimdAlign, 0u);
}

}  // namespace
}  // namespace hetefedrec
