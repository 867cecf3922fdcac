// ForwardBatch/BackwardBatch must be bit-identical to per-sample
// Forward/Backward across widths and batch sizes (ISSUE 3 acceptance:
// widths {8,16,32}, batch sizes {1,7,64}). EXPECT_EQ on doubles is the
// point: the batched kernels preserve accumulation order exactly.
#include <gtest/gtest.h>

#include <vector>

#include "src/math/activations.h"
#include "src/models/ffn.h"
#include "src/util/rng.h"

namespace hetefedrec {
namespace {

void ExpectSameNet(const FeedForwardNet& a, const FeedForwardNet& b) {
  ASSERT_EQ(a.num_layers(), b.num_layers());
  for (size_t l = 0; l < a.num_layers(); ++l) {
    for (size_t t = 0; t < a.weight(l).data().size(); ++t) {
      ASSERT_EQ(a.weight(l).data()[t], b.weight(l).data()[t])
          << "layer " << l << " weight " << t;
    }
    for (size_t t = 0; t < a.bias(l).data().size(); ++t) {
      ASSERT_EQ(a.bias(l).data()[t], b.bias(l).data()[t])
          << "layer " << l << " bias " << t;
    }
  }
}

class FfnBatchEquivalence
    : public ::testing::TestWithParam<std::tuple<size_t, size_t>> {};

TEST_P(FfnBatchEquivalence, ForwardAndBackwardBitIdentical) {
  const size_t width = std::get<0>(GetParam());
  const size_t batch = std::get<1>(GetParam());
  const size_t input_dim = 2 * width;

  FeedForwardNet net(input_dim, {8, 8});
  Rng rng(91);
  net.InitXavier(&rng);

  std::vector<double> x(batch * input_dim);
  std::vector<double> dlogits(batch);
  for (double& v : x) v = rng.Normal(0.0, 0.4);
  for (double& v : dlogits) v = rng.Normal(0.0, 1.0);
  // Exact zeros exercise the skip path shared with the scalar loops.
  for (size_t t = 0; t < x.size(); t += 7) x[t] = 0.0;

  // Batched pass.
  FeedForwardNet::BatchCache bcache;
  std::vector<double> logits_batch(batch);
  net.ForwardBatch(x.data(), batch, &bcache, logits_batch.data());
  FeedForwardNet grads_batch = FeedForwardNet::ZerosLike(net);
  std::vector<double> dx_batch(batch * input_dim);
  net.BackwardBatch(bcache, dlogits.data(), &grads_batch, dx_batch.data());

  // Per-sample reference, in ascending sample order.
  FeedForwardNet grads_ref = FeedForwardNet::ZerosLike(net);
  std::vector<double> dx_ref(input_dim);
  FeedForwardNet::Cache cache;
  for (size_t b = 0; b < batch; ++b) {
    double logit = net.Forward(x.data() + b * input_dim, &cache);
    ASSERT_EQ(logits_batch[b], logit) << "sample " << b;
    net.Backward(cache, dlogits[b], &grads_ref, dx_ref.data());
    for (size_t i = 0; i < input_dim; ++i) {
      ASSERT_EQ(dx_batch[b * input_dim + i], dx_ref[i])
          << "sample " << b << " dim " << i;
    }
  }
  ExpectSameNet(grads_batch, grads_ref);
}

INSTANTIATE_TEST_SUITE_P(
    WidthsAndBatches, FfnBatchEquivalence,
    ::testing::Combine(::testing::Values(size_t{8}, size_t{16}, size_t{32}),
                       ::testing::Values(size_t{1}, size_t{7}, size_t{64})));

TEST(FfnBatchTest, EmptyBatchIsANoOp) {
  FeedForwardNet net(8, {8, 8});
  Rng rng(3);
  net.InitXavier(&rng);
  FeedForwardNet::BatchCache cache;
  net.ForwardBatch(nullptr, 0, &cache, nullptr);
  EXPECT_EQ(cache.batch, 0u);
  FeedForwardNet grads = FeedForwardNet::ZerosLike(net);
  net.BackwardBatch(cache, nullptr, &grads, nullptr);
  EXPECT_EQ(grads.MaxAbs(), 0.0);
}

TEST(FfnBatchTest, GradientAccumulationComposesAcrossCalls) {
  // Two consecutive batched backwards into one accumulator must equal the
  // eight per-sample backwards in the same global order.
  const size_t input_dim = 16;
  FeedForwardNet net(input_dim, {8, 8});
  Rng rng(5);
  net.InitXavier(&rng);
  std::vector<double> x(8 * input_dim);
  std::vector<double> dlogits(8);
  for (double& v : x) v = rng.Normal(0.0, 0.4);
  for (double& v : dlogits) v = rng.Normal(0.0, 1.0);

  FeedForwardNet grads_batch = FeedForwardNet::ZerosLike(net);
  FeedForwardNet::BatchCache bcache;
  std::vector<double> logits(4);
  for (size_t half = 0; half < 2; ++half) {
    net.ForwardBatch(x.data() + half * 4 * input_dim, 4, &bcache,
                     logits.data());
    net.BackwardBatch(bcache, dlogits.data() + half * 4, &grads_batch,
                      nullptr);
  }

  FeedForwardNet grads_ref = FeedForwardNet::ZerosLike(net);
  FeedForwardNet::Cache cache;
  for (size_t b = 0; b < 8; ++b) {
    net.Forward(x.data() + b * input_dim, &cache);
    net.Backward(cache, dlogits[b], &grads_ref, nullptr);
  }
  ExpectSameNet(grads_batch, grads_ref);
}

TEST(FfnBatchTest, ForwardBatchFromPrefixMatchesForwardAnyShape) {
  // The paper's [2w, 8, 8] shape runs the fused kernel; every other shape
  // runs the per-layer kernels. Both must equal Forward on the assembled
  // rows [user | scale · suffix], rows read in place `stride` apart.
  const size_t width = 12, batch = 11, stride = width + 5;
  const std::vector<std::vector<size_t>> shapes = {{8, 8}, {4, 4}, {8}, {16, 8}};
  for (const std::vector<size_t>& hidden : shapes) {
    FeedForwardNet net(2 * width, hidden);
    Rng rng(41 + hidden.size() * 7 + hidden[0]);
    net.InitXavier(&rng);
    std::vector<double> user(width);
    std::vector<double> suffix(batch * stride);
    for (double& v : user) v = rng.Normal(0.0, 0.4);
    for (double& v : suffix) v = rng.Normal(0.0, 0.4);
    for (size_t t = 0; t < suffix.size(); t += 6) suffix[t] = -0.0;
    std::vector<double> prefix(hidden[0]);
    net.ForwardPrefix(user.data(), width, prefix.data());
    for (double scale : {1.0, 0.5}) {
      std::vector<double> logits(batch);
      net.ForwardBatchFromPrefix(prefix.data(), suffix.data(), batch, width,
                                 stride, logits.data(), scale);
      std::vector<double> row(2 * width);
      std::copy(user.begin(), user.end(), row.begin());
      for (size_t b = 0; b < batch; ++b) {
        for (size_t i = 0; i < width; ++i) {
          row[width + i] = scale * suffix[b * stride + i];
        }
        ASSERT_EQ(logits[b], net.Forward(row.data(), nullptr))
            << "hidden[0]=" << hidden[0] << " layers=" << hidden.size()
            << " scale=" << scale << " b=" << b;
      }
    }
  }
}

}  // namespace
}  // namespace hetefedrec
