// Scorer's batched entry points (ScoreBatch / ScoreRange /
// ScoreForTrainBatch + BackwardBatch) must be bit-identical to the scalar
// Score / ScoreForTrain + BackwardSample sequence, for both base models
// and both gradient sinks. Batches deliberately repeat items so
// accumulation order into shared rows is exercised.
#include <gtest/gtest.h>

#include <vector>

#include "src/math/init.h"
#include "src/math/sparse.h"
#include "src/models/scorer.h"
#include "src/util/rng.h"

namespace hetefedrec {
namespace {

constexpr size_t kItems = 300;  // > 2 x Scorer::kScoreBlock

struct ScorerFixture {
  Matrix table;
  Matrix user;
  FeedForwardNet theta;
  std::vector<ItemId> interacted;

  explicit ScorerFixture(size_t width) : theta(2 * width, {8, 8}) {
    Rng rng(101 + width);
    table = Matrix(kItems, width);
    InitNormal(&table, 0.1, &rng);
    user = Matrix(1, width);
    InitNormal(&user, 0.1, &rng);
    theta.InitXavier(&rng);
    for (ItemId i = 0; i < 12; ++i) {
      interacted.push_back((i * 23) % static_cast<ItemId>(kItems));
    }
  }
};

class ScorerBatchEquivalence
    : public ::testing::TestWithParam<std::tuple<BaseModel, size_t, size_t>> {
};

TEST_P(ScorerBatchEquivalence, ScoreBatchMatchesScore) {
  const BaseModel model = std::get<0>(GetParam());
  const size_t width = std::get<1>(GetParam());
  const size_t batch = std::get<2>(GetParam());
  ScorerFixture s(width);

  Scorer sc(model, width);
  sc.BeginUser(s.user.Row(0), s.table, s.interacted);

  // Arbitrary ids including repeats and interacted items.
  std::vector<ItemId> ids(batch);
  for (size_t b = 0; b < batch; ++b) {
    ids[b] = static_cast<ItemId>((b * 37 + 5) % kItems);
  }
  std::vector<double> out(batch);
  sc.ScoreBatch(s.table, s.theta, ids.data(), batch, out.data());
  for (size_t b = 0; b < batch; ++b) {
    ASSERT_EQ(out[b], sc.Score(s.table, s.theta, ids[b])) << "b=" << b;
  }
}

TEST_P(ScorerBatchEquivalence, TrainBatchMatchesPerSampleSequence) {
  const BaseModel model = std::get<0>(GetParam());
  const size_t width = std::get<1>(GetParam());
  const size_t batch = std::get<2>(GetParam());
  ScorerFixture s(width);

  std::vector<ItemId> items(batch);
  std::vector<double> dlogits(batch);
  Rng rng(7);
  for (size_t b = 0; b < batch; ++b) {
    // Repeats (modulus) and interacted items both occur.
    items[b] = static_cast<ItemId>((b * 23) % (kItems / 2));
    dlogits[b] = rng.Normal(0.0, 1.0);
  }

  // Batched pass.
  Scorer sc_batch(model, width);
  sc_batch.BeginUser(s.user.Row(0), s.table, s.interacted);
  Scorer::BatchTrainCache bcache;
  std::vector<double> logits_batch(batch);
  sc_batch.ScoreForTrainBatch(s.table, s.theta, items.data(), batch, &bcache,
                              logits_batch.data());
  Matrix dv_batch(kItems, width);
  Matrix du_batch(1, width);
  FeedForwardNet dtheta_batch = FeedForwardNet::ZerosLike(s.theta);
  sc_batch.BackwardBatch(s.theta, bcache, dlogits.data(), &dv_batch,
                         du_batch.Row(0), &dtheta_batch);
  sc_batch.FinishUserBackward(&dv_batch, du_batch.Row(0));

  // Scalar reference in the same sample order.
  Scorer sc_ref(model, width);
  sc_ref.BeginUser(s.user.Row(0), s.table, s.interacted);
  Matrix dv_ref(kItems, width);
  Matrix du_ref(1, width);
  FeedForwardNet dtheta_ref = FeedForwardNet::ZerosLike(s.theta);
  Scorer::TrainCache cache;
  for (size_t b = 0; b < batch; ++b) {
    double logit = sc_ref.ScoreForTrain(s.table, s.theta, items[b], &cache);
    ASSERT_EQ(logits_batch[b], logit) << "b=" << b;
    sc_ref.BackwardSample(s.theta, cache, dlogits[b], &dv_ref, du_ref.Row(0),
                          &dtheta_ref);
  }
  sc_ref.FinishUserBackward(&dv_ref, du_ref.Row(0));

  for (size_t t = 0; t < dv_batch.data().size(); ++t) {
    ASSERT_EQ(dv_batch.data()[t], dv_ref.data()[t]) << "dV elem " << t;
  }
  for (size_t d = 0; d < width; ++d) {
    ASSERT_EQ(du_batch(0, d), du_ref(0, d)) << "dU dim " << d;
  }
  for (size_t l = 0; l < dtheta_batch.num_layers(); ++l) {
    for (size_t t = 0; t < dtheta_batch.weight(l).data().size(); ++t) {
      ASSERT_EQ(dtheta_batch.weight(l).data()[t],
                dtheta_ref.weight(l).data()[t]);
    }
    for (size_t t = 0; t < dtheta_batch.bias(l).data().size(); ++t) {
      ASSERT_EQ(dtheta_batch.bias(l).data()[t], dtheta_ref.bias(l).data()[t]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    ModelsWidthsBatches, ScorerBatchEquivalence,
    ::testing::Combine(::testing::Values(BaseModel::kNcf,
                                         BaseModel::kLightGcn),
                       ::testing::Values(size_t{8}, size_t{16}, size_t{32}),
                       ::testing::Values(size_t{1}, size_t{7}, size_t{64})));

TEST(ScorerBatchTest, ScoreRangeCoversFullCatalogueAcrossBlocks) {
  // kItems > 2 blocks: the block loop and the lazily filled user halves
  // must agree with per-item Score over the whole span, both models.
  for (BaseModel model : {BaseModel::kNcf, BaseModel::kLightGcn}) {
    ScorerFixture s(16);
    Scorer sc(model, 16);
    sc.BeginUser(s.user.Row(0), s.table, s.interacted);
    std::vector<double> out(kItems);
    sc.ScoreRange(s.table, s.theta, 0, kItems, out.data());
    for (size_t j = 0; j < kItems; ++j) {
      ASSERT_EQ(out[j], sc.Score(s.table, s.theta, static_cast<ItemId>(j)))
          << "item " << j;
    }
  }
}

TEST(ScorerBatchTest, LightGcnInPlaceRangeRescoresInteractedItems) {
  // Dense LightGCN ScoreRange scores the span's rows in place (scaled by
  // 0.5 at load) and then rescores the interacted items from their
  // assembled halves. The span [first, first + n) is cut into kScoreBlock
  // chunks and 4-item kernel blocks counted from `first`; interacted items
  // sit in lane 0 and lane 3 of a block, in the last partial block (the
  // tail), and outside the span on both sides.
  const size_t width = 16;
  const ItemId first = 10;
  const size_t n = Scorer::kScoreBlock + 6;  // tail chunk of 6: lanes 0-3, 0-1
  const ItemId last = first + static_cast<ItemId>(n) - 1;
  const std::vector<std::vector<ItemId>> users = {
      {first + 4, first + 11},                           // lane 0, lane 3
      {first, first + 3, first + 7},                     // lanes 0, 3, 3
      {last - 1, last},                                  // tail block
      {first + 128, last - 2},                           // tail chunk lanes
      {first - 1, 0, last + 1, static_cast<ItemId>(kItems - 1)},  // outside
      {first + 4, first - 3, last, last + 5, first + 65},  // mixed
      {},                                                // no interactions
  };
  ScorerFixture s(width);
  // Exact zeros in the table: 0.5·(-0 + 0) = +0 but 0.5·(-0) = -0 in place;
  // the zero skip must make both give the same logits.
  for (size_t j = 0; j < kItems; j += 5) s.table(j, j % width) = -0.0;
  for (size_t j = 2; j < kItems; j += 9) s.table(j, (j + 3) % width) = 0.0;
  for (const std::vector<ItemId>& interacted : users) {
    Scorer sc(BaseModel::kLightGcn, width);
    sc.BeginUser(s.user.Row(0), s.table, interacted);
    std::vector<double> out(n, 42.0);
    sc.ScoreRange(s.table, s.theta, first, n, out.data());
    for (size_t k = 0; k < n; ++k) {
      const ItemId j = first + static_cast<ItemId>(k);
      ASSERT_EQ(out[k], sc.Score(s.table, s.theta, j))
          << "item " << j << " with " << interacted.size() << " interactions";
    }
  }
}

TEST(ScorerBatchTest, BatchScratchRefreshesAcrossUsers) {
  // The lazily filled user half must be invalidated by BeginUser: two
  // users scored back-to-back through the same scorer get their own pu.
  ScorerFixture s(8);
  Matrix user2(1, 8);
  Rng rng(55);
  InitNormal(&user2, 0.1, &rng);

  Scorer sc(BaseModel::kNcf, 8);
  std::vector<ItemId> ids = {1, 2, 3};
  std::vector<double> out_a(3), out_b(3);

  sc.BeginUser(s.user.Row(0), s.table, s.interacted);
  sc.ScoreBatch(s.table, s.theta, ids.data(), 3, out_a.data());
  sc.BeginUser(user2.Row(0), s.table, s.interacted);
  sc.ScoreBatch(s.table, s.theta, ids.data(), 3, out_b.data());

  Scorer fresh(BaseModel::kNcf, 8);
  fresh.BeginUser(user2.Row(0), s.table, s.interacted);
  for (size_t b = 0; b < 3; ++b) {
    EXPECT_EQ(out_b[b], fresh.Score(s.table, s.theta, ids[b]));
    EXPECT_NE(out_a[b], out_b[b]);
  }
}

TEST(ScorerBatchTest, SparseSinkAndOverlayMatchDense) {
  // Overlay reads + SparseRowStore gradient sink through the batched path
  // must equal the dense-table batched pass scattered into a Matrix.
  const size_t width = 16;
  ScorerFixture s(width);
  RowOverlayTable overlay;
  overlay.Reset(&s.table);

  std::vector<ItemId> items = {3, 9, 3, 120, 9, 3, 250};
  std::vector<double> dlogits(items.size());
  Rng rng(77);
  for (double& v : dlogits) v = rng.Normal(0.0, 1.0);

  for (BaseModel model : {BaseModel::kNcf, BaseModel::kLightGcn}) {
    Scorer sc_dense(model, width);
    sc_dense.BeginUser(s.user.Row(0), s.table, s.interacted);
    Scorer::BatchTrainCache cache_dense;
    std::vector<double> logits_dense(items.size());
    sc_dense.ScoreForTrainBatch(s.table, s.theta, items.data(), items.size(),
                                &cache_dense, logits_dense.data());
    Matrix dv_dense(kItems, width);
    Matrix du_dense(1, width);
    FeedForwardNet dtheta_dense = FeedForwardNet::ZerosLike(s.theta);
    sc_dense.BackwardBatch(s.theta, cache_dense, dlogits.data(), &dv_dense,
                           du_dense.Row(0), &dtheta_dense);
    sc_dense.FinishUserBackward(&dv_dense, du_dense.Row(0));

    Scorer sc_sparse(model, width);
    sc_sparse.BeginUser(s.user.Row(0), overlay, s.interacted);
    Scorer::BatchTrainCache cache_sparse;
    std::vector<double> logits_sparse(items.size());
    sc_sparse.ScoreForTrainBatch(overlay, s.theta, items.data(), items.size(),
                                 &cache_sparse, logits_sparse.data());
    SparseRowStore dv_sparse;
    dv_sparse.Reset(kItems, width);
    Matrix du_sparse(1, width);
    FeedForwardNet dtheta_sparse = FeedForwardNet::ZerosLike(s.theta);
    sc_sparse.BackwardBatch(s.theta, cache_sparse, dlogits.data(), &dv_sparse,
                            du_sparse.Row(0), &dtheta_sparse);
    sc_sparse.FinishUserBackward(&dv_sparse, du_sparse.Row(0));

    for (size_t b = 0; b < items.size(); ++b) {
      EXPECT_EQ(logits_dense[b], logits_sparse[b]);
    }
    for (size_t r = 0; r < kItems; ++r) {
      const double* sparse_row = dv_sparse.RowOrNull(r);
      for (size_t d = 0; d < width; ++d) {
        double sparse_val = sparse_row != nullptr ? sparse_row[d] : 0.0;
        ASSERT_EQ(dv_dense(r, d), sparse_val) << "row " << r << " d " << d;
      }
    }
    for (size_t d = 0; d < width; ++d) {
      EXPECT_EQ(du_dense(0, d), du_sparse(0, d));
    }
  }
}

}  // namespace
}  // namespace hetefedrec
