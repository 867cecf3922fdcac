// TopKSelector property tests: every selection path — streaming heap
// (whole-array and arbitrary block splits), bucketed threshold cascade,
// and the partial_sort reference — must return the *identical* ranked
// list. The ordering (score desc, id asc) is a strict total order over
// distinct ids, so the top-K list is unique; these tests pin that the
// implementations actually realize it over randomized inputs with heavy
// ties, extreme magnitudes, masked prefixes and k ∈ {1, ..., n, > n}.
#include "src/eval/topk.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "src/eval/metrics.h"
#include "src/util/rng.h"

namespace hetefedrec {
namespace {

// Oracle: full sort of the unmasked ids by (score desc, id asc).
std::vector<ItemId> FullRanking(const std::vector<double>& scores,
                                const std::vector<bool>& masked, size_t k) {
  std::vector<ItemId> ids;
  for (size_t i = 0; i < scores.size(); ++i) {
    if (!masked[i]) ids.push_back(static_cast<ItemId>(i));
  }
  std::sort(ids.begin(), ids.end(), [&](ItemId a, ItemId b) {
    if (scores[a] != scores[b]) return scores[a] > scores[b];
    return a < b;
  });
  ids.resize(std::min(k, ids.size()));
  return ids;
}

// Runs the streaming session over `scores` split at pseudo-random block
// boundaries (block layout must never affect the result).
std::vector<ItemId> StreamInBlocks(TopKSelector* sel,
                                   const std::vector<double>& scores,
                                   const std::vector<bool>& masked, size_t k,
                                   Rng* rng) {
  sel->Begin(k, &masked);
  size_t first = 0;
  while (first < scores.size()) {
    size_t bs = 1 + rng->UniformInt(scores.size() - first);
    sel->Push(static_cast<ItemId>(first), scores.data() + first, bs);
    first += bs;
  }
  std::vector<ItemId> out;
  sel->Finish(&out);
  return out;
}

// The same session through PushIds, with every id listed explicitly.
std::vector<ItemId> StreamIdsInBlocks(TopKSelector* sel,
                                      const std::vector<double>& scores,
                                      const std::vector<bool>& masked,
                                      size_t k, Rng* rng) {
  std::vector<ItemId> ids(scores.size());
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<ItemId>(i);
  sel->Begin(k, &masked);
  size_t first = 0;
  while (first < scores.size()) {
    size_t bs = 1 + rng->UniformInt(scores.size() - first);
    sel->PushIds(ids.data() + first, scores.data() + first, bs);
    first += bs;
  }
  std::vector<ItemId> out;
  sel->Finish(&out);
  return out;
}

TEST(TopKSelectorTest, AllPathsMatchReferenceOnRandomizedHeavyTies) {
  Rng rng(1234);
  TopKSelector sel;  // one instance across all cases: scratch must reset
  for (int rep = 0; rep < 200; ++rep) {
    const size_t n = 1 + rng.UniformInt(400);
    std::vector<double> scores(n);
    for (auto& s : scores) {
      // Quantized scores: ~9 distinct values over up to 400 items forces
      // long tie runs, so id tie-breaking decides most of the list; the
      // top value is +Inf.
      const uint64_t level = rng.UniformInt(9);
      s = level == 8 ? std::numeric_limits<double>::infinity()
                     : static_cast<double>(level) * 0.125;
    }
    std::vector<bool> masked(n, false);
    // Masked prefix (the shape train-item masking produces for the dense
    // front of a user's history) plus scattered masked items.
    const size_t prefix = rng.UniformInt(n);
    for (size_t i = 0; i < prefix; ++i) masked[i] = true;
    for (size_t i = prefix; i < n; ++i) masked[i] = rng.UniformInt(7) == 0;
    // A mask over the high scorers: about half of the items scoring at or
    // above a random level (+Inf included) are hidden, so masked items sit
    // at, above and tied with the running k-th best while the heap streams.
    const double high = static_cast<double>(rng.UniformInt(8)) * 0.125;
    std::vector<bool> masked_high(n, false);
    for (size_t i = 0; i < n; ++i) {
      masked_high[i] = scores[i] >= high && rng.UniformInt(2) == 0;
    }

    for (const std::vector<bool>* mask : {&masked, &masked_high}) {
      for (size_t k : {size_t{1}, size_t{7}, n, n + 5}) {
        SCOPED_TRACE(testing::Message() << "rep " << rep << " n " << n
                                        << " k " << k << " high mask "
                                        << (mask == &masked_high));
        std::vector<ItemId> expect = FullRanking(scores, *mask, k);

        std::vector<ItemId> heap;
        sel.SelectMasked(scores, *mask, k, &heap);
        EXPECT_EQ(heap, expect);

        std::vector<ItemId> ref;
        sel.SelectMaskedReference(scores, *mask, k, &ref);
        EXPECT_EQ(ref, expect);

        EXPECT_EQ(StreamInBlocks(&sel, scores, *mask, k, &rng), expect);
        EXPECT_EQ(StreamIdsInBlocks(&sel, scores, *mask, k, &rng), expect);
        EXPECT_EQ(TopKItems(scores, *mask, k), expect);
      }
    }
  }
}

TEST(TopKSelectorTest, CandidatePathsMatchReference) {
  Rng rng(977);
  TopKSelector sel;
  for (int rep = 0; rep < 100; ++rep) {
    // Large enough to engage the bucketed cascade (n >= 256, n > 4k).
    const size_t n = 256 + rng.UniformInt(800);
    std::vector<ItemId> ids(n);
    std::vector<double> scores(n);
    ItemId next = 0;
    for (size_t i = 0; i < n; ++i) {
      next += 1 + static_cast<ItemId>(rng.UniformInt(3));
      ids[i] = next;
      scores[i] = static_cast<double>(rng.UniformInt(16)) * 0.0625;
    }
    // k = 20 exercises the heap path, k = n/4 and up the bucketed cascade
    // (engaged when k >= n/8 on cascade-sized pools).
    for (size_t k : {size_t{1}, size_t{20}, n / 4, n / 2, n, n + 3}) {
      SCOPED_TRACE(testing::Message() << "rep " << rep << " n " << n
                                      << " k " << k);
      std::vector<ItemId> ref;
      sel.SelectFromCandidatesReference(ids, scores, k, &ref);

      std::vector<ItemId> cascade;
      sel.SelectFromCandidates(ids, scores, k, &cascade);
      EXPECT_EQ(cascade, ref);
      EXPECT_EQ(TopKFromCandidates(ids, scores, k), ref);
    }
  }
}

TEST(TopKSelectorTest, ExtremeFiniteAndInfiniteScores) {
  // ±inf and extreme magnitudes: the cascade's bucket width degenerates
  // (non-finite range), so it must fall back to the exact heap; the heap
  // itself orders any NaN-free doubles correctly.
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<ItemId> ids = {2, 3, 5, 7, 11, 13, 17};
  std::vector<double> scores = {-inf, 1e300, 0.0,  -0.0,
                                inf,  -1e300, 5e-324};
  TopKSelector sel;
  for (size_t k : {size_t{1}, size_t{3}, size_t{7}, size_t{9}}) {
    std::vector<ItemId> ref;
    sel.SelectFromCandidatesReference(ids, scores, k, &ref);
    std::vector<ItemId> got;
    sel.SelectFromCandidates(ids, scores, k, &got);
    EXPECT_EQ(got, ref) << "k " << k;
  }
  EXPECT_EQ(TopKFromCandidates(ids, scores, 3),
            (std::vector<ItemId>{11, 3, 17}));

  // Same through the masked paths.
  std::vector<bool> mask(scores.size(), false);
  mask[1] = true;
  for (size_t k : {size_t{1}, size_t{4}, size_t{10}}) {
    std::vector<ItemId> ref;
    sel.SelectMaskedReference(scores, mask, k, &ref);
    std::vector<ItemId> got;
    sel.SelectMasked(scores, mask, k, &got);
    EXPECT_EQ(got, ref) << "k " << k;
  }
}

TEST(TopKSelectorTest, CascadeSizedExtremesFallBackToHeap) {
  // Cascade-sized pools (n >= 256, k >= n/8) whose score range defeats
  // the histogram: ±inf endpoints, and a *finite* range whose width
  // overflows to +inf (-1e308..1e308 — casting the resulting NaN bucket
  // index would be UB). SelectCascade must decline and the heap fallback
  // must still match the reference.
  Rng rng(431);
  const double inf = std::numeric_limits<double>::infinity();
  for (double extreme : {inf, 1e308}) {
    const size_t n = 320;
    std::vector<ItemId> ids(n);
    std::vector<double> scores(n);
    for (size_t i = 0; i < n; ++i) {
      ids[i] = static_cast<ItemId>(2 * i + 1);
      scores[i] = rng.Uniform(-1.0, 1.0);
    }
    scores[17] = extreme;
    scores[251] = -extreme;
    TopKSelector sel;
    for (size_t k : {n / 8, n / 2, n}) {
      std::vector<ItemId> ref;
      sel.SelectFromCandidatesReference(ids, scores, k, &ref);
      std::vector<ItemId> got;
      sel.SelectFromCandidates(ids, scores, k, &got);
      EXPECT_EQ(got, ref) << "extreme " << extreme << " k " << k;
    }
  }
}

TEST(TopKSelectorTest, AllScoresEqualFallsBackAndTieBreaksById) {
  // Degenerate range (lo == hi) over a cascade-sized input with k large
  // enough to engage the cascade (k >= n/8): bucketing cannot
  // discriminate, the cascade declines, and the heap fallback returns
  // pure id order.
  std::vector<ItemId> ids(300);
  std::vector<double> scores(300, 0.25);
  for (size_t i = 0; i < ids.size(); ++i) {
    ids[i] = static_cast<ItemId>(ids.size() - i);  // descending ids
  }
  TopKSelector sel;
  std::vector<ItemId> got;
  sel.SelectFromCandidates(ids, scores, 60, &got);
  std::vector<ItemId> expect(60);
  for (size_t i = 0; i < expect.size(); ++i) {
    expect[i] = static_cast<ItemId>(i + 1);
  }
  EXPECT_EQ(got, expect);
}

TEST(TopKSelectorTest, EverythingMaskedOrKZero) {
  std::vector<double> scores = {0.4, 0.2, 0.9};
  std::vector<bool> all_masked(3, true);
  TopKSelector sel;
  std::vector<ItemId> out = {99};
  sel.SelectMasked(scores, all_masked, 2, &out);
  EXPECT_TRUE(out.empty());

  out = {99};
  std::vector<bool> none_masked(3, false);
  sel.SelectMasked(scores, none_masked, 0, &out);
  EXPECT_TRUE(out.empty());

  out = {99};
  sel.SelectFromCandidates({1, 2, 3}, scores, 0, &out);
  EXPECT_TRUE(out.empty());
}

TEST(TopKSelectorTest, SessionsReset) {
  // A session must not leak entries into the next one.
  std::vector<bool> mask(4, false);
  TopKSelector sel;
  sel.Begin(3, &mask);
  const double a[] = {0.9, 0.8, 0.7, 0.6};
  sel.Push(0, a, 4);
  std::vector<ItemId> out;
  sel.Finish(&out);
  EXPECT_EQ(out, (std::vector<ItemId>{0, 1, 2}));

  sel.Begin(2, nullptr);
  const double b[] = {0.1, 0.5};
  sel.Push(0, b, 2);
  sel.Finish(&out);
  EXPECT_EQ(out, (std::vector<ItemId>{1, 0}));
}

}  // namespace
}  // namespace hetefedrec
