// Recorded goldens for `Dataset`'s public answers. Each case pins three
// digests over every user of one dataset: the order of `TrainItems` and
// `TestItems`, `HasInteracted` over every (user, item) pair, and the
// samples `BuildLocalEpoch` draws for each user in turn from one fixed
// `Rng` (so a rejection loop that consumed one draw more or less moves
// every later user's digest). The values were recorded from the
// hash-set index that preceded the sorted per-user arrays; any change to
// the index must reproduce them bit for bit.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "src/data/dataset.h"
#include "src/data/synthetic.h"
#include "tests/core/equivalence_test_util.h"

namespace hetefedrec {
namespace {

using digest_internal::Bits;
using digest_internal::kFnvOffset;
using digest_internal::Mix;

struct Digests {
  uint64_t order = kFnvOffset;
  uint64_t membership = kFnvOffset;
  uint64_t epochs = kFnvOffset;
};

Digests DigestDataset(const Dataset& ds) {
  Digests d;
  for (size_t u = 0; u < ds.num_users(); ++u) {
    const UserId user = static_cast<UserId>(u);
    for (const auto* items : {&ds.TrainItems(user), &ds.TestItems(user)}) {
      Mix(items->size(), &d.order);
      for (ItemId i : *items) Mix(static_cast<uint64_t>(i), &d.order);
    }
    uint64_t word = 0;
    for (size_t i = 0; i < ds.num_items(); ++i) {
      const bool seen = ds.HasInteracted(user, static_cast<ItemId>(i));
      word = (word << 1) | (seen ? 1 : 0);
      if (i % 64 == 63) Mix(word, &d.membership), word = 0;
    }
    Mix(word, &d.membership);
  }
  Rng rng(0xda7a5e7ull);
  for (size_t u = 0; u < ds.num_users(); ++u) {
    const std::vector<Sample> epoch =
        ds.BuildLocalEpoch(static_cast<UserId>(u), &rng);
    Mix(epoch.size(), &d.epochs);
    for (const Sample& s : epoch) {
      Mix(static_cast<uint64_t>(s.item), &d.epochs);
      Mix(Bits(s.label), &d.epochs);
    }
  }
  Mix(rng.Next(), &d.epochs);
  return d;
}

/// Users listed out of order, repeated (user, item) pairs, user 3 with no
/// interactions and user 1 holding every item of the catalogue.
std::vector<Interaction> HandMade() {
  constexpr ItemId kItems = 12;
  std::vector<Interaction> out = {{4, 7}, {0, 3}, {4, 7}, {2, 11}, {0, 5},
                                  {2, 0}, {0, 3}, {4, 1}, {2, 11}, {4, 9},
                                  {0, 8}, {4, 2}, {2, 6}, {0, 10}, {4, 7}};
  for (ItemId i = kItems - 1; i >= 0; --i) {
    out.push_back({1, i});
    if (i % 3 == 0) out.push_back({1, i});
  }
  out.push_back({0, 3});
  return out;
}

enum class Case { kMovieLens, kAnime, kHandMade, kHandMadeAllTrain };

Dataset Build(Case c) {
  SplitOptions split;
  StatusOr<Dataset> ds = Status::InvalidArgument("unset");
  if (c == Case::kMovieLens || c == Case::kAnime) {
    const SyntheticConfig cfg =
        c == Case::kMovieLens ? MovieLensConfig(0.06) : AnimeConfig(0.05);
    // The split seed ExperimentRunner derives from seed 41.
    split.seed = 41 ^ 0x5eedULL;
    ds = Dataset::FromInteractions(GenerateInteractions(cfg), cfg.num_users,
                                   cfg.num_items, split);
  } else {
    if (c == Case::kHandMadeAllTrain) split.train_fraction = 1.0;
    ds = Dataset::FromInteractions(HandMade(), 5, 12, split);
  }
  EXPECT_TRUE(ds.ok()) << ds.status().ToString();
  return std::move(ds).value();
}

struct Golden {
  const char* name;
  Case config;
  uint64_t order;
  uint64_t membership;
  uint64_t epochs;
};

constexpr Golden kGoldens[] = {
    {"MovieLens006", Case::kMovieLens, 0x48ece9111ea7583cull,
     0x9a5319d2d21e6183ull, 0x9bc631e6a5a89f73ull},
    {"Anime005", Case::kAnime, 0x995422cd5d738f68ull, 0x02efc18c8c030989ull,
     0x65650bbd6157ec78ull},
    {"HandMade", Case::kHandMade, 0xea6a36647510bb68ull,
     0x84decefecb8db901ull, 0x2dafdc28d32d70c7ull},
    {"HandMadeAllTrain", Case::kHandMadeAllTrain, 0x50c81f126b2b61ceull,
     0x84decefecb8db901ull, 0x6a1f2a4c562c1e20ull},
};

class DatasetGoldenTest : public ::testing::TestWithParam<Golden> {};

TEST_P(DatasetGoldenTest, ReproducesRecordedDigests) {
  const Golden& golden = GetParam();
  const Digests d = DigestDataset(Build(golden.config));
  char actual[160];
  std::snprintf(actual, sizeof(actual),
                "actual: {\"%s\", ..., 0x%016" PRIx64 "ull, 0x%016" PRIx64
                "ull, 0x%016" PRIx64 "ull}",
                golden.name, d.order, d.membership, d.epochs);
  EXPECT_EQ(d.order, golden.order) << actual;
  EXPECT_EQ(d.membership, golden.membership) << actual;
  EXPECT_EQ(d.epochs, golden.epochs) << actual;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, DatasetGoldenTest, ::testing::ValuesIn(kGoldens),
    [](const ::testing::TestParamInfo<Golden>& info) {
      return std::string(info.param.name);
    });

TEST(DatasetGoldenTest, HandMadeEdgeUsers) {
  const Dataset ds = Build(Case::kHandMadeAllTrain);
  EXPECT_TRUE(ds.TrainItems(3).empty());
  EXPECT_TRUE(ds.TestItems(3).empty());
  for (ItemId i = 0; i < 12; ++i) EXPECT_FALSE(ds.HasInteracted(3, i));
  // User 1 trains on the whole catalogue: no item is left to draw.
  EXPECT_EQ(ds.TrainItems(1).size(), 12u);
  Rng rng(5);
  const uint64_t before = Rng(5).Next();
  EXPECT_TRUE(ds.SampleNegatives(1, 4, &rng).empty());
  EXPECT_EQ(rng.Next(), before);  // no draw was spent
  // Duplicates collapse to first occurrences.
  EXPECT_EQ(ds.InteractionCount(0), 4u);
  EXPECT_EQ(ds.InteractionCount(2), 3u);
  EXPECT_EQ(ds.InteractionCount(4), 4u);
}

}  // namespace
}  // namespace hetefedrec
