// ClientStream contract: clients are a pure function of (seed, user) —
// byte-identical across passes and stream instances — with distinct,
// sorted, in-range items per client; the item popularity follows the
// configured power law (log-log slope fit over the mid ranks); and a
// multi-million-user stream costs O(items) memory, never O(users)
// (asserted against the process peak RSS).
#include "src/data/stream.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "src/util/rss.h"

namespace hetefedrec {
namespace {

StreamConfig SmallConfig() {
  StreamConfig cfg;
  cfg.num_users = 30000;
  cfg.num_items = 5000;
  cfg.popularity_exponent = 1.05;
  cfg.size_exponent = 1.6;
  cfg.min_items_per_user = 4;
  cfg.max_items_per_user = 64;
  cfg.seed = 11;
  return cfg;
}

TEST(ClientStreamTest, ClientsAreDistinctSortedAndInRange) {
  const ClientStream stream(SmallConfig());
  for (UserId u = 0; u < 500; ++u) {
    const StreamClient client = stream.Get(u);
    EXPECT_EQ(client.user, u);
    ASSERT_GE(client.items.size(), SmallConfig().min_items_per_user);
    ASSERT_LE(client.items.size(), SmallConfig().max_items_per_user);
    for (size_t k = 0; k < client.items.size(); ++k) {
      EXPECT_LT(client.items[k], stream.num_items());
      if (k > 0) EXPECT_LT(client.items[k - 1], client.items[k]);
    }
  }
}

// Two same-seed passes — through the same stream and through a second
// stream built from the same config — yield byte-identical clients.
TEST(ClientStreamTest, SameSeedPassesAreByteIdentical) {
  const ClientStream a(SmallConfig());
  const ClientStream b(SmallConfig());
  for (UserId u = 0; u < 2000; u += 7) {
    const StreamClient first = a.Get(u);
    const StreamClient again = a.Get(u);
    const StreamClient other = b.Get(u);
    EXPECT_EQ(first.items, again.items) << "user " << u;
    EXPECT_EQ(first.items, other.items) << "user " << u;
  }
}

TEST(ClientStreamTest, ValidateNamesTheUnsatisfiableField) {
  EXPECT_TRUE(SmallConfig().Validate().ok());
  const auto rejects = [](auto mutate, const std::string& field) {
    StreamConfig cfg = SmallConfig();
    mutate(&cfg);
    const Status st = cfg.Validate();
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << field;
    EXPECT_NE(st.message().find(field), std::string::npos) << st.message();
  };
  rejects([](StreamConfig* c) { c->num_users = 0; }, "num_users");
  rejects([](StreamConfig* c) { c->num_items = 0; }, "num_items");
  rejects([](StreamConfig* c) { c->size_exponent = 0.0; }, "size_exponent");
  rejects([](StreamConfig* c) { c->size_exponent = std::nan(""); },
          "size_exponent");
  rejects([](StreamConfig* c) { c->min_items_per_user = 0; },
          "min_items_per_user");
  rejects([](StreamConfig* c) { c->max_items_per_user = 3; },
          "max_items_per_user");
  // bench_sharding --users=2000 --items=500: the default 256-item cap
  // needs a catalogue of at least 512.
  rejects(
      [](StreamConfig* c) {
        c->num_items = 500;
        c->max_items_per_user = 256;
      },
      "num_items");
  StreamConfig edge = SmallConfig();
  edge.num_items = 2 * edge.max_items_per_user;
  EXPECT_TRUE(edge.Validate().ok());
  edge.num_items -= 1;
  EXPECT_FALSE(edge.Validate().ok());
}

TEST(ClientStreamTest, DifferentSeedProducesDifferentClients) {
  StreamConfig other_cfg = SmallConfig();
  other_cfg.seed = 12;
  const ClientStream a(SmallConfig());
  const ClientStream b(other_cfg);
  size_t differing = 0;
  for (UserId u = 0; u < 200; ++u) {
    if (a.Get(u).items != b.Get(u).items) ++differing;
  }
  EXPECT_GT(differing, 150u);  // near-certainly all of them
}

// The empirical item popularity follows the configured Zipf exponent:
// aggregate interaction counts over many clients and fit the log-log
// slope over mid ranks (the head is mildly flattened by per-client
// distinctness, the tail by counting noise — both excluded).
TEST(ClientStreamTest, PopularityFollowsConfiguredPowerLaw) {
  const StreamConfig cfg = SmallConfig();
  const ClientStream stream(cfg);
  std::vector<double> counts(cfg.num_items, 0.0);
  for (UserId u = 0; u < 20000; ++u) {
    for (uint32_t item : stream.Get(u).items) counts[item] += 1.0;
  }
  // Item id order IS popularity rank order (the CDF is built over ids).
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  int n = 0;
  for (size_t rank = 10; rank <= 300; ++rank) {
    ASSERT_GT(counts[rank - 1], 0.0) << "rank " << rank;
    const double x = std::log(static_cast<double>(rank));
    const double y = std::log(counts[rank - 1]);
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
    ++n;
  }
  const double slope = (n * sxy - sx * sy) / (n * sxx - sx * sx);
  EXPECT_NEAR(-slope, cfg.popularity_exponent, 0.2);
}

// Client sizes follow the heavy-tailed Pareto: the mean stays near the
// analytic value and the configured bounds hold (bounds are asserted per
// client above; here the tail actually exercises the cap).
TEST(ClientStreamTest, ClientSizesAreHeavyTailedWithinBounds) {
  const StreamConfig cfg = SmallConfig();
  const ClientStream stream(cfg);
  size_t total = 0;
  size_t at_cap = 0;
  const size_t sample = 20000;
  for (UserId u = 0; u < static_cast<UserId>(sample); ++u) {
    const size_t k = stream.Get(u).items.size();
    total += k;
    if (k == cfg.max_items_per_user) ++at_cap;
  }
  // Uncapped Pareto mean = min * s/(s-1) = 4 * 1.6/0.6 ≈ 10.7; the cap
  // pulls it down slightly. Loose band.
  const double mean = static_cast<double>(total) / sample;
  EXPECT_GT(mean, 6.0);
  EXPECT_LT(mean, 14.0);
  // The tail is real: some clients hit the cap, but only a small share.
  EXPECT_GT(at_cap, 0u);
  EXPECT_LT(at_cap, sample / 20);
}

// The whole point of streaming: a 50M-user stream costs no per-user
// memory. Construct one, read a slice of clients from across the id
// space, and assert the process high-water mark stays far below what any
// per-user materialization would need (50M users x ≥4 items x 4 bytes
// ≥ 800 MB).
TEST(ClientStreamTest, MillionsOfUsersNeedNoPerUserMemory) {
  StreamConfig cfg = SmallConfig();
  cfg.num_users = 50'000'000;
  cfg.num_items = 100'000;
  const ClientStream stream(cfg);
  uint64_t checksum = 0;
  for (UserId u = 0; u < static_cast<UserId>(cfg.num_users);
       u += 1'000'000) {
    for (uint32_t item : stream.Get(u).items) checksum += item;
  }
  EXPECT_GT(checksum, 0u);
  const size_t peak_kb = PeakRssKb();
  if (peak_kb == 0) GTEST_SKIP() << "peak-RSS probe unavailable";
  EXPECT_LT(peak_kb, 256u * 1024u) << "peak RSS suggests per-user state";
}

}  // namespace
}  // namespace hetefedrec
