// Item-range sharded server unit contract: range geometry and row
// routing, bit-identity of every shard count against S=1 for sparse, dense
// and mixed rounds (both aggregation layouts), lockstep version stamping
// through the routing view, per-shard upload accounting, StampRows, and
// the Snapshot/RestoreSnapshot round-trip including shard-count
// portability of a snapshot.
#include "src/fed/shard/sharded_server.h"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace hetefedrec {
namespace {

constexpr size_t kItems = 23;  // deliberately not divisible by 2/4/8

HeteroServer::Options BaseOptions(bool shared = true,
                                  AggregationMode mode =
                                      AggregationMode::kMean) {
  HeteroServer::Options opt;
  opt.widths = {2, 4, 8};
  opt.num_items = kItems;
  opt.embed_init_std = 0.1;
  opt.aggregation = mode;
  opt.shared_aggregation = shared;
  opt.seed = 3;
  return opt;
}

// The version view points back at the server, so copies are compile-time
// errors rather than aliases of the original's versions.
static_assert(!std::is_copy_constructible_v<HeteroServer>);
static_assert(!std::is_move_constructible_v<HeteroServer>);

HeteroServer MakeSharded(size_t shards, bool shared = true,
                         AggregationMode mode = AggregationMode::kMean) {
  return HeteroServer(BaseOptions(shared, mode), shards);
}

std::vector<LocalTaskSpec> TasksUpTo(size_t group,
                                     const std::vector<size_t>& widths) {
  std::vector<LocalTaskSpec> tasks;
  for (size_t t = 0; t <= group; ++t) tasks.push_back({t, widths[t]});
  return tasks;
}

// Θ deltas of `value` in every weight, one per task.
std::vector<FeedForwardNet> ThetaDeltas(double value,
                                        const std::vector<LocalTaskSpec>& tasks,
                                        const ServerApi& server) {
  std::vector<FeedForwardNet> deltas;
  for (const auto& task : tasks) {
    FeedForwardNet d = FeedForwardNet::ZerosLike(server.theta(task.slot));
    for (size_t l = 0; l < d.num_layers(); ++l) d.weight(l).Fill(value);
    deltas.push_back(std::move(d));
  }
  return deltas;
}

LocalUpdateResult DenseUpdate(size_t width, double v_value,
                              const std::vector<LocalTaskSpec>& tasks,
                              const ServerApi& server) {
  LocalUpdateResult r;
  r.v_delta = Matrix(kItems, width);
  r.v_delta.Fill(v_value);
  r.theta_deltas = ThetaDeltas(v_value, tasks, server);
  return r;
}

LocalUpdateResult SparseUpdate(size_t width,
                               const std::vector<uint32_t>& rows,
                               double v_value,
                               const std::vector<LocalTaskSpec>& tasks,
                               const ServerApi& server) {
  LocalUpdateResult r;
  r.sparse = true;
  r.v_delta_sparse.width = width;
  r.v_delta_sparse.rows = rows;
  r.v_delta_sparse.data.assign(rows.size() * width, v_value);
  r.theta_deltas = ThetaDeltas(v_value, tasks, server);
  return r;
}

void ExpectSameTables(const ServerApi& a, const ServerApi& b) {
  ASSERT_EQ(a.num_slots(), b.num_slots());
  for (size_t s = 0; s < a.num_slots(); ++s) {
    EXPECT_EQ(a.table(s).data(), b.table(s).data()) << "slot " << s;
  }
}

// Tables, Θ weights and biases, and every row's version stamp.
void ExpectSameState(const ServerApi& a, const ServerApi& b) {
  ExpectSameTables(a, b);
  EXPECT_EQ(a.versions().round(), b.versions().round());
  for (size_t s = 0; s < a.num_slots(); ++s) {
    const FeedForwardNet& ta = a.theta(s);
    const FeedForwardNet& tb = b.theta(s);
    ASSERT_EQ(ta.num_layers(), tb.num_layers());
    for (size_t l = 0; l < ta.num_layers(); ++l) {
      EXPECT_EQ(ta.weight(l).data(), tb.weight(l).data()) << "slot " << s;
      EXPECT_EQ(ta.bias(l).data(), tb.bias(l).data()) << "slot " << s;
    }
    for (size_t row = 0; row < a.num_items(); ++row) {
      EXPECT_EQ(a.versions().Version(s, row), b.versions().Version(s, row))
          << "slot " << s << " row " << row;
    }
  }
}

TEST(ShardedServerTest, RangesPartitionTheCatalogue) {
  for (size_t shards : {size_t{1}, size_t{2}, size_t{3}, size_t{4},
                        size_t{7}, size_t{8}, kItems}) {
    HeteroServer server = MakeSharded(shards);
    SCOPED_TRACE("S=" + std::to_string(shards));
    EXPECT_EQ(server.num_shards(), shards);
    size_t covered = 0;
    for (size_t s = 0; s < shards; ++s) {
      EXPECT_EQ(server.shard_row_begin(s), covered);
      EXPECT_GT(server.shard_row_count(s), 0u);
      covered += server.shard_row_count(s);
    }
    EXPECT_EQ(covered, kItems);
    // Every row routes into the shard whose range contains it.
    for (size_t row = 0; row < kItems; ++row) {
      const size_t s = server.shard_of_row(row);
      EXPECT_GE(row, server.shard_row_begin(s));
      EXPECT_LT(row, server.shard_row_begin(s) + server.shard_row_count(s));
    }
  }
}

// Same seed, same RNG draw order at every shard count: tables, Θ and
// version stamps agree exactly with the single range.
TEST(ShardedServerTest, InitialStateMatchesHeteroServerBitForBit) {
  HeteroServer single = MakeSharded(1);
  for (size_t shards : {size_t{2}, size_t{3}, size_t{4}, size_t{7}}) {
    HeteroServer server = MakeSharded(shards);
    SCOPED_TRACE("S=" + std::to_string(shards));
    ExpectSameState(single, server);
  }
}

// The core arithmetic contract, isolated from the trainer: a sparse-only
// round, a dense-only round and a mixed round of every width land
// bit-identically at S=1 and at several other shard counts — shared
// (padded) and clustered layouts, mean and sum modes.
TEST(ShardedServerTest, MixedRoundMatchesLegacyAnyShardCount) {
  for (bool shared : {true, false}) {
    for (AggregationMode mode :
         {AggregationMode::kMean, AggregationMode::kSum}) {
      const auto opt = BaseOptions(shared, mode);
      const auto small = TasksUpTo(0, opt.widths);
      const auto medium = TasksUpTo(1, opt.widths);
      const auto large = TasksUpTo(2, opt.widths);
      auto sparse_round = [&](ServerApi* server) {
        server->BeginRound();
        server->UploadDelta(
            small, SparseUpdate(2, {0, 7, 22}, 1.25, small, *server));
        server->UploadDelta(
            large, SparseUpdate(8, {3, 7, 11, 19}, -0.5, large, *server));
        server->FinishRound();
      };
      auto dense_round = [&](ServerApi* server) {
        server->BeginRound();
        server->UploadDelta(medium,
                            DenseUpdate(4, 0.125, medium, *server), 2.0);
        server->UploadDelta(small, DenseUpdate(2, -0.375, small, *server));
        server->FinishRound();
      };
      auto mixed_round = [&](ServerApi* server) {
        server->BeginRound();
        server->UploadDelta(
            small, SparseUpdate(2, {0, 7, 22}, 1.25, small, *server));
        server->UploadDelta(
            large, SparseUpdate(8, {3, 7, 11, 19}, -0.5, large, *server));
        server->UploadDelta(medium,
                            DenseUpdate(4, 0.125, medium, *server), 2.0);
        server->UploadDelta(
            large, SparseUpdate(8, {0, 22}, 0.75, large, *server));
        server->FinishRound();
      };
      HeteroServer single(opt);
      std::vector<std::unique_ptr<HeteroServer>> sharded;
      for (size_t shards : {size_t{2}, size_t{3}, size_t{4}, size_t{7}}) {
        sharded.push_back(std::make_unique<HeteroServer>(opt, shards));
      }
      const std::vector<
          std::pair<const char*, std::function<void(ServerApi*)>>>
          rounds = {{"sparse", sparse_round},
                    {"dense", dense_round},
                    {"mixed", mixed_round}};
      for (const auto& [name, round] : rounds) {
        round(&single);
        for (const auto& server : sharded) {
          round(server.get());
          SCOPED_TRACE((shared ? "shared" : "clustered") +
                       std::string(mode == AggregationMode::kSum ? "/sum"
                                                                 : "/mean") +
                       "/" + name + "/S=" +
                       std::to_string(server->num_shards()));
          ExpectSameState(single, *server);
        }
      }
    }
  }
}

TEST(ShardedServerTest, VersionsAdvanceInLockstepAcrossShards) {
  HeteroServer server = MakeSharded(4);
  EXPECT_EQ(server.versions().round(), 0u);
  auto large = TasksUpTo(2, BaseOptions().widths);

  server.BeginRound();
  // Sparse round: only the touched rows (one per shard boundary region)
  // gain stamps.
  server.UploadDelta(large,
                     SparseUpdate(8, {0, 6, 12, 22}, 1.0, large, server));
  server.FinishRound();
  EXPECT_EQ(server.versions().round(), 1u);
  for (size_t slot = 0; slot < 3; ++slot) {
    EXPECT_EQ(server.versions().Version(slot, 0), 1u);
    EXPECT_EQ(server.versions().Version(slot, 22), 1u);
    EXPECT_EQ(server.versions().Version(slot, 1), 0u);  // untouched
  }

  server.BeginRound();
  // Dense round: every shard StampAlls the same round.
  server.UploadDelta(large, DenseUpdate(8, 0.5, large, server));
  server.FinishRound();
  EXPECT_EQ(server.versions().round(), 2u);
  for (size_t row = 0; row < kItems; ++row) {
    EXPECT_EQ(server.versions().Version(0, row), 2u) << "row " << row;
  }
}

TEST(ShardedServerTest, PerShardUploadScalarsRouteByRow) {
  HeteroServer server = MakeSharded(2);
  const size_t split = server.shard_row_begin(1);
  auto large = TasksUpTo(2, BaseOptions().widths);

  server.BeginRound();
  // Two rows in shard 0, one in shard 1.
  server.UploadDelta(
      large, SparseUpdate(
                 8, {0, static_cast<uint32_t>(split - 1),
                     static_cast<uint32_t>(split)},
                 1.0, large, server));
  server.FinishRound();

  EXPECT_EQ(server.shard_upload_scalars(0), 2u * 8u);
  EXPECT_EQ(server.shard_upload_scalars(1), 1u * 8u);
}

TEST(ShardedServerTest, StampRowsRoutesToOwningShards) {
  HeteroServer server = MakeSharded(4);
  auto large = TasksUpTo(2, BaseOptions().widths);
  server.BeginRound();
  server.UploadDelta(large, SparseUpdate(8, {1}, 0.1, large, server));
  server.FinishRound();  // round 1

  server.StampRows(0, {0, 11, 22});
  EXPECT_EQ(server.versions().Version(0, 0), 1u);
  EXPECT_EQ(server.versions().Version(0, 11), 1u);
  EXPECT_EQ(server.versions().Version(0, 22), 1u);
  EXPECT_EQ(server.versions().Version(0, 2), 0u);
  EXPECT_EQ(server.versions().Version(1, 11), 0u);  // other slots untouched
}

// Snapshot exports a whole-catalogue layout regardless of the shard
// count, so a snapshot written at S=4 restores into S=2.
TEST(ShardedServerTest, SnapshotRoundTripsAcrossShardCounts) {
  HeteroServer origin = MakeSharded(4);
  auto large = TasksUpTo(2, BaseOptions().widths);
  origin.BeginRound();
  origin.UploadDelta(large,
                     SparseUpdate(8, {2, 9, 17}, 0.625, large, origin));
  origin.FinishRound();
  ServerSnapshot snap = origin.Snapshot();
  EXPECT_EQ(snap.version_round, 1u);
  ASSERT_EQ(snap.tables.size(), 3u);
  ASSERT_EQ(snap.versions.size(), 3u);
  for (const auto& slot_versions : snap.versions) {
    EXPECT_EQ(slot_versions.size(), kItems);
  }

  HeteroServer other = MakeSharded(2);
  other.RestoreSnapshot(origin.Snapshot());
  ExpectSameTables(origin, other);
  EXPECT_EQ(other.versions().round(), 1u);
  for (size_t row = 0; row < kItems; ++row) {
    for (size_t slot = 0; slot < 3; ++slot) {
      EXPECT_EQ(other.versions().Version(slot, row),
                origin.versions().Version(slot, row));
    }
  }

  // And the restored server keeps aggregating identically to the origin.
  auto next_round = [&large](ServerApi* server) {
    server->BeginRound();
    server->UploadDelta(large,
                        SparseUpdate(8, {2, 20}, -0.25, large, *server));
    server->FinishRound();
  };
  next_round(&origin);
  next_round(&other);
  ExpectSameTables(origin, other);
}

// server_shards 0 and 1 both build the single range; any other count
// builds that many ranges over the same initial state.
TEST(ShardedServerTest, MakeServerSelectsImplementation) {
  auto zero = MakeServer(BaseOptions(), 0);
  auto one = MakeServer(BaseOptions(), 1);
  auto four = MakeServer(BaseOptions(), 4);
  EXPECT_EQ(zero->num_shards(), 1u);
  EXPECT_EQ(one->num_shards(), 1u);
  EXPECT_EQ(four->num_shards(), 4u);
  ExpectSameState(*zero, *one);
  ExpectSameState(*zero, *four);
}

}  // namespace
}  // namespace hetefedrec
