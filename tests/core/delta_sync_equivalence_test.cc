// Delta-sync equivalence: the row-subscription download protocol must be
// invisible to training — bit-identical metrics and tables for all seven
// methods — while shrinking the reported download volume. Also pins
// replica invalidation after RESKD distillation and the determinism of
// the availability / straggler machinery under a fixed seed.
#include <gtest/gtest.h>

#include <vector>

#include "src/fed/shard/sharded_server.h"
#include "src/core/local_trainer.h"
#include "src/core/trainer.h"
#include "src/fed/sync/sync_service.h"
#include "src/math/init.h"
#include "tests/core/equivalence_test_util.h"

namespace hetefedrec {
namespace {

ExperimentConfig SmallConfig() {
  ExperimentConfig cfg;
  cfg.dataset = "ml";
  cfg.data_scale = 0.02;
  cfg.global_epochs = 2;
  cfg.clients_per_round = 32;
  cfg.eval_user_sample = 60;
  cfg.ddr_sample_rows = 64;
  cfg.kd_items = 16;
  cfg.seed = 41;
  return cfg;
}

// Every method, full pipeline: delta sync with replica verification ON
// (every skipped row is CHECKed byte-identical against the live table, so
// a missed version stamp aborts the test) must reproduce the
// full-download run exactly. DDR and RESKD matter here: both dirty rows
// outside any single client's touched set.
TEST(DeltaSyncEquivalence, AllMethodsMatchFullDownloads) {
  for (Method method : kAllMethods) {
    ExperimentConfig full_cfg = SmallConfig();
    full_cfg.full_downloads = true;
    ExperimentConfig delta_cfg = SmallConfig();
    delta_cfg.full_downloads = false;
    delta_cfg.sync_verify_replicas = true;

    auto full_runner = ExperimentRunner::Create(full_cfg);
    auto delta_runner = ExperimentRunner::Create(delta_cfg);
    ASSERT_TRUE(full_runner.ok());
    ASSERT_TRUE(delta_runner.ok());
    ExperimentResult full_res = (*full_runner)->Run(method);
    ExperimentResult delta_res = (*delta_runner)->Run(method);

    SCOPED_TRACE(MethodName(method));
    ExpectSameEval(full_res.final_eval, delta_res.final_eval);
    if (method != Method::kStandalone) {
      EXPECT_EQ(full_res.collapse_variance, delta_res.collapse_variance);
      EXPECT_EQ(full_res.collapse_cv, delta_res.collapse_cv);
      // Default accounting still reports the paper's dense numbers.
      EXPECT_EQ(full_res.comm.TotalTransmitted(),
                delta_res.comm.TotalTransmitted());
    }
  }
}

TEST(DeltaSyncEquivalence, DeltaAccountingShrinksDownloads) {
  ExperimentConfig delta_cfg = SmallConfig();
  delta_cfg.full_downloads = false;
  delta_cfg.sparse_comm_accounting = true;
  ExperimentConfig dense_cfg = SmallConfig();
  dense_cfg.sparse_comm_accounting = true;

  auto delta_runner = ExperimentRunner::Create(delta_cfg);
  auto dense_runner = ExperimentRunner::Create(dense_cfg);
  ASSERT_TRUE(delta_runner.ok());
  ASSERT_TRUE(dense_runner.ok());
  ExperimentResult delta_res = (*delta_runner)->Run(Method::kHeteFedRec);
  ExperimentResult dense_res = (*dense_runner)->Run(Method::kHeteFedRec);

  ExpectSameEval(delta_res.final_eval, dense_res.final_eval);
  for (Group g : {Group::kSmall, Group::kMedium, Group::kLarge}) {
    EXPECT_LT(delta_res.comm.AvgDownload(g), dense_res.comm.AvgDownload(g))
        << GroupName(g);
    // Uploads are identical — delta sync only changes the down direction.
    EXPECT_EQ(delta_res.comm.AvgUpload(g), dense_res.comm.AvgUpload(g));
  }
}

// Capped replicas (sync_replica_cap): evicting LRU rows must not change
// any metric — an evicted row reads as never held and simply re-ships.
// Verify mode stays on so any stale byte served from a capped replica
// aborts the run.
TEST(DeltaSyncEquivalence, ReplicaCapIsMetricIdentical) {
  ExperimentConfig full_cfg = SmallConfig();

  ExperimentConfig capped_cfg = SmallConfig();
  capped_cfg.full_downloads = false;
  capped_cfg.sync_verify_replicas = true;
  capped_cfg.sparse_comm_accounting = true;
  capped_cfg.sync_replica_cap = 16;  // far below typical subscriptions

  auto full_runner = ExperimentRunner::Create(full_cfg);
  auto capped_runner = ExperimentRunner::Create(capped_cfg);
  ASSERT_TRUE(full_runner.ok());
  ASSERT_TRUE(capped_runner.ok());
  ExperimentResult full_res = (*full_runner)->Run(Method::kHeteFedRec);
  ExperimentResult capped_res = (*capped_runner)->Run(Method::kHeteFedRec);

  ExpectSameEval(full_res.final_eval, capped_res.final_eval);
  EXPECT_EQ(full_res.collapse_variance, capped_res.collapse_variance);
}

// The cap's downlink cost needs sparse staleness to be observable: at toy
// pipeline scale every row is stamped between two participations of any
// client, so capped and uncapped ship identically. This round loop mimics
// the paper-scale regime instead — a big catalogue where a round stamps
// only the participants' rows — and pins that eviction misses raise
// `params_down` while the uncapped replica keeps skipping fresh rows.
TEST(DeltaSyncEquivalence, ReplicaCapRaisesParamsDown) {
  constexpr size_t kItems = 2000;
  constexpr size_t kUsers = 16;
  constexpr size_t kPerRound = 4;
  constexpr size_t kSubRows = 100;
  Matrix table(kItems, 8);
  Rng init(5);
  InitNormal(&table, 0.1, &init);

  // Fixed per-user subscriptions (a client's positives dominate and are
  // stable round to round).
  Rng pick(7);
  std::vector<std::vector<uint32_t>> subs(kUsers);
  for (auto& s : subs) {
    while (s.size() < kSubRows) {
      s.push_back(static_cast<uint32_t>(pick.UniformInt(kItems)));
      std::sort(s.begin(), s.end());
      s.erase(std::unique(s.begin(), s.end()), s.end());
    }
  }

  auto run = [&](size_t cap) {
    VersionedTable versions(1, kItems);
    SyncService::Options opts;
    opts.verify_values = true;
    opts.replica_cap = cap;
    SyncService sync(kUsers, opts);
    size_t total_params = 0;
    for (size_t round = 0; round < 3 * kUsers / kPerRound; ++round) {
      versions.AdvanceRound();
      for (size_t c = 0; c < kPerRound; ++c) {
        const UserId u = static_cast<UserId>((round * kPerRound + c) % kUsers);
        total_params +=
            sync.Sync(u, 0, subs[u], table, versions, 100).params;
      }
      // Only the *trained* half of each participant's subscription changes
      // server-side; the other half is read-only (validation items, stable
      // negatives) — exactly the rows an uncapped replica keeps skipping.
      for (size_t c = 0; c < kPerRound; ++c) {
        const UserId u = static_cast<UserId>((round * kPerRound + c) % kUsers);
        for (size_t i = 0; i < subs[u].size() / 2; ++i) {
          versions.Stamp(0, subs[u][i]);
        }
      }
    }
    return total_params;
  };

  const size_t uncapped = run(0);
  const size_t capped = run(kSubRows / 2);  // cap below the working set
  EXPECT_GT(capped, uncapped);
  // Rows a client keeps re-reading unchanged are skipped only uncapped:
  // the capped total approaches ship-everything-every-time.
  const size_t ship_all = run(1);
  EXPECT_LE(capped, ship_all);
}

// After Distill, rows in the Vkd sample must re-ship even to a client
// that held them fresh — RESKD perturbs every slot's table server-side.
TEST(DeltaSyncEquivalence, ReplicaInvalidationAfterDistill) {
  HeteroServer::Options opts;
  opts.widths = {4, 8};
  opts.num_items = 40;
  opts.seed = 17;
  HeteroServer server(opts);
  SyncService sync(1);

  std::vector<uint32_t> subs(40);
  for (uint32_t r = 0; r < 40; ++r) subs[r] = r;

  server.BeginRound();
  server.FinishRound();
  SyncPlan first =
      sync.Sync(0, 1, subs, server.table(1), server.versions(), 0);
  EXPECT_EQ(first.shipped_rows, 40u);

  // An idle round: nothing to re-ship.
  server.BeginRound();
  server.FinishRound();
  SyncPlan idle =
      sync.Sync(0, 1, subs, server.table(1), server.versions(), 0);
  EXPECT_EQ(idle.shipped_rows, 0u);

  // A round with distillation: exactly the Vkd rows go stale.
  server.BeginRound();
  server.FinishRound();
  DistillationOptions kd;
  kd.kd_items = 8;
  kd.steps = 1;
  kd.lr = 0.01;
  Rng kd_rng(23);
  server.Distill(kd, &kd_rng);
  SyncPlan after =
      sync.Sync(0, 1, subs, server.table(1), server.versions(), 0);
  EXPECT_EQ(after.shipped_rows, 8u);
}

// The availability / over-selection protocol must be a pure function of
// the seed: two identical runs agree bit-for-bit, and the protocol still
// covers the population (uploads keep flowing).
TEST(DeltaSyncDeterminism, AvailabilityAndStragglersReproduce) {
  ExperimentConfig cfg = SmallConfig();
  cfg.full_downloads = false;
  cfg.availability = 0.6;
  cfg.straggler_slack = 4;
  cfg.net_bandwidth_sigma = 0.6;
  cfg.net_latency_sigma = 0.2;
  cfg.net_compute_per_sample = 1e-6;

  auto runner_a = ExperimentRunner::Create(cfg);
  auto runner_b = ExperimentRunner::Create(cfg);
  ASSERT_TRUE(runner_a.ok());
  ASSERT_TRUE(runner_b.ok());
  ExperimentResult a = (*runner_a)->Run(Method::kHeteFedRec);
  ExperimentResult b = (*runner_b)->Run(Method::kHeteFedRec);

  ExpectSameEval(a.final_eval, b.final_eval);
  EXPECT_EQ(a.collapse_variance, b.collapse_variance);
  EXPECT_EQ(a.comm.TotalTransmitted(), b.comm.TotalTransmitted());
  size_t participations = 0;
  for (Group g : {Group::kSmall, Group::kMedium, Group::kLarge}) {
    participations += a.comm.Participations(g);
  }
  EXPECT_GT(participations, 0u);
}

// ... and thread count must not change the outcome even with stragglers
// in play (winners merge in batch order, not completion order).
TEST(DeltaSyncDeterminism, StragglerRunsAreThreadCountInvariant) {
  ExperimentConfig cfg = SmallConfig();
  cfg.availability = 0.7;
  cfg.straggler_slack = 3;
  cfg.net_bandwidth_sigma = 0.4;
  ExperimentConfig cfg4 = cfg;
  cfg4.num_threads = 4;

  auto serial = ExperimentRunner::Create(cfg);
  auto parallel = ExperimentRunner::Create(cfg4);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(parallel.ok());
  ExperimentResult a = (*serial)->Run(Method::kHeteFedRec);
  ExperimentResult b = (*parallel)->Run(Method::kHeteFedRec);
  ExpectSameEval(a.final_eval, b.final_eval);
  EXPECT_EQ(a.collapse_variance, b.collapse_variance);
  EXPECT_EQ(a.comm.TotalTransmitted(), b.comm.TotalTransmitted());
}

// Over-selection with everyone online and no network noise: every round
// still merges exactly clients_per_round updates, so the acceptance bar
// "availability 1.0 / no stragglers == paper protocol" holds by
// construction and the slack only adds discarded work.
TEST(DeltaSyncDeterminism, DeadlineDropsStragglers) {
  ExperimentConfig cfg = SmallConfig();
  cfg.net_latency = 0.05;
  cfg.round_deadline = 0.01;  // everyone misses it
  auto runner = ExperimentRunner::Create(cfg);
  ASSERT_TRUE(runner.ok());
  ExperimentResult r = (*runner)->Run(Method::kAllSmall);
  size_t uploads = 0;
  for (Group g : {Group::kSmall, Group::kMedium, Group::kLarge}) {
    uploads += r.comm.Participations(g);
  }
  // No update ever merges; the round budget caps the epoch.
  EXPECT_EQ(uploads, 0u);
}

}  // namespace
}  // namespace hetefedrec
