// Sharded parameter server, end to end: every method and base model,
// under both schedules, reproduces the golden digests recorded from the
// retired single-table server; higher shard counts reproduce the same
// goldens (padded aggregation is row-independent, so the shard count
// changes memory layout and per-shard accounting, never arithmetic —
// docs/SYNC.md "Sharding"), are seed- and thread-deterministic; and a
// sharded run resumes from a kill bit-identical to an uninterrupted one,
// including across a shard-count change (Snapshot exports the same
// whole-catalogue layout for every S).
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <string>

#include "src/core/trainer.h"
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

ExperimentResult RunWith(const ExperimentConfig& cfg, Method method) {
  auto runner = ExperimentRunner::Create(cfg);
  EXPECT_TRUE(runner.ok()) << runner.status().ToString();
  return (*runner)->Run(method);
}

void ExpectSameRun(const ExperimentResult& a, const ExperimentResult& b) {
  ExpectSameEval(a.final_eval, b.final_eval);
  EXPECT_EQ(a.collapse_variance, b.collapse_variance);
  EXPECT_EQ(a.comm.TotalTransmitted(), b.comm.TotalTransmitted());
  EXPECT_EQ(a.simulated_seconds, b.simulated_seconds);
}

/// RunDigest of SmallConfig() per (model, method, schedule), recorded from
/// the retired single-table server (`server_shards=0` while it was a
/// separate class; its output is what every shard count must reproduce).
/// Standalone has no server, so it has no async entry.
struct Golden {
  BaseModel model;
  Method method;
  bool async;
  uint64_t digest;
};

constexpr Golden kGoldens[] = {
    // Synchronous rounds.
    {BaseModel::kNcf, Method::kAllSmall, /*async=*/false,
     0xbd37e90bbf102d1eull},
    {BaseModel::kNcf, Method::kAllLarge, /*async=*/false,
     0xe817e806bdb9c81dull},
    {BaseModel::kNcf, Method::kAllLargeExclusive, /*async=*/false,
     0x8fa9510318826a13ull},
    {BaseModel::kNcf, Method::kStandalone, /*async=*/false,
     0x1717ac9661f71d60ull},
    {BaseModel::kNcf, Method::kClusteredFedRec, /*async=*/false,
     0x579af8ec6ea756efull},
    {BaseModel::kNcf, Method::kDirectlyAggregate, /*async=*/false,
     0x4a67bb27d94de120ull},
    {BaseModel::kNcf, Method::kHeteFedRec, /*async=*/false,
     0x3b64afe94362b7bcull},
    {BaseModel::kLightGcn, Method::kAllSmall, /*async=*/false,
     0x8a30835797a3d42eull},
    {BaseModel::kLightGcn, Method::kAllLarge, /*async=*/false,
     0xd94793ba8666b72full},
    {BaseModel::kLightGcn, Method::kAllLargeExclusive, /*async=*/false,
     0xba8524b6d998fbd6ull},
    {BaseModel::kLightGcn, Method::kStandalone, /*async=*/false,
     0x01ec2ccee764b6daull},
    {BaseModel::kLightGcn, Method::kClusteredFedRec, /*async=*/false,
     0x1f4b01f5bbc281f1ull},
    {BaseModel::kLightGcn, Method::kDirectlyAggregate, /*async=*/false,
     0xe974238332f149f4ull},
    {BaseModel::kLightGcn, Method::kHeteFedRec, /*async=*/false,
     0x0006745bb3c4cb7cull},
    // Merge-on-arrival.
    {BaseModel::kNcf, Method::kAllSmall, /*async=*/true, 0xdeade134fa28180full},
    {BaseModel::kNcf, Method::kAllLarge, /*async=*/true, 0x54c4ddcffb76b56dull},
    {BaseModel::kNcf, Method::kAllLargeExclusive, /*async=*/true,
     0x46beec6a7a732291ull},
    {BaseModel::kNcf, Method::kClusteredFedRec, /*async=*/true,
     0x1d926ffeb1eb29fdull},
    {BaseModel::kNcf, Method::kDirectlyAggregate, /*async=*/true,
     0xded55e56a126dc9cull},
    {BaseModel::kNcf, Method::kHeteFedRec, /*async=*/true,
     0x6b16d636636d44c8ull},
    {BaseModel::kLightGcn, Method::kAllSmall, /*async=*/true,
     0x698b84cda02f1fd4ull},
    {BaseModel::kLightGcn, Method::kAllLarge, /*async=*/true,
     0x88c26f61ccaff0d0ull},
    {BaseModel::kLightGcn, Method::kAllLargeExclusive, /*async=*/true,
     0x190fc261e36ad9dcull},
    {BaseModel::kLightGcn, Method::kClusteredFedRec, /*async=*/true,
     0x74317867d30e04f1ull},
    {BaseModel::kLightGcn, Method::kDirectlyAggregate, /*async=*/true,
     0xd49c79fc81ecc66full},
    {BaseModel::kLightGcn, Method::kHeteFedRec, /*async=*/true,
     0x4736931ac123e059ull},
};

const char* ScheduleName(bool async) { return async ? "async" : "sync"; }

// Runs SmallConfig() for (model, method, schedule) at `shards` and checks
// the result against its recorded golden.
void ExpectGolden(const Golden& golden, size_t shards) {
  ExperimentConfig cfg = SmallConfig();
  cfg.base_model = golden.model;
  cfg.async_mode = golden.async;
  cfg.server_shards = shards;
  const ExperimentResult run = RunWith(cfg, golden.method);
  const uint64_t digest = RunDigest(run);
  if (digest != golden.digest) {
    char hex[64];
    std::snprintf(hex, sizeof(hex), "got 0x%016" PRIx64 ", want 0x%016" PRIx64,
                  digest, golden.digest);
    ADD_FAILURE() << MethodName(golden.method) << " / "
                  << BaseModelName(golden.model) << " / "
                  << ScheduleName(golden.async) << " at S=" << shards
                  << ": run digest mismatch, " << hex << "\n"
                  << RunDigestFields(run);
  }
}

const Golden& FindGolden(BaseModel model, Method method, bool async) {
  for (const Golden& g : kGoldens) {
    if (g.model == model && g.method == method && g.async == async) return g;
  }
  ADD_FAILURE() << "no golden for " << MethodName(method);
  return kGoldens[0];
}

// The strongest form of the contract: S=1 reproduces the retired
// single-table server for every method and both base models under the
// synchronous schedule — bit-identical metrics, comm totals and virtual
// clock.
TEST(ShardingEquivalence, SingleShardMatchesLegacyAllMethodsSync) {
  size_t checked = 0;
  for (const Golden& g : kGoldens) {
    if (g.async) continue;
    ExpectGolden(g, 1);
    ++checked;
  }
  EXPECT_EQ(checked, 14u);
}

// The same bar under merge-on-arrival: async exercises ApplyUpdate (the
// per-arrival staleness-weighted path) and the async Distill cadence
// instead of the round barrier.
TEST(ShardingEquivalence, SingleShardMatchesLegacyAllMethodsAsync) {
  size_t checked = 0;
  for (const Golden& g : kGoldens) {
    if (!g.async) continue;
    ExpectGolden(g, 1);
    ++checked;
  }
  EXPECT_EQ(checked, 12u);
}

// Beyond S=1: because per-row accumulation and application are
// row-independent and shards merge in ascending item-range order, ANY
// shard count reproduces the golden bit-for-bit.
TEST(ShardingEquivalence, HigherShardCountsMatchLegacy) {
  const Golden& golden =
      FindGolden(BaseModel::kNcf, Method::kHeteFedRec, /*async=*/false);
  for (size_t shards : {size_t{2}, size_t{4}}) ExpectGolden(golden, shards);
}

// Seed determinism at S in {2, 4}: two identical sharded runs agree
// bit-for-bit (the routing, per-shard buffers and merge order are pure
// functions of the config).
TEST(ShardingEquivalence, ShardedRunsReproduceBitForBit) {
  for (size_t shards : {size_t{2}, size_t{4}}) {
    ExperimentConfig cfg = SmallConfig();
    cfg.server_shards = shards;
    SCOPED_TRACE("S=" + std::to_string(shards));
    ExpectSameRun(RunWith(cfg, Method::kHeteFedRec),
                  RunWith(cfg, Method::kHeteFedRec));
  }
}

// Thread-count invariance with shards: round execution threads change
// only who trains when, never the merge order into the sharded tables.
TEST(ShardingEquivalence, ShardedRunsAreThreadCountInvariant) {
  ExperimentConfig cfg = SmallConfig();
  cfg.server_shards = 4;
  ExperimentConfig cfg4 = cfg;
  cfg4.num_threads = 4;
  ExpectSameRun(RunWith(cfg, Method::kHeteFedRec),
                RunWith(cfg4, Method::kHeteFedRec));
}

// Sharded runs get crash-consistent resume for free through
// ServerApi::Snapshot: a run killed mid-epoch and resumed finishes
// bit-identical to the uninterrupted sharded run. The resumed leg
// restores into the same shard count it was written from.
TEST(ShardingEquivalence, ShardedKillResumeIsBitIdentical) {
  const std::string full_ckpt = testing::TempDir() + "/shard_resume_a";
  const std::string kill_ckpt = testing::TempDir() + "/shard_resume_b";
  for (const std::string& p : {full_ckpt, kill_ckpt}) {
    std::remove(p.c_str());
    std::remove((p + ".run").c_str());
  }

  ExperimentConfig cfg = SmallConfig();
  cfg.server_shards = 4;

  ExperimentConfig full_cfg = cfg;
  full_cfg.checkpoint_path = full_ckpt;
  ExperimentResult full = RunWith(full_cfg, Method::kHeteFedRec);

  ExperimentConfig kill_cfg = cfg;
  kill_cfg.checkpoint_path = kill_ckpt;
  kill_cfg.checkpoint_every = 1;
  kill_cfg.debug_stop_after_rounds = 3;
  ExperimentResult killed = RunWith(kill_cfg, Method::kHeteFedRec);
  EXPECT_EQ(killed.final_eval.overall.users, 0u);
  ASSERT_TRUE(std::ifstream(kill_ckpt + ".run").good())
      << "kill point left no run checkpoint";

  ExperimentConfig resume_cfg = kill_cfg;
  resume_cfg.debug_stop_after_rounds = 0;
  resume_cfg.resume_run = true;
  ExperimentResult resumed = RunWith(resume_cfg, Method::kHeteFedRec);

  ExpectSameRun(full, resumed);
  // Strongest form: the final model checkpoints are byte-identical.
  std::ifstream a(full_ckpt, std::ios::binary);
  std::ifstream b(kill_ckpt, std::ios::binary);
  ASSERT_TRUE(a.good());
  ASSERT_TRUE(b.good());
  const std::string bytes_a((std::istreambuf_iterator<char>(a)),
                            std::istreambuf_iterator<char>());
  const std::string bytes_b((std::istreambuf_iterator<char>(b)),
                            std::istreambuf_iterator<char>());
  EXPECT_EQ(bytes_a, bytes_b);
}

// The shard count participates in the resume fingerprint: a checkpoint
// written at S=4 must refuse to resume into an S=2 run (silently mixing
// layouts would be a correctness trap even though the tables happen to
// be portable).
TEST(ShardingEquivalenceDeathTest, ResumeFingerprintIncludesShardCount) {
  const std::string ckpt = testing::TempDir() + "/shard_fingerprint";
  std::remove(ckpt.c_str());
  std::remove((ckpt + ".run").c_str());

  ExperimentConfig cfg = SmallConfig();
  cfg.server_shards = 4;
  cfg.checkpoint_path = ckpt;
  cfg.checkpoint_every = 1;
  cfg.debug_stop_after_rounds = 2;
  RunWith(cfg, Method::kHeteFedRec);
  ASSERT_TRUE(std::ifstream(ckpt + ".run").good());

  ExperimentConfig mismatched = cfg;
  mismatched.debug_stop_after_rounds = 0;
  mismatched.resume_run = true;
  mismatched.server_shards = 2;
  EXPECT_DEATH(RunWith(mismatched, Method::kHeteFedRec), "");
}

}  // namespace
}  // namespace hetefedrec
