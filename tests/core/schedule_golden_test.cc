// Recorded goldens for the round schedules' fault, admission, availability,
// over-selection, deadline and delta-sync paths. Each case pins four
// digests of one HeteFedRec run: `RunDigest` (metrics, collapse, traffic,
// virtual clock), the comm/fault counters, the metrics JSONL (without its
// host-dependent meta and profile rows) and the trace file. Every case
// must reproduce at 1 and 4 threads and in builds with and without the
// AVX2 kernels, so a change to the round machinery that moved both sides
// of a two-run comparison the same way still shows here.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
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

/// Every fault kind, behind admission with the row-norm clip and the
/// z-score gate.
ExperimentConfig FaultsAndAdmission() {
  ExperimentConfig cfg = SmallConfig();
  cfg.fault_upload_loss = 0.05;
  cfg.fault_download_loss = 0.03;
  cfg.fault_crash = 0.02;
  cfg.fault_duplicate = 0.02;
  cfg.fault_corrupt = 0.03;
  cfg.admission_control = true;
  cfg.admit_max_row_norm = 1.0;
  cfg.admit_outlier_z = 6.0;
  return cfg;
}

/// Clients drop offline, the network is noisy and downloads are deltas.
/// Small rounds, so that a round with the slack's extra clients online
/// still finds more finishers than its quota.
ExperimentConfig AvailabilityAndDelta() {
  ExperimentConfig cfg = SmallConfig();
  cfg.clients_per_round = 8;
  cfg.availability = 0.6;
  cfg.full_downloads = false;
  cfg.net_bandwidth_sigma = 0.6;
  cfg.net_latency_sigma = 0.2;
  return cfg;
}

enum class Case {
  kSyncFaults,
  kAsyncFaults,
  kSyncAvailabilitySlackDelta,
  kAsyncAvailabilityDelta,
  kSyncSlackFaults,
  kSyncDeadline,
  kSyncSlackCorruptUnadmitted,
};

ExperimentConfig ConfigFor(Case c) {
  ExperimentConfig cfg;
  switch (c) {
    case Case::kSyncFaults:
      return FaultsAndAdmission();
    case Case::kAsyncFaults:
      cfg = FaultsAndAdmission();
      cfg.async_mode = true;
      cfg.async_dispatch_batch = 8;
      return cfg;
    case Case::kSyncAvailabilitySlackDelta:
      cfg = AvailabilityAndDelta();
      cfg.straggler_slack = 4;
      return cfg;
    case Case::kAsyncAvailabilityDelta:
      // Over-selection is a sync-round rule; async runs reject the slack.
      cfg = AvailabilityAndDelta();
      cfg.async_mode = true;
      cfg.async_dispatch_batch = 8;
      return cfg;
    case Case::kSyncSlackFaults:
      cfg = FaultsAndAdmission();
      cfg.straggler_slack = 4;
      cfg.net_bandwidth_sigma = 0.6;
      return cfg;
    case Case::kSyncDeadline:
      // Median simulated finish is ~0.11 s here: the deadline cuts some
      // clients of most rounds, never all.
      cfg = SmallConfig();
      cfg.round_deadline = 0.15;
      cfg.net_bandwidth_sigma = 0.6;
      cfg.net_latency_sigma = 0.3;
      return cfg;
    case Case::kSyncSlackCorruptUnadmitted:
      // Corrupted updates merge unchecked and poison the tables, so later
      // clients (winners and discarded stragglers alike) take non-finite
      // gradient steps.
      cfg = SmallConfig();
      cfg.straggler_slack = 4;
      cfg.fault_corrupt = 0.1;
      cfg.net_bandwidth_sigma = 0.6;
      return cfg;
  }
  return cfg;
}

struct Golden {
  const char* name;
  Case config;
  uint64_t run;
  uint64_t counters;
  uint64_t metrics;
  uint64_t trace;
};

/// Recorded from the per-schedule round loops that preceded the shared
/// participation pipeline; identical at 1 and 4 threads.
constexpr Golden kGoldens[] = {
    {"SyncFaults", Case::kSyncFaults, 0x9489fe55c38927dcull,
     0x639d9ac893ea28b5ull, 0x550cfba30de0eee3ull, 0x76fb2d21f259a227ull},
    {"AsyncFaults", Case::kAsyncFaults, 0x0c1bdbdf0fe43237ull,
     0xd1804aefe07d4412ull, 0xbd1d04b1315e528dull, 0x0a6db8f20bc47073ull},
    {"SyncAvailabilitySlackDelta", Case::kSyncAvailabilitySlackDelta,
     0xa297f3861f90507full, 0x1289cc44d2c0ac55ull, 0x09775701a1a0c553ull,
     0xebd53aac41e263c4ull},
    {"AsyncAvailabilityDelta", Case::kAsyncAvailabilityDelta,
     0x3e39c8033e179958ull, 0x221e59c54fd34129ull, 0x10dfa250c830af63ull,
     0x8ff68a16bf0a7c1aull},
    {"SyncSlackFaults", Case::kSyncSlackFaults, 0x9c574f52ab8ee029ull,
     0x28e398b404ad235cull, 0xd6301ce04cee4669ull, 0xf17a07e81598a824ull},
    {"SyncDeadline", Case::kSyncDeadline, 0x33f5ac9acb67a061ull,
     0x462704a8e35e43b1ull, 0x7253b17888079786ull, 0xba37fe2c5b4908a7ull},
    // Counters and metrics re-recorded when discarded stragglers' non-finite
    // gradient steps began to count (train.nonfinite_grad_steps 619 ->
    // 731); the run digest and the trace are the originals.
    {"SyncSlackCorruptUnadmitted", Case::kSyncSlackCorruptUnadmitted,
     0xa1e966e272e8c952ull, 0xe3030b459461a537ull, 0xf3837307d8f124dcull,
     0xd6a55a37caa03dccull},
};

struct Observed {
  uint64_t run = 0;
  uint64_t counters = 0;
  uint64_t metrics = 0;
  uint64_t trace = 0;
  ExperimentResult result;
  std::string trace_bytes;
};

Observed RunCase(const Golden& golden, size_t threads) {
  ExperimentConfig cfg = ConfigFor(golden.config);
  cfg.num_threads = threads;
  const std::string base = ::testing::TempDir() + "/schedule_golden_" +
                           golden.name + "_" + std::to_string(threads);
  cfg.metrics_out = base + ".jsonl";
  cfg.trace_out = base + ".trace.json";
  auto runner = ExperimentRunner::Create(cfg);
  EXPECT_TRUE(runner.ok()) << runner.status().ToString();
  Observed o;
  if (!runner.ok()) return o;
  o.result = (*runner)->Run(Method::kHeteFedRec);
  o.trace_bytes = ReadFileBytes(cfg.trace_out);
  o.run = RunDigest(o.result);
  o.counters = CountersDigest(o.result.comm);
  o.metrics = MetricsStreamDigest(ReadFileBytes(cfg.metrics_out));
  o.trace = Fnv1a(o.trace_bytes);
  std::remove(cfg.metrics_out.c_str());
  std::remove(cfg.trace_out.c_str());
  return o;
}

class ScheduleGoldenTest : public ::testing::TestWithParam<Golden> {};

TEST_P(ScheduleGoldenTest, ReproducesAtOneAndFourThreads) {
  const Golden& golden = GetParam();
  for (size_t threads : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const Observed o = RunCase(golden, threads);
    char actual[200];
    std::snprintf(actual, sizeof(actual),
                  "actual: {\"%s\", ..., 0x%016" PRIx64 "ull, 0x%016" PRIx64
                  "ull, 0x%016" PRIx64 "ull, 0x%016" PRIx64 "ull}",
                  golden.name, o.run, o.counters, o.metrics, o.trace);
    EXPECT_EQ(o.run, golden.run) << actual << "\n"
                                 << RunDigestFields(o.result);
    EXPECT_EQ(o.counters, golden.counters) << actual;
    EXPECT_EQ(o.metrics, golden.metrics) << actual;
    EXPECT_EQ(o.trace, golden.trace) << actual;
  }
}

INSTANTIATE_TEST_SUITE_P(Schedules, ScheduleGoldenTest,
                         ::testing::ValuesIn(kGoldens),
                         [](const ::testing::TestParamInfo<Golden>& info) {
                           return std::string(info.param.name);
                         });

// The cases exercise what their names say, so a golden cannot silently
// pin a run where the mechanism never fired.
TEST(ScheduleGoldenCoverage, CasesExerciseTheirMechanisms) {
  for (const Golden& golden : kGoldens) {
    SCOPED_TRACE(golden.name);
    const Observed o = RunCase(golden, 1);
    const FaultStats& f = o.result.comm.faults();
    size_t uploads = 0;
    for (Group g : {Group::kSmall, Group::kMedium, Group::kLarge}) {
      uploads += o.result.comm.Participations(g);
    }
    EXPECT_GT(uploads, 0u);
    switch (golden.config) {
      case Case::kSyncFaults:
      case Case::kAsyncFaults:
      case Case::kSyncSlackFaults:
        EXPECT_GT(f.download_lost, 0u);
        EXPECT_GT(f.upload_lost + f.crashed, 0u);
        EXPECT_GT(f.duplicates, 0u);
        EXPECT_GT(f.corrupted, 0u);
        EXPECT_GT(f.TotalRejected(), 0u);
        break;
      case Case::kSyncSlackCorruptUnadmitted:
        EXPECT_GT(f.corrupted, 0u);
        EXPECT_GT(f.nonfinite_grad_steps, 0u);
        break;
      default:
        break;
    }
    // Over-selection and the deadline discard some transfers and keep
    // others; the trace marks both populations.
    if (golden.config == Case::kSyncAvailabilitySlackDelta ||
        golden.config == Case::kSyncSlackFaults ||
        golden.config == Case::kSyncDeadline ||
        golden.config == Case::kSyncSlackCorruptUnadmitted) {
      EXPECT_NE(o.trace_bytes.find("\"merged\":false"), std::string::npos);
      EXPECT_NE(o.trace_bytes.find("\"merged\":true"), std::string::npos);
    }
  }
}

}  // namespace
}  // namespace hetefedrec
