// Aggregation-mode semantics: the kSum / kMean relationship and end-to-end
// behavior under the paper-literal summation (DESIGN.md §6.4).
#include <gtest/gtest.h>

#include <cmath>

#include "src/fed/shard/sharded_server.h"
#include "src/core/trainer.h"

namespace hetefedrec {
namespace {

constexpr size_t kItems = 12;

LocalUpdateResult MakeUpdate(const HeteroServer& server,
                             const std::vector<LocalTaskSpec>& tasks,
                             double value) {
  LocalUpdateResult r;
  r.v_delta = Matrix(kItems, tasks.back().width);
  r.v_delta.Fill(value);
  for (const auto& t : tasks) {
    r.theta_deltas.push_back(FeedForwardNet::ZerosLike(server.theta(t.slot)));
  }
  return r;
}

HeteroServer MakeServer(AggregationMode mode) {
  HeteroServer::Options opt;
  opt.widths = {2, 4};
  opt.num_items = kItems;
  opt.aggregation = mode;
  opt.seed = 3;
  return HeteroServer(opt);
}

TEST(AggregationModesTest, SingleClientSumEqualsMean) {
  // With exactly one contributor the mean divides by one: both modes must
  // produce identical tables.
  HeteroServer sum_server = MakeServer(AggregationMode::kSum);
  HeteroServer mean_server = MakeServer(AggregationMode::kMean);
  std::vector<LocalTaskSpec> tasks = {{0, 2}, {1, 4}};
  for (HeteroServer* s : {&sum_server, &mean_server}) {
    s->BeginRound();
    s->UploadDelta(tasks, MakeUpdate(*s, tasks, 0.75));
    s->FinishRound();
  }
  for (size_t slot = 0; slot < 2; ++slot) {
    for (size_t i = 0; i < sum_server.table(slot).data().size(); ++i) {
      EXPECT_DOUBLE_EQ(sum_server.table(slot).data()[i],
                       mean_server.table(slot).data()[i]);
    }
  }
}

TEST(AggregationModesTest, SumScalesLinearlyWithClientCount) {
  // n identical clients under kSum move the table n times further than one.
  auto run = [&](int n) {
    HeteroServer server = MakeServer(AggregationMode::kSum);
    Matrix before = server.table(1);
    std::vector<LocalTaskSpec> tasks = {{0, 2}, {1, 4}};
    server.BeginRound();
    for (int c = 0; c < n; ++c) {
      server.UploadDelta(tasks, MakeUpdate(server, tasks, 0.5));
    }
    server.FinishRound();
    return server.table(1)(0, 0) - before(0, 0);
  };
  EXPECT_NEAR(run(4), 4.0 * run(1), 1e-12);
}

TEST(AggregationModesTest, MeanInvariantToClientCount) {
  // n identical clients under kMean move the table exactly as far as one.
  auto run = [&](int n) {
    HeteroServer server = MakeServer(AggregationMode::kMean);
    Matrix before = server.table(1);
    std::vector<LocalTaskSpec> tasks = {{0, 2}, {1, 4}};
    server.BeginRound();
    for (int c = 0; c < n; ++c) {
      server.UploadDelta(tasks, MakeUpdate(server, tasks, 0.5));
    }
    server.FinishRound();
    return server.table(1)(0, 0) - before(0, 0);
  };
  EXPECT_NEAR(run(5), run(1), 1e-12);
}

TEST(AggregationModesTest, SumModeEndToEndTrains) {
  ExperimentConfig cfg;
  cfg.dataset = "ml";
  cfg.data_scale = 0.025;
  cfg.dims = {4, 8, 16};
  cfg.global_epochs = 3;
  cfg.clients_per_round = 32;
  cfg.eval_user_sample = 60;
  cfg.ddr_sample_rows = 64;
  cfg.aggregation = AggregationMode::kSum;
  cfg.seed = 5;
  auto runner = ExperimentRunner::Create(cfg);
  ASSERT_TRUE(runner.ok());
  for (Method m : {Method::kAllSmall, Method::kHeteFedRec}) {
    ExperimentResult r = (*runner)->Run(m);
    EXPECT_TRUE(std::isfinite(r.final_eval.overall.ndcg)) << MethodName(m);
    EXPECT_GT(r.final_eval.overall.users, 0u);
  }
}

TEST(AggregationModesTest, DataWeightedMeanFollowsWeights) {
  // Two clients with weights 3 and 1 and deltas 1.0 / -1.0: the weighted
  // mean is (3*1 - 1) / 4 = 0.5.
  HeteroServer server = MakeServer(AggregationMode::kDataWeighted);
  Matrix before = server.table(1);
  std::vector<LocalTaskSpec> tasks = {{0, 2}, {1, 4}};
  server.BeginRound();
  server.UploadDelta(tasks, MakeUpdate(server, tasks, 1.0), 3.0);
  server.UploadDelta(tasks, MakeUpdate(server, tasks, -1.0), 1.0);
  server.FinishRound();
  EXPECT_NEAR(server.table(1)(0, 0) - before(0, 0), 0.5, 1e-12);
}

TEST(AggregationModesTest, DataWeightedEndToEndTrains) {
  ExperimentConfig cfg;
  cfg.dataset = "ml";
  cfg.data_scale = 0.025;
  cfg.dims = {4, 8, 16};
  cfg.global_epochs = 2;
  cfg.clients_per_round = 32;
  cfg.eval_user_sample = 60;
  cfg.ddr_sample_rows = 64;
  cfg.aggregation = AggregationMode::kDataWeighted;
  cfg.seed = 5;
  auto runner = ExperimentRunner::Create(cfg);
  ASSERT_TRUE(runner.ok());
  ExperimentResult r = (*runner)->Run(Method::kHeteFedRec);
  EXPECT_TRUE(std::isfinite(r.final_eval.overall.ndcg));
  EXPECT_GT(r.final_eval.overall.users, 0u);
}

TEST(AggregationModesTest, ModesDivergeWithMultipleClients) {
  // Sanity: with >1 contributor the two modes genuinely differ.
  HeteroServer sum_server = MakeServer(AggregationMode::kSum);
  HeteroServer mean_server = MakeServer(AggregationMode::kMean);
  std::vector<LocalTaskSpec> tasks = {{0, 2}, {1, 4}};
  for (HeteroServer* s : {&sum_server, &mean_server}) {
    s->BeginRound();
    s->UploadDelta(tasks, MakeUpdate(*s, tasks, 1.0));
    s->UploadDelta(tasks, MakeUpdate(*s, tasks, 1.0));
    s->FinishRound();
  }
  EXPECT_NE(sum_server.table(1)(0, 0), mean_server.table(1)(0, 0));
}

}  // namespace
}  // namespace hetefedrec
