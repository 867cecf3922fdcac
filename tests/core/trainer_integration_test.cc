// End-to-end integration tests over the full federated pipeline.
//
// These run tiny synthetic experiments (seconds each) and assert the
// qualitative properties the paper's evaluation depends on, not absolute
// numbers.
#include "src/core/trainer.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>

#include "src/core/checkpoint.h"

namespace hetefedrec {
namespace {

ExperimentConfig TinyConfig() {
  ExperimentConfig cfg;
  cfg.dataset = "ml";
  cfg.data_scale = 0.025;  // ~150 users, ~92 items
  cfg.dims = {4, 8, 16};
  cfg.global_epochs = 4;
  cfg.local_epochs = 2;
  cfg.clients_per_round = 64;
  cfg.eval_user_sample = 80;
  cfg.ddr_sample_rows = 64;
  cfg.kd_items = 32;
  cfg.seed = 5;
  return cfg;
}

TEST(ExperimentRunnerTest, CreateValidatesConfig) {
  ExperimentConfig bad = TinyConfig();
  bad.lr = -1;
  EXPECT_FALSE(ExperimentRunner::Create(bad).ok());
  bad = TinyConfig();
  bad.dataset = "imdb";
  EXPECT_FALSE(ExperimentRunner::Create(bad).ok());
}

// Every item-range shard owns at least one row, so a shard count above the
// catalogue size is a config error Create reports, not an abort when the
// run builds its server. The catalogue size itself is still accepted.
TEST(ExperimentRunnerTest, CreateRejectsMoreShardsThanItems) {
  ExperimentConfig cfg = TinyConfig();
  auto probe = ExperimentRunner::Create(cfg);
  ASSERT_TRUE(probe.ok()) << probe.status().ToString();
  const size_t items = (*probe)->dataset().num_items();

  cfg.server_shards = items + 1;
  auto too_many = ExperimentRunner::Create(cfg);
  ASSERT_FALSE(too_many.ok());
  EXPECT_EQ(too_many.status().code(), StatusCode::kInvalidArgument);
  const std::string& msg = too_many.status().message();
  EXPECT_NE(msg.find("(" + std::to_string(items + 1) + ")"),
            std::string::npos) << msg;
  EXPECT_NE(msg.find("(" + std::to_string(items) + ")"), std::string::npos)
      << msg;

  cfg.server_shards = items;
  cfg.global_epochs = 1;
  auto at_limit = ExperimentRunner::Create(cfg);
  ASSERT_TRUE(at_limit.ok()) << at_limit.status().ToString();
  const ExperimentResult r = (*at_limit)->Run(Method::kHeteFedRec);
  EXPECT_TRUE(std::isfinite(r.final_eval.overall.ndcg));
}

TEST(ExperimentRunnerTest, GroupSizesFollowFractions) {
  auto runner = ExperimentRunner::Create(TinyConfig());
  ASSERT_TRUE(runner.ok());
  const auto& g = (*runner)->groups();
  size_t n = (*runner)->dataset().num_users();
  EXPECT_NEAR(static_cast<double>(g.size(Group::kSmall)), 0.5 * n, 2.0);
  EXPECT_NEAR(static_cast<double>(g.size(Group::kMedium)), 0.3 * n, 2.0);
  EXPECT_NEAR(static_cast<double>(g.size(Group::kLarge)), 0.2 * n, 2.0);
}

class MethodSmokeTest : public testing::TestWithParam<Method> {};

TEST_P(MethodSmokeTest, RunsAndProducesFiniteMetrics) {
  auto runner = ExperimentRunner::Create(TinyConfig());
  ASSERT_TRUE(runner.ok());
  ExperimentResult r = (*runner)->Run(GetParam());
  EXPECT_TRUE(std::isfinite(r.final_eval.overall.recall));
  EXPECT_TRUE(std::isfinite(r.final_eval.overall.ndcg));
  EXPECT_GE(r.final_eval.overall.recall, 0.0);
  EXPECT_LE(r.final_eval.overall.recall, 1.0);
  EXPECT_GE(r.final_eval.overall.ndcg, 0.0);
  EXPECT_LE(r.final_eval.overall.ndcg, 1.0);
  EXPECT_GT(r.final_eval.overall.users, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllMethods, MethodSmokeTest, testing::ValuesIn(kAllMethods),
    [](const auto& info) {
      std::string name = MethodName(info.param);
      std::string out;
      for (char c : name) {
        if (std::isalnum(static_cast<unsigned char>(c))) out.push_back(c);
      }
      return out;
    });

TEST(ExperimentRunnerTest, TrainingBeatsRandomScoring) {
  // Compare against an honest random scorer run through the same
  // evaluation protocol (same users, same masking).
  ExperimentConfig cfg = TinyConfig();
  cfg.global_epochs = 8;
  auto runner = ExperimentRunner::Create(cfg);
  ASSERT_TRUE(runner.ok());
  ExperimentResult r = (*runner)->Run(Method::kAllSmall);

  Evaluator ev((*runner)->dataset(), (*runner)->groups(), cfg.top_k,
               cfg.eval_user_sample, cfg.seed ^ 0xe5a1ULL);
  Rng rng(99);
  auto random_fn = [&](UserId, std::vector<double>* scores) {
    scores->resize((*runner)->dataset().num_items());
    for (auto& s : *scores) s = rng.Uniform();
  };
  GroupedEval random_eval = ev.Evaluate(random_fn);
  EXPECT_GT(r.final_eval.overall.ndcg, 1.1 * random_eval.overall.ndcg);
  EXPECT_GT(r.final_eval.overall.recall, 1.1 * random_eval.overall.recall);
}

TEST(ExperimentRunnerTest, DeterministicAcrossRuns) {
  auto runner = ExperimentRunner::Create(TinyConfig());
  ASSERT_TRUE(runner.ok());
  ExperimentResult a = (*runner)->Run(Method::kHeteFedRec);
  ExperimentResult b = (*runner)->Run(Method::kHeteFedRec);
  EXPECT_DOUBLE_EQ(a.final_eval.overall.ndcg, b.final_eval.overall.ndcg);
  EXPECT_DOUBLE_EQ(a.final_eval.overall.recall,
                   b.final_eval.overall.recall);
}

TEST(ExperimentRunnerTest, HistoryRecordedWhenRequested) {
  ExperimentConfig cfg = TinyConfig();
  cfg.eval_every = 2;
  auto runner = ExperimentRunner::Create(cfg);
  ASSERT_TRUE(runner.ok());
  ExperimentResult r = (*runner)->Run(Method::kAllSmall);
  ASSERT_EQ(r.history.size(), 2u);  // epochs 2 and 4
  EXPECT_EQ(r.history[0].epoch, 2);
  EXPECT_EQ(r.history[1].epoch, 4);
  // Final eval equals the last history point.
  EXPECT_DOUBLE_EQ(r.history.back().eval.overall.ndcg,
                   r.final_eval.overall.ndcg);
}

TEST(ExperimentRunnerTest, CommCostsMatchTableThreeFormulas) {
  ExperimentConfig cfg = TinyConfig();
  cfg.global_epochs = 1;
  auto runner = ExperimentRunner::Create(cfg);
  ASSERT_TRUE(runner.ok());
  size_t items = (*runner)->dataset().num_items();

  // Θ parameter counts per slot width.
  auto theta_params = [&](size_t w) {
    FeedForwardNet t(2 * w, {cfg.ffn_hidden[0], cfg.ffn_hidden[1]});
    return t.ParamCount();
  };

  // HeteFedRec: Us moves Vs+Θs; Um moves Vm+Θs+Θm; Ul moves Vl+Θs+Θm+Θl.
  ExperimentResult r = (*runner)->Run(Method::kHeteFedRec);
  EXPECT_DOUBLE_EQ(r.comm.AvgUpload(Group::kSmall),
                   static_cast<double>(items * cfg.dims[0] +
                                       theta_params(cfg.dims[0])));
  EXPECT_DOUBLE_EQ(
      r.comm.AvgUpload(Group::kMedium),
      static_cast<double>(items * cfg.dims[1] + theta_params(cfg.dims[0]) +
                          theta_params(cfg.dims[1])));
  EXPECT_DOUBLE_EQ(
      r.comm.AvgUpload(Group::kLarge),
      static_cast<double>(items * cfg.dims[2] + theta_params(cfg.dims[0]) +
                          theta_params(cfg.dims[1]) +
                          theta_params(cfg.dims[2])));

  // All Small: everyone moves Vs+Θs.
  ExperimentResult small = (*runner)->Run(Method::kAllSmall);
  for (Group g : {Group::kSmall, Group::kMedium, Group::kLarge}) {
    EXPECT_DOUBLE_EQ(small.comm.AvgUpload(g),
                     static_cast<double>(items * cfg.dims[0] +
                                         theta_params(cfg.dims[0])));
  }
}

TEST(ExperimentRunnerTest, StandaloneHasNoCommunication) {
  auto runner = ExperimentRunner::Create(TinyConfig());
  ASSERT_TRUE(runner.ok());
  ExperimentResult r = (*runner)->Run(Method::kStandalone);
  EXPECT_EQ(r.comm.TotalTransmitted(), 0u);
}

TEST(ExperimentRunnerTest, DdrReducesCollapseVariance) {
  // Table V: +DDR lowers the singular-value variance of cov(Vl).
  ExperimentConfig cfg = TinyConfig();
  cfg.global_epochs = 5;
  cfg.ensemble_distillation = false;
  auto runner = ExperimentRunner::Create(cfg);
  ASSERT_TRUE(runner.ok());

  cfg.decorrelation = false;
  auto runner_off = ExperimentRunner::Create(cfg);
  ASSERT_TRUE(runner_off.ok());

  double with_ddr = (*runner)->Run(Method::kHeteFedRec).collapse_variance;
  double without_ddr =
      (*runner_off)->Run(Method::kHeteFedRec).collapse_variance;
  EXPECT_LT(with_ddr, without_ddr);
}

TEST(ExperimentRunnerTest, CheckpointWrittenAndLoadable) {
  ExperimentConfig cfg = TinyConfig();
  cfg.global_epochs = 2;
  cfg.checkpoint_path = testing::TempDir() + "/e2e_ckpt.bin";
  auto runner = ExperimentRunner::Create(cfg);
  ASSERT_TRUE(runner.ok());
  (*runner)->Run(Method::kHeteFedRec);
  auto ckpt = LoadServerCheckpoint(cfg.checkpoint_path);
  ASSERT_TRUE(ckpt.ok()) << ckpt.status().ToString();
  EXPECT_EQ(ckpt->base_model_name, "Fed-NCF");
  ASSERT_EQ(ckpt->tables.size(), 3u);
  EXPECT_EQ(ckpt->tables[0].cols(), cfg.dims[0]);
  EXPECT_EQ(ckpt->tables[2].cols(), cfg.dims[2]);
  EXPECT_EQ(ckpt->tables[0].rows(), (*runner)->dataset().num_items());
  // A trained table is no longer pure noise: it differs from a fresh init.
  EXPECT_GT(ckpt->tables[2].MaxAbs(), 0.0);
  std::remove(cfg.checkpoint_path.c_str());
}

TEST(ExperimentRunnerTest, ValidationCarveOutEndToEnd) {
  ExperimentConfig cfg = TinyConfig();
  cfg.global_epochs = 2;
  cfg.local_validation_fraction = 0.1;
  auto runner = ExperimentRunner::Create(cfg);
  ASSERT_TRUE(runner.ok());
  ExperimentResult r = (*runner)->Run(Method::kHeteFedRec);
  EXPECT_TRUE(std::isfinite(r.final_eval.overall.ndcg));
  EXPECT_GT(r.final_eval.overall.users, 0u);
}

TEST(ExperimentRunnerTest, DoubanWideDimsEndToEnd) {
  // The Douban configuration uses {32,64,128} embedding widths (§V-D) —
  // exercise that widest path end to end.
  ExperimentConfig cfg = TinyConfig();
  cfg.dataset = "douban";
  cfg.dims = {32, 64, 128};
  cfg.global_epochs = 2;
  cfg.ddr_sample_rows = 32;
  auto runner = ExperimentRunner::Create(cfg);
  ASSERT_TRUE(runner.ok());
  ExperimentResult r = (*runner)->Run(Method::kHeteFedRec);
  EXPECT_TRUE(std::isfinite(r.final_eval.overall.ndcg));
  EXPECT_GT(r.final_eval.overall.users, 0u);
  // Comm reflects the wide tables: Ul moves 128-dim embeddings.
  EXPECT_GT(r.comm.AvgUpload(Group::kLarge),
            r.comm.AvgUpload(Group::kSmall) * 3.0);
}

TEST(ExperimentRunnerTest, LightGcnEndToEnd) {
  ExperimentConfig cfg = TinyConfig();
  cfg.base_model = BaseModel::kLightGcn;
  cfg.global_epochs = 3;
  auto runner = ExperimentRunner::Create(cfg);
  ASSERT_TRUE(runner.ok());
  ExperimentResult r = (*runner)->Run(Method::kHeteFedRec);
  EXPECT_TRUE(std::isfinite(r.final_eval.overall.ndcg));
  EXPECT_GT(r.final_eval.overall.users, 0u);
}

TEST(ExperimentRunnerTest, Eq10PrefixInvariantHoldsEndToEnd) {
  // With UDL only (no RESKD perturbing tables independently), the trained
  // server must still satisfy Vs = Vm[:,:Ns] = Vl[:,:Ns] after full
  // federated training — Eq. 10 carried through real local updates, Adam,
  // padding aggregation and multiple epochs.
  ExperimentConfig cfg = TinyConfig();
  cfg.global_epochs = 3;
  cfg.decorrelation = true;          // DDR is client-side; prefix-safe
  cfg.ensemble_distillation = false; // RESKD would break the tie by design
  cfg.checkpoint_path = testing::TempDir() + "/eq10_ckpt.bin";
  auto runner = ExperimentRunner::Create(cfg);
  ASSERT_TRUE(runner.ok());
  (*runner)->Run(Method::kHeteFedRec);
  auto ckpt = LoadServerCheckpoint(cfg.checkpoint_path);
  ASSERT_TRUE(ckpt.ok());
  const Matrix& vs = ckpt->tables[0];
  const Matrix& vm = ckpt->tables[1];
  const Matrix& vl = ckpt->tables[2];
  for (size_t r = 0; r < vs.rows(); ++r) {
    for (size_t c = 0; c < vs.cols(); ++c) {
      ASSERT_DOUBLE_EQ(vs(r, c), vm(r, c)) << r << "," << c;
      ASSERT_DOUBLE_EQ(vs(r, c), vl(r, c)) << r << "," << c;
    }
    for (size_t c = 0; c < vm.cols(); ++c) {
      ASSERT_DOUBLE_EQ(vm(r, c), vl(r, c)) << r << "," << c;
    }
  }
  std::remove(cfg.checkpoint_path.c_str());
}

TEST(ExperimentRunnerTest, ReskdBreaksPrefixTie) {
  // The dual of the invariant above: with RESKD on, the three tables are
  // distilled independently and the prefixes must diverge.
  ExperimentConfig cfg = TinyConfig();
  cfg.global_epochs = 2;
  cfg.ensemble_distillation = true;
  cfg.checkpoint_path = testing::TempDir() + "/reskd_ckpt.bin";
  auto runner = ExperimentRunner::Create(cfg);
  ASSERT_TRUE(runner.ok());
  (*runner)->Run(Method::kHeteFedRec);
  auto ckpt = LoadServerCheckpoint(cfg.checkpoint_path);
  ASSERT_TRUE(ckpt.ok());
  bool diverged = false;
  const Matrix& vs = ckpt->tables[0];
  const Matrix& vl = ckpt->tables[2];
  for (size_t r = 0; r < vs.rows() && !diverged; ++r) {
    for (size_t c = 0; c < vs.cols() && !diverged; ++c) {
      diverged = vs(r, c) != vl(r, c);
    }
  }
  EXPECT_TRUE(diverged);
  std::remove(cfg.checkpoint_path.c_str());
}

TEST(ExperimentRunnerTest, AblationTogglesChangeResults) {
  ExperimentConfig cfg = TinyConfig();
  auto runner = ExperimentRunner::Create(cfg);
  ASSERT_TRUE(runner.ok());
  double full = (*runner)->Run(Method::kHeteFedRec).final_eval.overall.ndcg;

  cfg.unified_dual_task = false;
  cfg.decorrelation = false;
  cfg.ensemble_distillation = false;
  auto ablated = ExperimentRunner::Create(cfg);
  ASSERT_TRUE(ablated.ok());
  double stripped =
      (*ablated)->Run(Method::kHeteFedRec).final_eval.overall.ndcg;
  // Fully stripped HeteFedRec == Directly Aggregate by construction.
  double direct = (*ablated)->Run(Method::kDirectlyAggregate)
                      .final_eval.overall.ndcg;
  EXPECT_DOUBLE_EQ(stripped, direct);
  EXPECT_NE(full, stripped);
}

}  // namespace
}  // namespace hetefedrec
