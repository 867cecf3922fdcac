#include "src/core/config.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "src/util/cli.h"

namespace hetefedrec {
namespace {

TEST(ConfigTest, DefaultsValid) {
  ExperimentConfig cfg;
  EXPECT_TRUE(cfg.Validate().ok());
}

TEST(ConfigTest, ShardCountValidation) {
  ExperimentConfig cfg;
  cfg.server_shards = 1;
  EXPECT_TRUE(cfg.Validate().ok());
  cfg.server_shards = 8;
  EXPECT_TRUE(cfg.Validate().ok());
  // A negative CLI value cast through size_t must be caught.
  cfg.server_shards = static_cast<size_t>(-2);
  EXPECT_FALSE(cfg.Validate().ok());
}

// Applies the shared flags parsed from `args` onto `cfg`.
Status ApplyArgs(std::vector<std::string> args, ExperimentConfig* cfg) {
  CommandLine cli;
  RegisterExperimentFlags(&cli);
  args.insert(args.begin(), "prog");
  std::vector<char*> argv;
  for (auto& a : args) argv.push_back(a.data());
  HFR_RETURN_NOT_OK(cli.Parse(static_cast<int>(argv.size()), argv.data()));
  return ApplyExperimentFlags(cli, cfg);
}

// The shared flag registry and its config application agree: parsing the
// registered flags and applying them sets exactly the shared fields, and
// the all-defaults application leaves a default config unchanged in every
// results-affecting way.
TEST(ConfigTest, ApplyExperimentFlagsMatchesRegistry) {
  ExperimentConfig cfg;
  ASSERT_TRUE(ApplyArgs({"--server_shards=4", "--async", "--seed=99",
                         "--agg=sum", "--threads=3", "--delta_downloads",
                         "--fault_crash=0.05", "--admission",
                         "--admit_outlier_z=3.5", "--wire_format=fp16",
                         "--stop_after_rounds=12"},
                        &cfg)
                  .ok());
  EXPECT_EQ(cfg.server_shards, 4u);
  EXPECT_TRUE(cfg.async_mode);
  EXPECT_EQ(cfg.seed, 99u);
  EXPECT_EQ(cfg.aggregation, AggregationMode::kSum);
  EXPECT_EQ(cfg.num_threads, 3u);
  EXPECT_FALSE(cfg.full_downloads);
  EXPECT_DOUBLE_EQ(cfg.fault_crash, 0.05);
  EXPECT_TRUE(cfg.admission_control);
  EXPECT_DOUBLE_EQ(cfg.admit_outlier_z, 3.5);
  EXPECT_EQ(cfg.wire_scalar_bytes, 2u);
  EXPECT_EQ(cfg.debug_stop_after_rounds, 12u);
  // Fields outside the registry are untouched.
  EXPECT_EQ(cfg.dataset, "ml");
  EXPECT_EQ(cfg.global_epochs, 20);
}

// Calls fn(field, a_value, b_value) for every row of the field table,
// pairing the members of `a` and `b`.
template <typename Fn>
void ZipFields(const ExperimentConfig& a, const ExperimentConfig& b, Fn fn) {
  std::vector<const void*> b_members;
  ForEachConfigField(b, [&](const ConfigField&, const auto& value) {
    b_members.push_back(&value);
  });
  size_t i = 0;
  ForEachConfigField(a, [&](const ConfigField& f, const auto& value) {
    using T = std::decay_t<decltype(value)>;
    fn(f, value, *static_cast<const T*>(b_members[i++]));
  });
}

// Every flagged row's registered default parses back to the field's
// default, so applying an empty command line changes nothing.
TEST(ConfigTest, ApplyExperimentFlagsDefaultsAreNeutral) {
  ExperimentConfig cfg;
  cfg.wire_scalar_bytes = 2;  // --wire_format=auto must restore the default
  ASSERT_TRUE(ApplyArgs({}, &cfg).ok());
  const ExperimentConfig def;
  size_t flagged = 0;
  ZipFields(cfg, def, [&](const ConfigField& f, const auto& got,
                          const auto& want) {
    if (!f.has_flag()) return;
    ++flagged;
    EXPECT_TRUE(got == want) << f.name;
  });
  EXPECT_EQ(flagged, 47u);
  EXPECT_TRUE(cfg.Validate().ok());
}

// Strict parsing, one case per flagged field type: the error names the
// flag.
void ExpectRejected(const std::string& arg, const std::string& flag) {
  ExperimentConfig cfg;
  const Status st = ApplyArgs({arg}, &cfg);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << arg;
  EXPECT_NE(st.message().find("--" + flag), std::string::npos)
      << arg << ": " << st.message();
}

TEST(ConfigTest, StrictFlagsBool) {
  for (const char* bad : {"ture", "", "2", "TRUE", "on", "true "}) {
    ExpectRejected(std::string("--async=") + bad, "async");
  }
  ExperimentConfig cfg;
  ASSERT_TRUE(ApplyArgs({"--async=yes", "--admission=1"}, &cfg).ok());
  EXPECT_TRUE(cfg.async_mode);
  EXPECT_TRUE(cfg.admission_control);
  ASSERT_TRUE(ApplyArgs({"--async=no", "--admission=0"}, &cfg).ok());
  EXPECT_FALSE(cfg.async_mode);
  EXPECT_FALSE(cfg.admission_control);
  // A negated flag sets the opposite of its field.
  ASSERT_TRUE(ApplyArgs({"--dense_updates"}, &cfg).ok());
  EXPECT_FALSE(cfg.use_sparse_updates);
}

TEST(ConfigTest, StrictFlagsUnsigned) {
  for (const char* bad : {"-1", "abc", "", "3x", "+3", " 3", "1.5"}) {
    ExpectRejected(std::string("--threads=") + bad, "threads");
  }
  ExpectRejected("--seed=-1", "seed");
  ExpectRejected("--seed=18446744073709551616", "seed");  // 2^64
  ExperimentConfig cfg;
  ASSERT_TRUE(ApplyArgs({"--seed=18446744073709551615"}, &cfg).ok());
  EXPECT_EQ(cfg.seed, UINT64_MAX);
}

TEST(ConfigTest, StrictFlagsDouble) {
  for (const char* bad : {"lots", "", "0.1x", "inf", "nan", "1e999", " 0.1"}) {
    ExpectRejected(std::string("--fault_crash=") + bad, "fault_crash");
  }
  ExperimentConfig cfg;
  ASSERT_TRUE(ApplyArgs({"--net_bandwidth=2.5e6", "--fault_crash=.02"}, &cfg)
                  .ok());
  EXPECT_EQ(cfg.net_bandwidth, 2.5e6);
  EXPECT_EQ(cfg.fault_crash, 0.02);
}

TEST(ConfigTest, StrictFlagsString) {
  // Strings take any text, the empty default included.
  ExperimentConfig cfg;
  cfg.metrics_out = "set";
  ASSERT_TRUE(ApplyArgs({"--metrics_out=", "--trace_out=a b.json"}, &cfg).ok());
  EXPECT_EQ(cfg.metrics_out, "");
  EXPECT_EQ(cfg.trace_out, "a b.json");
}

TEST(ConfigTest, ApplyExperimentFlagsRejectsBadEnums) {
  ExpectRejected("--agg=median", "agg");
  ExpectRejected("--agg=", "agg");
  ExpectRejected("--compute_backend=fp8", "compute_backend");
  ExpectRejected("--compute_backend=FP64", "compute_backend");
  ExpectRejected("--wire_format=fp8", "wire_format");
  ExperimentConfig cfg;
  ASSERT_TRUE(
      ApplyArgs({"--agg=weighted", "--compute_backend=fp32_simd"}, &cfg).ok());
  EXPECT_EQ(cfg.aggregation, AggregationMode::kDataWeighted);
  EXPECT_EQ(cfg.compute_backend, ComputeBackend::kFp32Simd);
  EXPECT_EQ(cfg.wire_scalar_bytes, 4u);  // auto follows the backend
}

// The meta row's config object: the kResults rows, keyed by name.
TEST(ConfigTest, ConfigJsonCarriesResultsFieldsOnly) {
  const std::string json = ConfigJson(ExperimentConfig{});
  for (const char* want :
       {"{\"dataset\":\"ml\",\"data_scale\":0.10000000000000001,",
        "\"base_model\":\"ncf\"", "\"dims\":[8,16,32]",
        "\"group_fractions\":[5,3,2]", "\"aggregation\":\"mean\"",
        "\"use_sparse_updates\":true", "\"seed\":7",
        "\"compute_backend\":\"fp64\"}"}) {
    EXPECT_NE(json.find(want), std::string::npos) << want << " in " << json;
  }
  for (const char* plumbing : {"num_threads", "metrics_out", "resume_run"}) {
    EXPECT_EQ(json.find(plumbing), std::string::npos) << plumbing;
  }
}

TEST(ConfigTest, DimOrderingEnforced) {
  ExperimentConfig cfg;
  cfg.dims = {16, 8, 32};
  EXPECT_FALSE(cfg.Validate().ok());
  cfg.dims = {0, 8, 16};
  EXPECT_FALSE(cfg.Validate().ok());
  cfg.dims = {8, 8, 8};  // equal allowed (homogeneous runs)
  EXPECT_TRUE(cfg.Validate().ok());
}

TEST(ConfigTest, RangeChecks) {
  ExperimentConfig cfg;
  cfg.data_scale = 0.0;
  EXPECT_FALSE(cfg.Validate().ok());
  cfg = {};
  cfg.global_epochs = 0;
  EXPECT_FALSE(cfg.Validate().ok());
  cfg = {};
  cfg.lr = -0.1;
  EXPECT_FALSE(cfg.Validate().ok());
  cfg = {};
  cfg.alpha = -1;
  EXPECT_FALSE(cfg.Validate().ok());
  cfg = {};
  cfg.top_k = 0;
  EXPECT_FALSE(cfg.Validate().ok());
  cfg = {};
  cfg.group_fractions = {0, 0, 0};
  EXPECT_FALSE(cfg.Validate().ok());
  cfg = {};
  cfg.kd_items = 0;
  EXPECT_FALSE(cfg.Validate().ok());
  cfg.ensemble_distillation = false;
  EXPECT_TRUE(cfg.Validate().ok());
}

TEST(ConfigTest, FaultRateChecks) {
  ExperimentConfig cfg;
  cfg.fault_upload_loss = -0.1;
  EXPECT_FALSE(cfg.Validate().ok());
  cfg = {};
  cfg.fault_corrupt = 1.5;
  EXPECT_FALSE(cfg.Validate().ok());
  cfg = {};
  // Individually valid rates whose sum exceeds 1 must be rejected: they
  // partition a single uniform draw.
  cfg.fault_upload_loss = 0.4;
  cfg.fault_download_loss = 0.4;
  cfg.fault_crash = 0.4;
  EXPECT_FALSE(cfg.Validate().ok());
  cfg = {};
  cfg.fault_upload_loss = 0.05;
  cfg.fault_corrupt = 0.01;
  EXPECT_TRUE(cfg.Validate().ok());
}

TEST(ConfigTest, BackoffChecks) {
  ExperimentConfig cfg;
  cfg.fault_retry_max = 0;
  EXPECT_FALSE(cfg.Validate().ok());
  cfg = {};
  cfg.fault_retry_base = 0.0;
  EXPECT_FALSE(cfg.Validate().ok());
  cfg = {};
  cfg.fault_retry_cap = 0.5;  // below the 1.0 base
  EXPECT_FALSE(cfg.Validate().ok());
  cfg = {};
  cfg.fault_quarantine_cap = 1.0;  // below the 5.0 base
  EXPECT_FALSE(cfg.Validate().ok());
  cfg = {};
  cfg.fault_jitter = 1.5;
  EXPECT_FALSE(cfg.Validate().ok());
  cfg = {};
  cfg.fault_jitter = -0.1;
  EXPECT_FALSE(cfg.Validate().ok());
}

TEST(ConfigTest, AdmissionChecks) {
  ExperimentConfig cfg;
  // admit_* thresholds are dead knobs without the controller — reject so a
  // typo'd run doesn't silently skip the gates it asked for.
  cfg.admit_max_row_norm = 1.0;
  EXPECT_FALSE(cfg.Validate().ok());
  cfg = {};
  cfg.admit_outlier_z = 3.5;
  EXPECT_FALSE(cfg.Validate().ok());
  cfg = {};
  cfg.admission_control = true;
  cfg.admit_max_row_norm = 1.0;
  cfg.admit_outlier_z = 3.5;
  EXPECT_TRUE(cfg.Validate().ok());
  cfg.admit_outlier_z = -1.0;
  EXPECT_FALSE(cfg.Validate().ok());
}

// Over-selection ranks a sync round; async has no round to cut, so it
// rejects the knobs instead of silently ignoring them (as it does
// data-weighted aggregation).
TEST(ConfigTest, AsyncRejectsOverSelection) {
  ExperimentConfig cfg;
  cfg.async_mode = true;
  EXPECT_TRUE(cfg.Validate().ok());
  cfg.straggler_slack = 4;
  EXPECT_EQ(cfg.Validate().code(), StatusCode::kInvalidArgument);
  cfg.straggler_slack = 0;
  cfg.round_deadline = 30.0;
  EXPECT_EQ(cfg.Validate().code(), StatusCode::kInvalidArgument);
  cfg.straggler_slack = 4;
  EXPECT_EQ(cfg.Validate().code(), StatusCode::kInvalidArgument);
  cfg.async_mode = false;  // sync rounds take both
  EXPECT_TRUE(cfg.Validate().ok());
  cfg.async_mode = true;
  cfg.straggler_slack = 0;
  cfg.round_deadline = 0.0;
  cfg.aggregation = AggregationMode::kDataWeighted;
  EXPECT_EQ(cfg.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(ConfigTest, CheckpointAndResumeChecks) {
  ExperimentConfig cfg;
  cfg.checkpoint_every = 5;
  EXPECT_FALSE(cfg.Validate().ok());  // needs checkpoint_path
  cfg.checkpoint_path = "/tmp/run.ckpt";
  EXPECT_TRUE(cfg.Validate().ok());
  cfg = {};
  cfg.resume_run = true;
  EXPECT_FALSE(cfg.Validate().ok());  // needs checkpoint_path
  cfg.checkpoint_path = "/tmp/run.ckpt";
  EXPECT_TRUE(cfg.Validate().ok());
  cfg.sync_verify_replicas = true;
  EXPECT_FALSE(cfg.Validate().ok());  // verify cache is not serialized
}

TEST(ConfigTest, MethodNamesMatchTableTwo) {
  EXPECT_EQ(MethodName(Method::kAllSmall), "All Small");
  EXPECT_EQ(MethodName(Method::kAllLargeExclusive), "All Large/Exclusive");
  EXPECT_EQ(MethodName(Method::kHeteFedRec), "HeteFedRec(Ours)");
}

TEST(ConfigTest, MethodByNameRoundTrip) {
  EXPECT_EQ(MethodByName("all_small").value(), Method::kAllSmall);
  EXPECT_EQ(MethodByName("all_large").value(), Method::kAllLarge);
  EXPECT_EQ(MethodByName("all_large_exclusive").value(),
            Method::kAllLargeExclusive);
  EXPECT_EQ(MethodByName("standalone").value(), Method::kStandalone);
  EXPECT_EQ(MethodByName("clustered").value(), Method::kClusteredFedRec);
  EXPECT_EQ(MethodByName("direct").value(), Method::kDirectlyAggregate);
  EXPECT_EQ(MethodByName("hetefedrec").value(), Method::kHeteFedRec);
  EXPECT_FALSE(MethodByName("fedavg").ok());
}

TEST(ConfigTest, HeterogeneityClassification) {
  EXPECT_FALSE(IsHeterogeneous(Method::kAllSmall));
  EXPECT_FALSE(IsHeterogeneous(Method::kAllLarge));
  EXPECT_FALSE(IsHeterogeneous(Method::kAllLargeExclusive));
  EXPECT_TRUE(IsHeterogeneous(Method::kStandalone));
  EXPECT_TRUE(IsHeterogeneous(Method::kClusteredFedRec));
  EXPECT_TRUE(IsHeterogeneous(Method::kDirectlyAggregate));
  EXPECT_TRUE(IsHeterogeneous(Method::kHeteFedRec));
}

TEST(ConfigTest, AllMethodsListComplete) {
  EXPECT_EQ(kAllMethods.size(), 7u);
  EXPECT_EQ(kAllMethods.front(), Method::kAllSmall);
  EXPECT_EQ(kAllMethods.back(), Method::kHeteFedRec);
}

}  // namespace
}  // namespace hetefedrec
