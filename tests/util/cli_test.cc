#include "src/util/cli.h"

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "src/core/config.h"

namespace hetefedrec {
namespace {

// Builds a mutable argv from string literals.
class ArgvBuilder {
 public:
  explicit ArgvBuilder(std::vector<std::string> args) : args_(std::move(args)) {
    for (auto& a : args_) argv_.push_back(a.data());
  }
  int argc() { return static_cast<int>(argv_.size()); }
  char** argv() { return argv_.data(); }

 private:
  std::vector<std::string> args_;
  std::vector<char*> argv_;
};

TEST(CliTest, DefaultsApplyWithoutArgs) {
  CommandLine cli;
  cli.AddFlag("epochs", "20", "training epochs");
  ArgvBuilder args({"prog"});
  ASSERT_TRUE(cli.Parse(args.argc(), args.argv()).ok());
  EXPECT_EQ(cli.GetInt("epochs"), 20);
}

TEST(CliTest, EqualsSyntax) {
  CommandLine cli;
  cli.AddFlag("scale", "bench", "scale preset");
  ArgvBuilder args({"prog", "--scale=paper"});
  ASSERT_TRUE(cli.Parse(args.argc(), args.argv()).ok());
  EXPECT_EQ(cli.GetString("scale"), "paper");
}

TEST(CliTest, SpaceSyntax) {
  CommandLine cli;
  cli.AddFlag("alpha", "1.0", "regularization factor");
  ArgvBuilder args({"prog", "--alpha", "0.5"});
  ASSERT_TRUE(cli.Parse(args.argc(), args.argv()).ok());
  EXPECT_DOUBLE_EQ(cli.GetDouble("alpha"), 0.5);
}

TEST(CliTest, BareBooleanFlag) {
  CommandLine cli;
  cli.AddFlag("verbose", "false", "chatty output");
  ArgvBuilder args({"prog", "--verbose"});
  ASSERT_TRUE(cli.Parse(args.argc(), args.argv()).ok());
  EXPECT_TRUE(cli.GetBool("verbose"));
}

TEST(CliTest, StrictGetParsesValuesAndNamesTheBadFlag) {
  CommandLine cli;
  cli.AddFlag("eval_users", "300", "evaluation users");
  cli.AddFlag("data_scale", "0.06", "dataset scale");
  cli.AddFlag("epochs", "18", "global epochs");
  cli.AddFlag("dims", "8,16,32", "widths");
  cli.AddFlag("udl", "true", "dual-task learning");
  ArgvBuilder good({"prog", "--data_scale=0.02", "--epochs=-1", "--udl=no"});
  ASSERT_TRUE(cli.Parse(good.argc(), good.argv()).ok());
  size_t users = 0;
  double scale = 0.0;
  int epochs = 0;
  std::array<size_t, 3> dims{};
  bool udl = true;
  ASSERT_TRUE(cli.Get("eval_users", &users).ok());
  ASSERT_TRUE(cli.Get("data_scale", &scale).ok());
  ASSERT_TRUE(cli.Get("epochs", &epochs).ok());
  ASSERT_TRUE(cli.Get("dims", &dims).ok());
  ASSERT_TRUE(cli.Get("udl", &udl).ok());
  EXPECT_EQ(users, 300u);
  EXPECT_EQ(scale, 0.02);
  EXPECT_EQ(epochs, -1);
  EXPECT_EQ(dims, (std::array<size_t, 3>{8, 16, 32}));
  EXPECT_FALSE(udl);

  ArgvBuilder bad({"prog", "--eval_users=abc", "--data_scale=0.02x",
                   "--epochs=2.5", "--dims=8,16", "--udl=maybe"});
  ASSERT_TRUE(cli.Parse(bad.argc(), bad.argv()).ok());
  const auto rejected = [&](const std::string& name, auto* out) {
    const auto before = *out;
    const Status st = cli.Get(name, out);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << name;
    EXPECT_EQ(st.message().rfind("--" + name + "='", 0), 0u) << st.message();
    EXPECT_EQ(*out, before) << name << " was written on failure";
  };
  rejected("eval_users", &users);
  rejected("data_scale", &scale);
  rejected("epochs", &epochs);
  rejected("dims", &dims);
  rejected("udl", &udl);
}

TEST(CliTest, UnknownFlagRejected) {
  CommandLine cli;
  cli.AddFlag("epochs", "20", "training epochs");
  ArgvBuilder args({"prog", "--epoch=5"});
  Status s = cli.Parse(args.argc(), args.argv());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(CliTest, PositionalArgumentRejected) {
  CommandLine cli;
  ArgvBuilder args({"prog", "stray"});
  EXPECT_FALSE(cli.Parse(args.argc(), args.argv()).ok());
}

TEST(CliTest, MissingValueRejected) {
  CommandLine cli;
  cli.AddFlag("seed", "1", "rng seed");
  ArgvBuilder args({"prog", "--seed"});
  EXPECT_FALSE(cli.Parse(args.argc(), args.argv()).ok());
}

TEST(CliTest, UsageListsFlags) {
  CommandLine cli;
  cli.AddFlag("seed", "1", "rng seed");
  std::string usage = cli.Usage("prog");
  EXPECT_NE(usage.find("--seed"), std::string::npos);
  EXPECT_NE(usage.find("rng seed"), std::string::npos);
}

// The shared registry behind every experiment binary: registering it
// makes the shared flags parseable with their documented defaults, and it
// composes with binary-local flags.
TEST(CliTest, ExperimentFlagRegistryParsesSharedFlags) {
  CommandLine cli;
  cli.AddFlag("scale", "bench", "binary-local flag");
  RegisterExperimentFlags(&cli);
  ArgvBuilder args({"prog", "--server_shards=4", "--async",
                    "--fault_crash=0.1", "--round_deadline=30",
                    "--scale=paper"});
  ASSERT_TRUE(cli.Parse(args.argc(), args.argv()).ok());
  EXPECT_EQ(cli.GetInt("server_shards"), 4);
  EXPECT_TRUE(cli.GetBool("async"));
  EXPECT_DOUBLE_EQ(cli.GetDouble("fault_crash"), 0.1);
  EXPECT_DOUBLE_EQ(cli.GetDouble("round_deadline"), 30.0);
  EXPECT_EQ(cli.GetString("scale"), "paper");
  // Untouched shared flags keep their documented defaults.
  EXPECT_EQ(cli.GetInt("seed"), 7);
  EXPECT_EQ(cli.GetString("agg"), "mean");
  EXPECT_EQ(cli.GetInt("server_shards"), 4);
  EXPECT_DOUBLE_EQ(cli.GetDouble("net_bandwidth"), 1.25e6);
  EXPECT_EQ(cli.GetInt("fault_retry_max"), 5);
}

}  // namespace
}  // namespace hetefedrec
