// hfr_perfbench: one measured process of the repository benchmark.
//
// perfbench/run.py starts one process per measured run (peak RSS is the
// process high-water mark, which only grows) and aggregates them. Modes:
//
//   --mode=e2e   `--setup_warmups` untimed and `--setup_reps` timed
//                set-ups, one untimed warm-up pass, `--passes` timed
//                passes. Set-up is ExperimentRunner::Create (plus the
//                seeded model init for --kind=rank); a training pass is
//                ExperimentRunner::Run(kHeteFedRec) with telemetry and
//                profiling off, a ranking pass Evaluator::Evaluate.
//   --mode=trace set-up, warm-up and the timed pass as above, then
//                `--trace_pairs` pairs of the benchmark's replay untraced
//                and traced (replay.h); prints the per-layer metrics and
//                the work counts of the run and of the replay.
//
// Experiment flags are the repository's shared ones (RegisterExperimentFlags)
// plus the dataset/model/schedule flags hetefedrec_run also takes. The
// output is one JSON object on the last stdout line.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "replay.h"
#include "span_trace.h"
#include "src/core/config.h"
#include "src/core/trainer.h"
#include "src/util/cli.h"
#include "src/util/logging.h"
#include "src/util/rss.h"
#include "src/util/telemetry/json.h"
#include "src/util/timer.h"

using hetefedrec::CommandLine;
using hetefedrec::ExperimentConfig;
using hetefedrec::ExperimentResult;
using hetefedrec::ExperimentRunner;
using hetefedrec::JsonObj;
using hetefedrec::Status;
using hetefedrec::Timer;
using perfbench::LayerCounters;
using perfbench::ReplayResult;
using perfbench::SpanStats;
using perfbench::Tracer;
using perfbench::WorkCounts;

namespace {

Status BuildConfig(const CommandLine& cli, ExperimentConfig* cfg) {
  cfg->dataset = cli.GetString("dataset");
  cfg->data_scale = cli.GetDouble("data_scale");
  cfg->global_epochs = cli.GetInt("epochs");
  cfg->local_epochs = cli.GetInt("local_epochs");
  cfg->clients_per_round = static_cast<size_t>(cli.GetInt("clients_per_round"));
  cfg->eval_user_sample = static_cast<size_t>(cli.GetInt("eval_users"));
  auto model = hetefedrec::BaseModelByName(cli.GetString("model"));
  if (!model.ok()) return model.status();
  cfg->base_model = *model;
  HFR_RETURN_NOT_OK(hetefedrec::ApplyExperimentFlags(cli, cfg));
  if (cfg->num_threads == 0) {
    // 0 resolves to hardware_concurrency(): the workload would change
    // with the machine.
    return Status::InvalidArgument("--threads must be an explicit count");
  }
  return cfg->Validate();
}

double Mb(size_t kb) { return static_cast<double>(kb) / 1024.0; }

std::string CountsJson(const WorkCounts& c) {
  std::string parts = "[";
  for (size_t g = 0; g < c.participations.size(); ++g) {
    if (g > 0) parts += ",";
    parts += std::to_string(c.participations[g]);
  }
  parts += "]";
  JsonObj o;
  o.Raw("participations", parts)
      .U64("merged", c.merged)
      .U64("dropped", c.dropped)
      .U64("params_up", c.params_up)
      .U64("params_down", c.params_down)
      .U64("wire_bytes", c.wire_bytes)
      .U64("ranked_users", c.ranked_users)
      .Num("sim_s", c.sim_s)
      .Num("ndcg20", c.ndcg)
      .Num("recall20", c.recall)
      .Num("collapse_var", c.collapse_var);
  return o.Build();
}

std::string ListJson(const std::vector<double>& v) {
  std::string out = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ",";
    hetefedrec::AppendJsonNumber(&out, v[i]);
  }
  return out + "]";
}

bool SameWork(const WorkCounts& a, const WorkCounts& b) {
  return a.participations == b.participations && a.merged == b.merged &&
         a.dropped == b.dropped && a.params_up == b.params_up &&
         a.params_down == b.params_down && a.wire_bytes == b.wire_bytes &&
         a.ranked_users == b.ranked_users && a.sim_s == b.sim_s &&
         a.ndcg == b.ndcg && a.recall == b.recall &&
         (a.collapse_var == b.collapse_var ||
          (std::isnan(a.collapse_var) && std::isnan(b.collapse_var)));
}

/// One workload behind a uniform set-up / pass interface.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual void Setup() = 0;
  virtual WorkCounts Pass() = 0;
  /// The benchmark's replay of one set-up plus pass.
  virtual ReplayResult Replay(Tracer* tracer) = 0;
  /// Threads executing the workload (tracer slots).
  virtual size_t slots() const = 0;
};

class TrainingWorkload : public Workload {
 public:
  explicit TrainingWorkload(const ExperimentConfig& cfg) : cfg_(cfg) {}
  void Setup() override {
    runner_.reset();
    auto r = ExperimentRunner::Create(cfg_);
    HFR_CHECK(r.ok()) << r.status().ToString();
    runner_ = std::move(r).value();
  }
  WorkCounts Pass() override {
    const ExperimentResult res =
        runner_->Run(hetefedrec::Method::kHeteFedRec);
    return perfbench::CountsOf(res);
  }
  ReplayResult Replay(Tracer* tracer) override {
    return perfbench::ReplayTraining(cfg_, tracer);
  }
  size_t slots() const override { return cfg_.num_threads; }

 private:
  ExperimentConfig cfg_;
  std::unique_ptr<ExperimentRunner> runner_;
};

class RankWorkload : public Workload {
 public:
  explicit RankWorkload(const ExperimentConfig& cfg) : cfg_(cfg) {}
  void Setup() override {
    model_ = perfbench::RankModel();  // free the previous set-up first
    runner_.reset();
    auto r = ExperimentRunner::Create(cfg_);
    HFR_CHECK(r.ok()) << r.status().ToString();
    runner_ = std::move(r).value();
    Tracer off(false, 1);
    model_ = perfbench::InitRankModel(cfg_, runner_->dataset(),
                                      runner_->groups(), &off);
  }
  WorkCounts Pass() override {
    Tracer off(false, 1);
    LayerCounters unused;
    return perfbench::RankPass(cfg_, runner_->dataset(), runner_->groups(),
                               model_, &off, &unused);
  }
  ReplayResult Replay(Tracer* tracer) override {
    ReplayResult out;
    const Timer wall;
    const perfbench::SetupData data = perfbench::BuildData(cfg_, tracer);
    const perfbench::RankModel model =
        perfbench::InitRankModel(cfg_, *data.dataset, data.groups, tracer);
    const Timer run_wall;
    out.counts = perfbench::RankPass(cfg_, *data.dataset, data.groups, model,
                                     tracer, &out.layers);
    out.run_wall_s = run_wall.Seconds();
    out.wall_s = wall.Seconds();
    return out;
  }
  size_t slots() const override { return 1; }

 private:
  ExperimentConfig cfg_;
  std::unique_ptr<ExperimentRunner> runner_;
  perfbench::RankModel model_;
};

/// Work units a pass completes: merged client updates, or ranked users.
uint64_t WorkUnits(const WorkCounts& c) {
  return c.ranked_users > 0 ? c.ranked_users : c.merged;
}

int RunE2e(Workload* w, int setup_warmups, int setup_reps, int passes) {
  // The first set-ups of a process run slower (paper-sync: the first ~7
  // take twice as long as the rest), so they are not timed.
  for (int i = 0; i < setup_warmups; ++i) w->Setup();
  std::vector<double> setup_s;
  for (int i = 0; i < setup_reps; ++i) {
    const Timer t;
    w->Setup();
    setup_s.push_back(t.Seconds());
  }
  const WorkCounts warm = w->Pass();
  std::vector<double> run_s;
  bool repeats = true;
  for (int i = 0; i < passes; ++i) {
    const Timer t;
    const WorkCounts timed = w->Pass();
    run_s.push_back(t.Seconds());
    repeats = repeats && SameWork(warm, timed);
  }
  JsonObj o;
  o.Raw("setup_s", ListJson(setup_s))
      .Raw("run_s", ListJson(run_s))
      .U64("work", WorkUnits(warm))
      .Num("peak_rss_mb", Mb(hetefedrec::PeakRssKb()))
      .Bool("warm_matches", repeats)
      .Raw("counts", CountsJson(warm));
  std::printf("%s\n", o.Build().c_str());
  return 0;
}

const SpanStats& Stats(const std::map<std::string, SpanStats>& m,
                       const std::string& name) {
  static const SpanStats kEmpty;
  auto it = m.find(name);
  return it == m.end() ? kEmpty : it->second;
}

double Ms(const SpanStats& s, double q) {
  return perfbench::Percentile(s.durations, q) * 1e3;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

int RunTrace(Workload* w, int pairs, const std::string& spans_out) {
  w->Setup();
  const double rss_after_setup = Mb(hetefedrec::PeakRssKb());
  w->Pass();  // warm-up, as in e2e
  const Timer t;
  const WorkCounts run = w->Pass();
  const double run_s = t.Seconds();

  // Untraced and traced replays alternate; the overhead and the
  // replay-to-run ratio are medians over the pairs, the layer metrics come
  // from the last traced replay.
  ReplayResult untraced;
  ReplayResult traced;
  std::unique_ptr<Tracer> tracer;
  std::vector<double> overhead;
  std::vector<double> replay_vs_run;
  bool replays_agree = true;
  for (int i = 0; i < pairs; ++i) {
    Tracer off(false, w->slots());
    untraced = w->Replay(&off);
    tracer = std::make_unique<Tracer>(true, w->slots());
    traced = w->Replay(tracer.get());
    overhead.push_back((traced.wall_s - untraced.wall_s) / untraced.wall_s);
    replay_vs_run.push_back(untraced.run_wall_s / run_s);
    replays_agree = replays_agree && SameWork(untraced.counts, traced.counts);
  }
  const Tracer& tr = *tracer;
  const auto m = tr.Summarize();
  const double slots = static_cast<double>(w->slots());
  const double run_cap = traced.run_wall_s * slots;

  SpanStats train;
  const SpanStats* by_group[3] = {&Stats(m, "core.local_trainer.train.us"),
                                  &Stats(m, "core.local_trainer.train.um"),
                                  &Stats(m, "core.local_trainer.train.ul")};
  for (const SpanStats* g : by_group) {
    train.durations.insert(train.durations.end(), g->durations.begin(),
                           g->durations.end());
    train.total += g->total;
    train.self += g->self;
  }
  double server_self = 0.0;
  for (const char* n : {"core.server.begin_round", "core.server.upload",
                        "core.server.finish_round", "core.server.apply",
                        "core.server.distill"}) {
    server_self += Stats(m, n).self;
  }
  const SpanStats& pfor = Stats(m, "util.thread_pool.parallel_for");
  const SpanStats& evaluate = Stats(m, "eval.evaluate");
  const LayerCounters& L = traced.layers;
  const WorkCounts& rc = traced.counts;
  const uint64_t settled = rc.merged + rc.dropped;
  // Train time inside parallel batches: every train span of a multi-slot
  // run has a parallel_for parent.
  const double pool_busy = pfor.durations.empty() ? 0.0 : train.total;

  JsonObj o;
  o.Num("data.generate_s", Stats(m, "data.generate").total)
      .Num("data.index_s", Stats(m, "data.index").total)
      .Num("fed.groups.assign_s", Stats(m, "fed.groups.assign").total)
      .Num("mem.rss_after_setup_mb", rss_after_setup)
      .Num("core.local_trainer.train_ms.p50", Ms(train, 0.5))
      .Num("core.local_trainer.train_ms.p99", Ms(train, 0.99))
      .Num("core.local_trainer.train_ms.us", Ms(*by_group[0], 0.5))
      .Num("core.local_trainer.train_ms.um", Ms(*by_group[1], 0.5))
      .Num("core.local_trainer.train_ms.ul", Ms(*by_group[2], 0.5))
      .U64("core.local_trainer.calls", train.durations.size())
      .U64("core.local_trainer.samples", L.train_samples)
      .Num("core.local_trainer.samples_per_s",
           Ratio(static_cast<double>(L.train_samples), train.total))
      .U64("core.local_trainer.rows_touched", L.rows_touched)
      .U64("core.local_trainer.nonfinite_steps", L.nonfinite_steps)
      .Num("core.local_trainer.busy_share", Ratio(train.self, run_cap));
  for (const char* n : {"upload", "finish_round", "apply", "distill"}) {
    const SpanStats& s = Stats(m, std::string("core.server.") + n);
    const std::string base = std::string("core.server.") + n;
    o.Num((base + "_ms.p50").c_str(), Ms(s, 0.5))
        .Num((base + "_ms.p99").c_str(), Ms(s, 0.99))
        .U64((base + ".calls").c_str(), s.durations.size());
  }
  o.Num("core.server.busy_share", Ratio(server_self, traced.run_wall_s))
      .Num("fed.sync.plan_ms.p50", Ms(Stats(m, "fed.sync.plan"), 0.5))
      .U64("fed.sync.plan.calls", Stats(m, "fed.sync.plan").durations.size())
      .U64("fed.sync.rows_shipped", L.rows_shipped)
      .Num("fed.sync.replica_hit_ratio",
           L.rows_subscribed > 0
               ? 1.0 - Ratio(static_cast<double>(L.rows_shipped),
                             static_cast<double>(L.rows_subscribed))
               : 0.0)
      .Num("fed.sync.merge_ms.p50", Ms(Stats(m, "fed.sync.merge"), 0.5))
      .U64("fed.sync.merge.calls", Stats(m, "fed.sync.merge").durations.size())
      .Num("fed.sync.drop_ratio", Ratio(static_cast<double>(rc.dropped),
                                        static_cast<double>(settled)))
      .Num("fed.sync.sim_s", rc.sim_s)
      .Num("fed.comm.wire_mb_per_update",
           Ratio(static_cast<double>(rc.wire_bytes) / (1024.0 * 1024.0),
                 static_cast<double>(rc.merged)))
      .Num("fed.fault.admit_ms.p50", Ms(Stats(m, "fed.fault.admit"), 0.5))
      .U64("fed.fault.admit.calls", Stats(m, "fed.fault.admit").durations.size())
      .Num("fed.fault.reject_ratio",
           Ratio(static_cast<double>(L.rejected),
                 static_cast<double>(L.admitted + L.rejected)))
      .Num("util.thread_pool.idle_share",
           pfor.durations.empty() ? 0.0
                                  : 1.0 - Ratio(pool_busy, pfor.total * slots))
      .U64("util.thread_pool.batches", pfor.durations.size())
      .Num("eval.evaluate_s", evaluate.total)
      .Num("eval.user_ms.p50", Ms(Stats(m, "eval.user"), 0.5))
      .Num("eval.user_ms.p99", Ms(Stats(m, "eval.user"), 0.99))
      .U64("eval.user.calls", Stats(m, "eval.user").durations.size())
      .Num("models.scorer.score_share",
           Ratio(Stats(m, "models.scorer.score").total, evaluate.total * slots))
      .Num("eval.topk.push_share",
           Ratio(Stats(m, "eval.topk.push").total, evaluate.total * slots))
      .Num("eval.items_per_s",
           Ratio(static_cast<double>(L.items_scored), evaluate.total))
      .Num("trace.coverage", Ratio(tr.MainCoveredSeconds(), traced.wall_s))
      .Num("trace.overhead_share", perfbench::Percentile(overhead, 0.5))
      .Num("trace.replay_vs_run", perfbench::Percentile(replay_vs_run, 0.5));

  const bool wrote = spans_out.empty() || tr.WriteChromeTrace(spans_out);
  JsonObj out;
  out.Raw("metrics", o.Build())
      .Num("run_s", run_s)
      .Raw("run_counts", CountsJson(run))
      .Raw("replay_counts", CountsJson(traced.counts))
      .Bool("replays_agree", replays_agree)
      .U64("spans", tr.span_count())
      .Bool("spans_written", wrote);
  std::printf("%s\n", out.Build().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CommandLine cli;
  hetefedrec::RegisterExperimentFlags(&cli);
  cli.AddFlag("mode", "e2e", "e2e | trace");
  cli.AddFlag("kind", "train", "train (ExperimentRunner) | rank (Evaluator)");
  cli.AddFlag("dataset", "ml", "ml | anime | douban");
  cli.AddFlag("model", "ncf", "ncf | lightgcn");
  cli.AddFlag("data_scale", "0.06", "synthetic dataset scale in (0,1]");
  cli.AddFlag("epochs", "2", "global epochs");
  cli.AddFlag("local_epochs", "2", "local epochs per round");
  cli.AddFlag("clients_per_round", "256", "round size");
  cli.AddFlag("eval_users", "0", "evaluation user sample (0 = all)");
  cli.AddFlag("setup_warmups", "0", "untimed set-ups per process (e2e)");
  cli.AddFlag("setup_reps", "1", "timed set-ups per process (e2e)");
  cli.AddFlag("passes", "1", "timed passes after the warm-up (e2e)");
  cli.AddFlag("spans_out", "", "write the traced replay's spans here");
  cli.AddFlag("trace_pairs", "1", "untraced/traced replay pairs (trace)");
  Status st = cli.Parse(argc, argv);
  ExperimentConfig cfg;
  if (st.ok()) st = BuildConfig(cli, &cfg);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n%s", st.ToString().c_str(),
                 cli.Usage(argv[0]).c_str());
    return 2;
  }
  const std::string kind = cli.GetString("kind");
  std::unique_ptr<Workload> w;
  if (kind == "train") {
    w = std::make_unique<TrainingWorkload>(cfg);
  } else if (kind == "rank") {
    w = std::make_unique<RankWorkload>(cfg);
  } else {
    std::fprintf(stderr, "unknown --kind=%s\n", kind.c_str());
    return 2;
  }
  const std::string mode = cli.GetString("mode");
  if (mode == "e2e") {
    return RunE2e(w.get(), std::max(0, cli.GetInt("setup_warmups")),
                  std::max(1, cli.GetInt("setup_reps")),
                  std::max(1, cli.GetInt("passes")));
  }
  if (mode == "trace") {
    return RunTrace(w.get(), std::max(1, cli.GetInt("trace_pairs")),
                    cli.GetString("spans_out"));
  }
  std::fprintf(stderr, "unknown --mode=%s\n", mode.c_str());
  return 2;
}
