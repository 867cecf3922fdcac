// The benchmark's traced replay and its ranking workload.
//
// ReplayTraining re-drives one HeteFedRec run through the layers' public
// functions in the order src/core/trainer.cc calls them — data generation
// and indexing, group assignment, server and client init, then per
// participation: scheduling, local training, download sync, fault draw,
// admission and the ServerApi merge, and finally evaluation — with a span
// around every layer call. Spans are recorded from this benchmark's code
// only (server calls through a forwarding ServerApi), so the library
// carries no tracing. Given the same config it does the same work as
// ExperimentRunner::Run, and the benchmark checks that it does: its work
// counts and metrics are compared with the untraced run's.
//
// The ranking workload (full-catalogue top-K for every user over seeded
// model parameters) has no production entry point other than the
// Evaluator. Its untraced run takes the data and groups from
// ExperimentRunner::Create; its replay builds them with BuildData. Both rank
// through RankPass, which passes Evaluator::Evaluate a copy of the trainer's
// file-local score callback (StreamScoresForEval in src/core/trainer.cc:
// BeginUser, then ScoreRange over blocks of 8 * Scorer::kScoreBlock items
// into the top-K sink). A change to that callback in the trainer does not
// reach this workload until the callback is callable from outside
// trainer.cc.
#ifndef HFR_PERFBENCH_REPLAY_H_
#define HFR_PERFBENCH_REPLAY_H_

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "span_trace.h"
#include "src/core/config.h"
#include "src/core/server_api.h"
#include "src/core/trainer.h"
#include "src/data/dataset.h"
#include "src/fed/client.h"
#include "src/fed/groups.h"

namespace perfbench {

/// Work a run did, comparable between the untraced run and the replay.
struct WorkCounts {
  std::array<uint64_t, 3> participations{};  // merged uploads per group
  uint64_t merged = 0;                        // sum of participations
  uint64_t dropped = 0;                       // staleness drops
  uint64_t params_up = 0;
  uint64_t params_down = 0;
  uint64_t wire_bytes = 0;  // CommStats::TotalBytes
  uint64_t ranked_users = 0;
  double sim_s = 0.0;
  double ndcg = 0.0;
  double recall = 0.0;
  /// The run's closing collapse diagnostic: a function of every value of
  /// the widest item table, so it changes with any drift in the arithmetic.
  double collapse_var = 0.0;
};

WorkCounts CountsOf(const hetefedrec::ExperimentResult& result);

/// Layer counters the spans alone cannot give.
struct LayerCounters {
  uint64_t train_samples = 0;
  uint64_t rows_touched = 0;
  uint64_t nonfinite_steps = 0;
  uint64_t rows_subscribed = 0;
  uint64_t rows_shipped = 0;
  uint64_t admitted = 0;
  uint64_t rejected = 0;
  uint64_t items_scored = 0;
};

struct ReplayResult {
  WorkCounts counts;
  LayerCounters layers;
  double wall_s = 0.0;      // the whole replay, set-up included
  double run_wall_s = 0.0;  // the part an untraced run_s measures
};

/// Replays one HeteFedRec training run (sync or async schedule) with spans.
ReplayResult ReplayTraining(const hetefedrec::ExperimentConfig& cfg,
                            Tracer* tracer);

/// Data, index and groups as ExperimentRunner::Create builds them, with
/// the spans data.generate, data.index and fed.groups.assign on the
/// tracer's main slot.
struct SetupData {
  std::unique_ptr<hetefedrec::Dataset> dataset;
  hetefedrec::GroupAssignment groups;
};
SetupData BuildData(const hetefedrec::ExperimentConfig& cfg, Tracer* tracer);

/// Seeded model parameters for the ranking workload: a freshly initialized
/// server (one table and Theta per group width) and client embeddings, the
/// init a training run starts from.
struct RankModel {
  std::unique_ptr<hetefedrec::ServerApi> server;
  std::vector<hetefedrec::ClientState> clients;
};

/// Initializes the ranking model over `ds` and `groups`; spans
/// core.server.init and fed.client.init on the tracer's main slot.
RankModel InitRankModel(const hetefedrec::ExperimentConfig& cfg,
                        const hetefedrec::Dataset& ds,
                        const hetefedrec::GroupAssignment& groups,
                        Tracer* tracer);

/// One full ranking pass (Evaluator::Evaluate with the copied trainer
/// callback, single-threaded, fp64).
WorkCounts RankPass(const hetefedrec::ExperimentConfig& cfg,
                    const hetefedrec::Dataset& ds,
                    const hetefedrec::GroupAssignment& groups,
                    const RankModel& model, Tracer* tracer,
                    LayerCounters* layers);

}  // namespace perfbench

#endif  // HFR_PERFBENCH_REPLAY_H_
