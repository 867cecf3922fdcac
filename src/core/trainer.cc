#include "src/core/trainer.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <memory>
#include <numeric>
#include <thread>
#include <utility>

#include "src/core/checkpoint.h"
#include "src/core/local_trainer.h"
#include "src/core/run_state.h"
#include "src/data/synthetic.h"
#include "src/eval/topk.h"
#include "src/fed/fault/admission.h"
#include "src/fed/fault/client_gate.h"
#include "src/fed/fault/fault_injector.h"
#include "src/fed/scheduler.h"
#include "src/fed/shard/sharded_server.h"
#include "src/fed/sync/async_aggregator.h"
#include "src/fed/sync/network.h"
#include "src/fed/sync/sync_service.h"
#include "src/math/eigen.h"
#include "src/math/init.h"
#include "src/math/stats.h"
#include "src/util/telemetry/json.h"
#include "src/util/telemetry/profiler.h"
#include "src/util/telemetry/telemetry.h"
#include "src/util/thread_pool.h"
#include "src/util/timer.h"

namespace hetefedrec {

namespace {

/// Derived per-method wiring: slots, group->slot map, dual-task lists,
/// aggregation flavor and component toggles.
struct MethodSetup {
  std::vector<size_t> widths;
  bool shared_aggregation = true;
  std::array<size_t, kNumGroups> slot_of_group = {0, 0, 0};
  std::array<std::vector<LocalTaskSpec>, kNumGroups> tasks_of_group;
  std::array<bool, kNumGroups> excluded = {false, false, false};
  std::array<bool, kNumGroups> apply_ddr = {false, false, false};
  bool reskd = false;
};

/// Stable handles into the run's MetricsRegistry (docs/OBSERVABILITY.md has
/// the catalogue). Registration order here is the serialization order of
/// every metrics dump, so it must stay fixed.
struct RunMetrics {
  // Cumulative traffic, mirrored from CommStats each round.
  Counter* downloads = nullptr;
  Counter* uploads = nullptr;
  Counter* dropped = nullptr;
  Counter* down_scalars = nullptr;
  Counter* up_scalars = nullptr;
  // Delta-sync row flow (incremented live in AccountDownload).
  Counter* rows_subscribed = nullptr;
  Counter* rows_shipped = nullptr;
  // Server progress.
  Counter* rounds = nullptr;
  Counter* merges = nullptr;
  Counter* distills = nullptr;
  Counter* checkpoints = nullptr;
  // Robustness counters, mirrored from FaultStats (same order as
  // CommStats::ExportCounters' fault segment).
  std::array<Counter*, 12> faults{};
  // Per-round gauges (main thread only).
  Gauge* clock = nullptr;
  Gauge* queue_depth = nullptr;
  Gauge* round_merged = nullptr;
  Gauge* round_down_scalars = nullptr;
  Gauge* round_up_scalars = nullptr;
  Gauge* loss_mean = nullptr;
  Gauge* replica_hit_rate = nullptr;
  Gauge* eval_recall = nullptr;
  Gauge* eval_ndcg = nullptr;
  // Distributions (main thread only).
  Histogram* round_seconds = nullptr;
  Histogram* staleness = nullptr;  // async only

  void Register(MetricsRegistry* reg, bool async_mode) {
    downloads = reg->GetCounter("comm.downloads");
    uploads = reg->GetCounter("comm.uploads");
    dropped = reg->GetCounter("comm.dropped");
    down_scalars = reg->GetCounter("comm.down_scalars");
    up_scalars = reg->GetCounter("comm.up_scalars");
    rows_subscribed = reg->GetCounter("sync.rows_subscribed");
    rows_shipped = reg->GetCounter("sync.rows_shipped");
    rounds = reg->GetCounter("server.rounds");
    merges = reg->GetCounter("server.merges");
    distills = reg->GetCounter("server.distills");
    checkpoints = reg->GetCounter("server.checkpoints");
    static constexpr const char* kFaultNames[12] = {
        "fault.download_lost",         "fault.upload_lost",
        "fault.crashed",               "fault.duplicates",
        "fault.corrupted",             "admission.rejected_nonfinite",
        "admission.rejected_outlier",  "admission.rows_clipped",
        "gate.quarantines",            "gate.retries",
        "gate.gave_up",                "train.nonfinite_grad_steps"};
    for (int i = 0; i < 12; ++i) faults[i] = reg->GetCounter(kFaultNames[i]);
    clock = reg->GetGauge("clock.sim_seconds");
    queue_depth = reg->GetGauge("queue.depth");
    round_merged = reg->GetGauge("round.merged");
    round_down_scalars = reg->GetGauge("round.down_scalars");
    round_up_scalars = reg->GetGauge("round.up_scalars");
    loss_mean = reg->GetGauge("train.loss_mean");
    replica_hit_rate = reg->GetGauge("sync.replica_hit_rate");
    eval_recall = reg->GetGauge("eval.recall");
    eval_ndcg = reg->GetGauge("eval.ndcg");
    round_seconds =
        reg->GetHistogram("round.seconds", {1, 2, 5, 10, 30, 60, 120, 300});
    if (async_mode) {
      staleness =
          reg->GetHistogram("async.staleness", {0, 1, 2, 4, 8, 16, 32, 64});
    }
  }

  /// Counters mirror cumulative sources, so "set to total" is a delta Add.
  /// Main-thread only (Value() must not race a concurrent Add).
  static void SetTo(Counter* c, uint64_t total) { c->Add(total - c->Value()); }

  void MirrorComm(const CommStats& comm) {
    uint64_t down = 0, up = 0, drop = 0, down_p = 0, up_p = 0;
    for (int g = 0; g < kNumGroups; ++g) {
      const Group grp = static_cast<Group>(g);
      down += comm.Downloads(grp);
      up += comm.Participations(grp);
      drop += comm.Dropped(grp);
      down_p += comm.DownParams(grp);
      up_p += comm.UpParams(grp);
    }
    SetTo(downloads, down);
    SetTo(uploads, up);
    SetTo(dropped, drop);
    SetTo(down_scalars, down_p);
    SetTo(up_scalars, up_p);
    const FaultStats& f = comm.faults();
    const uint64_t totals[12] = {
        f.download_lost,      f.upload_lost,      f.crashed,
        f.duplicates,         f.corrupted,        f.rejected_nonfinite,
        f.rejected_outlier,   f.rows_clipped,     f.quarantines,
        f.retries,            f.gave_up,          f.nonfinite_grad_steps};
    for (int i = 0; i < 12; ++i) SetTo(faults[i], totals[i]);
  }
};

/// Resolves cfg.num_threads (0 = hardware concurrency) to a thread count.
size_t EffectiveThreads(const ExperimentConfig& cfg) {
  if (cfg.num_threads > 0) return cfg.num_threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

/// Shared evaluator scoring dispatch: the per-item reference loop, the
/// in-place ScoreRange over the full span (full mode passes the contiguous
/// ids [0, num_items)), or the id-list ScoreBatch (candidate mode).
/// Requires a prior BeginUser on `sc`.
void ScoreIdsForEval(const Scorer& sc, const Matrix& table,
                     const FeedForwardNet& theta,
                     const std::vector<ItemId>& ids, bool use_batched,
                     bool full_span, double* out) {
  if (!use_batched) {
    for (size_t i = 0; i < ids.size(); ++i) {
      out[i] = sc.Score(table, theta, ids[i]);
    }
  } else if (full_span) {
    // full_span promises ids == [0, table.rows()); scoring the wrong span
    // here would silently corrupt metrics.
    HFR_CHECK_EQ(ids.size(), table.rows());
    sc.ScoreRange(table, theta, 0, ids.size(), out);
  } else {
    sc.ScoreBatch(table, theta, ids.data(), ids.size(), out);
  }
}

/// Score blocks fed to the fused top-K sink: per-user state (prefix, pu_)
/// survives across ScoreRange calls, so scoring block [first, first + bs)
/// yields the exact per-item logits of one full-span pass while `buf` only
/// ever holds kEvalStreamBlock scores. Requires a prior BeginUser on `sc`.
constexpr size_t kEvalStreamBlock = 8 * Scorer::kScoreBlock;

void StreamScoresForEval(const Scorer& sc, const Matrix& table,
                         const FeedForwardNet& theta, bool use_batched,
                         std::vector<double>* buf, TopKSelector* sink) {
  const size_t n = table.rows();
  buf->resize(std::min(kEvalStreamBlock, n));
  for (size_t first = 0; first < n; first += kEvalStreamBlock) {
    const size_t bs = std::min(kEvalStreamBlock, n - first);
    if (use_batched) {
      sc.ScoreRange(table, theta, static_cast<ItemId>(first), bs,
                    buf->data());
    } else {
      for (size_t i = 0; i < bs; ++i) {
        (*buf)[i] = sc.Score(table, theta, static_cast<ItemId>(first + i));
      }
    }
    sink->Push(static_cast<ItemId>(first), buf->data(), bs);
  }
}

// fp32-backend overloads: score in float against float casts of the server
// state, upcasting each block into the evaluator's double contract (the
// metrics pipeline and top-K sink stay fp64). The thread_local scratch is
// bounded by kEvalStreamBlock / the candidate-list length per thread.
void ScoreIdsForEval(const ScorerF& sc, const MatrixF& table,
                     const FeedForwardNetF& theta,
                     const std::vector<ItemId>& ids, bool use_batched,
                     bool full_span, double* out) {
  thread_local std::vector<float> tmp;
  tmp.resize(ids.size());
  if (!use_batched) {
    for (size_t i = 0; i < ids.size(); ++i) {
      tmp[i] = sc.Score(table, theta, ids[i]);
    }
  } else if (full_span) {
    HFR_CHECK_EQ(ids.size(), table.rows());
    sc.ScoreRange(table, theta, 0, ids.size(), tmp.data());
  } else {
    sc.ScoreBatch(table, theta, ids.data(), ids.size(), tmp.data());
  }
  for (size_t i = 0; i < ids.size(); ++i) {
    out[i] = static_cast<double>(tmp[i]);
  }
}

void StreamScoresForEval(const ScorerF& sc, const MatrixF& table,
                         const FeedForwardNetF& theta, bool use_batched,
                         std::vector<double>* buf, TopKSelector* sink) {
  thread_local std::vector<float> tmp;
  const size_t n = table.rows();
  buf->resize(std::min(kEvalStreamBlock, n));
  tmp.resize(std::min(kEvalStreamBlock, n));
  for (size_t first = 0; first < n; first += kEvalStreamBlock) {
    const size_t bs = std::min(kEvalStreamBlock, n - first);
    if (use_batched) {
      sc.ScoreRange(table, theta, static_cast<ItemId>(first), bs, tmp.data());
    } else {
      for (size_t i = 0; i < bs; ++i) {
        tmp[i] = sc.Score(table, theta, static_cast<ItemId>(first + i));
      }
    }
    for (size_t i = 0; i < bs; ++i) (*buf)[i] = static_cast<double>(tmp[i]);
    sink->Push(static_cast<ItemId>(first), buf->data(), bs);
  }
}

MethodSetup BuildSetup(const ExperimentConfig& cfg, Method method) {
  MethodSetup s;
  const auto& dims = cfg.dims;
  auto homogeneous = [&](size_t width) {
    s.widths = {width};
    for (int g = 0; g < kNumGroups; ++g) {
      s.slot_of_group[g] = 0;
      s.tasks_of_group[g] = {LocalTaskSpec{0, width}};
    }
  };
  switch (method) {
    case Method::kAllSmall:
      homogeneous(dims[0]);
      break;
    case Method::kAllLarge:
      homogeneous(dims[2]);
      break;
    case Method::kAllLargeExclusive:
      homogeneous(dims[2]);
      s.excluded[static_cast<int>(Group::kSmall)] = true;
      break;
    case Method::kClusteredFedRec:
    case Method::kDirectlyAggregate:
    case Method::kStandalone:
      s.widths = {dims[0], dims[1], dims[2]};
      s.shared_aggregation = (method == Method::kDirectlyAggregate);
      for (int g = 0; g < kNumGroups; ++g) {
        s.slot_of_group[g] = static_cast<size_t>(g);
        s.tasks_of_group[g] = {
            LocalTaskSpec{static_cast<size_t>(g), dims[g]}};
      }
      break;
    case Method::kHeteFedRec:
      s.widths = {dims[0], dims[1], dims[2]};
      s.shared_aggregation = true;
      for (int g = 0; g < kNumGroups; ++g) {
        s.slot_of_group[g] = static_cast<size_t>(g);
        if (cfg.unified_dual_task) {
          // Eq. 11: one objective per width Ns..Ng over shared storage.
          for (int t = 0; t <= g; ++t) {
            s.tasks_of_group[g].push_back(
                LocalTaskSpec{static_cast<size_t>(t), dims[t]});
          }
        } else {
          s.tasks_of_group[g] = {
              LocalTaskSpec{static_cast<size_t>(g), dims[g]}};
        }
        // Eq. 14: DDR applies to medium and large clients.
        s.apply_ddr[g] = cfg.decorrelation && g > 0;
      }
      s.reskd = cfg.ensemble_distillation;
      break;
  }
  return s;
}

/// \brief One federated run: the shared executor core plus two schedules.
///
/// Both schedules drive the same per-client machinery — dispatch (download
/// accounting + local training), simulated completion timing, merge,
/// distillation, evaluation — and differ only in *when* merges happen:
///
///   SyncEpoch  — the paper's synchronous protocol, i.e. the degenerate
///     schedule of the event loop: a whole batch dispatches at one virtual
///     instant, a barrier closes the round (duration = the slowest merged
///     completion), merges land in batch order and the version advances
///     once per round. Bit-identical to the pre-async implementation.
///   AsyncEpoch — merge-on-arrival through AsyncAggregator: dispatches
///     fill free in-flight slots, completions merge strictly in virtual
///     completion-time order with staleness weighting w(s) = 1/(1+s)^alpha,
///     and the version advances once per merge (docs/SYNC.md).
class FederatedRun {
 public:
  FederatedRun(const ExperimentConfig& cfg, const Dataset& dataset,
               const GroupAssignment& groups, Method method)
      : cfg_(cfg),
        dataset_(dataset),
        groups_(groups),
        setup_(BuildSetup(cfg, method)),
        method_(method),
        root_(cfg.seed),
        fp32_(cfg.compute_backend != ComputeBackend::kFp64) {
    // Arms (or disarms) the process-wide fp32 SIMD dispatch; falls back to
    // the scalar fp32 kernels (identical results) when AVX2 is unavailable.
    ActivateBackend(cfg_.compute_backend);
    if (setup_.widths.size() > 1) {
      HFR_CHECK_LT(cfg_.dims[0], cfg_.dims[1]);
      HFR_CHECK_LT(cfg_.dims[1], cfg_.dims[2]);
    }

    HeteroServer::Options server_opts;
    server_opts.widths = setup_.widths;
    server_opts.ffn_hidden = cfg_.ffn_hidden;
    server_opts.num_items = dataset_.num_items();
    server_opts.embed_init_std = cfg_.embed_init_std;
    server_opts.aggregation = cfg_.aggregation;
    server_opts.shared_aggregation = setup_.shared_aggregation;
    server_opts.seed = root_.Fork(1).Next();
    // One item range for server_shards 0 or 1, S ranges otherwise; the
    // trainer only sees ServerApi from here on.
    server_ = MakeServer(server_opts, cfg_.server_shards);

    clients_.resize(dataset_.num_users());
    for (size_t u = 0; u < clients_.size(); ++u) {
      Group g = groups_.of(static_cast<UserId>(u));
      size_t width = setup_.widths[setup_.slot_of_group[static_cast<int>(g)]];
      InitClient(&clients_[u], static_cast<UserId>(u), g, width,
                 cfg_.embed_init_std, root_);
    }

    // One LocalTrainer per executing thread (scratch buffers are not
    // shareable); slot t of the pool uses trainers[t].
    const size_t n_threads = EffectiveThreads(cfg_);
    pool_ = std::make_unique<ThreadPool>(n_threads - 1);
    trainers_.reserve(pool_->num_slots());
    for (size_t t = 0; t < pool_->num_slots(); ++t) {
      trainers_.push_back(
          std::make_unique<LocalTrainer>(dataset_, cfg_.base_model));
    }
    queue_ = std::make_unique<ClientQueue>(
        dataset_.num_users(), cfg_.clients_per_round, cfg_.straggler_slack);
    sched_rng_ = root_.Fork(2);
    kd_rng_ = root_.Fork(3);
    kd_opts_.kd_items = cfg_.kd_items;
    kd_opts_.steps = cfg_.kd_steps;
    kd_opts_.lr = cfg_.kd_lr;
    kd_opts_.backend = cfg_.compute_backend;

    // Delta-sync machinery (docs/SYNC.md). With full_downloads the replica
    // bookkeeping is skipped entirely — the default path stays the paper's.
    delta_sync_ = !cfg_.full_downloads;
    if (delta_sync_) {
      SyncService::Options sync_opts;
      sync_opts.verify_values = cfg_.sync_verify_replicas;
      sync_opts.replica_cap = cfg_.sync_replica_cap;
      sync_ = std::make_unique<SyncService>(dataset_.num_users(), sync_opts);
    }
    NetworkOptions net_opts;
    net_opts.availability = cfg_.availability;
    net_opts.bandwidth_bytes_per_sec = cfg_.net_bandwidth;
    net_opts.bandwidth_sigma = cfg_.net_bandwidth_sigma;
    net_opts.latency_seconds = cfg_.net_latency;
    net_opts.latency_sigma = cfg_.net_latency_sigma;
    net_opts.compute_seconds_per_sample = cfg_.net_compute_per_sample;
    net_opts.seed = root_.Fork(5).Next();
    net_ = std::make_unique<SimulatedNetwork>(net_opts);
    // Over-selection: rank completions by simulated time, merge the first
    // clients_per_round (a deadline alone also activates the ranking).
    over_select_ = cfg_.straggler_slack > 0 || cfg_.round_deadline > 0.0;

    // Robustness layer (docs/ROBUSTNESS.md). All three pieces stay null on
    // the default configuration, so the fault-free path is bit-identical to
    // a build without them (Fork is const, so the seeds drawn below never
    // perturb root_'s other streams).
    const bool any_fault =
        cfg_.fault_upload_loss > 0.0 || cfg_.fault_download_loss > 0.0 ||
        cfg_.fault_crash > 0.0 || cfg_.fault_duplicate > 0.0 ||
        cfg_.fault_corrupt > 0.0;
    if (any_fault) {
      FaultOptions fault_opts;
      fault_opts.upload_loss = cfg_.fault_upload_loss;
      fault_opts.download_loss = cfg_.fault_download_loss;
      fault_opts.crash = cfg_.fault_crash;
      fault_opts.duplicate = cfg_.fault_duplicate;
      fault_opts.corrupt = cfg_.fault_corrupt;
      fault_opts.seed = root_.Fork(6).Next();
      injector_ = std::make_unique<FaultInjector>(fault_opts);
    }
    if (any_fault || cfg_.admission_control) {
      BackoffOptions gate_opts;
      gate_opts.retry_base_seconds = cfg_.fault_retry_base;
      gate_opts.retry_cap_seconds = cfg_.fault_retry_cap;
      gate_opts.quarantine_base_seconds = cfg_.fault_quarantine_base;
      gate_opts.quarantine_cap_seconds = cfg_.fault_quarantine_cap;
      gate_opts.jitter = cfg_.fault_jitter;
      gate_opts.retry_max = cfg_.fault_retry_max;
      gate_opts.seed = root_.Fork(7).Next();
      gate_ = std::make_unique<ClientGate>(dataset_.num_users(), gate_opts);
    }
    if (cfg_.admission_control) {
      AdmissionOptions admit_opts;
      admit_opts.max_row_norm = cfg_.admit_max_row_norm;
      admit_opts.outlier_z = cfg_.admit_outlier_z;
      admission_ = std::make_unique<AdmissionController>(server_->num_slots(),
                                                         admit_opts);
      server_->SetAdmission(admission_.get());
    }

    evaluator_ = std::make_unique<Evaluator>(
        dataset_, groups_, cfg_.top_k, cfg_.eval_user_sample,
        cfg_.seed ^ 0xe5a1ULL, cfg_.eval_candidate_sample,
        cfg_.use_batched_topk);
    // One Scorer per (executing thread, slot), constructed once and reused
    // for every evaluated user (Scorer construction allocates per-width
    // scratch; the evaluator likewise reuses per-thread scores buffers).
    eval_stream_bufs_.resize(pool_->num_slots());
    if (fp32_) {
      eval_scorers_f_.resize(pool_->num_slots());
      eval_user_f_.resize(pool_->num_slots());
      for (size_t t = 0; t < pool_->num_slots(); ++t) {
        eval_scorers_f_[t].reserve(server_->num_slots());
        for (size_t s = 0; s < server_->num_slots(); ++s) {
          eval_scorers_f_[t].emplace_back(cfg_.base_model, server_->width(s));
        }
      }
    } else {
      eval_scorers_.resize(pool_->num_slots());
      for (size_t t = 0; t < pool_->num_slots(); ++t) {
        eval_scorers_[t].reserve(server_->num_slots());
        for (size_t s = 0; s < server_->num_slots(); ++s) {
          eval_scorers_[t].emplace_back(cfg_.base_model, server_->width(s));
        }
      }
    }

    if (cfg_.async_mode) {
      async_inflight_ = cfg_.async_inflight > 0 ? cfg_.async_inflight
                                                : cfg_.clients_per_round;
      AsyncAggregator::Options agg_opts;
      agg_opts.staleness_alpha = cfg_.async_staleness_alpha;
      agg_opts.max_staleness = cfg_.async_max_staleness;
      // RESKD's per-round trigger becomes a per-N-merges cadence.
      agg_opts.distill_every =
          setup_.reskd ? (cfg_.async_distill_every > 0
                              ? cfg_.async_distill_every
                              : cfg_.clients_per_round)
                       : 0;
      agg_ = std::make_unique<AsyncAggregator>(server_.get(), agg_opts);
    }

    result_.comm.set_wire_scalar_bytes(cfg_.wire_scalar_bytes);
    SetupTelemetry();
  }

  ExperimentResult Run() {
    if (cfg_.resume_run) LoadRun();
    for (int epoch = start_epoch_; epoch <= cfg_.global_epochs; ++epoch) {
      if (!resume_mid_epoch_) {
        loss_sum_ = 0.0;
        loss_count_ = 0;
      }
      if (cfg_.async_mode) {
        AsyncEpoch(epoch);
      } else {
        SyncEpoch(epoch);
      }
      if (stopped_) {
        // The debug kill hook simulates a crash: no evaluation, no final
        // model checkpoint — the last *run* checkpoint is the survivor a
        // resumed process picks up. Telemetry still flushes what it saw.
        result_.simulated_seconds = sim_clock_;
        result_.train_seconds = timer_.Seconds();
        TelemetryFinish();
        return std::move(result_);
      }

      const bool last = (epoch == cfg_.global_epochs);
      if ((cfg_.eval_every > 0 && epoch % cfg_.eval_every == 0) || last) {
        EpochPoint point;
        point.epoch = epoch;
        point.eval = RunEvaluation();
        point.mean_train_loss =
            loss_count_ > 0 ? loss_sum_ / static_cast<double>(loss_count_)
                            : 0.0;
        point.simulated_seconds = sim_clock_;
        if (cfg_.eval_every > 0) result_.history.push_back(point);
        if (last) result_.final_eval = point.eval;
        TelemetryEval(point);
      }
      // Async runs checkpoint at epoch boundaries, where the event queue
      // has fully drained (the sync schedule checkpoints per round inside
      // SyncEpoch instead).
      if (cfg_.checkpoint_every > 0 && cfg_.async_mode && !last) {
        WriteRunCheckpoint(epoch + 1, /*mid_epoch=*/false);
      }
    }

    {
      const Matrix& largest = server_->table(server_->num_slots() - 1);
      // Corrupted updates merged without admission control can poison the
      // tables with NaN/Inf; the eigen solver CHECKs on a non-finite
      // covariance, so report NaN collapse stats instead of aborting.
      bool finite = true;
      for (double v : largest.data()) {
        if (!std::isfinite(v)) {
          finite = false;
          break;
        }
      }
      if (finite) {
        std::vector<double> eig =
            SymmetricEigenvalues(CovarianceMatrix(largest));
        result_.collapse_variance = Variance(eig);
        double mean = Mean(eig);
        result_.collapse_cv =
            mean > 0 ? result_.collapse_variance / (mean * mean) : 0.0;
      } else {
        result_.collapse_variance = std::numeric_limits<double>::quiet_NaN();
        result_.collapse_cv = result_.collapse_variance;
      }
    }
    if (!cfg_.checkpoint_path.empty()) {
      Status st = SaveServerCheckpoint(cfg_.checkpoint_path, *server_,
                                       BaseModelName(cfg_.base_model));
      if (!st.ok()) {
        HFR_LOG(Warning) << "checkpoint save failed: " << st.ToString();
      }
    }
    result_.simulated_seconds = sim_clock_;
    result_.train_seconds = timer_.Seconds();
    TelemetryFinish();
    return std::move(result_);
  }

 private:
  /// Local training of one client against the current server tables.
  void TrainOne(UserId u, size_t slot_idx, LocalUpdateResult* out) {
    HFR_PROFILE("train");
    ClientState& client = clients_[u];
    const int g = static_cast<int>(client.group);
    const auto& tasks = setup_.tasks_of_group[g];
    std::vector<const FeedForwardNet*> thetas;
    thetas.reserve(tasks.size());
    for (const auto& task : tasks) {
      thetas.push_back(&server_->theta(task.slot));
    }

    LocalTrainerOptions lopt;
    lopt.local_epochs = cfg_.local_epochs;
    lopt.lr = cfg_.lr;
    lopt.apply_ddr = setup_.apply_ddr[g];
    lopt.alpha = cfg_.alpha;
    lopt.ddr_sample_rows = cfg_.ddr_sample_rows;
    lopt.validation_fraction = cfg_.local_validation_fraction;
    lopt.use_sparse = cfg_.use_sparse_updates;
    lopt.use_batched = cfg_.use_batched_scoring;
    lopt.sparse_comm_accounting = cfg_.sparse_comm_accounting;
    lopt.backend = cfg_.compute_backend;

    size_t slot = setup_.slot_of_group[g];
    *out = trainers_[slot_idx]->Train(&client, server_->table(slot), thetas,
                                      setup_.tasks_of_group[g], lopt);
  }

  /// Download accounting for one trained client, in deterministic dispatch
  /// order (the replica commit must be deterministic). Returns the scalars
  /// the active protocol actually ships down; also records CommStats.
  size_t AccountDownload(UserId u, const LocalUpdateResult& update) {
    HFR_PROFILE("sync");
    const size_t slot =
        setup_.slot_of_group[static_cast<int>(clients_[u].group)];
    const Matrix& table = server_->table(slot);
    // update.params_down is the dense accounting: |V| + |Θ...|.
    const size_t theta_params = update.params_down - table.size();
    size_t shipped = update.params_down;
    if (delta_sync_ && update.sparse) {
      SyncPlan plan = sync_->Sync(u, slot, update.read_rows, table,
                                  server_->versions(), theta_params);
      shipped = plan.params;
      if (tel_) {
        metrics_.rows_subscribed->Add(plan.subscribed_rows);
        metrics_.rows_shipped->Add(plan.shipped_rows);
      }
    }
    result_.comm.RecordDownload(
        clients_[u].group,
        cfg_.sparse_comm_accounting ? shipped : update.params_down);
    return shipped;
  }

  /// Merges one accepted update into the open round's accumulators.
  void MergeOne(UserId u, const LocalUpdateResult& update) {
    HFR_PROFILE("merge");
    result_.comm.RecordUpload(clients_[u].group, update.params_up);
    loss_sum_ += update.train_loss;
    loss_count_++;
    double weight =
        cfg_.aggregation == AggregationMode::kDataWeighted
            ? static_cast<double>(dataset_.TrainItems(u).size())
            : 1.0;
    server_->UploadDelta(
        setup_.tasks_of_group[static_cast<int>(clients_[u].group)], update,
        weight);
  }

  /// Local training with the crash fault applied: the device ran (its RNG
  /// stream advances, so a resumed run replays the identical draw) but the
  /// local work is lost — the private embedding reverts, and the update is
  /// discarded at resolve time. Client-local, so parallel-safe.
  void TrainOneFaulted(UserId u, size_t slot_idx, FaultKind fk,
                       LocalUpdateResult* out) {
    if (fk != FaultKind::kCrash) {
      TrainOne(u, slot_idx, out);
      return;
    }
    Matrix saved = clients_[u].user_embedding;
    TrainOne(u, slot_idx, out);
    clients_[u].user_embedding = std::move(saved);
  }

  /// Schedules a failed transfer's retry: capped exponential backoff on the
  /// virtual clock, giving the client up (until the next epoch refill) once
  /// retry_max consecutive failures accumulate.
  void FailAndRequeue(UserId u, double now) {
    FaultStats* f = result_.comm.mutable_faults();
    if (gate_ && !gate_->RetryAfterFailure(u, now)) {
      f->gave_up++;
      return;
    }
    f->retries++;
    queue_->Requeue(u);
  }

  /// Admission gate in front of MergeOne: rejected updates quarantine the
  /// client; accepted ones clear its failure streak. Returns true iff the
  /// update merged.
  bool TryMerge(UserId u, LocalUpdateResult* update, double now) {
    if (server_->admission_enabled()) {
      const AdmissionDecision decision = server_->Admit(
          setup_.tasks_of_group[static_cast<int>(clients_[u].group)], update);
      FaultStats* f = result_.comm.mutable_faults();
      f->rows_clipped += decision.rows_clipped;
      if (decision.verdict != AdmissionVerdict::kAccept) {
        if (decision.verdict == AdmissionVerdict::kRejectNonFinite) {
          f->rejected_nonfinite++;
          TraceFault("reject_nonfinite", "admission", u, now);
        } else {
          f->rejected_outlier++;
          TraceFault("reject_outlier", "admission", u, now);
        }
        f->quarantines++;
        if (gate_) gate_->Quarantine(u, now);
        queue_->Requeue(u);
        return false;
      }
    }
    MergeOne(u, *update);
    if (gate_) gate_->OnSuccess(u);
    return true;
  }

  /// Resolves one trained client's upload against its drawn fault
  /// (synchronous schedule). Returns true when the update merged — only
  /// merged clients extend the round barrier.
  bool ResolveUpload(UserId u, FaultKind fk, uint64_t key,
                     LocalUpdateResult* update) {
    FaultStats* f = result_.comm.mutable_faults();
    f->nonfinite_grad_steps += update->nonfinite_grad_steps;
    switch (fk) {
      case FaultKind::kCrash:
        f->crashed++;
        TraceFault("crash", "fault", u, sim_clock_);
        FailAndRequeue(u, sim_clock_);
        return false;
      case FaultKind::kUploadLoss:
        f->upload_lost++;
        TraceFault("upload_loss", "fault", u, sim_clock_);
        FailAndRequeue(u, sim_clock_);
        return false;
      case FaultKind::kDuplicate:
        // Delivered twice; the server dedups by (client, round id), so the
        // redundant copy shows up only in the fault counters.
        f->duplicates++;
        TraceFault("duplicate", "fault", u, sim_clock_);
        break;
      case FaultKind::kCorrupt:
        f->corrupted++;
        TraceFault("corrupt", "fault", u, sim_clock_);
        injector_->Corrupt(u, key, update);
        break;
      default:
        break;
    }
    return TryMerge(u, update, sim_clock_);
  }

  /// Simulated wall-clock seconds of one full participation: what the wire
  /// actually carries down (`down_scalars`, from AccountDownload) and up
  /// (packed touched rows on the sparse path, the dense delta otherwise),
  /// plus local compute. `time_key` salts the per-participation latency
  /// draw: the round id under the synchronous schedule, the dispatch
  /// sequence number under the asynchronous one.
  double ClientFinishSeconds(UserId u, uint64_t time_key, size_t down_scalars,
                             const LocalUpdateResult& up) const {
    const size_t slot =
        setup_.slot_of_group[static_cast<int>(clients_[u].group)];
    const size_t theta_params = up.params_down - server_->table(slot).size();
    const size_t up_scalars =
        up.sparse ? up.v_delta_sparse.ParamCount() + theta_params
                  : up.params_down;
    return net_->FinishSeconds(u, time_key,
                               down_scalars * cfg_.wire_scalar_bytes,
                               up_scalars * cfg_.wire_scalar_bytes,
                               up.train_samples);
  }

  /// The synchronous round protocol (the paper's), unchanged semantics on
  /// the default path: barrier rounds over the shuffled queue, optional
  /// over-selection, optional fault injection / admission control.
  void SyncEpoch(int epoch) {
    if (resume_mid_epoch_) {
      // Queue contents, loss accumulators and the round budget were
      // restored from the run checkpoint; re-shuffling would diverge.
      resume_mid_epoch_ = false;
    } else {
      queue_->BeginEpoch(&sched_rng_);
      // With availability < 1 offline clients requeue, so an epoch can take
      // more than the nominal number of rounds; the budget bounds the tail
      // (P(still queued) decays geometrically) so a tiny p cannot hang a
      // run.
      round_budget_ = 10 * queue_->rounds_per_epoch() + 10;
    }
    while (!queue_->Exhausted() && round_budget_ > 0) {
      --round_budget_;
      const std::vector<UserId> selected = queue_->NextRound();
      server_->BeginRound();
      const uint64_t round_id = server_->versions().round();
      // "All Large/Exclusive": data-poor clients are excluded from the
      // federation entirely — they receive the global model for
      // inference but are never selected for training, so even their
      // private user embeddings stay at initialization. This matches the
      // severity of the paper's reported drop (Table II). Offline clients
      // re-enter the queue and are tried again in a later round.
      std::vector<UserId> work;
      std::vector<FaultKind> fault;  // aligned with work (kNone when off)
      work.reserve(selected.size());
      fault.reserve(selected.size());
      for (UserId u : selected) {
        if (setup_.excluded[static_cast<int>(clients_[u].group)]) continue;
        if (gate_ && !gate_->Ready(u, sim_clock_)) {
          // Backing off after a failure or quarantined: not selectable yet.
          queue_->Requeue(u);
          continue;
        }
        if (!net_->Online(u, round_id)) {
          queue_->Requeue(u);
          continue;
        }
        const FaultKind fk =
            injector_ ? injector_->Draw(u, round_id) : FaultKind::kNone;
        if (fk == FaultKind::kDownloadLoss) {
          // The model never reaches the client: no download accounting, no
          // training — the client retries after backoff.
          result_.comm.mutable_faults()->download_lost++;
          TraceFault("download_loss", "fault", u, sim_clock_);
          FailAndRequeue(u, sim_clock_);
          continue;
        }
        work.push_back(u);
        fault.push_back(fk);
      }

      // The round's barrier in simulated time: the server applies the
      // aggregate only once its slowest *merged* client has finished.
      double round_seconds = 0.0;
      size_t merged_count = 0;
      // While the round is open sim_clock_ is the round's start instant;
      // every trace event inside the round is stamped with it, and the
      // barrier-close events below with round_start + round_seconds.
      const double round_start = sim_clock_;

      // Clients of a batch train in parallel (each mutates only its own
      // ClientState and its thread's LocalTrainer scratch; the server and
      // dataset are read-only during the batch). Updates land in
      // per-client slots and merge into the server afterwards in batch
      // order, so results are bit-identical for every thread count.
      if (!over_select_ && pool_->num_workers() == 0) {
        // Serial: merge each update immediately so only one is ever live
        // (a full batch of dense reference deltas would be large).
        LocalUpdateResult update;
        for (size_t k = 0; k < work.size(); ++k) {
          TrainOneFaulted(work[k], 0, fault[k], &update);
          const size_t shipped = AccountDownload(work[k], update);
          if (ResolveUpload(work[k], fault[k], round_id, &update)) {
            const double fin =
                ClientFinishSeconds(work[k], round_id, shipped, update);
            round_seconds = std::max(round_seconds, fin);
            ++merged_count;
            if (trace_) trace_round_merges_.push_back(work[k]);
            TraceTransfer(work[k], round_start, fin, /*merged=*/true);
          }
        }
      } else {
        std::vector<LocalUpdateResult> updates(work.size());
        if (pool_->num_workers() == 0) {
          for (size_t k = 0; k < work.size(); ++k) {
            TrainOneFaulted(work[k], 0, fault[k], &updates[k]);
          }
        } else {
          pool_->ParallelFor(work.size(), [&](size_t k, size_t slot_idx) {
            TrainOneFaulted(work[k], slot_idx, fault[k], &updates[k]);
          });
        }
        if (!over_select_) {
          for (size_t k = 0; k < work.size(); ++k) {
            const size_t shipped = AccountDownload(work[k], updates[k]);
            if (ResolveUpload(work[k], fault[k], round_id, &updates[k])) {
              const double fin = ClientFinishSeconds(work[k], round_id,
                                                     shipped, updates[k]);
              round_seconds = std::max(round_seconds, fin);
              ++merged_count;
              if (trace_) trace_round_merges_.push_back(work[k]);
              TraceTransfer(work[k], round_start, fin, /*merged=*/true);
            }
          }
        } else {
          // Over-selection: every selected client downloads and trains
          // (its replica, embedding and RNG advance), but only the first
          // clients_per_round simulated completions merge — in batch
          // order, so results stay thread-count independent. Stragglers
          // and deadline misses are discarded and re-queued; crashed and
          // upload-lost clients never complete, so they leave the ranking
          // entirely.
          std::vector<double> finish(work.size());
          std::vector<uint8_t> eligible(work.size(), 1);
          for (size_t k = 0; k < work.size(); ++k) {
            const size_t down_scalars = AccountDownload(work[k], updates[k]);
            finish[k] = ClientFinishSeconds(work[k], round_id, down_scalars,
                                            updates[k]);
            if (fault[k] == FaultKind::kCrash ||
                fault[k] == FaultKind::kUploadLoss) {
              FaultStats* f = result_.comm.mutable_faults();
              f->nonfinite_grad_steps += updates[k].nonfinite_grad_steps;
              if (fault[k] == FaultKind::kCrash) {
                f->crashed++;
                TraceFault("crash", "fault", work[k], sim_clock_);
              } else {
                f->upload_lost++;
                TraceFault("upload_loss", "fault", work[k], sim_clock_);
              }
              FailAndRequeue(work[k], sim_clock_);
              eligible[k] = 0;
            }
          }
          std::vector<size_t> order(work.size());
          std::iota(order.begin(), order.end(), 0);
          std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
            return finish[a] != finish[b] ? finish[a] < finish[b] : a < b;
          });
          std::vector<uint8_t> merged(work.size(), 0);
          size_t taken = 0;
          bool deadline_cut = false;
          for (size_t k : order) {
            if (!eligible[k]) continue;
            if (taken >= cfg_.clients_per_round) break;
            if (cfg_.round_deadline > 0.0 &&
                finish[k] > cfg_.round_deadline) {
              deadline_cut = true;
              break;  // order is sorted: everyone later missed it too
            }
            merged[k] = 1;
            taken++;
          }
          for (size_t k = 0; k < work.size(); ++k) {
            if (!eligible[k]) continue;
            // Stragglers transferred too (their download is on the wire);
            // the merged flag separates the two populations in the trace.
            TraceTransfer(work[k], round_start, finish[k], merged[k] != 0);
            if (merged[k]) {
              if (ResolveUpload(work[k], fault[k], round_id, &updates[k])) {
                round_seconds = std::max(round_seconds, finish[k]);
                ++merged_count;
                if (trace_) trace_round_merges_.push_back(work[k]);
              }
            } else {
              queue_->Requeue(work[k]);
            }
          }
          if (deadline_cut) {
            // The quota went unfilled because clients missed the deadline:
            // the server waited the deadline out before closing the round.
            round_seconds = cfg_.round_deadline;
          }
        }
      }
      server_->FinishRound();
      if (setup_.reskd) {
        server_->Distill(kd_opts_, &kd_rng_);
        if (tel_) metrics_.distills->Increment();
      }
      sim_clock_ += round_seconds;
      ++rounds_done_;
      if (trace_) {
        // Barrier close: the round span, then the merges it applied and the
        // distillation, all at the close instant (ts stays monotone — every
        // in-round event above was stamped with round_start).
        JsonObj args;
        args.U64("round", rounds_done_)
            .U64("merged", merged_count)
            .U64("queue", queue_->pending());
        trace_->Complete("round", "server", round_start, round_seconds,
                         kServerTrack, args.Build());
        for (const UserId u : trace_round_merges_) {
          JsonObj margs;
          margs.U64("user", u);
          trace_->Instant("merge", "server", sim_clock_, kServerTrack,
                          margs.Build());
        }
        if (setup_.reskd) {
          trace_->Instant("distill", "server", sim_clock_, kServerTrack);
        }
      }
      trace_round_merges_.clear();
      TelemetryRound(epoch, round_seconds, merged_count);
      if (cfg_.debug_stop_after_rounds > 0 &&
          rounds_done_ >= cfg_.debug_stop_after_rounds) {
        // Simulated crash: the round that just completed is never
        // checkpointed, exactly like a kill between rounds.
        stopped_ = true;
        return;
      }
      if (cfg_.checkpoint_every > 0 &&
          rounds_done_ % cfg_.checkpoint_every == 0) {
        WriteRunCheckpoint(epoch, /*mid_epoch=*/true);
      }
    }
    if (!queue_->Exhausted()) {
      HFR_LOG(Warning) << "epoch " << epoch
                       << " round budget exhausted with " << queue_->pending()
                       << " clients still queued (availability="
                       << cfg_.availability
                       << "); dropping them until next epoch";
    }
  }

  /// Fills free in-flight slots from the queue at the current virtual
  /// instant. The collected batch trains in parallel against the current
  /// tables — every client of one dispatch batch downloads the same model
  /// version, which is what dispatching at one virtual instant means.
  /// Offline clients requeue (a fresh availability draw at their next
  /// dispatch attempt); excluded groups never dispatch.
  void AsyncDispatch(size_t* budget) {
    HFR_CHECK_GE(async_inflight_, agg_->in_flight());
    const size_t free_slots = async_inflight_ - agg_->in_flight();
    dispatch_users_.clear();
    dispatch_seqs_.clear();
    dispatch_faults_.clear();
    const double now = agg_->clock_seconds();
    while (dispatch_users_.size() < free_slots && !queue_->Exhausted() &&
           *budget > 0) {
      --*budget;
      const UserId u = queue_->PopNext();
      if (setup_.excluded[static_cast<int>(clients_[u].group)]) continue;
      if (gate_ && !gate_->Ready(u, now)) {
        // Backing off after a failure or quarantined: not selectable yet.
        queue_->Requeue(u);
        continue;
      }
      const uint64_t seq = dispatch_seq_++;
      if (!net_->Online(u, seq)) {
        queue_->Requeue(u);
        continue;
      }
      const FaultKind fk =
          injector_ ? injector_->Draw(u, seq) : FaultKind::kNone;
      if (fk == FaultKind::kDownloadLoss) {
        // The model never reaches the client: no download accounting, no
        // training — the client retries after backoff.
        result_.comm.mutable_faults()->download_lost++;
        TraceFault("download_loss", "fault", u, now);
        FailAndRequeue(u, now);
        continue;
      }
      dispatch_users_.push_back(u);
      dispatch_seqs_.push_back(seq);
      dispatch_faults_.push_back(fk);
    }
    if (dispatch_users_.empty()) return;

    // In-flight updates must coexist (they are "on the wire"), unlike the
    // synchronous serial path's merge-immediately economy; on the default
    // sparse path each holds only its touched rows.
    dispatch_updates_.resize(dispatch_users_.size());
    const uint64_t version = server_->versions().round();
    if (pool_->num_workers() == 0) {
      for (size_t k = 0; k < dispatch_users_.size(); ++k) {
        TrainOneFaulted(dispatch_users_[k], 0, dispatch_faults_[k],
                        &dispatch_updates_[k]);
      }
    } else {
      pool_->ParallelFor(dispatch_users_.size(),
                         [&](size_t k, size_t slot_idx) {
                           TrainOneFaulted(dispatch_users_[k], slot_idx,
                                           dispatch_faults_[k],
                                           &dispatch_updates_[k]);
                         });
    }
    // Replica commits and the completion events in dispatch order.
    for (size_t k = 0; k < dispatch_users_.size(); ++k) {
      const UserId u = dispatch_users_[k];
      const FaultKind fk = dispatch_faults_[k];
      const size_t shipped = AccountDownload(u, dispatch_updates_[k]);
      FaultStats* f = result_.comm.mutable_faults();
      f->nonfinite_grad_steps += dispatch_updates_[k].nonfinite_grad_steps;
      if (fk == FaultKind::kCrash || fk == FaultKind::kUploadLoss) {
        // The download happened (the replica committed) but no completion
        // event will ever arrive; the client retries after backoff.
        if (fk == FaultKind::kCrash) {
          f->crashed++;
          TraceFault("crash", "fault", u, now);
        } else {
          f->upload_lost++;
          TraceFault("upload_loss", "fault", u, now);
        }
        FailAndRequeue(u, now);
        continue;
      }
      if (fk == FaultKind::kDuplicate) {
        f->duplicates++;
        TraceFault("duplicate", "fault", u, now);
      }
      if (fk == FaultKind::kCorrupt) {
        f->corrupted++;
        TraceFault("corrupt", "fault", u, now);
        injector_->Corrupt(u, dispatch_seqs_[k], &dispatch_updates_[k]);
      }
      const double finish =
          agg_->clock_seconds() +
          ClientFinishSeconds(u, dispatch_seqs_[k], shipped,
                              dispatch_updates_[k]);
      if (trace_) {
        JsonObj args;
        args.U64("user", u).U64("seq", dispatch_seqs_[k]);
        trace_->Complete("transfer", "net", agg_->clock_seconds(),
                         finish - agg_->clock_seconds(),
                         GroupTrack(clients_[u].group), args.Build());
      }
      agg_->Submit(
          u, &setup_.tasks_of_group[static_cast<int>(clients_[u].group)],
          std::move(dispatch_updates_[k]), version, finish);
    }
    dispatch_updates_.clear();
  }

  /// Merge-on-arrival: completions pop in virtual-time order and merge (or
  /// drop) immediately; freed slots re-dispatch every async_dispatch_batch
  /// merges. The epoch ends when the queue is drained and every in-flight
  /// completion has arrived — the virtual clock runs on across epochs.
  void AsyncEpoch(int epoch) {
    queue_->BeginEpoch(&sched_rng_);
    // Dispatch-attempt budget, same role as the sync round budget: with
    // availability < 1 (or a tight staleness cap) clients requeue, and the
    // geometric retry tail must not be able to hang a run.
    size_t budget = 10 * dataset_.num_users() + 10 * async_inflight_;
    AsyncDispatch(&budget);
    size_t since_dispatch = 0;
    while (!agg_->empty()) {
      AsyncAggregator::Outcome out =
          agg_->MergeNext(kd_opts_, setup_.reskd ? &kd_rng_ : nullptr);
      const Group g = clients_[out.user].group;
      if (out.merged) {
        result_.comm.RecordUpload(g, out.params_up);
        result_.comm.mutable_faults()->rows_clipped += out.rows_clipped;
        loss_sum_ += out.train_loss;
        loss_count_++;
        if (gate_) gate_->OnSuccess(out.user);
        ++rounds_done_;
        if (tel_) metrics_.staleness->Observe(static_cast<double>(out.staleness));
        if (trace_) {
          JsonObj args;
          args.U64("user", out.user)
              .U64("staleness", out.staleness)
              .Num("weight", out.weight);
          trace_->Instant("merge", "server", out.finish_seconds, kServerTrack,
                          args.Build());
        }
        // The async "round" is a merge batch: every clients_per_round-th
        // merge closes one for the metrics stream.
        if (++async_merges_in_row_ >= cfg_.clients_per_round) {
          FlushAsyncRound(epoch);
        }
        if (cfg_.debug_stop_after_rounds > 0 &&
            rounds_done_ >= cfg_.debug_stop_after_rounds) {
          // Simulated crash mid-epoch: in-flight events are simply lost.
          sim_clock_ = agg_->clock_seconds();
          stopped_ = true;
          return;
        }
      } else if (out.rejected) {
        // Admission control rejected the update: quarantine the client so
        // it re-enters (much later) with a fresh download.
        FaultStats* f = result_.comm.mutable_faults();
        f->rows_clipped += out.rows_clipped;
        if (out.rejected_nonfinite) {
          f->rejected_nonfinite++;
          TraceFault("reject_nonfinite", "admission", out.user,
                     out.finish_seconds);
        } else {
          f->rejected_outlier++;
          TraceFault("reject_outlier", "admission", out.user,
                     out.finish_seconds);
        }
        f->quarantines++;
        if (gate_) gate_->Quarantine(out.user, agg_->clock_seconds());
        queue_->Requeue(out.user);
      } else {
        // Dropped by the staleness cap: the work is discarded and the
        // client re-queued for a fresh download, like a sync straggler.
        result_.comm.RecordDropped(g);
        if (trace_) {
          JsonObj args;
          args.U64("user", out.user).U64("staleness", out.staleness);
          trace_->Instant("drop", "server", out.finish_seconds,
                          GroupTrack(g), args.Build());
        }
        queue_->Requeue(out.user);
      }
      if (out.distilled && tel_) metrics_.distills->Increment();
      if (out.distilled && trace_) {
        trace_->Instant("distill", "server", out.finish_seconds, kServerTrack);
      }
      if (++since_dispatch >= cfg_.async_dispatch_batch || agg_->empty()) {
        AsyncDispatch(&budget);
        since_dispatch = 0;
      }
    }
    if (!queue_->Exhausted()) {
      HFR_LOG(Warning) << "epoch " << epoch
                       << " async dispatch budget exhausted with "
                       << queue_->pending()
                       << " clients still queued (availability="
                       << cfg_.availability
                       << "); dropping them until next epoch";
    }
    sim_clock_ = agg_->clock_seconds();
    // Close the partial merge batch so the epoch's tail still reports.
    FlushAsyncRound(epoch);
  }

  /// Emits the open async merge batch as one metrics round (no-op when
  /// nothing merged since the last row).
  void FlushAsyncRound(int epoch) {
    if (async_merges_in_row_ == 0) return;
    const double now = agg_->clock_seconds();
    const size_t merged = async_merges_in_row_;
    async_merges_in_row_ = 0;
    const double duration = now - async_row_clock_;
    async_row_clock_ = now;
    sim_clock_ = now;
    TelemetryRound(epoch, duration, merged);
  }

  /// fp32 backend: refreshes the float casts of every slot's table and Θ
  /// once per evaluation pass (the server state mutates between passes).
  void RefreshEvalCasts() {
    const size_t ns = server_->num_slots();
    eval_tables_f_.resize(ns);
    eval_thetas_f_.resize(ns);
    for (size_t s = 0; s < ns; ++s) {
      eval_tables_f_[s].AssignCast(server_->table(s));
      eval_thetas_f_[s].AssignCastFrom(server_->theta(s));
    }
  }

  /// fp32 backend: BeginUser with a float cast of the client's persistent
  /// double user embedding (per-thread scratch row).
  ScorerF& BeginUserF(UserId u, size_t thread_slot, size_t slot) {
    const ClientState& c = clients_[u];
    ScorerF& sc = eval_scorers_f_[thread_slot][slot];
    std::vector<float>& uf = eval_user_f_[thread_slot];
    const double* ud = c.user_embedding.Row(0);
    const size_t w = c.user_embedding.cols();
    uf.resize(w);
    for (size_t d = 0; d < w; ++d) uf[d] = static_cast<float>(ud[d]);
    sc.BeginUser(uf.data(), eval_tables_f_[slot], dataset_.TrainItems(u));
    return sc;
  }

  Evaluator::BatchScoreFn MakeScoreFn() {
    if (fp32_) {
      return [this](UserId u, size_t thread_slot,
                    const std::vector<ItemId>& ids, double* out) {
        size_t slot =
            setup_.slot_of_group[static_cast<int>(clients_[u].group)];
        ScorerF& sc = BeginUserF(u, thread_slot, slot);
        ScoreIdsForEval(sc, eval_tables_f_[slot], eval_thetas_f_[slot], ids,
                        cfg_.use_batched_scoring,
                        cfg_.eval_candidate_sample == 0, out);
      };
    }
    return [this](UserId u, size_t thread_slot,
                  const std::vector<ItemId>& ids, double* out) {
      const ClientState& c = clients_[u];
      size_t slot = setup_.slot_of_group[static_cast<int>(c.group)];
      Scorer& sc = eval_scorers_[thread_slot][slot];
      sc.BeginUser(c.user_embedding.Row(0), server_->table(slot),
                   dataset_.TrainItems(u));
      ScoreIdsForEval(sc, server_->table(slot), server_->theta(slot), ids,
                      cfg_.use_batched_scoring,
                      cfg_.eval_candidate_sample == 0, out);
    };
  }

  Evaluator::StreamScoreFn MakeStreamScoreFn() {
    if (fp32_) {
      return [this](UserId u, size_t thread_slot, TopKSelector* sink) {
        size_t slot =
            setup_.slot_of_group[static_cast<int>(clients_[u].group)];
        ScorerF& sc = BeginUserF(u, thread_slot, slot);
        StreamScoresForEval(sc, eval_tables_f_[slot], eval_thetas_f_[slot],
                            cfg_.use_batched_scoring,
                            &eval_stream_bufs_[thread_slot], sink);
      };
    }
    return [this](UserId u, size_t thread_slot, TopKSelector* sink) {
      const ClientState& c = clients_[u];
      size_t slot = setup_.slot_of_group[static_cast<int>(c.group)];
      Scorer& sc = eval_scorers_[thread_slot][slot];
      sc.BeginUser(c.user_embedding.Row(0), server_->table(slot),
                   dataset_.TrainItems(u));
      StreamScoresForEval(sc, server_->table(slot), server_->theta(slot),
                          cfg_.use_batched_scoring,
                          &eval_stream_bufs_[thread_slot], sink);
    };
  }

  /// Full-catalogue evaluation streams score blocks straight into the
  /// top-K sink (no per-user O(items) buffer); the candidate slice and the
  /// partial_sort reference keep the id-list callback.
  GroupedEval RunEvaluation() {
    HFR_PROFILE("eval");
    if (fp32_) RefreshEvalCasts();
    if (cfg_.use_batched_topk && cfg_.eval_candidate_sample == 0) {
      return evaluator_->Evaluate(MakeStreamScoreFn(), pool_.get());
    }
    return evaluator_->Evaluate(MakeScoreFn(), pool_.get());
  }

  /// Writes the full run state to checkpoint_path + ".run" with an atomic
  /// rename (docs/ROBUSTNESS.md "Checkpoint format v2").
  void WriteRunCheckpoint(int next_epoch, bool mid_epoch) {
    HFR_PROFILE("checkpoint");
    if (tel_) metrics_.checkpoints->Increment();
    if (trace_) {
      trace_->Instant("checkpoint", "server", sim_clock_, kServerTrack);
    }
    RunState st;
    st.fingerprint = ConfigFingerprint(cfg_, MethodName(method_));
    st.method = MethodName(method_);
    st.base_model = BaseModelName(cfg_.base_model);
    st.next_epoch = static_cast<uint64_t>(next_epoch);
    st.mid_epoch = mid_epoch ? 1 : 0;
    st.round_budget = round_budget_;
    st.rounds_done = rounds_done_;
    st.dispatch_seq = dispatch_seq_;
    st.loss_sum = loss_sum_;
    st.loss_count = loss_count_;
    st.sim_clock = sim_clock_;
    st.sched_rng = sched_rng_.SaveState();
    st.kd_rng = kd_rng_.SaveState();
    st.client_rngs.reserve(clients_.size());
    st.client_embeddings.reserve(clients_.size());
    for (const ClientState& c : clients_) {
      st.client_rngs.push_back(c.rng.SaveState());
      st.client_embeddings.push_back(c.user_embedding);
    }
    // The server's mutable state crosses through ServerApi::Snapshot, whose
    // layout is shard-count independent — sharded runs checkpoint and
    // resume through the same RunState fields as the single table.
    ServerSnapshot server_snap = server_->Snapshot();
    st.tables = std::move(server_snap.tables);
    st.thetas = std::move(server_snap.thetas);
    st.version_floors = std::move(server_snap.version_floors);
    st.versions = std::move(server_snap.versions);
    st.version_round = server_snap.version_round;
    for (UserId u : queue_->PendingSnapshot()) {
      st.queue_pending.push_back(static_cast<uint64_t>(u));
    }
    if (agg_) {
      st.async_clock = agg_->clock_seconds();
      st.async_next_seq = agg_->next_seq();
      st.async_merged = agg_->merged_updates();
      st.async_dropped = agg_->dropped_updates();
    }
    if (gate_) st.gate_state = gate_->Export();
    if (admission_) st.admission_history = admission_->ExportHistory();
    st.comm_counters = result_.comm.ExportCounters();
    st.history = result_.history;
    if (sync_) {
      st.has_replicas = 1;
      st.replicas.resize(clients_.size());
      std::vector<uint32_t> rows;
      std::vector<uint64_t> row_versions;
      for (size_t u = 0; u < clients_.size(); ++u) {
        const ClientReplica& rep = sync_->replica(static_cast<UserId>(u));
        ReplicaSnapshot& snap = st.replicas[u];
        snap.slot_plus_one =
            rep.slot() == ClientReplica::kNoSlot ? 0 : rep.slot() + 1;
        rep.ExportRows(&rows, &row_versions);
        snap.rows.assign(rows.begin(), rows.end());
        snap.versions = row_versions;
      }
    }
    const Status saved = SaveRunState(cfg_.checkpoint_path + ".run", st);
    if (!saved.ok()) {
      HFR_LOG(Warning) << "run checkpoint save failed: " << saved.ToString();
    }
  }

  /// Restores the state written by WriteRunCheckpoint. Fatal on a missing
  /// file or an experiment mismatch — resuming a different run would
  /// silently produce garbage.
  void LoadRun() {
    const std::string path = cfg_.checkpoint_path + ".run";
    StatusOr<RunState> loaded = LoadRunState(path);
    HFR_CHECK(loaded.ok()) << "resume from " << path
                           << " failed: " << loaded.status().ToString();
    RunState st = std::move(loaded).value();
    HFR_CHECK_EQ(st.fingerprint, ConfigFingerprint(cfg_, MethodName(method_)))
        << " — the checkpoint was written under a different experiment "
           "configuration";
    HFR_CHECK(st.method == MethodName(method_));
    HFR_CHECK(st.base_model == BaseModelName(cfg_.base_model));
    HFR_CHECK_EQ(st.tables.size(), server_->num_slots());
    HFR_CHECK_EQ(st.client_rngs.size(), clients_.size());
    HFR_CHECK_EQ(st.client_embeddings.size(), clients_.size());

    start_epoch_ = static_cast<int>(st.next_epoch);
    resume_mid_epoch_ = st.mid_epoch != 0;
    round_budget_ = st.round_budget;
    rounds_done_ = st.rounds_done;
    dispatch_seq_ = st.dispatch_seq;
    loss_sum_ = st.loss_sum;
    loss_count_ = static_cast<size_t>(st.loss_count);
    sim_clock_ = st.sim_clock;
    sched_rng_.RestoreState(st.sched_rng);
    kd_rng_.RestoreState(st.kd_rng);
    for (size_t u = 0; u < clients_.size(); ++u) {
      clients_[u].rng.RestoreState(st.client_rngs[u]);
      HFR_CHECK_EQ(st.client_embeddings[u].cols(),
                   clients_[u].user_embedding.cols());
      clients_[u].user_embedding = std::move(st.client_embeddings[u]);
    }
    ServerSnapshot server_snap;
    server_snap.tables = std::move(st.tables);
    server_snap.thetas = std::move(st.thetas);
    server_snap.version_round = st.version_round;
    server_snap.version_floors = std::move(st.version_floors);
    server_snap.versions = std::move(st.versions);
    server_->RestoreSnapshot(std::move(server_snap));
    std::vector<UserId> pending;
    pending.reserve(st.queue_pending.size());
    for (uint64_t u : st.queue_pending) {
      pending.push_back(static_cast<UserId>(u));
    }
    queue_->RestorePending(pending);
    if (agg_) {
      agg_->RestoreState(st.async_clock, st.async_next_seq,
                         static_cast<size_t>(st.async_merged),
                         static_cast<size_t>(st.async_dropped));
    }
    HFR_CHECK_EQ(gate_ != nullptr, !st.gate_state.empty());
    if (gate_) gate_->Restore(st.gate_state);
    HFR_CHECK_EQ(admission_ != nullptr, !st.admission_history.empty());
    if (admission_) admission_->RestoreHistory(st.admission_history);
    result_.comm.RestoreCounters(st.comm_counters);
    result_.history = std::move(st.history);
    HFR_CHECK_EQ(st.has_replicas != 0, delta_sync_);
    if (st.has_replicas != 0) {
      HFR_CHECK_EQ(st.replicas.size(), clients_.size());
      for (size_t u = 0; u < clients_.size(); ++u) {
        const ReplicaSnapshot& snap = st.replicas[u];
        ClientReplica* rep = sync_->mutable_replica(static_cast<UserId>(u));
        if (snap.slot_plus_one > 0) {
          rep->set_slot(static_cast<size_t>(snap.slot_plus_one - 1));
        }
        HFR_CHECK_EQ(snap.rows.size(), snap.versions.size());
        // Coldest first: replaying Hold in export order rebuilds the
        // identical LRU recency list.
        for (size_t k = 0; k < snap.rows.size(); ++k) {
          rep->Hold(static_cast<uint32_t>(snap.rows[k]), snap.versions[k]);
        }
      }
    }
  }

  // --- telemetry (docs/OBSERVABILITY.md) --------------------------------
  // Pure observation: nothing below may touch an RNG stream, the virtual
  // clock or any trained value — a telemetry-on run is bit-identical to a
  // telemetry-off one (tests/core/telemetry_equivalence_test.cc). All
  // emission happens on the deterministic main/merge thread.

  static constexpr int kServerTrack = 0;
  static int GroupTrack(Group g) { return 1 + static_cast<int>(g); }

  void SetupTelemetry() {
    if (cfg_.profile) {
      Profiler::Get().Reset();
      Profiler::Get().Enable(true);
    }
    if (cfg_.metrics_out.empty() && cfg_.trace_out.empty() && !cfg_.profile) {
      return;
    }
    TelemetryOptions topt;
    topt.metrics_path = cfg_.metrics_out;
    topt.trace_path = cfg_.trace_out;
    topt.profile = cfg_.profile;
    StatusOr<std::unique_ptr<Telemetry>> tel = Telemetry::Create(topt);
    HFR_CHECK(tel.ok()) << tel.status().ToString();
    tel_ = std::move(tel).value();
    trace_ = tel_->trace();
    metrics_.Register(tel_->registry(), cfg_.async_mode);
    if (trace_) {
      trace_->SetTrackName(kServerTrack, "server");
      for (int g = 0; g < kNumGroups; ++g) {
        trace_->SetTrackName(1 + g,
                             "clients/" + GroupName(static_cast<Group>(g)));
      }
    }
    if (tel_->metrics_on()) {
      JsonObj meta;
      meta.Str("type", "meta")
          .I64("version", 1)
          .Str("method", MethodName(method_))
          .Str("dataset", cfg_.dataset)
          .Num("data_scale", cfg_.data_scale)
          .U64("seed", cfg_.seed)
          .Bool("async", cfg_.async_mode)
          .U64("clients_per_round", cfg_.clients_per_round)
          .I64("epochs", cfg_.global_epochs)
          .Bool("resumed", cfg_.resume_run);
      tel_->WriteRow(meta.Build());
    }
  }

  /// Instant event for an injected fault / admission rejection on the
  /// client's group track.
  void TraceFault(const char* kind, const char* category, UserId u,
                  double ts) {
    if (!trace_) return;
    JsonObj args;
    args.U64("user", u);
    trace_->Instant(kind, category, ts, GroupTrack(clients_[u].group),
                    args.Build());
  }

  /// One synchronous-round client transfer on its group track, spanning the
  /// round start to the client's simulated finish.
  void TraceTransfer(UserId u, double start, double duration, bool merged) {
    if (!trace_) return;
    JsonObj args;
    args.U64("user", u).Bool("merged", merged);
    trace_->Complete("transfer", "net", start, duration,
                     GroupTrack(clients_[u].group), args.Build());
  }

  /// Round close (sync round / async merge batch): snapshot the per-round
  /// traffic, refresh the registry mirrors and stream one "round" row. The
  /// virtual clock (sim_clock_) has already advanced to the close instant.
  void TelemetryRound(int epoch, double duration, size_t merged) {
    if (!tel_ && !cfg_.track_round_comm) return;
    const CommRound rc = result_.comm.SnapshotRound();
    if (cfg_.track_round_comm) result_.round_comm.push_back(rc);
    if (!tel_) return;
    ++telemetry_rounds_;
    merges_total_ += merged;
    RunMetrics::SetTo(metrics_.rounds, telemetry_rounds_);
    RunMetrics::SetTo(metrics_.merges, merges_total_);
    metrics_.MirrorComm(result_.comm);
    metrics_.clock->Set(sim_clock_);
    metrics_.queue_depth->Set(static_cast<double>(queue_->pending()));
    metrics_.round_merged->Set(static_cast<double>(merged));
    metrics_.round_down_scalars->Set(static_cast<double>(rc.DownParams()));
    metrics_.round_up_scalars->Set(static_cast<double>(rc.UpParams()));
    metrics_.loss_mean->Set(
        loss_count_ > 0 ? loss_sum_ / static_cast<double>(loss_count_) : 0.0);
    // Replica cache hit rate: subscribed rows the round did NOT have to
    // ship (fresh in the client replica) over rows subscribed.
    const uint64_t sub = metrics_.rows_subscribed->Value() - rows_sub_seen_;
    const uint64_t ship = metrics_.rows_shipped->Value() - rows_ship_seen_;
    rows_sub_seen_ += sub;
    rows_ship_seen_ += ship;
    metrics_.replica_hit_rate->Set(
        sub > 0 ? 1.0 - static_cast<double>(ship) / static_cast<double>(sub)
                : 0.0);
    metrics_.round_seconds->Observe(duration);
    if (tel_->metrics_on()) {
      JsonObj row;
      row.U64("round", telemetry_rounds_);
      row.Str("type", "round")
          .I64("epoch", epoch)
          .Num("clock", sim_clock_)
          .Num("duration", duration)
          .U64("merged", merged)
          .U64("queue", queue_->pending())
          .Raw("metrics", tel_->registry()->ToJson());
      tel_->WriteRow(row.Build());
    }
  }

  void TelemetryEval(const EpochPoint& point) {
    if (!tel_) return;
    metrics_.eval_recall->Set(point.eval.overall.recall);
    metrics_.eval_ndcg->Set(point.eval.overall.ndcg);
    if (trace_) {
      JsonObj args;
      args.Num("recall", point.eval.overall.recall)
          .Num("ndcg", point.eval.overall.ndcg);
      trace_->Instant("eval", "server", sim_clock_, kServerTrack,
                      args.Build());
    }
    if (!tel_->metrics_on()) return;
    std::string groups = "[";
    for (int g = 0; g < kNumGroups; ++g) {
      if (g) groups += ',';
      const EvalResult& e = point.eval.per_group[g];
      JsonObj go;
      go.Str("group", GroupName(static_cast<Group>(g)))
          .Num("recall", e.recall)
          .Num("ndcg", e.ndcg)
          .U64("users", e.users);
      groups += go.Build();
    }
    groups += ']';
    JsonObj row;
    row.Str("type", "eval")
        .I64("epoch", point.epoch)
        .Num("clock", point.simulated_seconds)
        .Num("recall", point.eval.overall.recall)
        .Num("ndcg", point.eval.overall.ndcg)
        .Num("loss", point.mean_train_loss)
        .Raw("groups", groups);
    tel_->WriteRow(row.Build());
  }

  /// End of run (normal or debug-kill): profile table, summary row, flush.
  /// Wall-clock profile numbers are nondeterministic, so they are confined
  /// to "profile" rows and stderr — never the round/summary rows the
  /// determinism tests byte-compare.
  void TelemetryFinish() {
    if (cfg_.profile) {
      const std::vector<Profiler::PhaseStat> stats = Profiler::Get().Collect();
      Profiler::Get().Enable(false);
      HFR_LOG(Info) << "phase profile (wall seconds):\n"
                    << Profiler::Render(stats);
      if (tel_ && tel_->metrics_on()) {
        for (const Profiler::PhaseStat& s : stats) {
          JsonObj row;
          row.Str("type", "profile")
              .Str("path", s.path)
              .U64("calls", s.calls)
              .Num("total_s", s.total_seconds)
              .Num("self_s", s.self_seconds);
          tel_->WriteRow(row.Build());
        }
      }
    }
    if (!tel_) return;
    if (tel_->metrics_on()) {
      metrics_.MirrorComm(result_.comm);
      metrics_.clock->Set(sim_clock_);
      JsonObj row;
      row.Str("type", "summary")
          .U64("rounds", telemetry_rounds_)
          .U64("merges", merges_total_)
          .Num("clock", sim_clock_)
          .Num("recall", result_.final_eval.overall.recall)
          .Num("ndcg", result_.final_eval.overall.ndcg)
          .U64("total_scalars", result_.comm.TotalTransmitted())
          .U64("total_bytes", result_.comm.TotalBytes())
          .U64("dropped", result_.comm.TotalDropped())
          .Raw("metrics", tel_->registry()->ToJson());
      tel_->WriteRow(row.Build());
    }
    const Status flushed = tel_->Flush();
    if (!flushed.ok()) {
      HFR_LOG(Warning) << "telemetry flush failed: " << flushed.ToString();
    }
  }

  const ExperimentConfig& cfg_;
  const Dataset& dataset_;
  const GroupAssignment& groups_;
  MethodSetup setup_;
  Method method_;
  Timer timer_;  // wall clock, started at construction like the old loop
  Rng root_;

  std::unique_ptr<ServerApi> server_;
  std::vector<ClientState> clients_;
  std::unique_ptr<ThreadPool> pool_;
  std::vector<std::unique_ptr<LocalTrainer>> trainers_;
  std::unique_ptr<ClientQueue> queue_;
  Rng sched_rng_{0};
  Rng kd_rng_{0};
  DistillationOptions kd_opts_;
  bool delta_sync_ = false;
  std::unique_ptr<SyncService> sync_;
  std::unique_ptr<SimulatedNetwork> net_;
  bool over_select_ = false;
  std::unique_ptr<Evaluator> evaluator_;
  std::vector<std::vector<Scorer>> eval_scorers_;
  std::vector<std::vector<double>> eval_stream_bufs_;  // per-thread blocks

  // fp32 backend evaluation state (empty on fp64): float scorers mirror
  // eval_scorers_; the table/Θ casts refresh once per evaluation pass.
  const bool fp32_;
  std::vector<std::vector<ScorerF>> eval_scorers_f_;
  std::vector<MatrixF> eval_tables_f_;
  std::vector<FeedForwardNetF> eval_thetas_f_;
  std::vector<std::vector<float>> eval_user_f_;  // per-thread cast user rows

  // Robustness layer (docs/ROBUSTNESS.md); all null on default configs.
  std::unique_ptr<FaultInjector> injector_;
  std::unique_ptr<ClientGate> gate_;
  std::unique_ptr<AdmissionController> admission_;

  // Run-checkpoint / kill-hook state (docs/ROBUSTNESS.md).
  int start_epoch_ = 1;           // first epoch to run (resume skips ahead)
  bool resume_mid_epoch_ = false; // continue a checkpointed epoch's queue
  bool stopped_ = false;          // the debug kill hook fired
  uint64_t rounds_done_ = 0;      // completed rounds (sync) / merges (async)
  uint64_t round_budget_ = 0;     // remaining sync-epoch round budget

  // Async schedule state.
  std::unique_ptr<AsyncAggregator> agg_;
  size_t async_inflight_ = 0;
  uint64_t dispatch_seq_ = 0;  // monotone across epochs; salts net draws
  std::vector<UserId> dispatch_users_;
  std::vector<uint64_t> dispatch_seqs_;
  std::vector<FaultKind> dispatch_faults_;
  std::vector<LocalUpdateResult> dispatch_updates_;

  ExperimentResult result_;
  double loss_sum_ = 0.0;
  size_t loss_count_ = 0;
  double sim_clock_ = 0.0;

  // Telemetry (null / empty when every telemetry flag is off).
  std::unique_ptr<Telemetry> tel_;
  TraceRecorder* trace_ = nullptr;  // borrowed from tel_; null when off
  RunMetrics metrics_;
  uint64_t telemetry_rounds_ = 0;  // "round" rows emitted (sync rounds or
                                   // async merge batches)
  uint64_t merges_total_ = 0;      // cumulative merged client updates
  std::vector<UserId> trace_round_merges_;  // merged users of the open round
  size_t async_merges_in_row_ = 0;  // merges since the last async batch row
  double async_row_clock_ = 0.0;    // clock at the last async batch close
  uint64_t rows_sub_seen_ = 0;      // row-subscription counters already
  uint64_t rows_ship_seen_ = 0;     // folded into the hit-rate gauge
};

}  // namespace

ExperimentRunner::ExperimentRunner(ExperimentConfig config, Dataset dataset,
                                   GroupAssignment groups)
    : config_(std::move(config)),
      dataset_(std::move(dataset)),
      groups_(std::move(groups)) {}

StatusOr<std::unique_ptr<ExperimentRunner>> ExperimentRunner::Create(
    const ExperimentConfig& config) {
  HFR_RETURN_NOT_OK(config.Validate());
  auto data_cfg = DatasetConfigByName(config.dataset, config.data_scale);
  if (!data_cfg.ok()) return data_cfg.status();
  std::vector<Interaction> interactions = GenerateInteractions(*data_cfg);
  SplitOptions split;
  split.seed = config.seed ^ 0x5eedULL;
  auto ds = Dataset::FromInteractions(interactions, data_cfg->num_users,
                                      data_cfg->num_items, split);
  if (!ds.ok()) return ds.status();
  // Every item-range shard owns at least one row.
  if (config.server_shards > ds->num_items()) {
    return Status::InvalidArgument(
        "server_shards (" + std::to_string(config.server_shards) +
        ") exceeds the item catalogue size (" +
        std::to_string(ds->num_items()) + ")");
  }
  auto groups = AssignGroups(*ds, config.group_fractions);
  if (!groups.ok()) return groups.status();
  return std::unique_ptr<ExperimentRunner>(new ExperimentRunner(
      config, std::move(ds).value(), std::move(groups).value()));
}

ExperimentResult ExperimentRunner::Run(Method method) const {
  if (method == Method::kStandalone) return RunStandalone();
  return RunFederated(method);
}

ExperimentResult ExperimentRunner::RunFederated(Method method) const {
  FederatedRun run(config_, dataset_, groups_, method);
  return run.Run();
}

ExperimentResult ExperimentRunner::RunStandalone() const {
  const ExperimentConfig& cfg = config_;
  // Standalone has no rounds or network, so only the phase profiler
  // applies; the metrics/trace outputs are federated-run features.
  if (cfg.profile) {
    Profiler::Get().Reset();
    Profiler::Get().Enable(true);
  }
  Timer timer;
  Rng root(cfg.seed);
  Rng init_rng = root.Fork(4);
  const bool fp32 = cfg.compute_backend != ComputeBackend::kFp64;
  ActivateBackend(cfg.compute_backend);

  // Standalone users never interact, so evaluation (train + score per
  // user) parallelizes over users like the federated eval does; each
  // thread slot owns a LocalTrainer (scratch is not shareable).
  ThreadPool pool(EffectiveThreads(cfg) - 1);
  std::vector<std::unique_ptr<LocalTrainer>> locals;
  locals.reserve(pool.num_slots());
  for (size_t t = 0; t < pool.num_slots(); ++t) {
    locals.push_back(std::make_unique<LocalTrainer>(dataset_, cfg.base_model));
  }
  Evaluator evaluator(dataset_, groups_, cfg.top_k, cfg.eval_user_sample,
                      cfg.seed ^ 0xe5a1ULL, cfg.eval_candidate_sample,
                      cfg.use_batched_topk);

  // Train-and-score each evaluated user in isolation: no parameters are
  // ever exchanged, which is exactly the baseline's premise. Training
  // budget matches federated clients: global_epochs x local_epochs local
  // passes over the user's own data.
  auto train_user = [&](UserId u, size_t thread_slot, Matrix* table,
                        FeedForwardNet* theta, ClientState* client) {
    LocalTrainer& local = *locals[thread_slot];
    Group g = groups_.of(u);
    size_t width = cfg.dims[static_cast<int>(g)];
    *table = Matrix(dataset_.num_items(), width);
    Rng user_init = init_rng.Fork(u);
    InitNormal(table, cfg.embed_init_std, &user_init);
    *theta = FeedForwardNet(2 * width,
                            {cfg.ffn_hidden[0], cfg.ffn_hidden[1]});
    theta->InitXavier(&user_init);

    InitClient(client, u, g, width, cfg.embed_init_std, root);

    std::vector<LocalTaskSpec> tasks = {LocalTaskSpec{0, width}};
    LocalTrainerOptions lopt;
    lopt.local_epochs = cfg.global_epochs * cfg.local_epochs;
    lopt.lr = cfg.lr;
    lopt.apply_ddr = false;
    lopt.use_sparse = cfg.use_sparse_updates;
    lopt.use_batched = cfg.use_batched_scoring;
    lopt.sparse_comm_accounting = cfg.sparse_comm_accounting;
    lopt.backend = cfg.compute_backend;
    LocalUpdateResult update =
        local.Train(client, *table, {theta}, tasks, lopt);
    if (update.sparse) {
      update.v_delta_sparse.AddScaledTo(table, 1.0);
    } else {
      table->AddScaled(update.v_delta, 1.0);
    }
    theta->AddScaled(update.theta_deltas[0], 1.0);
  };

  // fp32 backend: score the freshly trained user through float casts of
  // its table/Θ (training itself already ran in float via lopt.backend).
  auto cast_user = [&](const Matrix& table, const FeedForwardNet& theta,
                       const ClientState& client, MatrixF* tf,
                       FeedForwardNetF* thf, std::vector<float>* uf) {
    tf->AssignCast(table);
    thf->AssignCastFrom(theta);
    const double* ud = client.user_embedding.Row(0);
    uf->resize(table.cols());
    for (size_t d = 0; d < uf->size(); ++d) {
      (*uf)[d] = static_cast<float>(ud[d]);
    }
  };

  ExperimentResult result;
  if (cfg.use_batched_topk && cfg.eval_candidate_sample == 0) {
    // Fused path: trained scores stream into the top-K sink per block.
    std::vector<std::vector<double>> stream_bufs(pool.num_slots());
    auto stream_fn = [&](UserId u, size_t thread_slot, TopKSelector* sink) {
      Matrix table;
      FeedForwardNet theta;
      ClientState client;
      train_user(u, thread_slot, &table, &theta, &client);
      if (fp32) {
        MatrixF tf;
        FeedForwardNetF thf;
        std::vector<float> uf;
        cast_user(table, theta, client, &tf, &thf, &uf);
        ScorerF sc(cfg.base_model, table.cols());
        sc.BeginUser(uf.data(), tf, dataset_.TrainItems(u));
        StreamScoresForEval(sc, tf, thf, cfg.use_batched_scoring,
                            &stream_bufs[thread_slot], sink);
        return;
      }
      Scorer sc(cfg.base_model, table.cols());
      sc.BeginUser(client.user_embedding.Row(0), table,
                   dataset_.TrainItems(u));
      StreamScoresForEval(sc, table, theta, cfg.use_batched_scoring,
                          &stream_bufs[thread_slot], sink);
    };
    result.final_eval =
        evaluator.Evaluate(Evaluator::StreamScoreFn(stream_fn), &pool);
  } else {
    auto score_fn = [&](UserId u, size_t thread_slot,
                        const std::vector<ItemId>& ids, double* out) {
      Matrix table;
      FeedForwardNet theta;
      ClientState client;
      train_user(u, thread_slot, &table, &theta, &client);
      if (fp32) {
        MatrixF tf;
        FeedForwardNetF thf;
        std::vector<float> uf;
        cast_user(table, theta, client, &tf, &thf, &uf);
        ScorerF sc(cfg.base_model, table.cols());
        sc.BeginUser(uf.data(), tf, dataset_.TrainItems(u));
        ScoreIdsForEval(sc, tf, thf, ids, cfg.use_batched_scoring,
                        cfg.eval_candidate_sample == 0, out);
        return;
      }
      Scorer sc(cfg.base_model, table.cols());
      sc.BeginUser(client.user_embedding.Row(0), table,
                   dataset_.TrainItems(u));
      ScoreIdsForEval(sc, table, theta, ids, cfg.use_batched_scoring,
                      cfg.eval_candidate_sample == 0, out);
    };
    result.final_eval =
        evaluator.Evaluate(Evaluator::BatchScoreFn(score_fn), &pool);
  }
  result.train_seconds = timer.Seconds();
  if (cfg.profile) {
    const std::vector<Profiler::PhaseStat> stats = Profiler::Get().Collect();
    Profiler::Get().Enable(false);
    HFR_LOG(Info) << "phase profile (wall seconds):\n"
                  << Profiler::Render(stats);
  }
  return result;
}

}  // namespace hetefedrec
