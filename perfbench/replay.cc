#include "replay.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <type_traits>
#include <utility>

#include "src/core/distillation.h"
#include "src/core/local_trainer.h"
#include "src/data/synthetic.h"
#include "src/eval/evaluator.h"
#include "src/fed/comm.h"
#include "src/fed/fault/admission.h"
#include "src/fed/fault/client_gate.h"
#include "src/fed/fault/fault_injector.h"
#include "src/fed/scheduler.h"
#include "src/fed/shard/sharded_server.h"
#include "src/fed/sync/async_aggregator.h"
#include "src/fed/sync/network.h"
#include "src/fed/sync/sync_service.h"
#include "src/math/backend.h"
#include "src/math/eigen.h"
#include "src/math/stats.h"
#include "src/models/scorer.h"
#include "src/util/logging.h"
#include "src/util/thread_pool.h"
#include "src/util/timer.h"

namespace perfbench {

using namespace hetefedrec;  // NOLINT: benchmark TU over one library

namespace {

/// Local-training spans carry the client's group in their name.
constexpr const char* kTrainSpan[kNumGroups] = {
    "core.local_trainer.train.us", "core.local_trainer.train.um",
    "core.local_trainer.train.ul"};

/// Participation id shared by every span of one (round or dispatch, user).
uint64_t WorkId(uint64_t key, UserId u) { return (key << 32) | u; }

/// ServerApi that forwards every call and spans the mutating ones, so the
/// trainer's and the AsyncAggregator's server calls are timed from outside
/// the library. Mutations run on the main thread only (the ServerApi
/// contract), so spans go to the tracer's main slot.
class TracedServer final : public ServerApi {
 public:
  TracedServer(std::unique_ptr<ServerApi> inner, Tracer* tracer)
      : inner_(std::move(inner)), tr_(tracer) {}

  size_t num_slots() const override { return inner_->num_slots(); }
  size_t width(size_t slot) const override { return inner_->width(slot); }
  size_t num_items() const override { return inner_->num_items(); }
  size_t SlotParamCount(size_t slot) const override {
    return inner_->SlotParamCount(slot);
  }
  size_t num_shards() const override { return inner_->num_shards(); }
  size_t shard_of_row(size_t row) const override {
    return inner_->shard_of_row(row);
  }
  uint64_t shard_upload_scalars(size_t shard) const override {
    return inner_->shard_upload_scalars(shard);
  }
  const Matrix& table(size_t slot) const override {
    return inner_->table(slot);
  }
  const FeedForwardNet& theta(size_t slot) const override {
    return inner_->theta(slot);
  }
  const VersionView& versions() const override { return inner_->versions(); }

  void BeginRound() override {
    ScopedSpan s(tr_, tr_->main_slot(), "core.server.begin_round");
    inner_->BeginRound();
  }
  void UploadDelta(const std::vector<LocalTaskSpec>& tasks,
                   const LocalUpdateResult& update, double weight) override {
    ScopedSpan s(tr_, tr_->main_slot(), "core.server.upload");
    inner_->UploadDelta(tasks, update, weight);
  }
  void FinishRound() override {
    ScopedSpan s(tr_, tr_->main_slot(), "core.server.finish_round");
    inner_->FinishRound();
  }
  void ApplyUpdate(const std::vector<LocalTaskSpec>& tasks,
                   const LocalUpdateResult& update, double scale) override {
    ScopedSpan s(tr_, tr_->main_slot(), "core.server.apply");
    inner_->ApplyUpdate(tasks, update, scale);
  }
  double Distill(const DistillationOptions& options, Rng* rng) override {
    ScopedSpan s(tr_, tr_->main_slot(), "core.server.distill");
    return inner_->Distill(options, rng);
  }
  void StampRows(size_t slot, const std::vector<uint32_t>& rows) override {
    inner_->StampRows(slot, rows);
  }
  void SetAdmission(AdmissionController* admission) override {
    inner_->SetAdmission(admission);
  }
  bool admission_enabled() const override {
    return inner_->admission_enabled();
  }
  AdmissionDecision Admit(const std::vector<LocalTaskSpec>& tasks,
                          LocalUpdateResult* update) override {
    ScopedSpan s(tr_, tr_->main_slot(), "fed.fault.admit");
    return inner_->Admit(tasks, update);
  }
  ServerSnapshot Snapshot() const override { return inner_->Snapshot(); }
  void RestoreSnapshot(ServerSnapshot snapshot) override {
    inner_->RestoreSnapshot(std::move(snapshot));
  }

 private:
  std::unique_ptr<ServerApi> inner_;
  Tracer* tr_;
};

HeteroServer::Options ServerOptions(const ExperimentConfig& cfg,
                                    size_t num_items) {
  HeteroServer::Options o;
  o.widths = {cfg.dims[0], cfg.dims[1], cfg.dims[2]};
  o.ffn_hidden = cfg.ffn_hidden;
  o.num_items = num_items;
  o.embed_init_std = cfg.embed_init_std;
  o.aggregation = cfg.aggregation;
  o.shared_aggregation = true;
  o.seed = Rng(cfg.seed).Fork(1).Next();
  return o;
}

void InitClients(const ExperimentConfig& cfg, const Dataset& ds,
                 const GroupAssignment& groups,
                 std::vector<ClientState>* clients) {
  const Rng root(cfg.seed);
  clients->resize(ds.num_users());
  for (size_t u = 0; u < clients->size(); ++u) {
    const Group g = groups.of(static_cast<UserId>(u));
    InitClient(&(*clients)[u], static_cast<UserId>(u), g,
               cfg.dims[static_cast<int>(g)], cfg.embed_init_std, root);
  }
}

/// Score blocks of the fused top-K sink, copied from the trainer (which
/// keeps the constant file-local).
constexpr size_t kStreamBlock = 8 * Scorer::kScoreBlock;

/// A copy of the trainer's file-local StreamScoresForEval with a span per
/// scored block and per top-K push; it must follow trainer.cc by hand.
/// `S` is double (fp64) or float (fp32 backends).
template <typename S>
void StreamUser(Tracer* tr, size_t slot, const ScorerT<S>& sc,
                const MatrixT<S>& table, const FeedForwardNetT<S>& theta,
                std::vector<S>* tmp, std::vector<double>* buf,
                TopKSelector* sink) {
  const size_t n = table.rows();
  buf->resize(std::min(kStreamBlock, n));
  tmp->resize(std::min(kStreamBlock, n));
  for (size_t first = 0; first < n; first += kStreamBlock) {
    const size_t bs = std::min(kStreamBlock, n - first);
    {
      ScopedSpan s(tr, slot, "models.scorer.score");
      if constexpr (std::is_same_v<S, double>) {
        sc.ScoreRange(table, theta, static_cast<ItemId>(first), bs,
                      buf->data());
      } else {
        sc.ScoreRange(table, theta, static_cast<ItemId>(first), bs,
                      tmp->data());
        for (size_t i = 0; i < bs; ++i) {
          (*buf)[i] = static_cast<double>((*tmp)[i]);
        }
      }
    }
    ScopedSpan s(tr, slot, "eval.topk.push");
    sink->Push(static_cast<ItemId>(first), buf->data(), bs);
  }
}

/// Per-thread evaluation scratch: one scorer per server slot plus the
/// block buffers, as the trainer keeps them.
template <typename S>
struct EvalScratch {
  std::vector<ScorerT<S>> scorers;
  std::vector<S> user;
  std::vector<S> tmp;
  std::vector<double> buf;
};

/// Full-catalogue evaluation through Evaluator::Evaluate(StreamScoreFn)
/// over `tables`/`thetas` (fp64 views of the server, or fp32 casts).
template <typename S>
GroupedEval EvaluateStream(Tracer* tr, const Evaluator& evaluator,
                           ThreadPool* pool, BaseModel model,
                           const Dataset& ds,
                           const std::vector<ClientState>& clients,
                           const std::vector<const MatrixT<S>*>& tables,
                           const std::vector<const FeedForwardNetT<S>*>& thetas,
                           LayerCounters* layers) {
  const size_t slots = pool == nullptr ? 1 : pool->num_slots();
  std::vector<EvalScratch<S>> scratch(slots);
  for (auto& sc : scratch) {
    for (const MatrixT<S>* t : tables) sc.scorers.emplace_back(model, t->cols());
  }
  auto fn = [&](UserId u, size_t thread_slot, TopKSelector* sink) {
    ScopedSpan span(tr, thread_slot, "eval.user", u);
    const ClientState& c = clients[u];
    const size_t slot = static_cast<size_t>(c.group);
    EvalScratch<S>& es = scratch[thread_slot];
    ScorerT<S>& sc = es.scorers[slot];
    {
      ScopedSpan s(tr, thread_slot, "models.scorer.begin_user");
      const double* ud = c.user_embedding.Row(0);
      const size_t w = c.user_embedding.cols();
      es.user.resize(w);
      for (size_t d = 0; d < w; ++d) es.user[d] = static_cast<S>(ud[d]);
      sc.BeginUser(es.user.data(), *tables[slot], ds.TrainItems(u));
    }
    StreamUser<S>(tr, thread_slot, sc, *tables[slot], *thetas[slot], &es.tmp,
                  &es.buf, sink);
  };
  GroupedEval ev;
  {
    ScopedSpan s(tr, tr->main_slot(), "eval.evaluate");
    ev = evaluator.Evaluate(Evaluator::StreamScoreFn(fn), pool);
  }
  layers->items_scored +=
      static_cast<uint64_t>(evaluator.eval_users().size()) * ds.num_items();
  return ev;
}

/// The federated run of src/core/trainer.cc (FederatedRun), restricted to
/// what the benchmark's workloads configure: HeteFedRec, sparse updates,
/// batched scoring and top-K, no over-selection, checkpoints or telemetry.
class TrainingReplay {
 public:
  TrainingReplay(const ExperimentConfig& cfg, const Dataset& ds,
                 const GroupAssignment& groups, Tracer* tr)
      : cfg_(cfg), ds_(ds), groups_(groups), tr_(tr), main_(tr->main_slot()),
        root_(cfg.seed), fp32_(cfg.compute_backend != ComputeBackend::kFp64) {
    HFR_CHECK(cfg_.use_sparse_updates && cfg_.use_batched_scoring &&
              cfg_.use_batched_topk && cfg_.eval_candidate_sample == 0)
        << "the replay covers the default execution paths only";
    HFR_CHECK(cfg_.straggler_slack == 0 && cfg_.round_deadline == 0.0)
        << "the replay does not cover over-selection";
    HFR_CHECK(cfg_.num_threads > 0);
    ActivateBackend(cfg_.compute_backend);
    for (int g = 0; g < kNumGroups; ++g) {
      if (cfg_.unified_dual_task) {
        for (int t = 0; t <= g; ++t) {
          tasks_[g].push_back(LocalTaskSpec{static_cast<size_t>(t), cfg_.dims[t]});
        }
      } else {
        tasks_[g] = {LocalTaskSpec{static_cast<size_t>(g), cfg_.dims[g]}};
      }
      apply_ddr_[g] = cfg_.decorrelation && g > 0;
    }
    reskd_ = cfg_.ensemble_distillation;
    {
      ScopedSpan s(tr_, main_, "core.server.init");
      server_ = std::make_unique<TracedServer>(
          MakeServer(ServerOptions(cfg_, ds_.num_items()), cfg_.server_shards),
          tr_);
    }
    {
      ScopedSpan s(tr_, main_, "fed.client.init");
      InitClients(cfg_, ds_, groups_, &clients_);
    }
    ScopedSpan s(tr_, main_, "fed.run.init");
    pool_ = std::make_unique<ThreadPool>(cfg_.num_threads - 1);
    HFR_CHECK_EQ(pool_->num_slots(), main_ + 1);
    for (size_t t = 0; t < pool_->num_slots(); ++t) {
      trainers_.push_back(std::make_unique<LocalTrainer>(ds_, cfg_.base_model));
    }
    queue_ = std::make_unique<ClientQueue>(ds_.num_users(),
                                           cfg_.clients_per_round, 0);
    sched_rng_ = root_.Fork(2);
    kd_rng_ = root_.Fork(3);
    kd_opts_.kd_items = cfg_.kd_items;
    kd_opts_.steps = cfg_.kd_steps;
    kd_opts_.lr = cfg_.kd_lr;
    kd_opts_.backend = cfg_.compute_backend;
    if (!cfg_.full_downloads) {
      SyncService::Options so;
      so.verify_values = cfg_.sync_verify_replicas;
      so.replica_cap = cfg_.sync_replica_cap;
      sync_ = std::make_unique<SyncService>(ds_.num_users(), so);
    }
    NetworkOptions no;
    no.availability = cfg_.availability;
    no.bandwidth_bytes_per_sec = cfg_.net_bandwidth;
    no.bandwidth_sigma = cfg_.net_bandwidth_sigma;
    no.latency_seconds = cfg_.net_latency;
    no.latency_sigma = cfg_.net_latency_sigma;
    no.compute_seconds_per_sample = cfg_.net_compute_per_sample;
    no.seed = root_.Fork(5).Next();
    net_ = std::make_unique<SimulatedNetwork>(no);
    const bool any_fault =
        cfg_.fault_upload_loss > 0.0 || cfg_.fault_download_loss > 0.0 ||
        cfg_.fault_crash > 0.0 || cfg_.fault_duplicate > 0.0 ||
        cfg_.fault_corrupt > 0.0;
    if (any_fault) {
      FaultOptions fo;
      fo.upload_loss = cfg_.fault_upload_loss;
      fo.download_loss = cfg_.fault_download_loss;
      fo.crash = cfg_.fault_crash;
      fo.duplicate = cfg_.fault_duplicate;
      fo.corrupt = cfg_.fault_corrupt;
      fo.seed = root_.Fork(6).Next();
      injector_ = std::make_unique<FaultInjector>(fo);
    }
    if (any_fault || cfg_.admission_control) {
      BackoffOptions bo;
      bo.retry_base_seconds = cfg_.fault_retry_base;
      bo.retry_cap_seconds = cfg_.fault_retry_cap;
      bo.quarantine_base_seconds = cfg_.fault_quarantine_base;
      bo.quarantine_cap_seconds = cfg_.fault_quarantine_cap;
      bo.jitter = cfg_.fault_jitter;
      bo.retry_max = cfg_.fault_retry_max;
      bo.seed = root_.Fork(7).Next();
      gate_ = std::make_unique<ClientGate>(ds_.num_users(), bo);
    }
    if (cfg_.admission_control) {
      AdmissionOptions ao;
      ao.max_row_norm = cfg_.admit_max_row_norm;
      ao.outlier_z = cfg_.admit_outlier_z;
      admission_ =
          std::make_unique<AdmissionController>(server_->num_slots(), ao);
      server_->SetAdmission(admission_.get());
    }
    evaluator_ = std::make_unique<Evaluator>(
        ds_, groups_, cfg_.top_k, cfg_.eval_user_sample, cfg_.seed ^ 0xe5a1ULL,
        cfg_.eval_candidate_sample, cfg_.use_batched_topk);
    if (cfg_.async_mode) {
      inflight_ = cfg_.async_inflight > 0 ? cfg_.async_inflight
                                          : cfg_.clients_per_round;
      AsyncAggregator::Options ao;
      ao.staleness_alpha = cfg_.async_staleness_alpha;
      ao.max_staleness = cfg_.async_max_staleness;
      ao.distill_every =
          reskd_ ? (cfg_.async_distill_every > 0 ? cfg_.async_distill_every
                                                 : cfg_.clients_per_round)
                 : 0;
      agg_ = std::make_unique<AsyncAggregator>(server_.get(), ao);
    }
    comm_.set_wire_scalar_bytes(cfg_.wire_scalar_bytes);
  }

  void Run(ReplayResult* out) {
    for (int epoch = 1; epoch <= cfg_.global_epochs; ++epoch) {
      if (cfg_.async_mode) {
        AsyncEpoch();
      } else {
        SyncEpoch();
      }
      const bool last = epoch == cfg_.global_epochs;
      if ((cfg_.eval_every > 0 && epoch % cfg_.eval_every == 0) || last) {
        final_eval_ = Evaluate(&out->layers);
      }
    }
    {
      // The trainer's closing collapse diagnostic (part of every Run).
      ScopedSpan s(tr_, main_, "eval.collapse");
      const Matrix& largest = server_->table(server_->num_slots() - 1);
      bool finite = true;
      for (double v : largest.data()) finite = finite && std::isfinite(v);
      out->counts.collapse_var =
          finite ? Variance(SymmetricEigenvalues(CovarianceMatrix(largest)))
                 : std::numeric_limits<double>::quiet_NaN();
    }
    WorkCounts& c = out->counts;
    for (int g = 0; g < kNumGroups; ++g) {
      const Group grp = static_cast<Group>(g);
      c.participations[g] = comm_.Participations(grp);
      c.merged += comm_.Participations(grp);
      c.params_up += comm_.UpParams(grp);
      c.params_down += comm_.DownParams(grp);
    }
    c.dropped = comm_.TotalDropped();
    c.wire_bytes = comm_.TotalBytes();
    c.sim_s = sim_clock_;
    c.ndcg = final_eval_.overall.ndcg;
    c.recall = final_eval_.overall.recall;
    out->layers.nonfinite_steps = comm_.faults().nonfinite_grad_steps;
    out->layers.train_samples = samples_;
    out->layers.rows_touched = rows_touched_;
    out->layers.rows_subscribed = rows_subscribed_;
    out->layers.rows_shipped = rows_shipped_;
    out->layers.admitted = admitted_;
    out->layers.rejected = rejected_;
  }

 private:
  int G(UserId u) const { return static_cast<int>(clients_[u].group); }

  void TrainOne(UserId u, size_t slot, uint64_t work, int64_t parent,
                FaultKind fk, LocalUpdateResult* out) {
    const int g = G(u);
    ScopedSpan s(tr_, slot, kTrainSpan[g], work, parent);
    std::vector<const FeedForwardNet*> thetas;
    for (const auto& task : tasks_[g]) thetas.push_back(&server_->theta(task.slot));
    LocalTrainerOptions lopt;
    lopt.local_epochs = cfg_.local_epochs;
    lopt.lr = cfg_.lr;
    lopt.apply_ddr = apply_ddr_[g];
    lopt.alpha = cfg_.alpha;
    lopt.ddr_sample_rows = cfg_.ddr_sample_rows;
    lopt.validation_fraction = cfg_.local_validation_fraction;
    lopt.use_sparse = cfg_.use_sparse_updates;
    lopt.use_batched = cfg_.use_batched_scoring;
    lopt.sparse_comm_accounting = cfg_.sparse_comm_accounting;
    lopt.backend = cfg_.compute_backend;
    // A crash loses the local work: the private embedding reverts.
    Matrix saved;
    if (fk == FaultKind::kCrash) saved = clients_[u].user_embedding;
    *out = trainers_[slot]->Train(&clients_[u], server_->table(static_cast<size_t>(g)),
                                  thetas, tasks_[g], lopt);
    if (fk == FaultKind::kCrash) clients_[u].user_embedding = std::move(saved);
  }

  /// Train spans of a batch, then their counters in batch order.
  void TrainBatch(const std::vector<UserId>& users,
                  const std::vector<uint64_t>& keys,
                  const std::vector<FaultKind>& faults,
                  std::vector<LocalUpdateResult>* updates) {
    updates->resize(users.size());
    if (pool_->num_workers() == 0) {
      for (size_t k = 0; k < users.size(); ++k) {
        TrainOne(users[k], 0, WorkId(keys[k], users[k]), -1, faults[k],
                 &(*updates)[k]);
      }
    } else {
      ScopedSpan batch(tr_, main_, "util.thread_pool.parallel_for");
      pool_->ParallelFor(users.size(), [&](size_t k, size_t slot) {
        TrainOne(users[k], slot, WorkId(keys[k], users[k]), batch.id(),
                 faults[k], &(*updates)[k]);
      });
    }
    for (const LocalUpdateResult& up : *updates) CountTrained(up);
  }

  void CountTrained(const LocalUpdateResult& up) {
    samples_ += up.train_samples;
    rows_touched_ += up.v_delta_sparse.num_rows();
  }

  size_t AccountDownload(UserId u, const LocalUpdateResult& update) {
    ScopedSpan s(tr_, main_, "fed.sync.account");
    const size_t slot = static_cast<size_t>(G(u));
    const Matrix& table = server_->table(slot);
    const size_t theta_params = update.params_down - table.size();
    size_t shipped = update.params_down;
    if (sync_ && update.sparse) {
      ScopedSpan p(tr_, main_, "fed.sync.plan");
      SyncPlan plan = sync_->Sync(u, slot, update.read_rows, table,
                                  server_->versions(), theta_params);
      shipped = plan.params;
      rows_subscribed_ += plan.subscribed_rows;
      rows_shipped_ += plan.shipped_rows;
    }
    comm_.RecordDownload(clients_[u].group, cfg_.sparse_comm_accounting
                                                ? shipped
                                                : update.params_down);
    return shipped;
  }

  double FinishSeconds(UserId u, uint64_t key, size_t down,
                       const LocalUpdateResult& up) const {
    const size_t slot = static_cast<size_t>(G(u));
    const size_t theta_params = up.params_down - server_->table(slot).size();
    const size_t up_scalars = up.sparse
                                  ? up.v_delta_sparse.ParamCount() + theta_params
                                  : up.params_down;
    return net_->FinishSeconds(u, key, down * cfg_.wire_scalar_bytes,
                               up_scalars * cfg_.wire_scalar_bytes,
                               up.train_samples);
  }

  void FailAndRequeue(UserId u, double now) {
    FaultStats* f = comm_.mutable_faults();
    if (gate_ && !gate_->RetryAfterFailure(u, now)) {
      f->gave_up++;
      return;
    }
    f->retries++;
    queue_->Requeue(u);
  }

  bool TryMerge(UserId u, LocalUpdateResult* update, double now) {
    if (server_->admission_enabled()) {
      const AdmissionDecision d = server_->Admit(tasks_[G(u)], update);
      FaultStats* f = comm_.mutable_faults();
      f->rows_clipped += d.rows_clipped;
      if (d.verdict != AdmissionVerdict::kAccept) {
        ++rejected_;
        if (d.verdict == AdmissionVerdict::kRejectNonFinite) {
          f->rejected_nonfinite++;
        } else {
          f->rejected_outlier++;
        }
        f->quarantines++;
        if (gate_) gate_->Quarantine(u, now);
        queue_->Requeue(u);
        return false;
      }
      ++admitted_;
    }
    comm_.RecordUpload(clients_[u].group, update->params_up);
    const double weight =
        cfg_.aggregation == AggregationMode::kDataWeighted
            ? static_cast<double>(ds_.TrainItems(u).size())
            : 1.0;
    server_->UploadDelta(tasks_[G(u)], *update, weight);
    if (gate_) gate_->OnSuccess(u);
    return true;
  }

  bool ResolveUpload(UserId u, FaultKind fk, uint64_t key,
                     LocalUpdateResult* update) {
    FaultStats* f = comm_.mutable_faults();
    f->nonfinite_grad_steps += update->nonfinite_grad_steps;
    switch (fk) {
      case FaultKind::kCrash:
        f->crashed++;
        FailAndRequeue(u, sim_clock_);
        return false;
      case FaultKind::kUploadLoss:
        f->upload_lost++;
        FailAndRequeue(u, sim_clock_);
        return false;
      case FaultKind::kDuplicate:
        f->duplicates++;
        break;
      case FaultKind::kCorrupt:
        f->corrupted++;
        injector_->Corrupt(u, key, update);
        break;
      default:
        break;
    }
    return TryMerge(u, update, sim_clock_);
  }

  /// Synchronous selection filter: backing-off and offline clients
  /// requeue, a lost download retries. False when `u` sits this round out.
  bool Admissible(UserId u, uint64_t key, double now, FaultKind* fk) {
    if (gate_ && !gate_->Ready(u, now)) {
      queue_->Requeue(u);
      return false;
    }
    if (!net_->Online(u, key)) {
      queue_->Requeue(u);
      return false;
    }
    *fk = injector_ ? injector_->Draw(u, key) : FaultKind::kNone;
    if (*fk == FaultKind::kDownloadLoss) {
      comm_.mutable_faults()->download_lost++;
      FailAndRequeue(u, now);
      return false;
    }
    return true;
  }

  void SyncEpoch() {
    queue_->BeginEpoch(&sched_rng_);
    size_t budget = 10 * queue_->rounds_per_epoch() + 10;
    while (!queue_->Exhausted() && budget > 0) {
      --budget;
      std::vector<UserId> work;
      std::vector<FaultKind> fault;
      uint64_t round_id = 0;
      {
        ScopedSpan s(tr_, main_, "fed.scheduler.select");
        const std::vector<UserId> selected = queue_->NextRound();
        server_->BeginRound();
        round_id = server_->versions().round();
        for (UserId u : selected) {
          FaultKind fk = FaultKind::kNone;
          if (!Admissible(u, round_id, sim_clock_, &fk)) continue;
          work.push_back(u);
          fault.push_back(fk);
        }
      }
      double round_seconds = 0.0;
      auto merge = [&](size_t k, LocalUpdateResult* up) {
        const UserId u = work[k];
        const size_t shipped = AccountDownload(u, *up);
        ScopedSpan s(tr_, main_, "fed.sync.merge", WorkId(round_id, u));
        if (ResolveUpload(u, fault[k], round_id, up)) {
          round_seconds =
              std::max(round_seconds, FinishSeconds(u, round_id, shipped, *up));
        }
      };
      if (pool_->num_workers() == 0) {
        // Serial: merge each update immediately, as the trainer does.
        LocalUpdateResult update;
        for (size_t k = 0; k < work.size(); ++k) {
          TrainOne(work[k], 0, WorkId(round_id, work[k]), -1, fault[k],
                   &update);
          CountTrained(update);
          merge(k, &update);
        }
      } else {
        std::vector<LocalUpdateResult> updates;
        TrainBatch(work, std::vector<uint64_t>(work.size(), round_id), fault,
                   &updates);
        for (size_t k = 0; k < work.size(); ++k) merge(k, &updates[k]);
      }
      server_->FinishRound();
      if (reskd_) server_->Distill(kd_opts_, &kd_rng_);
      sim_clock_ += round_seconds;
    }
  }

  void AsyncDispatch(size_t* budget) {
    std::vector<UserId> users;
    std::vector<uint64_t> seqs;
    std::vector<FaultKind> faults;
    const double now = agg_->clock_seconds();
    {
      ScopedSpan s(tr_, main_, "fed.scheduler.select");
      const size_t free_slots = inflight_ - agg_->in_flight();
      while (users.size() < free_slots && !queue_->Exhausted() &&
             *budget > 0) {
        --*budget;
        const UserId u = queue_->PopNext();
        FaultKind fk = FaultKind::kNone;
        if (gate_ && !gate_->Ready(u, now)) {
          queue_->Requeue(u);
          continue;
        }
        const uint64_t seq = dispatch_seq_++;
        if (!net_->Online(u, seq)) {
          queue_->Requeue(u);
          continue;
        }
        fk = injector_ ? injector_->Draw(u, seq) : FaultKind::kNone;
        if (fk == FaultKind::kDownloadLoss) {
          comm_.mutable_faults()->download_lost++;
          FailAndRequeue(u, now);
          continue;
        }
        users.push_back(u);
        seqs.push_back(seq);
        faults.push_back(fk);
      }
    }
    if (users.empty()) return;
    const uint64_t version = server_->versions().round();
    std::vector<LocalUpdateResult> updates;
    TrainBatch(users, seqs, faults, &updates);
    for (size_t k = 0; k < users.size(); ++k) {
      const UserId u = users[k];
      const FaultKind fk = faults[k];
      const size_t shipped = AccountDownload(u, updates[k]);
      ScopedSpan s(tr_, main_, "fed.sync.submit", WorkId(seqs[k], u));
      FaultStats* f = comm_.mutable_faults();
      f->nonfinite_grad_steps += updates[k].nonfinite_grad_steps;
      if (fk == FaultKind::kCrash || fk == FaultKind::kUploadLoss) {
        if (fk == FaultKind::kCrash) {
          f->crashed++;
        } else {
          f->upload_lost++;
        }
        FailAndRequeue(u, now);
        continue;
      }
      if (fk == FaultKind::kDuplicate) f->duplicates++;
      if (fk == FaultKind::kCorrupt) {
        f->corrupted++;
        injector_->Corrupt(u, seqs[k], &updates[k]);
      }
      const double finish = agg_->clock_seconds() +
                            FinishSeconds(u, seqs[k], shipped, updates[k]);
      agg_->Submit(u, &tasks_[G(u)], std::move(updates[k]), version, finish);
    }
  }

  void AsyncEpoch() {
    queue_->BeginEpoch(&sched_rng_);
    size_t budget = 10 * ds_.num_users() + 10 * inflight_;
    AsyncDispatch(&budget);
    size_t since_dispatch = 0;
    while (!agg_->empty()) {
      AsyncAggregator::Outcome out;
      {
        ScopedSpan s(tr_, main_, "fed.sync.merge");
        out = agg_->MergeNext(kd_opts_, reskd_ ? &kd_rng_ : nullptr);
        const Group g = clients_[out.user].group;
        FaultStats* f = comm_.mutable_faults();
        f->rows_clipped += out.rows_clipped;
        if (out.merged) {
          if (server_->admission_enabled()) ++admitted_;
          comm_.RecordUpload(g, out.params_up);
          if (gate_) gate_->OnSuccess(out.user);
        } else if (out.rejected) {
          ++rejected_;
          if (out.rejected_nonfinite) {
            f->rejected_nonfinite++;
          } else {
            f->rejected_outlier++;
          }
          f->quarantines++;
          if (gate_) gate_->Quarantine(out.user, agg_->clock_seconds());
          queue_->Requeue(out.user);
        } else {
          comm_.RecordDropped(g);
          queue_->Requeue(out.user);
        }
      }
      if (++since_dispatch >= cfg_.async_dispatch_batch || agg_->empty()) {
        AsyncDispatch(&budget);
        since_dispatch = 0;
      }
    }
    sim_clock_ = agg_->clock_seconds();
  }

  GroupedEval Evaluate(LayerCounters* layers) {
    if (!fp32_) {
      std::vector<const Matrix*> tables;
      std::vector<const FeedForwardNet*> thetas;
      for (size_t s = 0; s < server_->num_slots(); ++s) {
        tables.push_back(&server_->table(s));
        thetas.push_back(&server_->theta(s));
      }
      return EvaluateStream<double>(tr_, *evaluator_, pool_.get(),
                                    cfg_.base_model, ds_, clients_, tables,
                                    thetas, layers);
    }
    std::vector<MatrixF> tables_f(server_->num_slots());
    std::vector<FeedForwardNetF> thetas_f(server_->num_slots());
    {
      ScopedSpan s(tr_, main_, "eval.cast");
      for (size_t s2 = 0; s2 < server_->num_slots(); ++s2) {
        tables_f[s2].AssignCast(server_->table(s2));
        thetas_f[s2].AssignCastFrom(server_->theta(s2));
      }
    }
    std::vector<const MatrixF*> tables;
    std::vector<const FeedForwardNetF*> thetas;
    for (size_t s = 0; s < tables_f.size(); ++s) {
      tables.push_back(&tables_f[s]);
      thetas.push_back(&thetas_f[s]);
    }
    return EvaluateStream<float>(tr_, *evaluator_, pool_.get(),
                                 cfg_.base_model, ds_, clients_, tables,
                                 thetas, layers);
  }

  const ExperimentConfig& cfg_;
  const Dataset& ds_;
  const GroupAssignment& groups_;
  Tracer* tr_;
  size_t main_;
  Rng root_;
  bool fp32_;
  std::array<std::vector<LocalTaskSpec>, kNumGroups> tasks_;
  std::array<bool, kNumGroups> apply_ddr_{};
  bool reskd_ = false;
  std::unique_ptr<ServerApi> server_;
  std::vector<ClientState> clients_;
  std::unique_ptr<ThreadPool> pool_;
  std::vector<std::unique_ptr<LocalTrainer>> trainers_;
  std::unique_ptr<ClientQueue> queue_;
  Rng sched_rng_{0};
  Rng kd_rng_{0};
  DistillationOptions kd_opts_;
  std::unique_ptr<SyncService> sync_;
  std::unique_ptr<SimulatedNetwork> net_;
  std::unique_ptr<FaultInjector> injector_;
  std::unique_ptr<ClientGate> gate_;
  std::unique_ptr<AdmissionController> admission_;
  std::unique_ptr<Evaluator> evaluator_;
  std::unique_ptr<AsyncAggregator> agg_;
  size_t inflight_ = 0;
  uint64_t dispatch_seq_ = 0;
  CommStats comm_;
  double sim_clock_ = 0.0;
  GroupedEval final_eval_;
  uint64_t samples_ = 0;
  uint64_t rows_touched_ = 0;
  uint64_t rows_subscribed_ = 0;
  uint64_t rows_shipped_ = 0;
  uint64_t admitted_ = 0;
  uint64_t rejected_ = 0;
};

}  // namespace

WorkCounts CountsOf(const ExperimentResult& result) {
  WorkCounts c;
  for (int g = 0; g < kNumGroups; ++g) {
    const Group grp = static_cast<Group>(g);
    c.participations[g] = result.comm.Participations(grp);
    c.merged += result.comm.Participations(grp);
    c.params_up += result.comm.UpParams(grp);
    c.params_down += result.comm.DownParams(grp);
  }
  c.dropped = result.comm.TotalDropped();
  c.wire_bytes = result.comm.TotalBytes();
  c.sim_s = result.simulated_seconds;
  c.ndcg = result.final_eval.overall.ndcg;
  c.recall = result.final_eval.overall.recall;
  c.collapse_var = result.collapse_variance;
  return c;
}

SetupData BuildData(const ExperimentConfig& cfg, Tracer* tr) {
  const size_t main = tr->main_slot();
  SetupData out;
  std::vector<Interaction> interactions;
  StatusOr<SyntheticConfig> data_cfg =
      DatasetConfigByName(cfg.dataset, cfg.data_scale);
  HFR_CHECK(data_cfg.ok()) << data_cfg.status().ToString();
  {
    ScopedSpan s(tr, main, "data.generate");
    interactions = GenerateInteractions(*data_cfg);
  }
  {
    ScopedSpan s(tr, main, "data.index");
    SplitOptions split;
    split.seed = cfg.seed ^ 0x5eedULL;
    auto ds = Dataset::FromInteractions(interactions, data_cfg->num_users,
                                        data_cfg->num_items, split);
    HFR_CHECK(ds.ok()) << ds.status().ToString();
    out.dataset = std::make_unique<Dataset>(std::move(ds).value());
  }
  {
    ScopedSpan s(tr, main, "fed.groups.assign");
    auto groups = AssignGroups(*out.dataset, cfg.group_fractions);
    HFR_CHECK(groups.ok()) << groups.status().ToString();
    out.groups = std::move(groups).value();
  }
  return out;
}

ReplayResult ReplayTraining(const ExperimentConfig& cfg, Tracer* tracer) {
  ReplayResult out;
  const Timer wall;
  SetupData data = BuildData(cfg, tracer);
  const Timer run_wall;
  {
    TrainingReplay replay(cfg, *data.dataset, data.groups, tracer);
    replay.Run(&out);
  }
  out.run_wall_s = run_wall.Seconds();
  out.wall_s = wall.Seconds();
  return out;
}

RankModel InitRankModel(const ExperimentConfig& cfg, const Dataset& ds,
                        const GroupAssignment& groups, Tracer* tracer) {
  RankModel m;
  {
    ScopedSpan s(tracer, tracer->main_slot(), "core.server.init");
    m.server = MakeServer(ServerOptions(cfg, ds.num_items()),
                          cfg.server_shards);
  }
  ScopedSpan s(tracer, tracer->main_slot(), "fed.client.init");
  InitClients(cfg, ds, groups, &m.clients);
  return m;
}

WorkCounts RankPass(const ExperimentConfig& cfg, const Dataset& ds,
                    const GroupAssignment& groups, const RankModel& model,
                    Tracer* tracer, LayerCounters* layers) {
  HFR_CHECK(cfg.compute_backend == ComputeBackend::kFp64 &&
            cfg.num_threads == 1);
  const Evaluator evaluator(ds, groups, cfg.top_k, cfg.eval_user_sample,
                            cfg.seed ^ 0xe5a1ULL, 0, true);
  std::vector<const Matrix*> tables;
  std::vector<const FeedForwardNet*> thetas;
  for (size_t s = 0; s < model.server->num_slots(); ++s) {
    tables.push_back(&model.server->table(s));
    thetas.push_back(&model.server->theta(s));
  }
  const GroupedEval ev = EvaluateStream<double>(
      tracer, evaluator, nullptr, cfg.base_model, ds, model.clients, tables,
      thetas, layers);
  WorkCounts c;
  c.ranked_users = ev.overall.users;
  c.ndcg = ev.overall.ndcg;
  c.recall = ev.overall.recall;
  return c;
}

}  // namespace perfbench
