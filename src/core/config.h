// Experiment configuration shared by the trainer, benches and examples.
#ifndef HETEFEDREC_CORE_CONFIG_H_
#define HETEFEDREC_CORE_CONFIG_H_

#include <array>
#include <cstdint>
#include <string>

#include "src/math/backend.h"
#include "src/models/scorer.h"
#include "src/util/status.h"

namespace hetefedrec {

class CommandLine;
struct ExperimentConfig;

/// Applies the shared experiment flags registered by
/// RegisterExperimentFlags (src/util/cli.h) onto `config`, leaving every
/// other field untouched. Returns InvalidArgument for unparseable enum
/// values (--agg, --compute_backend, --wire_format). Callers set their
/// binary-specific fields (presets, dataset, dims, ...) before or after.
Status ApplyExperimentFlags(const CommandLine& cli, ExperimentConfig* config);

/// The seven training schemes of §V-C: the six baselines plus HeteFedRec.
enum class Method {
  kAllSmall,
  kAllLarge,
  kAllLargeExclusive,
  kStandalone,
  kClusteredFedRec,
  kDirectlyAggregate,
  kHeteFedRec,
};

/// All seven methods in the paper's table order.
inline constexpr std::array<Method, 7> kAllMethods = {
    Method::kAllSmall,          Method::kAllLarge,
    Method::kAllLargeExclusive, Method::kStandalone,
    Method::kClusteredFedRec,   Method::kDirectlyAggregate,
    Method::kHeteFedRec,
};

/// Display name matching Table II rows.
std::string MethodName(Method m);

/// Parses a method name (case-sensitive short form, e.g. "hetefedrec",
/// "all_small", "clustered").
StatusOr<Method> MethodByName(const std::string& name);

/// Parses a wire-format name ("fp64" | "fp32" | "fp16") to its scalar size
/// in bytes — the shared mapping behind every --wire_format flag.
StatusOr<size_t> WireScalarBytesByName(const std::string& name);

/// True for the heterogeneous schemes (lower half of Table II).
bool IsHeterogeneous(Method m);

/// How the server combines uploaded updates.
enum class AggregationMode {
  /// Eq. 4/8-9 literally: V^t = V^{t-1} - lr * Σ ∇V_i, with clients
  /// uploading ∇V_i = (V_received - V_local)/lr, i.e. summed local updates.
  kSum,
  /// FedAvg-style: the summed updates are divided by the number of
  /// contributing clients before application.
  kMean,
  /// FedAvg with data-size weights (McMahan et al. 2017): each client's
  /// update is weighted by its local training-set size before the mean.
  kDataWeighted,
};

/// \brief Everything needed to run one experiment.
struct ExperimentConfig {
  // --- data -----------------------------------------------------------
  std::string dataset = "ml";  // ml | anime | douban
  /// Shrinks the synthetic dataset jointly in users/items (1.0 = Table I
  /// sizes). Benches default to small scales; see DESIGN.md §1.
  double data_scale = 0.10;

  // --- model ----------------------------------------------------------
  BaseModel base_model = BaseModel::kNcf;
  /// Embedding widths {Ns, Nm, Nl}. Paper: {8,16,32} for ML/Anime and
  /// {32,64,128} for Douban (§V-D); Table VII sweeps {2,4,8}..{32,64,128}.
  std::array<size_t, 3> dims = {8, 16, 32};
  /// Hidden sizes of the preference FFN (paper: [2N, 8, 8]).
  std::array<size_t, 2> ffn_hidden = {8, 8};
  double embed_init_std = 0.1;

  // --- grouping (Table VI sweeps the fractions) ------------------------
  std::array<double, 3> group_fractions = {5.0, 3.0, 2.0};

  // --- federated training ----------------------------------------------
  int global_epochs = 20;
  int local_epochs = 2;
  size_t clients_per_round = 256;
  double lr = 0.001;  // Adam locally and server application (§V-D)
  AggregationMode aggregation = AggregationMode::kMean;
  /// Local validation carve-out fraction (§III-A quotes 10%). With the
  /// default 2 local epochs, best-epoch selection is nearly a no-op, so the
  /// benches leave it off (0); set 0.1 for the paper's protocol.
  double local_validation_fraction = 0.0;

  // --- HeteFedRec components (ablations toggle these, Table IV) ---------
  bool unified_dual_task = true;       // UDL  (Eq. 11)
  bool decorrelation = true;           // DDR  (Eq. 13-14)
  bool ensemble_distillation = true;   // RESKD (Eq. 16-17)

  /// DDR weight α (Fig. 8 sweeps 0.5..2.0).
  double alpha = 1.0;
  /// Rows used to estimate the correlation matrix per DDR evaluation
  /// (0 = all rows). Row subsampling is an unbiased estimator that keeps
  /// the regularizer O(sample · N²) per local epoch.
  size_t ddr_sample_rows = 1024;

  /// RESKD: |Vkd| items sampled per round, distillation steps, step size.
  /// The paper does not publish these; defaults were tuned so RESKD adds a
  /// small gain on top of UDL+DDR (Table IV's ordering) without the
  /// distillation drift overpowering the aggregated updates.
  size_t kd_items = 32;
  int kd_steps = 2;
  double kd_lr = 0.001;

  // --- execution (performance; no effect on results) --------------------
  /// Sparse row-touched client updates: clients train through a
  /// copy-on-write view and upload only touched rows. Bit-identical to the
  /// dense reference path (see docs/PERFORMANCE.md); per-round cost drops
  /// from O(clients × items × width) to O(clients × interactions × width).
  bool use_sparse_updates = true;
  /// Communication accounting. False (default): Table III's accounting —
  /// uploads are counted as if the full dense table were shipped, matching
  /// the paper regardless of execution path. True: count the scalars the
  /// sparse path actually uploads (touched rows × (width + 1) + Θ).
  bool sparse_comm_accounting = false;
  /// Batched scoring kernels (src/math/kernels.h): run each client's
  /// per-epoch sample set and every evaluation scoring pass as blocked FFN
  /// batches instead of per-sample calls. Bit-identical either way
  /// (accumulation order is preserved per sample); false keeps the
  /// per-sample reference path for equivalence tests and benchmarks.
  bool use_batched_scoring = true;
  /// Batched top-K selection (src/eval/topk.h): evaluation ranks each user
  /// through a streaming bounded heap fused with the batched score blocks
  /// (full catalogue) or a bucketed threshold cascade (candidate slice)
  /// instead of building and partial_sort-ing an O(items) candidate vector
  /// per user. Bit-identical either way (the (score desc, id asc) order is
  /// a strict total order, so the top-K list is unique); false keeps the
  /// partial_sort reference path for equivalence tests and benchmarks.
  bool use_batched_topk = true;
  /// Threads executing the clients of each round. 1 = serial (default);
  /// 0 = hardware concurrency. Results are bit-identical for any value:
  /// client training is independent and updates merge in batch order.
  size_t num_threads = 1;
  /// Numeric compute backend (src/math/backend.h). kFp64 (default) is the
  /// bit-exact reference — every prior result reproduces unchanged. kFp32
  /// runs client training, evaluation scoring and distillation in float
  /// (server state, aggregation, the wire and checkpoints stay fp64);
  /// kFp32Simd additionally dispatches the float kernels to AVX2+FMA,
  /// bit-identical to kFp32 by construction. fp32 metrics stay within the
  /// tolerance pinned by tests/core/backend_equivalence_test.cc.
  ComputeBackend compute_backend = ComputeBackend::kFp64;

  /// Item-range parameter-server shards (docs/SYNC.md "Sharding"). The
  /// server splits the catalogue into max(1, server_shards) ranges, so 0
  /// (default) and 1 both mean one range; at most the catalogue size
  /// (ExperimentRunner::Create rejects more). Because padded aggregation
  /// is row-independent every S reproduces the same tables bit-for-bit
  /// (the shard count changes memory layout and per-shard accounting, not
  /// arithmetic — pinned by tests/core/sharding_equivalence_test.cc).
  /// Participates in the resume fingerprint.
  size_t server_shards = 0;

  // --- delta sync & simulated network (docs/SYNC.md) --------------------
  /// True (default): every participation downloads the full item table —
  /// the paper's accounting, Table III reproduces unchanged. False: the
  /// row-subscription delta protocol — versioned server rows, per-client
  /// replicas, `params_down` = stale subscribed rows × (width + 1) + Θ + 1.
  /// Metrics are bit-identical either way (the protocol is lossless).
  bool full_downloads = true;
  /// Audit mode: replicas additionally cache shipped row bytes and every
  /// skipped row is CHECKed bit-identical against the live table. O(rows
  /// held × width) memory per client; tests and audits only.
  bool sync_verify_replicas = false;
  /// Per-client LRU cap on replica rows under delta sync (0 = unlimited).
  /// A production server cannot let every client's replica grow with its
  /// lifetime subscription union; capped replicas evict the least recently
  /// used rows and re-ship them on the next subscription — metrics are
  /// unchanged (the protocol stays lossless), `params_down` rises.
  size_t sync_replica_cap = 0;
  /// P(scheduled client is online) per selection. Offline clients re-enter
  /// the epoch's queue. 1.0 (default) = the paper's deterministic protocol.
  double availability = 1.0;
  /// Over-selection slack: each round selects clients_per_round + slack
  /// clients and merges the first clients_per_round to finish (by simulated
  /// network time); stragglers are discarded and re-queued. 0 = off.
  size_t straggler_slack = 0;
  /// Round deadline, seconds of simulated time; clients finishing later are
  /// dropped (and re-queued) even if fewer than clients_per_round made it.
  /// 0 = no deadline.
  double round_deadline = 0.0;
  /// Simulated network: median client bandwidth (bytes/s), log-normal
  /// per-client spread, base round-trip latency (s), per-(client, round)
  /// latency spread, and local compute seconds per training sample.
  double net_bandwidth = 1.25e6;
  double net_bandwidth_sigma = 0.0;
  double net_latency = 0.05;
  double net_latency_sigma = 0.0;
  double net_compute_per_sample = 0.0;
  /// Bytes per transmitted scalar on the wire (8 = fp64, 4 = fp32,
  /// 2 = fp16). Affects byte accounting and simulated transfer times only —
  /// the arithmetic stays double precision.
  size_t wire_scalar_bytes = 8;

  // --- asynchronous aggregation (docs/SYNC.md "Asynchronous aggregation") -
  /// Merge-on-arrival server: instead of a synchronous round barrier, each
  /// client's update merges the moment its simulated completion time
  /// arrives, weighted by how stale its downloaded model has become.
  /// False (default): the paper's synchronous round protocol — every prior
  /// result is bit-identical. Async merges ignore `aggregation` (each
  /// update applies individually with its staleness weight).
  bool async_mode = false;
  /// Staleness exponent: an update trained on a model `s` server versions
  /// old merges with weight w(s) = 1/(1+s)^alpha (FedAsync's polynomial
  /// damping). 0 disables damping (every arrival applies at full weight).
  double async_staleness_alpha = 0.5;
  /// Drop arrivals staler than this version gap (0 = no cap). Dropped
  /// clients re-enter the queue and train again on a fresh download; drops
  /// are counted per group in CommStats.
  size_t async_max_staleness = 0;
  /// Merged updates between two RESKD distillations, replacing the
  /// synchronous per-round trigger (0 = clients_per_round, matching the
  /// per-round cadence in expectation).
  size_t async_distill_every = 0;
  /// Clients concurrently in flight (0 = clients_per_round, the same
  /// device parallelism the synchronous protocol assumes).
  size_t async_inflight = 0;
  /// Completions merged before freed slots re-dispatch as one batch whose
  /// clients train in parallel. Part of the protocol (a larger batch defers
  /// dispatches to a slightly later virtual instant), so results depend on
  /// it deterministically — but never on the thread count. 1 = dispatch on
  /// every arrival (pure merge-on-arrival).
  size_t async_dispatch_batch = 1;

  // --- evaluation -------------------------------------------------------
  size_t top_k = 20;
  int eval_every = 0;     // 0 = only final epoch; n = every n epochs
  size_t eval_user_sample = 0;  // 0 = all users
  /// Candidate-sliced evaluation: score each user's test items plus this
  /// many seeded negative candidates instead of the full catalogue
  /// (He et al.'s sampled-candidate protocol). 0 (default) keeps the
  /// paper's full-catalogue ranking, so reported metrics are unchanged;
  /// when > 0, per-user cost drops from O(items) to O(test + candidates).
  /// Candidate top-K provably equals the full top-K restricted to the
  /// candidate set (same ordering; pinned by tests/eval/evaluator_test.cc).
  size_t eval_candidate_sample = 0;

  // --- fault injection & recovery (docs/ROBUSTNESS.md) ------------------
  /// Per-participation fault probabilities, mutually exclusive segments of
  /// one hash draw (their sum must be <= 1). All zero (default) = no
  /// faults, and every result is bit-identical to a fault-free build.
  double fault_upload_loss = 0.0;
  double fault_download_loss = 0.0;
  double fault_crash = 0.0;
  double fault_duplicate = 0.0;
  double fault_corrupt = 0.0;
  /// Failed transfers retry with capped exponential backoff + jitter on the
  /// virtual clock: delay = min(cap, base * 2^(fails-1)) * (1 + jitter*U).
  /// After `fault_retry_max` consecutive failures the client is dropped
  /// until the next epoch.
  size_t fault_retry_max = 5;
  double fault_retry_base = 1.0;   // seconds
  double fault_retry_cap = 60.0;   // seconds
  /// Updates rejected by admission control quarantine the client on a
  /// second (longer) backoff schedule before it may requeue.
  double fault_quarantine_base = 5.0;   // seconds
  double fault_quarantine_cap = 300.0;  // seconds
  double fault_jitter = 0.5;  // backoff jitter fraction in [0, 1]
  /// Server-side update admission control: finite-value scan, per-row norm
  /// clipping (`admit_max_row_norm`, 0 = off) and a robust z-score outlier
  /// gate (`admit_outlier_z`, 0 = off) over recently accepted update norms.
  bool admission_control = false;
  double admit_max_row_norm = 0.0;
  double admit_outlier_z = 0.0;
  /// Crash-consistent run checkpoints: write the full run state (server
  /// tables, versions, replicas, queue, RNG streams, clocks, counters) to
  /// `checkpoint_path + ".run"` every N completed rounds (sync) or at epoch
  /// boundaries (async), with atomic rename. 0 = off.
  size_t checkpoint_every = 0;
  /// Resume a killed run from `checkpoint_path + ".run"`. The restored run
  /// is bit-identical to one that was never interrupted.
  bool resume_run = false;
  /// Test/CI hook: abort the run after this many completed rounds (sync)
  /// or merges (async), simulating a crash. 0 = off.
  size_t debug_stop_after_rounds = 0;

  // --- telemetry (docs/OBSERVABILITY.md) --------------------------------
  /// Pure observation: none of these fields may perturb results — a run
  /// with telemetry on is bit-identical to one with it off (pinned by
  /// tests/core/telemetry_equivalence_test.cc), and none participate in the
  /// resume fingerprint (run_state.cc).
  /// When non-empty, federated runs stream per-round metrics rows (JSONL:
  /// meta / round / eval / summary / profile) to this path.
  std::string metrics_out;
  /// When non-empty, federated runs record dispatch/transfer/merge/distill/
  /// drop/fault/checkpoint events on the simulated clock and write Chrome
  /// trace-event JSON (Perfetto-loadable) to this path.
  std::string trace_out;
  /// Wall-clock RAII phase profiling through the hot paths; renders a
  /// phase-time table to stderr at run end (plus "profile" rows in
  /// metrics_out). Off by default: the disabled scopes cost one atomic load.
  bool profile = false;
  /// Keep each round's CommStats delta (CommStats::SnapshotRound) in
  /// ExperimentResult::round_comm so benches can plot traffic over rounds.
  bool track_round_comm = false;

  uint64_t seed = 7;

  /// When non-empty, federated runs write the final server public
  /// parameters (all slots' V and Θ) to this path (see core/checkpoint.h).
  std::string checkpoint_path;

  /// Validates ranges and cross-field constraints.
  Status Validate() const;
};

}  // namespace hetefedrec

#endif  // HETEFEDREC_CORE_CONFIG_H_
