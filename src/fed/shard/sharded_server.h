// Central server: heterogeneous parameter storage and aggregation
// (Algorithm 1 server side; Eq. 7-9 for V, Eq. 15 for Θ), over S
// item-range shards. This is the one ServerApi implementation.
//
// The server owns one (V, Θ) pair per model slot (small/medium/large — or a
// single slot for homogeneous baselines). Client deltas are accumulated
// into a padded buffer of the widest slot (Eq. 7-8), and at round end each
// slot applies the leading-column slice of the aggregate (Eq. 8-9). With
// identical leading-column initialization this preserves the invariant
// Vs = Vm[:, :Ns] = Vl[:, :Ns] (Eq. 10) until RESKD perturbs the tables
// independently. Clustered aggregation (per-slot accumulation, no padding)
// is also supported for the "Clustered FedRec" baseline.
//
// The catalogue's row space [0, num_items) is split into S contiguous,
// near-equal ranges; shard s owns rows [lo_s, lo_{s+1}) with
// lo_s = floor(num_items * s / S). Each shard owns its slice of the round
// state — per-shard aggregate buffers, per-shard touched-row lists, and a
// per-shard `VersionedTable` (local row indexing) — while the canonical
// per-slot tables and Θ FFNs stay whole-catalogue (Θ aggregation and RESKD
// are cross-row operations; see docs/SYNC.md "Sharding"). S=1 is the
// single-range server every experiment runs by default.
//
// Merge-order contract: `FinishRound` visits shards in ascending shard id
// inside every (slot, width-segment) apply loop, and each shard replays its
// touched rows in upload order. Because the padded aggregation of Eq. 7-9
// is row-independent — accumulate is a per-row Axpy, apply is a per-row
// scaled add, and the segment/slot/Θ weights are global scalars — the
// result is *bit-identical* for every shard count (pinned by
// tests/core/sharding_equivalence_test against recorded golden digests,
// and by tests/fed/sharded_server_test across shard counts).
//
// Round lockstep: BeginRound advances every shard's version table, so all
// shards always agree on the current round and on the per-slot StampAll
// floors (dense rounds stamp every shard in the same FinishRound). That
// invariant is what lets Snapshot() export one global `version_round` and
// per-slot floors while concatenating the raw per-row stamps by row range —
// a shard-count-independent layout, making checkpoints portable across
// shard counts.
#ifndef HETEFEDREC_FED_SHARD_SHARDED_SERVER_H_
#define HETEFEDREC_FED_SHARD_SHARDED_SERVER_H_

#include <array>
#include <memory>
#include <vector>

#include "src/core/config.h"
#include "src/core/server_api.h"
#include "src/fed/sync/versioned_table.h"

namespace hetefedrec {

/// \brief Heterogeneous federated server over S item-range shards.
class HeteroServer : public ServerApi {
 public:
  struct Options {
    /// Embedding width per slot, strictly ascending. One entry =
    /// homogeneous FedRec.
    std::vector<size_t> widths;
    std::array<size_t, 2> ffn_hidden = {8, 8};
    size_t num_items = 0;
    double embed_init_std = 0.1;
    /// How uploads are weighted when a round is applied (Eq. 9; the
    /// uploaded quantities are local deltas, i.e. -lr·∇ already, so the
    /// server applies them with unit step).
    AggregationMode aggregation = AggregationMode::kMean;
    /// Padded cross-slot aggregation (HeteFedRec / Directly Aggregate) vs
    /// isolated per-slot aggregation (Clustered FedRec).
    bool shared_aggregation = true;
    uint64_t seed = 1;
  };

  /// `num_shards` item ranges, 1 <= num_shards <= options.num_items. The
  /// same Options give bit-identical initial tables and Θ weights at every
  /// shard count.
  explicit HeteroServer(const Options& options, size_t num_shards = 1);

  // The version view points back at this object, so a copy or move would
  // read (or outlive) the original's version tables.
  HeteroServer(const HeteroServer&) = delete;
  HeteroServer& operator=(const HeteroServer&) = delete;
  HeteroServer(HeteroServer&&) = delete;
  HeteroServer& operator=(HeteroServer&&) = delete;

  size_t num_slots() const override { return tables_.size(); }
  size_t width(size_t slot) const override { return tables_[slot].cols(); }
  size_t num_items() const override { return num_items_; }
  size_t SlotParamCount(size_t slot) const override;

  size_t num_shards() const override { return shards_.size(); }
  size_t shard_of_row(size_t row) const override;
  uint64_t shard_upload_scalars(size_t shard) const override {
    HFR_CHECK_LT(shard, shards_.size());
    return shards_[shard].upload_scalars;
  }
  /// First row of `shard`'s range (range end = start of shard + 1, or
  /// num_items for the last shard).
  size_t shard_row_begin(size_t shard) const {
    HFR_CHECK_LT(shard, shards_.size());
    return shards_[shard].lo;
  }
  size_t shard_row_count(size_t shard) const {
    HFR_CHECK_LT(shard, shards_.size());
    return shards_[shard].rows;
  }

  const Matrix& table(size_t slot) const override { return tables_[slot]; }
  const FeedForwardNet& theta(size_t slot) const override {
    return thetas_[slot];
  }
  /// Per-(slot, row) version stamps for the delta-sync protocol: a row's
  /// version is the round of the last FinishRound/Distill that changed it.
  const VersionView& versions() const override { return view_; }

  /// Clears the round accumulators. Call before the first UploadDelta.
  /// Cost is proportional to the rows touched in the *previous* round
  /// (full-table only after a round that saw a dense update).
  void BeginRound() override;

  /// Adds one client's uploaded update. `tasks` describes which slot each
  /// theta delta belongs to and the width of v_delta (its last entry).
  /// `weight` scales the update's contribution (1.0 for kSum/kMean;
  /// the client's |Di| under kDataWeighted). Sparse updates are scattered
  /// row-by-row into their shards and enroll their rows in the round's
  /// touched set; dense and sparse updates may be mixed within a round.
  /// Not thread-safe — parallel rounds merge their results through ordered
  /// UploadDelta calls.
  void UploadDelta(const std::vector<LocalTaskSpec>& tasks,
                   const LocalUpdateResult& update,
                   double weight = 1.0) override;

  /// Applies the aggregated updates to every slot (Eq. 9 / Eq. 15). When
  /// every update this round was sparse, only rows in the round's touched
  /// set are visited — rows outside it have an exactly-zero aggregate, so
  /// skipping them is bit-identical to the dense sweep.
  void FinishRound() override;

  /// Applies one client's update immediately, scaled by `scale` — the
  /// asynchronous merge-on-arrival primitive (docs/SYNC.md). Equivalent to
  /// a one-client round under kSum with weight = scale: the update lands
  /// verbatim times `scale` regardless of the configured aggregation mode
  /// (a mean over one update would cancel the staleness weight). Advances
  /// the version and stamps the touched rows like any round. Must not be
  /// called with a round open. Cost is proportional to the update's
  /// touched rows on the sparse path; a *dense* update pays a full
  /// accumulator zero + all-rows apply per merge (the synchronous schedule
  /// amortizes that sweep over a whole round), so async runs should keep
  /// use_sparse_updates on — the dense reference path is for equivalence
  /// checks, not throughput.
  void ApplyUpdate(const std::vector<LocalTaskSpec>& tasks,
                   const LocalUpdateResult& update, double scale) override;

  double Distill(const DistillationOptions& options, Rng* rng) override;
  void StampRows(size_t slot, const std::vector<uint32_t>& rows) override;

  /// Installs update admission control (docs/ROBUSTNESS.md). The server
  /// does not own the controller; callers run `Admit` on each upload
  /// before UploadDelta/ApplyUpdate (in deterministic merge order — the
  /// gate's accepted-norm history is order-sensitive by design).
  void SetAdmission(AdmissionController* admission) override {
    admission_ = admission;
  }
  bool admission_enabled() const override { return admission_ != nullptr; }
  AdmissionDecision Admit(const std::vector<LocalTaskSpec>& tasks,
                          LocalUpdateResult* update) override;

  ServerSnapshot Snapshot() const override;
  void RestoreSnapshot(ServerSnapshot snapshot) override;

 private:
  /// Round/aggregation state owned by one item-range shard.
  struct Shard {
    size_t lo = 0;    // first global row of the range
    size_t rows = 0;  // range length
    /// Version stamps over the shard's rows, locally indexed.
    VersionedTable versions;
    /// Padded aggregate buffer (rows x widest), shared-aggregation mode.
    Matrix v_agg;
    /// Per-slot aggregate buffers (rows x width(slot)), clustered mode.
    std::vector<Matrix> v_agg_per_slot;
    /// Global row ids touched by this round's sparse uploads, in upload
    /// order (deduplicated through the server-wide touched mask).
    std::vector<uint32_t> touched;
    /// Lifetime item-delta scalars routed into this shard's rows.
    uint64_t upload_scalars = 0;
  };

  /// VersionView facade routing each row to its shard's table.
  class ShardedVersionView : public VersionView {
   public:
    explicit ShardedVersionView(const HeteroServer* server)
        : server_(server) {}
    uint64_t round() const override {
      return server_->shards_[0].versions.round();
    }
    uint64_t Version(size_t slot, size_t row) const override {
      const Shard& sh = server_->shards_[server_->shard_of_row(row)];
      return sh.versions.Version(slot, row - sh.lo);
    }

   private:
    const HeteroServer* server_;
  };

  size_t num_items_ = 0;
  AggregationMode aggregation_;
  bool shared_aggregation_;

  // Whole-catalogue canonical state (Θ and RESKD are cross-row).
  std::vector<Matrix> tables_;
  std::vector<FeedForwardNet> thetas_;

  std::vector<Shard> shards_;
  std::vector<size_t> shard_starts_;  // shards_[i].lo, for row routing
  ShardedVersionView view_;

  // Round accumulators. Contributor totals are *weights*: 1 per client
  // under kSum/kMean, the client's data size under kDataWeighted.
  /// Weight per width segment: segment s covers columns
  /// [widths[s-1], widths[s]); a client of width w contributes to all
  /// segments below w (shared mode).
  std::vector<double> segment_weight_;
  std::vector<double> slot_weight_;  // clustered mode
  std::vector<FeedForwardNet> theta_agg_;
  std::vector<double> theta_weight_;
  bool round_open_ = false;
  /// A dense update contributed this round: FinishRound/BeginRound fall
  /// back to full sweeps instead of the touched rows.
  bool round_has_dense_ = false;
  std::vector<uint8_t> touched_mask_;  // global row ids

  AdmissionController* admission_ = nullptr;  // not owned

  void MarkTouched(uint32_t row, Shard* shard);
};

/// Builds the server an experiment configured with `server_shards` shards
/// wants: a `HeteroServer` over max(1, server_shards) item ranges, so 0
/// and 1 both mean the single range.
std::unique_ptr<ServerApi> MakeServer(const HeteroServer::Options& options,
                                      size_t server_shards);

}  // namespace hetefedrec

#endif  // HETEFEDREC_FED_SHARD_SHARDED_SERVER_H_
