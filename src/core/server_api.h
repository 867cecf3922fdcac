// Narrow abstract surface of a federated parameter server.
//
// Everything outside the server — `Trainer`, `SyncService`, the async
// aggregator, admission control, checkpointing, telemetry, benches — talks
// to this interface, never to a concrete server class. One implementation
// exists: the item-range-sharded `HeteroServer`
// (src/fed/shard/sharded_server.h), built by `MakeServer` from the config.
// The interface stays because callers can wrap it — the benchmark's
// `TracedServer` (perfbench/replay.cc) forwards every call and times the
// mutating ones.
//
// Contract highlights (pinned by tests/core/sharding_equivalence_test.cc):
//   - Round protocol: BeginRound → UploadDelta* → FinishRound, or the
//     async ApplyUpdate primitive; Distill between rounds. Identical call
//     sequences with the same Options must produce bit-identical tables,
//     thetas and version stamps at every shard count.
//   - versions() exposes the delta-sync `VersionView`; every mutation of a
//     row's bytes stamps it (over-stamping is safe, under-stamping is not).
//   - Snapshot()/RestoreSnapshot() round-trips the full mutable state in a
//     shard-count-independent layout (whole-catalogue tables, raw stamp
//     arrays), so checkpoints written at one shard count restore at any
//     other with the same geometry.
#ifndef HETEFEDREC_CORE_SERVER_API_H_
#define HETEFEDREC_CORE_SERVER_API_H_

#include <cstdint>
#include <vector>

#include "src/core/distillation.h"
#include "src/core/local_trainer.h"
#include "src/fed/fault/admission.h"
#include "src/fed/sync/versioned_table.h"
#include "src/math/matrix.h"
#include "src/models/ffn.h"
#include "src/util/rng.h"

namespace hetefedrec {

/// \brief Full mutable server state in a shard-count-independent layout.
///
/// Field-for-field the server portion of `RunState` (src/core/run_state.h):
/// whole-catalogue per-slot tables and thetas, plus the raw version-stamp
/// state (per-slot StampAll floors and per-row stamps, *not* floored).
/// A sharded server concatenates its per-shard state into this layout on
/// Snapshot and splits it back on RestoreSnapshot, which is what makes
/// checkpoints portable across shard counts.
struct ServerSnapshot {
  std::vector<Matrix> tables;               // [slot], num_items x width(slot)
  std::vector<FeedForwardNet> thetas;       // [slot]
  uint64_t version_round = 0;
  std::vector<uint64_t> version_floors;     // [slot]
  std::vector<std::vector<uint64_t>> versions;  // [slot][row], raw stamps
};

/// \brief Abstract federated parameter server.
class ServerApi {
 public:
  virtual ~ServerApi() = default;

  // ---- Geometry -------------------------------------------------------
  virtual size_t num_slots() const = 0;
  virtual size_t width(size_t slot) const = 0;
  virtual size_t num_items() const = 0;
  /// Total public parameters of slot (V + Θ) — Table III accounting.
  virtual size_t SlotParamCount(size_t slot) const = 0;

  // ---- Sharding topology ----------------------------------------------
  /// Number of item-range shards (at least 1).
  virtual size_t num_shards() const = 0;
  /// Shard owning item row `row`.
  virtual size_t shard_of_row(size_t row) const = 0;
  /// Cumulative item-embedding delta scalars uploaded into `shard`'s row
  /// range over the server's lifetime (Θ deltas are global, not counted).
  /// Feeds the bytes/round-per-shard accounting in bench_sharding.
  virtual uint64_t shard_upload_scalars(size_t shard) const = 0;

  // ---- Download surface (read-only views) -----------------------------
  virtual const Matrix& table(size_t slot) const = 0;
  virtual const FeedForwardNet& theta(size_t slot) const = 0;
  /// Row-version view for the delta-sync protocol (docs/SYNC.md).
  virtual const VersionView& versions() const = 0;

  // ---- Round protocol -------------------------------------------------
  /// Clears the round accumulators and advances the version round.
  virtual void BeginRound() = 0;
  /// Adds one client's uploaded update (Eq. 7-8 accumulation). Must be
  /// called in deterministic merge order — implementations are not
  /// thread-safe by contract.
  virtual void UploadDelta(const std::vector<LocalTaskSpec>& tasks,
                           const LocalUpdateResult& update,
                           double weight = 1.0) = 0;
  /// Applies the aggregated updates to every slot (Eq. 9 / Eq. 15) and
  /// stamps the changed rows.
  virtual void FinishRound() = 0;
  /// One-client merge-on-arrival primitive (async schedule): the update
  /// lands verbatim times `scale` regardless of the configured aggregation
  /// mode. Must not be called with a round open.
  virtual void ApplyUpdate(const std::vector<LocalTaskSpec>& tasks,
                           const LocalUpdateResult& update, double scale) = 0;
  /// Runs RESKD across all slots' tables (Eq. 16-17); returns the mean
  /// pre-distillation relation loss (0 with one slot).
  virtual double Distill(const DistillationOptions& options, Rng* rng) = 0;
  /// Marks `rows` of `slot` as changed at the current round — the hook for
  /// callers that mutate table bytes outside the round protocol (e.g. via
  /// a restored checkpoint delta or an external editor). Over-stamping is
  /// always safe.
  virtual void StampRows(size_t slot, const std::vector<uint32_t>& rows) = 0;

  // ---- Admission control ----------------------------------------------
  /// Installs update admission control (docs/ROBUSTNESS.md). Not owned.
  virtual void SetAdmission(AdmissionController* admission) = 0;
  virtual bool admission_enabled() const = 0;
  /// Runs the admission gates on one upload (`tasks.back().slot` selects
  /// the norm window; the item delta may be clipped in place).
  virtual AdmissionDecision Admit(const std::vector<LocalTaskSpec>& tasks,
                                  LocalUpdateResult* update) = 0;

  // ---- Persistence ----------------------------------------------------
  /// Captures the full mutable state (tables, thetas, raw version stamps)
  /// in the shard-count-independent `ServerSnapshot` layout.
  virtual ServerSnapshot Snapshot() const = 0;
  /// Restores a snapshot captured at any shard count with the same
  /// geometry (slots, widths, num_items). Checks shapes.
  virtual void RestoreSnapshot(ServerSnapshot snapshot) = 0;
};

}  // namespace hetefedrec

#endif  // HETEFEDREC_CORE_SERVER_API_H_
