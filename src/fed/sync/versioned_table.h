// Per-row version stamps for the server's public parameter tables.
//
// The delta-sync protocol (docs/SYNC.md) needs one fact per (slot, row):
// the last round in which the row's values could have changed. The server
// stamps rows as it mutates them — `HeteroServer::FinishRound` stamps the
// rows it applied aggregates to, `HeteroServer::Distill` stamps the rows
// RESKD perturbed — and `SyncService` compares stamps against each client
// replica to decide which subscribed rows must be re-shipped. The server
// keeps one table per item-range shard, indexed by local row, and exposes
// them through one `VersionView`.
//
// Invariants (asserted by tests/fed/sync_test.cc):
//   1. Monotonicity: Version(slot, row) never decreases.
//   2. Soundness: a row's bytes change only in a round that stamps it, so
//      "held version == current version" implies the replica's copy is
//      bit-identical to the server row.
// Over-stamping (stamping a row whose bytes happened not to change) is
// always safe — it can only cause a redundant ship, never a stale read.
#ifndef HETEFEDREC_FED_SYNC_VERSIONED_TABLE_H_
#define HETEFEDREC_FED_SYNC_VERSIONED_TABLE_H_

#include <cstdint>
#include <vector>

#include "src/util/logging.h"

namespace hetefedrec {

/// \brief Read-only row-version contract of a server (ServerApi::versions).
///
/// The delta-sync protocol needs exactly two facts from a server, however
/// its version state is stored (one table, or one table per shard):
///   - `round()`: the stamp the *next* mutation will carry — the download
///     version async staleness is measured against.
///   - `Version(slot, row)`: the last round in which (slot, row) could have
///     changed, monotone per row.
/// `VersionedTable` holds one shard's stamps; the server exposes a view
/// that routes each row to its shard's table.
class VersionView {
 public:
  virtual ~VersionView() = default;

  /// Round the next stamps will carry.
  virtual uint64_t round() const = 0;

  /// Last round in which (slot, row) could have changed.
  virtual uint64_t Version(size_t slot, size_t row) const = 0;
};

/// \brief Round-stamped row versions for every model slot of one server.
class VersionedTable : public VersionView {
 public:
  VersionedTable() = default;

  /// \param num_slots model slots (small/medium/large or one).
  /// \param num_rows rows per table (the item catalogue size).
  VersionedTable(size_t num_slots, size_t num_rows);

  size_t num_slots() const { return versions_.size(); }
  size_t num_rows() const { return num_rows_; }

  /// Round the next stamps will carry. Starts at 0 (the initial tables);
  /// the server advances it once per aggregation round.
  uint64_t round() const { return round_; }
  void AdvanceRound() { ++round_; }

  /// Marks one row of one slot as (possibly) changed this round.
  void Stamp(size_t slot, uint32_t row) {
    HFR_CHECK_LT(slot, versions_.size());
    HFR_CHECK_LT(static_cast<size_t>(row), num_rows_);
    versions_[slot][row] = round_;
  }

  /// Marks every row of one slot as changed this round. O(1): kept as a
  /// per-slot floor so dense rounds don't pay an O(num_rows) sweep.
  void StampAll(size_t slot) {
    HFR_CHECK_LT(slot, versions_.size());
    floor_[slot] = round_;
  }

  /// Last round in which (slot, row) could have changed.
  uint64_t Version(size_t slot, size_t row) const {
    HFR_CHECK_LT(slot, versions_.size());
    HFR_CHECK_LT(row, num_rows_);
    const uint64_t v = versions_[slot][row];
    return v > floor_[slot] ? v : floor_[slot];
  }

  /// Raw state views for run checkpoints (the raw stamps, not floored).
  uint64_t floor_of(size_t slot) const {
    HFR_CHECK_LT(slot, floor_.size());
    return floor_[slot];
  }
  const std::vector<uint64_t>& slot_versions(size_t slot) const {
    HFR_CHECK_LT(slot, versions_.size());
    return versions_[slot];
  }

  /// Restores a snapshot captured via round()/floor_of()/slot_versions().
  /// Shapes must match the constructed table.
  void Restore(uint64_t round, const std::vector<uint64_t>& floors,
               const std::vector<std::vector<uint64_t>>& versions) {
    HFR_CHECK_EQ(floors.size(), floor_.size());
    HFR_CHECK_EQ(versions.size(), versions_.size());
    for (size_t s = 0; s < versions.size(); ++s) {
      HFR_CHECK_EQ(versions[s].size(), versions_[s].size());
    }
    round_ = round;
    floor_ = floors;
    versions_ = versions;
  }

 private:
  size_t num_rows_ = 0;
  uint64_t round_ = 0;
  std::vector<std::vector<uint64_t>> versions_;  // [slot][row]
  std::vector<uint64_t> floor_;                  // per-slot StampAll floor
};

}  // namespace hetefedrec

#endif  // HETEFEDREC_FED_SYNC_VERSIONED_TABLE_H_
