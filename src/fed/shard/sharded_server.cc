#include "src/fed/shard/sharded_server.h"

#include <algorithm>

#include "src/math/init.h"
#include "src/util/telemetry/profiler.h"

namespace hetefedrec {

HeteroServer::HeteroServer(const Options& base, size_t num_shards)
    : aggregation_(base.aggregation),
      shared_aggregation_(base.shared_aggregation),
      view_(this) {
  HFR_CHECK(!base.widths.empty());
  HFR_CHECK_GT(base.num_items, 0u);
  HFR_CHECK_GT(num_shards, 0u);
  HFR_CHECK_LE(num_shards, base.num_items);
  for (size_t s = 1; s < base.widths.size(); ++s) {
    HFR_CHECK_LT(base.widths[s - 1], base.widths[s]);
  }
  num_items_ = base.num_items;

  // Initialize the widest table, then share prefixes downwards so Eq. 10's
  // invariant holds from t = 0; then one Xavier init per slot's Θ. The
  // draw sequence does not depend on the shard count.
  Rng rng(base.seed);
  const size_t max_width = base.widths.back();
  Matrix widest(base.num_items, max_width);
  InitNormal(&widest, base.embed_init_std, &rng);
  for (size_t w : base.widths) {
    tables_.push_back(widest.LeadingCols(w));
    FeedForwardNet theta(2 * w, {base.ffn_hidden[0], base.ffn_hidden[1]});
    theta.InitXavier(&rng);
    thetas_.push_back(std::move(theta));
  }

  const size_t S = num_shards;
  shards_.resize(S);
  shard_starts_.reserve(S);
  for (size_t i = 0; i < S; ++i) {
    Shard& sh = shards_[i];
    sh.lo = base.num_items * i / S;
    const size_t hi = base.num_items * (i + 1) / S;
    sh.rows = hi - sh.lo;
    sh.versions = VersionedTable(tables_.size(), sh.rows);
    sh.v_agg = Matrix(sh.rows, max_width);
    if (!shared_aggregation_) {
      for (size_t w : base.widths) sh.v_agg_per_slot.emplace_back(sh.rows, w);
    }
    shard_starts_.push_back(sh.lo);
  }

  segment_weight_.assign(tables_.size(), 0.0);
  slot_weight_.assign(tables_.size(), 0.0);
  theta_agg_.reserve(thetas_.size());
  for (const auto& t : thetas_) {
    theta_agg_.push_back(FeedForwardNet::ZerosLike(t));
  }
  theta_weight_.assign(thetas_.size(), 0.0);
  touched_mask_.assign(base.num_items, 0);
}

size_t HeteroServer::shard_of_row(size_t row) const {
  HFR_CHECK_LT(row, num_items_);
  const auto it =
      std::upper_bound(shard_starts_.begin(), shard_starts_.end(), row);
  return static_cast<size_t>(it - shard_starts_.begin()) - 1;
}

size_t HeteroServer::SlotParamCount(size_t slot) const {
  HFR_CHECK_LT(slot, tables_.size());
  return tables_[slot].size() + thetas_[slot].ParamCount();
}

void HeteroServer::MarkTouched(uint32_t row, Shard* shard) {
  HFR_CHECK_LT(row, touched_mask_.size());
  if (!touched_mask_[row]) {
    touched_mask_[row] = 1;
    shard->touched.push_back(row);
  }
}

void HeteroServer::BeginRound() {
  // Zero only what the previous round dirtied: per shard after an
  // all-sparse round, everything after a round with a dense update (or the
  // first round, where the constructor already zero-initialized).
  for (Shard& sh : shards_) {
    if (round_has_dense_) {
      sh.v_agg.SetZero();
      for (auto& m : sh.v_agg_per_slot) m.SetZero();
    } else {
      for (uint32_t r : sh.touched) {
        double* row = sh.v_agg.Row(r - sh.lo);
        std::fill(row, row + sh.v_agg.cols(), 0.0);
        for (auto& m : sh.v_agg_per_slot) {
          double* srow = m.Row(r - sh.lo);
          std::fill(srow, srow + m.cols(), 0.0);
        }
      }
    }
    for (uint32_t r : sh.touched) touched_mask_[r] = 0;
    sh.touched.clear();
    // Lockstep: every shard's version table advances each round.
    sh.versions.AdvanceRound();
  }
  round_has_dense_ = false;

  std::fill(segment_weight_.begin(), segment_weight_.end(), 0.0);
  std::fill(slot_weight_.begin(), slot_weight_.end(), 0.0);
  for (auto& t : theta_agg_) t.SetZero();
  std::fill(theta_weight_.begin(), theta_weight_.end(), 0.0);
  round_open_ = true;
}

void HeteroServer::UploadDelta(const std::vector<LocalTaskSpec>& tasks,
                               const LocalUpdateResult& update,
                               double weight) {
  HFR_CHECK(round_open_);
  HFR_CHECK(!tasks.empty());
  HFR_CHECK_GE(weight, 0.0);
  const size_t client_width =
      update.sparse ? update.v_delta_sparse.width : update.v_delta.cols();
  HFR_CHECK_EQ(tasks.back().width, client_width);

  // Eq. 7-8: zero-pad to the widest slot and sum (or, clustered, sum into
  // the client's slot buffer), routing each delta row to its shard.
  const size_t slot = tasks.back().slot;
  if (!shared_aggregation_) {
    HFR_CHECK_LT(slot, tables_.size());
    HFR_CHECK_EQ(tables_[slot].cols(), client_width);
  }
  if (update.sparse) {
    const SparseRowUpdate& up = update.v_delta_sparse;
    for (size_t k = 0; k < up.num_rows(); ++k) {
      const uint32_t r = up.rows[k];
      Shard& sh = shards_[shard_of_row(r)];
      MarkTouched(r, &sh);
      double* dst = shared_aggregation_
                        ? sh.v_agg.Row(r - sh.lo)
                        : sh.v_agg_per_slot[slot].Row(r - sh.lo);
      Axpy(weight, up.RowData(k), dst, client_width);
      sh.upload_scalars += client_width;
    }
  } else {
    HFR_CHECK_EQ(update.v_delta.rows(), num_items_);
    round_has_dense_ = true;
    for (Shard& sh : shards_) {
      for (size_t r = 0; r < sh.rows; ++r) {
        double* dst = shared_aggregation_ ? sh.v_agg.Row(r)
                                          : sh.v_agg_per_slot[slot].Row(r);
        Axpy(weight, update.v_delta.Row(sh.lo + r), dst, client_width);
      }
      sh.upload_scalars += static_cast<uint64_t>(sh.rows) * client_width;
    }
  }

  if (shared_aggregation_) {
    for (size_t s = 0; s < tables_.size(); ++s) {
      if (width(s) <= client_width) segment_weight_[s] += weight;
    }
  } else {
    slot_weight_[slot] += weight;
  }

  HFR_CHECK_EQ(tasks.size(), update.theta_deltas.size());
  for (size_t t = 0; t < tasks.size(); ++t) {
    const size_t ts = tasks[t].slot;
    HFR_CHECK_LT(ts, theta_agg_.size());
    theta_agg_[ts].AddScaled(update.theta_deltas[t], weight);
    theta_weight_[ts] += weight;
  }
}

void HeteroServer::FinishRound() {
  HFR_PROFILE("apply");
  HFR_CHECK(round_open_);
  round_open_ = false;

  const bool all_rows = round_has_dense_;

  if (shared_aggregation_) {
    // Eq. 8-9: every slot applies the leading-column slice of the padded
    // aggregate. Under kMean/kDataWeighted each *width segment* is
    // normalized by the total weight of clients wide enough to have
    // updated it — the natural extension of FedAvg to padded aggregation.
    // Segment `seg` spans the columns [width(seg-1), width(seg)), whose
    // accumulated weight is segment_weight_[seg]. For every (slot,
    // segment) pair shards apply in ascending shard id, each replaying its
    // touched rows in upload order; the per-row arithmetic does not depend
    // on the shard count, so neither does the result.
    for (size_t s = 0; s < tables_.size(); ++s) {
      size_t col0 = 0;
      for (size_t seg = 0; seg <= s; ++seg) {
        const size_t col1 = width(seg);
        double seg_scale = 1.0;
        if (aggregation_ != AggregationMode::kSum) {
          if (segment_weight_[seg] == 0.0) {
            col0 = col1;
            continue;
          }
          seg_scale = 1.0 / segment_weight_[seg];
        }
        for (const Shard& sh : shards_) {
          auto apply_row = [&](size_t r) {
            const double* src = sh.v_agg.Row(r - sh.lo);
            double* dst = tables_[s].Row(r);
            for (size_t c = col0; c < col1; ++c) dst[c] += seg_scale * src[c];
          };
          if (all_rows) {
            for (size_t r = sh.lo; r < sh.lo + sh.rows; ++r) apply_row(r);
          } else {
            for (uint32_t r : sh.touched) apply_row(r);
          }
        }
        col0 = col1;
      }
    }
  } else {
    for (size_t s = 0; s < tables_.size(); ++s) {
      if (slot_weight_[s] == 0.0) continue;
      const double scale = aggregation_ == AggregationMode::kSum
                               ? 1.0
                               : 1.0 / slot_weight_[s];
      for (const Shard& sh : shards_) {
        if (all_rows) {
          for (size_t r = 0; r < sh.rows; ++r) {
            Axpy(scale, sh.v_agg_per_slot[s].Row(r),
                 tables_[s].Row(sh.lo + r), tables_[s].cols());
          }
        } else {
          for (uint32_t r : sh.touched) {
            Axpy(scale, sh.v_agg_per_slot[s].Row(r - sh.lo),
                 tables_[s].Row(r), tables_[s].cols());
          }
        }
      }
    }
  }

  // Eq. 15: Θ slots aggregate across every client that trained them.
  for (size_t s = 0; s < thetas_.size(); ++s) {
    if (theta_weight_[s] == 0.0) continue;
    const double scale = aggregation_ == AggregationMode::kSum
                             ? 1.0
                             : 1.0 / theta_weight_[s];
    thetas_[s].AddScaled(theta_agg_[s], scale);
  }

  // Version stamps: the changed-slot criterion uses the global weights, so
  // every shard stamps the same slots — dense rounds raise every shard's
  // StampAll floor in the same round (the lockstep invariant Snapshot
  // relies on).
  for (size_t s = 0; s < tables_.size(); ++s) {
    bool changed = false;
    if (shared_aggregation_) {
      for (size_t seg = 0; seg <= s && !changed; ++seg) {
        changed = segment_weight_[seg] > 0.0;
      }
    } else {
      changed = slot_weight_[s] > 0.0;
    }
    if (!changed) continue;
    for (Shard& sh : shards_) {
      if (all_rows) {
        sh.versions.StampAll(s);
      } else {
        for (uint32_t r : sh.touched) {
          sh.versions.Stamp(s, static_cast<uint32_t>(r - sh.lo));
        }
      }
    }
  }
}

void HeteroServer::ApplyUpdate(const std::vector<LocalTaskSpec>& tasks,
                               const LocalUpdateResult& update,
                               double scale) {
  HFR_CHECK(!round_open_);
  HFR_CHECK_GE(scale, 0.0);
  BeginRound();
  UploadDelta(tasks, update, scale);
  // Force sum semantics for the single accumulated update: under kMean the
  // weight would normalize itself away (scale/scale = 1).
  const AggregationMode saved = aggregation_;
  aggregation_ = AggregationMode::kSum;
  FinishRound();
  aggregation_ = saved;
}

double HeteroServer::Distill(const DistillationOptions& options, Rng* rng) {
  HFR_PROFILE("distill");
  if (tables_.size() < 2) return 0.0;
  std::vector<Matrix*> ptrs;
  ptrs.reserve(tables_.size());
  for (auto& t : tables_) ptrs.push_back(&t);
  std::vector<ItemId> sampled;
  const double loss = EnsembleDistill(ptrs, options, rng, &sampled);
  // RESKD dirties the Vkd rows of *every* slot — including rows outside any
  // client's touched set — so their versions must advance or replicas would
  // serve stale bytes.
  for (size_t s = 0; s < tables_.size(); ++s) {
    for (ItemId i : sampled) {
      Shard& sh = shards_[shard_of_row(static_cast<size_t>(i))];
      sh.versions.Stamp(s, static_cast<uint32_t>(i - sh.lo));
    }
  }
  return loss;
}

void HeteroServer::StampRows(size_t slot, const std::vector<uint32_t>& rows) {
  for (uint32_t r : rows) {
    Shard& sh = shards_[shard_of_row(r)];
    sh.versions.Stamp(slot, static_cast<uint32_t>(r - sh.lo));
  }
}

AdmissionDecision HeteroServer::Admit(
    const std::vector<LocalTaskSpec>& tasks, LocalUpdateResult* update) {
  HFR_CHECK(admission_ != nullptr);
  HFR_CHECK(!tasks.empty());
  // The last task is the client's own width — the slot whose accepted-norm
  // window this update is comparable with.
  return admission_->Admit(tasks.back().slot, update);
}

ServerSnapshot HeteroServer::Snapshot() const {
  ServerSnapshot snap;
  snap.tables = tables_;
  snap.thetas = thetas_;
  snap.version_round = shards_[0].versions.round();
  snap.version_floors.reserve(tables_.size());
  snap.versions.reserve(tables_.size());
  for (size_t s = 0; s < tables_.size(); ++s) {
    // Floors are identical across shards (dense rounds StampAll every
    // shard in lockstep), so shard 0's floor is the global floor.
    snap.version_floors.push_back(shards_[0].versions.floor_of(s));
    std::vector<uint64_t> merged;
    merged.reserve(num_items_);
    for (const Shard& sh : shards_) {
      const std::vector<uint64_t>& local = sh.versions.slot_versions(s);
      merged.insert(merged.end(), local.begin(), local.end());
    }
    snap.versions.push_back(std::move(merged));
  }
  return snap;
}

void HeteroServer::RestoreSnapshot(ServerSnapshot snapshot) {
  HFR_CHECK(!round_open_);
  HFR_CHECK_EQ(snapshot.tables.size(), tables_.size());
  HFR_CHECK_EQ(snapshot.thetas.size(), thetas_.size());
  for (size_t s = 0; s < tables_.size(); ++s) {
    HFR_CHECK_EQ(snapshot.tables[s].rows(), tables_[s].rows());
    HFR_CHECK_EQ(snapshot.tables[s].cols(), tables_[s].cols());
    HFR_CHECK_EQ(snapshot.thetas[s].ParamCount(), thetas_[s].ParamCount());
    HFR_CHECK_EQ(snapshot.versions[s].size(), num_items_);
  }
  tables_ = std::move(snapshot.tables);
  thetas_ = std::move(snapshot.thetas);
  for (Shard& sh : shards_) {
    std::vector<std::vector<uint64_t>> local(tables_.size());
    for (size_t s = 0; s < tables_.size(); ++s) {
      const std::vector<uint64_t>& global = snapshot.versions[s];
      local[s].assign(global.begin() + sh.lo,
                      global.begin() + sh.lo + sh.rows);
    }
    sh.versions.Restore(snapshot.version_round, snapshot.version_floors,
                        local);
  }
}

std::unique_ptr<ServerApi> MakeServer(const HeteroServer::Options& options,
                                      size_t server_shards) {
  return std::make_unique<HeteroServer>(options,
                                        std::max<size_t>(1, server_shards));
}

}  // namespace hetefedrec
