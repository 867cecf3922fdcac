#include "src/models/scorer.h"

#include <algorithm>
#include <cmath>
#include <type_traits>

#include "src/math/sparse.h"

namespace hetefedrec {

StatusOr<BaseModel> BaseModelByName(const std::string& name) {
  if (name == "ncf") return BaseModel::kNcf;
  if (name == "lightgcn") return BaseModel::kLightGcn;
  return Status::InvalidArgument("unknown base model '" + name +
                                 "' (expected ncf|lightgcn)");
}

std::string BaseModelName(BaseModel model) {
  return model == BaseModel::kNcf ? "Fed-NCF" : "Fed-LightGCN";
}

std::string BaseModelShortName(BaseModel model) {
  return model == BaseModel::kNcf ? "ncf" : "lightgcn";
}

template <typename S>
ScorerT<S>::ScorerT(BaseModel model, size_t width)
    : model_(model), width_(width) {
  HFR_CHECK_GT(width, 0u);
  x_.resize(2 * width);
  dx_.resize(2 * width);
}

template <typename S>
template <typename TableT>
void ScorerT<S>::BeginUser(const S* user_emb, const TableT& item_table,
                           const std::vector<ItemId>& interacted) {
  HFR_CHECK_GE(item_table.cols(), width_);
  raw_user_.assign(user_emb, user_emb + width_);
  interacted_ = &interacted;
  pending_backward_ = false;

  if (model_ == BaseModel::kNcf) {
    pu_ = raw_user_;
    std::copy(pu_.begin(), pu_.end(), x_.begin());
    return;
  }

  // LightGCN local propagation.
  is_interacted_.assign(item_table.rows(), false);
  for (ItemId i : interacted) {
    HFR_CHECK_LT(static_cast<size_t>(i), item_table.rows());
    is_interacted_[i] = true;
  }
  const S deg = static_cast<S>(interacted.size());
  inv_sqrt_deg_ = deg > S(0) ? S(1) / std::sqrt(deg) : S(0);

  const S half(0.5);
  pu_.assign(width_, S(0));
  for (ItemId i : interacted) {
    const S* row = item_table.Row(i);
    for (size_t d = 0; d < width_; ++d) pu_[d] += row[d];
  }
  for (size_t d = 0; d < width_; ++d) {
    pu_[d] = half * (raw_user_[d] + inv_sqrt_deg_ * pu_[d]);
  }
  std::copy(pu_.begin(), pu_.end(), x_.begin());
  dpu_accum_.assign(width_, S(0));
}

template <typename S>
template <typename TableT>
void ScorerT<S>::FillItemHalf(const TableT& item_table, ItemId j,
                              S* dst) const {
  HFR_CHECK_LT(static_cast<size_t>(j), item_table.rows());
  const S* vj = item_table.Row(j);
  if (model_ == BaseModel::kNcf) {
    std::copy(vj, vj + width_, dst);
  } else {
    const S half(0.5);
    const bool linked = is_interacted_[j];
    for (size_t d = 0; d < width_; ++d) {
      S prop = linked ? inv_sqrt_deg_ * raw_user_[d] : S(0);
      dst[d] = half * (vj[d] + prop);
    }
  }
}

template <typename S>
template <typename TableT>
S ScorerT<S>::Score(const TableT& item_table, const FeedForwardNetT<S>& theta,
                    ItemId j) const {
  HFR_CHECK_EQ(theta.input_dim(), 2 * width_);
  // The user half of x_ was filled by BeginUser; only the item half moves.
  FillItemHalf(item_table, j, x_.data() + width_);
  return theta.Forward(x_.data(), nullptr);
}

// Computes the per-user layer-0 prefix (bias + user-half terms) shared by
// every item of a batch — the batched structural win: the user half of
// [pu, pv] contributes identical first-layer partial sums for all items,
// so it is accumulated once per user instead of once per item.
template <typename S>
void ScorerT<S>::PreparePrefix(const FeedForwardNetT<S>& theta) const {
  prefix_.resize(theta.weight(0).cols());
  theta.ForwardPrefix(pu_.data(), width_, prefix_.data());
}

template <typename S>
template <typename TableT, typename IdFn>
void ScorerT<S>::ScoreBlocks(const TableT& item_table,
                             const FeedForwardNetT<S>& theta, size_t n,
                             IdFn id_of, S* out) const {
  if (batch_x_.size() != kScoreBlock * width_) {
    batch_x_.resize(kScoreBlock * width_);
  }
  for (size_t done = 0; done < n; done += kScoreBlock) {
    const size_t bs = std::min(kScoreBlock, n - done);
    for (size_t b = 0; b < bs; ++b) {
      FillItemHalf(item_table, id_of(done + b), batch_x_.data() + b * width_);
    }
    theta.ForwardBatchFromPrefix(prefix_.data(), batch_x_.data(), bs, width_,
                                 width_, out + done);
  }
}

template <typename S>
template <typename TableT>
void ScorerT<S>::ScoreBatch(const TableT& item_table,
                            const FeedForwardNetT<S>& theta, const ItemId* ids,
                            size_t n, S* out) const {
  HFR_CHECK_EQ(theta.input_dim(), 2 * width_);
  PreparePrefix(theta);
  ScoreBlocks(item_table, theta, n, [ids](size_t k) { return ids[k]; }, out);
}

template <typename S>
template <typename TableT>
void ScorerT<S>::ScoreRange(const TableT& item_table,
                            const FeedForwardNetT<S>& theta, ItemId first,
                            size_t n, S* out) const {
  HFR_CHECK_EQ(theta.input_dim(), 2 * width_);
  PreparePrefix(theta);
  if constexpr (std::is_same_v<TableT, MatrixT<S>>) {
    // Dense spans are scored in place with the table's row stride — zero
    // assembly. NCF item halves are the rows themselves. A LightGCN item
    // outside N(u) has the half 0.5·(v_j + 0); the in-place pass feeds
    // 0.5·v_j, which differs only where v_j = -0, an input the fp64 zero
    // skip drops either way, so its logits are exact. (The fp32 kernels
    // have no zero skip, so float LightGCN keeps the assembled path.)
    // Interacted items carry the propagation term: RescoreInteracted
    // overwrites theirs from the assembled halves.
    const bool lightgcn = model_ == BaseModel::kLightGcn;
    if (!lightgcn || std::is_same_v<S, double>) {
      HFR_CHECK_LE(static_cast<size_t>(first) + n, item_table.rows());
      const S scale = lightgcn ? S(0.5) : S(1);
      for (size_t done = 0; done < n; done += kScoreBlock) {
        const size_t bs = std::min(kScoreBlock, n - done);
        theta.ForwardBatchFromPrefix(
            prefix_.data(), item_table.Row(static_cast<size_t>(first) + done),
            bs, width_, item_table.cols(), out + done, scale);
      }
      if (lightgcn) RescoreInteracted(item_table, theta, first, n, out);
      return;
    }
  }
  ScoreBlocks(
      item_table, theta, n,
      [first](size_t k) { return static_cast<ItemId>(first + k); }, out);
}

template <typename S>
template <typename TableT>
void ScorerT<S>::RescoreInteracted(const TableT& item_table,
                                   const FeedForwardNetT<S>& theta,
                                   ItemId first, size_t n, S* out) const {
  // Per-thread scratch rather than members: ScorerT is embedded in the
  // training loop's state, and growing it slowed fp32 training measurably.
  thread_local std::vector<ItemId> ids;
  thread_local std::vector<S> scores;
  ids.clear();
  for (ItemId i : *interacted_) {
    if (i >= first && static_cast<size_t>(i - first) < n) ids.push_back(i);
  }
  scores.resize(ids.size());
  ScoreBlocks(
      item_table, theta, ids.size(), [](size_t k) { return ids[k]; },
      scores.data());
  for (size_t k = 0; k < ids.size(); ++k) out[ids[k] - first] = scores[k];
}

template <typename S>
template <typename TableT>
S ScorerT<S>::ScoreForTrain(const TableT& item_table,
                            const FeedForwardNetT<S>& theta, ItemId j,
                            TrainCache* cache) {
  HFR_CHECK_EQ(theta.input_dim(), 2 * width_);
  cache->item = j;
  cache->item_is_interacted =
      model_ == BaseModel::kLightGcn && is_interacted_[j];
  FillItemHalf(item_table, j, x_.data() + width_);
  pending_backward_ = true;
  return theta.Forward(x_.data(), &cache->ffn);
}

template <typename S>
template <typename TableT>
void ScorerT<S>::ScoreForTrainBatch(const TableT& item_table,
                                    const FeedForwardNetT<S>& theta,
                                    const ItemId* items, size_t n,
                                    BatchTrainCache* cache, S* logits) {
  HFR_CHECK_EQ(theta.input_dim(), 2 * width_);
  const size_t row_len = 2 * width_;
  train_x_.resize(n * row_len);
  cache->items.assign(items, items + n);
  cache->item_is_interacted.resize(n);
  for (size_t b = 0; b < n; ++b) {
    S* row = train_x_.data() + b * row_len;
    std::copy(pu_.begin(), pu_.end(), row);
    FillItemHalf(item_table, items[b], row + width_);
    cache->item_is_interacted[b] =
        model_ == BaseModel::kLightGcn && is_interacted_[items[b]] ? 1 : 0;
  }
  pending_backward_ = n > 0;
  theta.ForwardBatch(train_x_.data(), n, &cache->ffn, logits);
}

template <typename S>
template <typename GradT>
void ScorerT<S>::BackwardSample(const FeedForwardNetT<S>& theta,
                                const TrainCache& cache, S dlogit,
                                GradT* d_item_table, S* d_user,
                                FeedForwardNetT<S>* d_theta) {
  HFR_CHECK_GE(d_item_table->cols(), width_);
  theta.Backward(cache.ffn, dlogit, d_theta, dx_.data());
  const S* dpu = dx_.data();
  const S* dpv = dx_.data() + width_;
  S* dvj = d_item_table->MutableRow(cache.item);

  if (model_ == BaseModel::kNcf) {
    for (size_t d = 0; d < width_; ++d) {
      d_user[d] += dpu[d];
      dvj[d] += dpv[d];
    }
    return;
  }

  // LightGCN: pu = (u + Σ v_i /√d)/2 ; pv_j = (v_j + 1{j∈N(u)} u/√d)/2.
  const S half(0.5);
  for (size_t d = 0; d < width_; ++d) {
    d_user[d] += half * dpu[d];
    dpu_accum_[d] += dpu[d];  // scattered to v_i rows in FinishUserBackward
    dvj[d] += half * dpv[d];
  }
  if (cache.item_is_interacted) {
    const S s = half * inv_sqrt_deg_;
    for (size_t d = 0; d < width_; ++d) d_user[d] += s * dpv[d];
  }
}

template <typename S>
template <typename GradT>
void ScorerT<S>::BackwardBatch(const FeedForwardNetT<S>& theta,
                               const BatchTrainCache& cache, const S* dlogits,
                               GradT* d_item_table, S* d_user,
                               FeedForwardNetT<S>* d_theta) {
  HFR_CHECK_GE(d_item_table->cols(), width_);
  const size_t n = cache.ffn.batch;
  HFR_CHECK_EQ(cache.items.size(), n);
  batch_dx_.resize(n * 2 * width_);
  theta.BackwardBatch(cache.ffn, dlogits, d_theta, batch_dx_.data());
  // Embedding scatters in ascending sample order: multiple samples may hit
  // the same item row (or d_user / dpu_accum_), and sample order is what
  // the per-sample reference accumulates in.
  const S half(0.5);
  for (size_t b = 0; b < n; ++b) {
    const S* dpu = batch_dx_.data() + b * 2 * width_;
    const S* dpv = dpu + width_;
    S* dvj = d_item_table->MutableRow(cache.items[b]);
    if (model_ == BaseModel::kNcf) {
      for (size_t d = 0; d < width_; ++d) {
        d_user[d] += dpu[d];
        dvj[d] += dpv[d];
      }
      continue;
    }
    for (size_t d = 0; d < width_; ++d) {
      d_user[d] += half * dpu[d];
      dpu_accum_[d] += dpu[d];
      dvj[d] += half * dpv[d];
    }
    if (cache.item_is_interacted[b]) {
      const S s = half * inv_sqrt_deg_;
      for (size_t d = 0; d < width_; ++d) d_user[d] += s * dpv[d];
    }
  }
}

template <typename S>
template <typename GradT>
void ScorerT<S>::FinishUserBackward(GradT* d_item_table, S* d_user) {
  (void)d_user;
  pending_backward_ = false;
  if (model_ == BaseModel::kNcf || interacted_ == nullptr) return;
  const S s = S(0.5) * inv_sqrt_deg_;
  for (ItemId i : *interacted_) {
    S* row = d_item_table->MutableRow(i);
    for (size_t d = 0; d < width_; ++d) row[d] += s * dpu_accum_[d];
  }
  std::fill(dpu_accum_.begin(), dpu_accum_.end(), S(0));
}

// Explicit instantiations per scalar backend: dense (evaluation + reference
// dense path) and sparse (row-touched client training).
#define HFR_INSTANTIATE_SCORER(S)                                             \
  template class ScorerT<S>;                                                  \
  template void ScorerT<S>::BeginUser<MatrixT<S>>(                            \
      const S*, const MatrixT<S>&, const std::vector<ItemId>&);               \
  template void ScorerT<S>::BeginUser<RowOverlayTableT<S>>(                   \
      const S*, const RowOverlayTableT<S>&, const std::vector<ItemId>&);      \
  template S ScorerT<S>::Score<MatrixT<S>>(                                   \
      const MatrixT<S>&, const FeedForwardNetT<S>&, ItemId) const;            \
  template S ScorerT<S>::Score<RowOverlayTableT<S>>(                          \
      const RowOverlayTableT<S>&, const FeedForwardNetT<S>&, ItemId) const;   \
  template void ScorerT<S>::ScoreBatch<MatrixT<S>>(                           \
      const MatrixT<S>&, const FeedForwardNetT<S>&, const ItemId*, size_t,    \
      S*) const;                                                              \
  template void ScorerT<S>::ScoreBatch<RowOverlayTableT<S>>(                  \
      const RowOverlayTableT<S>&, const FeedForwardNetT<S>&, const ItemId*,   \
      size_t, S*) const;                                                      \
  template void ScorerT<S>::ScoreRange<MatrixT<S>>(                           \
      const MatrixT<S>&, const FeedForwardNetT<S>&, ItemId, size_t, S*)       \
      const;                                                                  \
  template void ScorerT<S>::ScoreRange<RowOverlayTableT<S>>(                  \
      const RowOverlayTableT<S>&, const FeedForwardNetT<S>&, ItemId, size_t,  \
      S*) const;                                                              \
  template S ScorerT<S>::ScoreForTrain<MatrixT<S>>(                           \
      const MatrixT<S>&, const FeedForwardNetT<S>&, ItemId, TrainCache*);     \
  template S ScorerT<S>::ScoreForTrain<RowOverlayTableT<S>>(                  \
      const RowOverlayTableT<S>&, const FeedForwardNetT<S>&, ItemId,          \
      TrainCache*);                                                           \
  template void ScorerT<S>::ScoreForTrainBatch<MatrixT<S>>(                   \
      const MatrixT<S>&, const FeedForwardNetT<S>&, const ItemId*, size_t,    \
      BatchTrainCache*, S*);                                                  \
  template void ScorerT<S>::ScoreForTrainBatch<RowOverlayTableT<S>>(          \
      const RowOverlayTableT<S>&, const FeedForwardNetT<S>&, const ItemId*,   \
      size_t, BatchTrainCache*, S*);                                          \
  template void ScorerT<S>::BackwardSample<MatrixT<S>>(                       \
      const FeedForwardNetT<S>&, const TrainCache&, S, MatrixT<S>*, S*,       \
      FeedForwardNetT<S>*);                                                   \
  template void ScorerT<S>::BackwardSample<SparseRowStoreT<S>>(               \
      const FeedForwardNetT<S>&, const TrainCache&, S, SparseRowStoreT<S>*,   \
      S*, FeedForwardNetT<S>*);                                               \
  template void ScorerT<S>::BackwardBatch<MatrixT<S>>(                        \
      const FeedForwardNetT<S>&, const BatchTrainCache&, const S*,            \
      MatrixT<S>*, S*, FeedForwardNetT<S>*);                                  \
  template void ScorerT<S>::BackwardBatch<SparseRowStoreT<S>>(                \
      const FeedForwardNetT<S>&, const BatchTrainCache&, const S*,            \
      SparseRowStoreT<S>*, S*, FeedForwardNetT<S>*);                          \
  template void ScorerT<S>::FinishUserBackward<MatrixT<S>>(MatrixT<S>*, S*);  \
  template void ScorerT<S>::FinishUserBackward<SparseRowStoreT<S>>(           \
      SparseRowStoreT<S>*, S*)

HFR_INSTANTIATE_SCORER(double);
HFR_INSTANTIATE_SCORER(float);

#undef HFR_INSTANTIATE_SCORER

}  // namespace hetefedrec
