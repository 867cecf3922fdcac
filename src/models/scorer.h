// Slice-aware scoring for the two base recommenders (NCF, LightGCN).
//
// A `Scorer` evaluates r̂ = FFN([pu, pv]) at a chosen embedding width `w`,
// reading only the first `w` columns of the item embedding table and the
// first `w` entries of the user embedding. This "sliced view" is the
// mechanism behind unified dual-task learning (Eq. 11): a client holding a
// width-Nl model trains the same parameters at widths Ns, Nm and Nl by
// instantiating three scorers over shared storage.
//
//   NCF (He et al. 2017):      pu = u,            pv = v_j
//   LightGCN (He et al. 2020): one propagation layer over the client's
//   *local* bipartite graph (privacy: the user sees only its own edges), so
//   every interacted item has degree 1 and
//       pu = (u + Σ_{i∈N(u)} v_i / √d_u) / 2,
//       pv = (v_j + 1{j∈N(u)} · u / √d_u) / 2,
//   i.e. the mean of the layer-0 and layer-1 embeddings.
//
// Backward accumulates into caller-owned gradient buffers. LightGCN's
// gradient into Σ v_i is identical for every interacted item, so it is
// accumulated once per user and scattered by `FinishUserBackward`.
//
// Scoring is batched: `ScoreBatch`/`ScoreRange` push an item-id span
// through the FFN in width-blocked batches (evaluation and local
// validation; RESKD is batched separately via the GramMatrix kernel), and
// `ScoreForTrainBatch` + `BackwardBatch` run a user's whole per-epoch
// sample set as one forward/backward block. On the double backend every
// batched entry point is bit-identical per item/sample to its scalar
// counterpart (`Score`, `ScoreForTrain` + `BackwardSample`), which remain
// as the reference path — see src/math/kernels.h for the
// accumulation-order argument and tests/models/scorer_batch_test.cc for
// the pins.
//
// The class is templated on the working scalar S (double = reference,
// float = fp32 compute backend, src/math/backend.h), and the table and
// gradient parameters are member templates so the same code runs over a
// dense `MatrixT<S>` (evaluation, reference path) or over the sparse
// containers of src/math/sparse.h (`RowOverlayTableT<S>` reads /
// `SparseRowStoreT<S>` gradient writes) without a virtual call per row.
// Explicit instantiations for all combinations live in scorer.cc.
#ifndef HETEFEDREC_MODELS_SCORER_H_
#define HETEFEDREC_MODELS_SCORER_H_

#include <string>
#include <vector>

#include "src/data/types.h"
#include "src/math/matrix.h"
#include "src/models/ffn.h"
#include "src/util/status.h"

namespace hetefedrec {

/// Which base recommendation algorithm F to use (§III-B).
enum class BaseModel { kNcf, kLightGcn };

/// Parses "ncf" / "lightgcn".
StatusOr<BaseModel> BaseModelByName(const std::string& name);

/// Human-readable name ("Fed-NCF" / "Fed-LightGCN").
std::string BaseModelName(BaseModel model);

/// The name BaseModelByName parses ("ncf" / "lightgcn").
std::string BaseModelShortName(BaseModel model);

/// \brief Width-w scoring view over shared parameters (scalar S).
///
/// Usage per user and pass:
///   scorer.BeginUser(user_emb, V, interacted);
///   evaluation: ScoreBatch / ScoreRange (or per-item Score);
///   training:   ScoreForTrainBatch + BackwardBatch (or the per-sample
///               ScoreForTrain + BackwardSample pair), then
///   scorer.FinishUserBackward(...);   // training passes only
template <typename S>
class ScorerT {
 public:
  using Scalar = S;

  /// Items per FFN block in ScoreBatch/ScoreRange: bounds the assembled
  /// item-half block to kScoreBlock x w scalars of scorer-owned scratch
  /// (the user half is shared as a layer-0 prefix, never materialized).
  static constexpr size_t kScoreBlock = 128;

  /// \param model base algorithm.
  /// \param width embedding slice width w (first w dims are used).
  ScorerT(BaseModel model, size_t width);

  size_t width() const { return width_; }
  BaseModel model() const { return model_; }

  /// Prepares per-user state: copies the user slice and, for LightGCN, runs
  /// the local propagation over `interacted` (the user's training items).
  /// `V` must have at least `width` columns. `TableT` is `MatrixT<S>` or
  /// `RowOverlayTableT<S>`. Also fills the user half of the FFN input
  /// scratch once, so per-item scoring rewrites only the item half.
  /// The scorer keeps a pointer to `interacted`: it must outlive every
  /// ScoreRange (LightGCN rescores the interacted items of a span) and
  /// FinishUserBackward call for this user.
  template <typename TableT>
  void BeginUser(const S* user_emb, const TableT& item_table,
                 const std::vector<ItemId>& interacted);

  /// Per-sample context for BackwardSample.
  struct TrainCache {
    typename FeedForwardNetT<S>::Cache ffn;
    ItemId item = 0;
    bool item_is_interacted = false;
  };

  /// Batch-of-samples context for BackwardBatch.
  struct BatchTrainCache {
    typename FeedForwardNetT<S>::BatchCache ffn;
    std::vector<ItemId> items;
    std::vector<uint8_t> item_is_interacted;
  };

  /// Scores item `j` (logit). Requires a prior BeginUser.
  template <typename TableT>
  S Score(const TableT& item_table, const FeedForwardNetT<S>& theta,
          ItemId j) const;

  /// Scores the `n` items `ids[0..n)` into out[0..n), batching the FFN
  /// forwards in blocks of kScoreBlock. On the double backend
  /// bit-identical per item to Score().
  template <typename TableT>
  void ScoreBatch(const TableT& item_table, const FeedForwardNetT<S>& theta,
                  const ItemId* ids, size_t n, S* out) const;

  /// ScoreBatch over the contiguous item-id span [first, first + n) —
  /// the full-catalogue evaluation shape. Reads the `interacted` vector
  /// passed to BeginUser.
  template <typename TableT>
  void ScoreRange(const TableT& item_table, const FeedForwardNetT<S>& theta,
                  ItemId first, size_t n, S* out) const;

  /// Scores item `j` and fills `cache` for BackwardSample.
  template <typename TableT>
  S ScoreForTrain(const TableT& item_table, const FeedForwardNetT<S>& theta,
                  ItemId j, TrainCache* cache);

  /// Scores the `n` sample items `items[0..n)` in one FFN forward block,
  /// filling `cache` for BackwardBatch and one logit per sample into
  /// `logits`. On the double backend bit-identical per sample to
  /// ScoreForTrain().
  template <typename TableT>
  void ScoreForTrainBatch(const TableT& item_table,
                          const FeedForwardNetT<S>& theta, const ItemId* items,
                          size_t n, BatchTrainCache* cache, S* logits);

  /// Accumulates gradients for one sample given dL/dlogit.
  /// \param d_item_table |V| x width gradient sink (`MatrixT<S>` or
  ///   `SparseRowStoreT<S>`; may be wider — leading cols used).
  /// \param d_user length >= width; first `width` entries accumulated.
  /// \param d_theta same-shape gradient accumulator for `theta`.
  template <typename GradT>
  void BackwardSample(const FeedForwardNetT<S>& theta, const TrainCache& cache,
                      S dlogit, GradT* d_item_table, S* d_user,
                      FeedForwardNetT<S>* d_theta);

  /// Batched BackwardSample over a ScoreForTrainBatch cache: one FFN
  /// BackwardBatch, then the embedding scatters in ascending sample order —
  /// on the double backend bit-identical to per-sample BackwardSample
  /// calls in the same order.
  template <typename GradT>
  void BackwardBatch(const FeedForwardNetT<S>& theta,
                     const BatchTrainCache& cache, const S* dlogits,
                     GradT* d_item_table, S* d_user,
                     FeedForwardNetT<S>* d_theta);

  /// Flushes LightGCN's deferred propagation gradient into the interacted
  /// items' rows and the user embedding. No-op for NCF. Must be called once
  /// after the last BackwardSample of a pass.
  template <typename GradT>
  void FinishUserBackward(GradT* d_item_table, S* d_user);

 private:
  /// Writes the item half [pu | *here*] of one assembled FFN input row.
  template <typename TableT>
  void FillItemHalf(const TableT& item_table, ItemId j, S* dst) const;

  /// Fills prefix_ with the current user's shared layer-0 partial sums.
  void PreparePrefix(const FeedForwardNetT<S>& theta) const;

  /// Shared blocked-scoring loop behind ScoreBatch/ScoreRange: assembles
  /// item halves for items id_of(0..n) in kScoreBlock chunks and runs
  /// ForwardBatchFromPrefix on each. Requires a prior PreparePrefix.
  template <typename TableT, typename IdFn>
  void ScoreBlocks(const TableT& item_table, const FeedForwardNetT<S>& theta,
                   size_t n, IdFn id_of, S* out) const;

  /// After an in-place LightGCN ScoreRange over [first, first + n):
  /// rescores the user's interacted items inside the span from their
  /// assembled halves (which carry the propagation term) into `out`.
  template <typename TableT>
  void RescoreInteracted(const TableT& item_table,
                         const FeedForwardNetT<S>& theta, ItemId first,
                         size_t n, S* out) const;

  BaseModel model_;
  size_t width_;

  // Per-user state set by BeginUser.
  AlignedVector<S> pu_;                // propagated user embedding
  AlignedVector<S> raw_user_;          // first `width` entries of u
  const std::vector<ItemId>* interacted_ = nullptr;
  std::vector<bool> is_interacted_;    // indexed by item id
  S inv_sqrt_deg_ = S(0);

  // Deferred LightGCN gradient: sum over samples of dL/d(pu).
  AlignedVector<S> dpu_accum_;
  bool pending_backward_ = false;

  // Scratch buffers. x_'s user half is filled once per BeginUser. Batched
  // evaluation shares the user half across the whole batch as a layer-0
  // prefix (ForwardPrefix), so batch_x_ holds item halves only.
  mutable AlignedVector<S> x_;   // FFN input [pu, pv]
  AlignedVector<S> dx_;          // FFN input gradient
  mutable typename FeedForwardNetT<S>::Cache eval_cache_;
  mutable AlignedVector<S> prefix_;    // per-user layer-0 partial sums
  mutable AlignedVector<S> batch_x_;   // kScoreBlock x w item halves
  AlignedVector<S> train_x_;     // n x 2w training block
  AlignedVector<S> batch_dx_;    // n x 2w training input gradients
};

using Scorer = ScorerT<double>;
using ScorerF = ScorerT<float>;

}  // namespace hetefedrec

#endif  // HETEFEDREC_MODELS_SCORER_H_
