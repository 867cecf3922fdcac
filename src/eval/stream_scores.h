// The full-catalogue score callback: one user's scores over every item,
// pushed into the fused top-K sink block by block.
//
// Per-user scorer state (the layer-0 prefix and pu) survives across
// ScoreRange calls, so scoring block [first, first + bs) yields the exact
// per-item logits of one full-span pass while the score buffer only ever
// holds kEvalStreamBlock scores. The evaluator's metrics pipeline and the
// sink are fp64 on every backend; float scores (fp32 backends) are upcast
// block by block.
#ifndef HETEFEDREC_EVAL_STREAM_SCORES_H_
#define HETEFEDREC_EVAL_STREAM_SCORES_H_

#include <algorithm>
#include <cstddef>
#include <type_traits>
#include <vector>

#include "src/data/types.h"
#include "src/eval/topk.h"
#include "src/math/matrix.h"
#include "src/models/ffn.h"
#include "src/models/scorer.h"

namespace hetefedrec {

/// Items scored per block pushed to the top-K sink.
inline constexpr size_t kEvalStreamBlock = 8 * Scorer::kScoreBlock;

/// Scores all table.rows() items for the user `sc` was begun with (requires
/// a prior BeginUser on `sc`) and pushes them to `sink` in ascending blocks
/// of kEvalStreamBlock: each block through ScoreRange, or through per-item
/// Score (the reference path) when `use_batched` is false. `buf` is the
/// caller's fp64 block buffer (resized here); S = float scores into a
/// per-thread float block first.
template <typename S>
void StreamScoresForEval(const ScorerT<S>& sc, const MatrixT<S>& table,
                         const FeedForwardNetT<S>& theta, bool use_batched,
                         std::vector<double>* buf, TopKSelector* sink) {
  const size_t n = table.rows();
  const size_t cap = std::min(kEvalStreamBlock, n);
  buf->resize(cap);
  S* scores = nullptr;
  if constexpr (std::is_same_v<S, double>) {
    scores = buf->data();
  } else {
    thread_local std::vector<S> tmp;
    tmp.resize(cap);
    scores = tmp.data();
  }
  for (size_t first = 0; first < n; first += kEvalStreamBlock) {
    const size_t bs = std::min(kEvalStreamBlock, n - first);
    if (use_batched) {
      sc.ScoreRange(table, theta, static_cast<ItemId>(first), bs, scores);
    } else {
      for (size_t i = 0; i < bs; ++i) {
        scores[i] = sc.Score(table, theta, static_cast<ItemId>(first + i));
      }
    }
    if constexpr (!std::is_same_v<S, double>) {
      for (size_t i = 0; i < bs; ++i) {
        (*buf)[i] = static_cast<double>(scores[i]);
      }
    }
    sink->Push(static_cast<ItemId>(first), buf->data(), bs);
  }
}

}  // namespace hetefedrec

#endif  // HETEFEDREC_EVAL_STREAM_SCORES_H_
