#include "src/eval/topk.h"

#include <algorithm>
#include <cmath>

#include "src/util/logging.h"

namespace hetefedrec {

namespace {
// Candidate lists below this size go straight to the heap: two histogram
// passes plus a pool gather cannot beat one bounded-heap sweep over a few
// cache lines of scores.
constexpr size_t kCascadeMinN = 256;
// Histogram resolution of the threshold cascade. With uniform-ish scores
// the surviving pool is ~n/kCascadeBuckets · (buckets at or above the
// threshold) + k entries, so 64 buckets keep the final sort tiny without
// a large per-user counter reset.
constexpr size_t kCascadeBuckets = 64;
}  // namespace

void TopKSelector::Begin(size_t k, const std::vector<bool>* mask) {
  k_ = k;
  mask_ = mask;
  heap_.clear();
  heapified_ = false;
  if (heap_.capacity() < k) heap_.reserve(k);
}

void TopKSelector::Heapify() {
  std::make_heap(heap_.begin(), heap_.end(), Better);
  heapified_ = true;
  worst_ = heap_.front().score;
  worst_id_ = heap_.front().id;
}

void TopKSelector::ReplaceRoot(double score, ItemId id) {
  const size_t size = heap_.size();
  size_t pos = 0;
  heap_[0] = Entry{score, id};
  while (true) {
    size_t child = 2 * pos + 1;
    if (child >= size) break;
    // Sift towards the *worse* child: the heap keeps the worst retained
    // entry at the front.
    const size_t right = child + 1;
    if (right < size && Better(heap_[child], heap_[right])) child = right;
    if (!Better(heap_[pos], heap_[child])) break;
    std::swap(heap_[pos], heap_[child]);
    pos = child;
  }
  worst_ = heap_.front().score;
  worst_id_ = heap_.front().id;
}

void TopKSelector::Push(ItemId first, const double* scores, size_t n) {
  const std::vector<bool>* mask = mask_;
  size_t i = 0;
  // Warm-up: collect the first k entries unordered, heapify on the k-th.
  while (!heapified_ && i < n) {
    if (k_ == 0) return;
    const ItemId id = static_cast<ItemId>(first + i);
    if (mask == nullptr || !(*mask)[id]) {
      heap_.push_back(Entry{scores[i], id});
      if (heap_.size() == k_) Heapify();
    }
    ++i;
  }
  for (; i < n; ++i) {
    // Hot reject: almost every item scores strictly below the current
    // k-th best and costs exactly one compare, ahead of the mask's bit
    // lookup. Both tests only filter, so their order changes nothing.
    const double s = scores[i];
    if (s < worst_) continue;
    const ItemId id = static_cast<ItemId>(first + i);
    if (mask != nullptr && (*mask)[id]) continue;
    if (s == worst_ && id > worst_id_) continue;
    ReplaceRoot(s, id);
  }
}

void TopKSelector::PushIds(const ItemId* ids, const double* scores, size_t n) {
  const std::vector<bool>* mask = mask_;
  size_t i = 0;
  while (!heapified_ && i < n) {
    if (k_ == 0) return;
    if (mask == nullptr || !(*mask)[ids[i]]) {
      heap_.push_back(Entry{scores[i], ids[i]});
      if (heap_.size() == k_) Heapify();
    }
    ++i;
  }
  for (; i < n; ++i) {
    const double s = scores[i];
    if (s < worst_) continue;
    if (mask != nullptr && (*mask)[ids[i]]) continue;
    if (s == worst_ && ids[i] > worst_id_) continue;
    ReplaceRoot(s, ids[i]);
  }
}

void TopKSelector::Finish(std::vector<ItemId>* out) {
  std::sort(heap_.begin(), heap_.end(), Better);
  out->resize(heap_.size());
  for (size_t i = 0; i < heap_.size(); ++i) (*out)[i] = heap_[i].id;
  heap_.clear();
  heapified_ = false;
  mask_ = nullptr;
  k_ = 0;
}

void TopKSelector::SelectMasked(const std::vector<double>& scores,
                                const std::vector<bool>& masked, size_t k,
                                std::vector<ItemId>* out) {
  HFR_CHECK_EQ(scores.size(), masked.size());
  Begin(k, &masked);
  Push(0, scores.data(), scores.size());
  Finish(out);
}

void TopKSelector::SelectFromCandidates(const std::vector<ItemId>& ids,
                                        const std::vector<double>& scores,
                                        size_t k, std::vector<ItemId>* out) {
  HFR_CHECK_EQ(ids.size(), scores.size());
  const size_t n = ids.size();
  k = std::min(k, n);
  if (k == 0) {
    out->clear();
    return;
  }
  // Path choice: the bounded heap does one compare per element plus
  // ~k·ln(n/k) sift-downs — unbeatable while k << n. Once k is a sizable
  // fraction of n the replacement churn grows and the histogram cascade's
  // fixed three passes win; the cutover is empirical (BM_TopKCandidates).
  if (n >= kCascadeMinN && k >= n / 8 &&
      SelectCascade(ids.data(), scores.data(), n, k, out)) {
    return;
  }
  Begin(k, nullptr);
  PushIds(ids.data(), scores.data(), n);
  Finish(out);
}

bool TopKSelector::SelectCascade(const ItemId* ids, const double* scores,
                                 size_t n, size_t k,
                                 std::vector<ItemId>* out) {
  double lo = scores[0];
  double hi = scores[0];
  for (size_t i = 1; i < n; ++i) {
    lo = std::min(lo, scores[i]);
    hi = std::max(hi, scores[i]);
  }
  // Degenerate range: all scores equal, ±inf endpoints, a finite range
  // whose width overflows to +inf (e.g. -1e308..1e308), or a subnormal
  // width whose reciprocal overflows — any of these would feed NaN into
  // the bucket index cast (UB). The histogram cannot discriminate there;
  // caller falls back to the exact heap.
  const double width = hi - lo;
  if (!std::isfinite(lo) || !std::isfinite(hi) || !std::isfinite(width) ||
      width <= 0.0) {
    return false;
  }
  const double inv_width = static_cast<double>(kCascadeBuckets) / width;
  if (!std::isfinite(inv_width)) return false;

  // Pass 1: histogram scores into kCascadeBuckets equal-width buckets,
  // bucket 0 holding the highest scores; remember each entry's bucket so
  // the gather pass below is a table lookup, not a float recompute.
  bucket_counts_.assign(kCascadeBuckets, 0);
  bucket_of_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const size_t b = std::min(static_cast<size_t>((hi - scores[i]) * inv_width),
                              kCascadeBuckets - 1);
    bucket_of_[i] = static_cast<uint8_t>(b);
    bucket_counts_[b]++;
  }

  // The threshold bucket: the first one where the running count reaches k.
  // Every entry in a strictly higher bucket is in the top-k; entries in the
  // threshold bucket compete on the exact comparator.
  size_t threshold = 0;
  size_t above = 0;
  while (above + bucket_counts_[threshold] < k) {
    above += bucket_counts_[threshold];
    ++threshold;
  }

  // Pass 2: gather the surviving pool and rank it exactly.
  cascade_pool_.clear();
  for (size_t i = 0; i < n; ++i) {
    if (bucket_of_[i] <= threshold) {
      cascade_pool_.push_back(Entry{scores[i], ids[i]});
    }
  }
  HFR_CHECK_GE(cascade_pool_.size(), k);
  std::partial_sort(cascade_pool_.begin(), cascade_pool_.begin() + k,
                    cascade_pool_.end(), Better);
  out->resize(k);
  for (size_t i = 0; i < k; ++i) (*out)[i] = cascade_pool_[i].id;
  return true;
}

void TopKSelector::SelectMaskedReference(const std::vector<double>& scores,
                                         const std::vector<bool>& masked,
                                         size_t k,
                                         std::vector<ItemId>* out) {
  HFR_CHECK_EQ(scores.size(), masked.size());
  ref_ids_.clear();
  ref_ids_.reserve(scores.size());
  for (size_t i = 0; i < scores.size(); ++i) {
    if (!masked[i]) ref_ids_.push_back(static_cast<ItemId>(i));
  }
  k = std::min(k, ref_ids_.size());
  // Stable ordering for ties: higher score first, then lower item id.
  auto better = [&scores](ItemId a, ItemId b) {
    if (scores[a] != scores[b]) return scores[a] > scores[b];
    return a < b;
  };
  std::partial_sort(ref_ids_.begin(), ref_ids_.begin() + k, ref_ids_.end(),
                    better);
  out->assign(ref_ids_.begin(), ref_ids_.begin() + k);
}

void TopKSelector::SelectFromCandidatesReference(
    const std::vector<ItemId>& ids, const std::vector<double>& scores,
    size_t k, std::vector<ItemId>* out) {
  HFR_CHECK_EQ(ids.size(), scores.size());
  ref_order_.resize(ids.size());
  for (size_t i = 0; i < ref_order_.size(); ++i) ref_order_[i] = i;
  k = std::min(k, ref_order_.size());
  auto better = [&](size_t a, size_t b) {
    if (scores[a] != scores[b]) return scores[a] > scores[b];
    return ids[a] < ids[b];
  };
  std::partial_sort(ref_order_.begin(), ref_order_.begin() + k,
                    ref_order_.end(), better);
  out->resize(k);
  for (size_t i = 0; i < k; ++i) (*out)[i] = ids[ref_order_[i]];
}

}  // namespace hetefedrec
