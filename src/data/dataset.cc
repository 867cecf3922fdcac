#include "src/data/dataset.h"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "src/util/logging.h"

namespace hetefedrec {

StatusOr<Dataset> Dataset::FromInteractions(
    const std::vector<Interaction>& interactions, size_t num_users,
    size_t num_items, const SplitOptions& options) {
  if (num_users == 0 || num_items == 0) {
    return Status::InvalidArgument("num_users and num_items must be positive");
  }
  if (options.train_fraction <= 0.0 || options.train_fraction > 1.0) {
    return Status::InvalidArgument("train_fraction must be in (0, 1]");
  }
  if (options.negatives_per_positive < 0) {
    return Status::InvalidArgument("negatives_per_positive must be >= 0");
  }

  // Bucket the interactions by user with a stable counting sort, so each
  // user's items keep their input order.
  std::vector<size_t> offsets(num_users + 1, 0);
  for (const Interaction& x : interactions) {
    if (x.user < 0 || static_cast<size_t>(x.user) >= num_users) {
      return Status::OutOfRange("user id out of range: " +
                                std::to_string(x.user));
    }
    if (x.item < 0 || static_cast<size_t>(x.item) >= num_items) {
      return Status::OutOfRange("item id out of range: " +
                                std::to_string(x.item));
    }
    ++offsets[x.user + 1];
  }
  for (size_t u = 0; u < num_users; ++u) offsets[u + 1] += offsets[u];
  std::vector<ItemId> items(interactions.size());
  {
    std::vector<size_t> next(offsets.begin(), offsets.end() - 1);
    for (const Interaction& x : interactions) items[next[x.user]++] = x.item;
  }

  // Collapse duplicates in place, keeping each item's first occurrence.
  // `mark` is cleared after each user, so it stays all-zero between users.
  std::vector<uint8_t> mark(num_items, 0);
  size_t kept = 0;
  for (size_t u = 0, begin = 0; u < num_users; ++u) {
    const size_t end = offsets[u + 1];
    offsets[u] = kept;
    for (size_t k = begin; k < end; ++k) {
      const ItemId item = items[k];
      if (mark[item]) continue;
      mark[item] = 1;
      items[kept++] = item;
    }
    for (size_t k = offsets[u]; k < kept; ++k) mark[items[k]] = 0;
    begin = end;
  }
  offsets[num_users] = kept;
  items.resize(kept);
  items.shrink_to_fit();

  Dataset ds;
  ds.num_items_ = num_items;
  ds.negatives_per_positive_ = options.negatives_per_positive;
  ds.train_.resize(num_users);
  ds.test_.resize(num_users);
  Rng rng(options.seed);
  std::vector<ItemId> user_items;
  for (size_t u = 0; u < num_users; ++u) {
    const auto first = items.begin() + offsets[u];
    const auto last = items.begin() + offsets[u + 1];
    user_items.assign(first, last);
    Rng user_rng = rng.Fork(u);
    user_rng.Shuffle(&user_items);
    // At least one item stays in train when the user has any data; a user
    // with >= 2 items keeps at least one test item only if the fraction
    // allows it (matching a plain 80/20 floor-based split).
    size_t n_train = static_cast<size_t>(
        options.train_fraction * static_cast<double>(user_items.size()));
    if (n_train == 0 && !user_items.empty()) n_train = 1;
    const auto split = user_items.begin() + n_train;
    ds.train_[u].assign(user_items.begin(), split);
    ds.test_[u].assign(split, user_items.end());
    // The user's slice of `items` becomes its sorted membership index.
    std::copy(user_items.begin(), user_items.end(), first);
    std::sort(first, first + n_train);
    std::sort(first + n_train, last);
  }
  ds.offsets_ = std::move(offsets);
  ds.sorted_ = std::move(items);
  return ds;
}

const std::vector<ItemId>& Dataset::TrainItems(UserId u) const {
  HFR_CHECK_LT(static_cast<size_t>(u), train_.size());
  return train_[u];
}

const std::vector<ItemId>& Dataset::TestItems(UserId u) const {
  HFR_CHECK_LT(static_cast<size_t>(u), test_.size());
  return test_[u];
}

size_t Dataset::TotalTrainInteractions() const {
  size_t total = 0;
  for (const auto& v : train_) total += v.size();
  return total;
}

size_t Dataset::TotalInteractions() const { return sorted_.size(); }

size_t Dataset::InteractionCount(UserId u) const {
  return TrainItems(u).size() + TestItems(u).size();
}

bool Dataset::HasInteracted(UserId u, ItemId i) const {
  HFR_CHECK_LT(static_cast<size_t>(u), train_.size());
  const ItemId* first = sorted_.data() + offsets_[u];
  const ItemId* split = first + train_[u].size();
  const ItemId* last = sorted_.data() + offsets_[u + 1];
  return std::binary_search(first, split, i) ||
         std::binary_search(split, last, i);
}

namespace {

// Rejection-samples up to `count` items uniformly from [0, num_items) that
// `is_positive` rejects, passing each to `emit`. The RNG draws depend only
// on the membership answers, so any exact test gives the same samples.
template <typename IsPositive, typename Emit>
void DrawNegatives(size_t num_items, size_t num_positives, size_t count,
                   Rng* rng, const IsPositive& is_positive, const Emit& emit) {
  // Interaction lists are sparse relative to the catalogue, so this
  // terminates quickly. Guard against pathological users who interacted
  // with (nearly) everything.
  if (num_positives >= num_items) return;
  size_t drawn = 0;
  size_t attempts = 0;
  const size_t max_attempts = 50 * (count + 1);
  while (drawn < count && attempts < max_attempts) {
    ++attempts;
    const ItemId cand = static_cast<ItemId>(rng->UniformInt(num_items));
    if (!is_positive(cand)) {
      emit(cand);
      ++drawn;
    }
  }
}

}  // namespace

std::vector<ItemId> Dataset::SampleNegatives(UserId u, size_t count,
                                             Rng* rng) const {
  HFR_CHECK_LT(static_cast<size_t>(u), train_.size());
  // The user's training positives, sorted.
  const ItemId* first = sorted_.data() + offsets_[u];
  const ItemId* last = first + train_[u].size();
  std::vector<ItemId> out;
  out.reserve(count);
  DrawNegatives(
      num_items_, train_[u].size(), count, rng,
      [&](ItemId i) { return std::binary_search(first, last, i); },
      [&](ItemId i) { out.push_back(i); });
  return out;
}

std::vector<Sample> Dataset::BuildLocalEpoch(UserId u, Rng* rng) const {
  return BuildEpochFromPositives(u, TrainItems(u), rng);
}

std::vector<Sample> Dataset::BuildEpochFromPositives(
    UserId u, const std::vector<ItemId>& positives, Rng* rng) const {
  // One bit per catalogue item marks the user's training positives, so
  // each of the epoch's draws is tested in O(1); the draws are those of
  // SampleNegatives.
  const std::vector<ItemId>& train = TrainItems(u);
  std::vector<uint64_t> is_train((num_items_ + 63) / 64, 0);
  for (ItemId i : train) is_train[i >> 6] |= uint64_t{1} << (i & 63);
  std::vector<Sample> samples;
  samples.reserve(positives.size() * (1 + negatives_per_positive_));
  for (ItemId pos : positives) {
    samples.push_back(Sample{pos, 1.0});
    DrawNegatives(
        num_items_, train.size(),
        static_cast<size_t>(negatives_per_positive_), rng,
        [&](ItemId i) { return (is_train[i >> 6] >> (i & 63)) & 1; },
        [&](ItemId i) { samples.push_back(Sample{i, 0.0}); });
  }
  return samples;
}

std::vector<size_t> Dataset::ItemPopularity() const {
  std::vector<size_t> pop(num_items_, 0);
  for (ItemId i : sorted_) pop[i]++;
  return pop;
}

}  // namespace hetefedrec
