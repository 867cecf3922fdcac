#include "src/data/stream.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "src/util/logging.h"

namespace hetefedrec {

Status StreamConfig::Validate() const {
  if (num_users == 0) return Status::InvalidArgument("num_users must be > 0");
  if (num_items == 0) return Status::InvalidArgument("num_items must be > 0");
  if (!(size_exponent > 0.0)) {
    return Status::InvalidArgument("size_exponent must be > 0");
  }
  if (min_items_per_user == 0) {
    return Status::InvalidArgument("min_items_per_user must be > 0");
  }
  if (max_items_per_user < min_items_per_user) {
    return Status::InvalidArgument(
        "max_items_per_user (" + std::to_string(max_items_per_user) +
        ") is below min_items_per_user (" +
        std::to_string(min_items_per_user) + ")");
  }
  // A user draws at most max_items_per_user *distinct* items; rejection
  // sampling needs the catalogue to be comfortably larger than the draw.
  if (max_items_per_user > num_items / 2) {
    return Status::InvalidArgument(
        "num_items (" + std::to_string(num_items) +
        ") must be at least twice max_items_per_user (" +
        std::to_string(max_items_per_user) + ")");
  }
  return Status::OK();
}

ClientStream::ClientStream(const StreamConfig& config)
    : config_(config), root_(config.seed) {
  const Status valid = config_.Validate();
  HFR_CHECK(valid.ok()) << valid.message();

  pop_cdf_.resize(config_.num_items);
  double total = 0.0;
  for (size_t r = 0; r < config_.num_items; ++r) {
    total += std::pow(static_cast<double>(r + 1),
                      -config_.popularity_exponent);
    pop_cdf_[r] = total;
  }
  const double inv = 1.0 / total;
  for (double& v : pop_cdf_) v *= inv;
  pop_cdf_.back() = 1.0;  // guard against accumulated rounding
}

uint32_t ClientStream::SampleItem(Rng* rng) const {
  const double u = rng->Uniform();
  const auto it = std::upper_bound(pop_cdf_.begin(), pop_cdf_.end(), u);
  const size_t rank =
      it == pop_cdf_.end() ? pop_cdf_.size() - 1
                           : static_cast<size_t>(it - pop_cdf_.begin());
  return static_cast<uint32_t>(rank);
}

size_t ClientStream::SampleCount(UserId u) const {
  // Separate fork stream (2u) from the item stream (2u+1) so tests can fit
  // the count distribution without replaying item draws.
  Rng rng = root_.Fork(2 * static_cast<uint64_t>(u));
  // Pareto inverse CDF; 1 - Uniform() is in (0, 1], so the pow is finite.
  const double tail = 1.0 - rng.Uniform();
  const double count = static_cast<double>(config_.min_items_per_user) *
                       std::pow(tail, -1.0 / config_.size_exponent);
  const double capped =
      std::min(count, static_cast<double>(config_.max_items_per_user));
  return static_cast<size_t>(capped);
}

StreamClient ClientStream::Get(UserId u) const {
  HFR_CHECK_LT(static_cast<size_t>(u), config_.num_users);
  StreamClient client;
  client.user = u;
  const size_t count = SampleCount(u);

  Rng rng = root_.Fork(2 * static_cast<uint64_t>(u) + 1);
  client.items.reserve(count);
  // Rejection-sample distinct items. The draw is <= max_items_per_user and
  // the catalogue is >= 2x that, so the expected rejection rate is bounded
  // even if every draw landed in the head.
  while (client.items.size() < count) {
    const uint32_t item = SampleItem(&rng);
    const auto it =
        std::lower_bound(client.items.begin(), client.items.end(), item);
    if (it != client.items.end() && *it == item) continue;
    client.items.insert(it, item);
  }
  return client;
}

}  // namespace hetefedrec
