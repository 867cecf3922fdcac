// Memory sentinel for the dataset index. Indexing the full-scale anime
// log (Table I: 10,482 users, ~1.1M interactions) must grow the process
// high-water mark by less than 30 bytes per interaction. The per-user
// hash sets this index replaced cost about 88 B per interaction, so a
// return to them fails here. Runs as its own test binary so that no other
// test's allocations move the high-water mark.
#include <gtest/gtest.h>

#include "src/data/dataset.h"
#include "src/data/synthetic.h"
#include "src/util/rss.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define HFR_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define HFR_SANITIZED 1
#endif
#endif

namespace hetefedrec {
namespace {

constexpr double kMaxBytesPerInteraction = 30.0;

TEST(DatasetMemoryTest, FullAnimeIndexStaysUnder30BytesPerInteraction) {
#ifdef HFR_SANITIZED
  GTEST_SKIP() << "sanitizer shadow memory distorts the peak RSS";
#endif
  if (PeakRssKb() == 0) GTEST_SKIP() << "peak RSS probe unavailable";
  const SyntheticConfig cfg = AnimeConfig(1.0);
  const std::vector<Interaction> interactions = GenerateInteractions(cfg);
  const size_t before_kb = PeakRssKb();
  auto ds = Dataset::FromInteractions(interactions, cfg.num_users,
                                      cfg.num_items);
  const size_t after_kb = PeakRssKb();
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  ASSERT_GT(ds->TotalInteractions(), 1'000'000u);
  const double per_interaction =
      static_cast<double>(after_kb - before_kb) * 1024.0 /
      static_cast<double>(interactions.size());
  RecordProperty("bytes_per_interaction", std::to_string(per_interaction));
  EXPECT_LT(per_interaction, kMaxBytesPerInteraction)
      << "peak RSS grew " << (after_kb - before_kb) << " KiB over "
      << interactions.size() << " interactions";
}

}  // namespace
}  // namespace hetefedrec
