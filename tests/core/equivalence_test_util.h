// Shared assertion for the equivalence suites (sparse/batched/delta/async):
// two runs' grouped evaluations must agree bit-for-bit, overall and per
// group. Kept in one header so a new GroupedEval field is added to the
// pinning exactly once.
//
// `RunDigest` folds the same fields (plus the run-level ones the sharding
// suite compares) into one 64-bit value, so a run can be pinned against a
// recorded golden instead of a second live code path. `CountersDigest`,
// `MetricsStreamDigest` and `Fnv1a` do the same for the comm/fault
// counters, the metrics JSONL and the trace file.
#ifndef HETEFEDREC_TESTS_CORE_EQUIVALENCE_TEST_UTIL_H_
#define HETEFEDREC_TESTS_CORE_EQUIVALENCE_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "src/core/trainer.h"
#include "src/eval/evaluator.h"

namespace hetefedrec {

inline void ExpectSameEval(const GroupedEval& a, const GroupedEval& b) {
  EXPECT_EQ(a.overall.recall, b.overall.recall);
  EXPECT_EQ(a.overall.ndcg, b.overall.ndcg);
  EXPECT_EQ(a.overall.users, b.overall.users);
  for (int g = 0; g < kNumGroups; ++g) {
    EXPECT_EQ(a.per_group[g].recall, b.per_group[g].recall);
    EXPECT_EQ(a.per_group[g].ndcg, b.per_group[g].ndcg);
  }
}

namespace digest_internal {

inline uint64_t Bits(double v) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v), "double must be 64-bit");
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// One FNV-1a 64 step per byte of `word`, least significant byte first
/// (fixed order, so the digest does not depend on host endianness).
inline void Mix(uint64_t word, uint64_t* h) {
  for (int i = 0; i < 8; ++i) {
    *h ^= (word >> (8 * i)) & 0xffu;
    *h *= 0x100000001b3ull;
  }
}

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;

}  // namespace digest_internal

/// FNV-1a 64 over the bit patterns of every field a sharding-equivalence
/// run comparison checks, in this order: overall recall/NDCG/users,
/// per-group recall/NDCG, collapse_variance, comm.TotalTransmitted() and
/// simulated_seconds.
inline uint64_t RunDigest(const ExperimentResult& r) {
  using digest_internal::Bits;
  using digest_internal::Mix;
  uint64_t h = digest_internal::kFnvOffset;
  Mix(Bits(r.final_eval.overall.recall), &h);
  Mix(Bits(r.final_eval.overall.ndcg), &h);
  Mix(static_cast<uint64_t>(r.final_eval.overall.users), &h);
  for (int g = 0; g < kNumGroups; ++g) {
    Mix(Bits(r.final_eval.per_group[g].recall), &h);
    Mix(Bits(r.final_eval.per_group[g].ndcg), &h);
  }
  Mix(Bits(r.collapse_variance), &h);
  Mix(static_cast<uint64_t>(r.comm.TotalTransmitted()), &h);
  Mix(Bits(r.simulated_seconds), &h);
  return h;
}

/// The fields `RunDigest` covers, printed exactly (%.17g), for a digest
/// mismatch message.
inline std::string RunDigestFields(const ExperimentResult& r) {
  char buf[160];
  std::string out;
  auto add_eval = [&](const char* name, const EvalResult& e) {
    std::snprintf(buf, sizeof(buf), "  %s: recall=%.17g ndcg=%.17g users=%zu\n",
                  name, e.recall, e.ndcg, e.users);
    out += buf;
  };
  add_eval("overall", r.final_eval.overall);
  for (int g = 0; g < kNumGroups; ++g) {
    add_eval(GroupName(static_cast<Group>(g)).c_str(),
             r.final_eval.per_group[g]);
  }
  std::snprintf(buf, sizeof(buf),
                "  collapse_variance=%.17g comm_total=%zu "
                "simulated_seconds=%.17g\n",
                r.collapse_variance, r.comm.TotalTransmitted(),
                r.simulated_seconds);
  out += buf;
  return out;
}

/// FNV-1a 64 over `bytes`.
inline uint64_t Fnv1a(const std::string& bytes) {
  uint64_t h = digest_internal::kFnvOffset;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// FNV-1a 64 over `CommStats::ExportCounters()`: every traffic and fault
/// counter, each word least significant byte first.
inline uint64_t CountersDigest(const CommStats& comm) {
  uint64_t h = digest_internal::kFnvOffset;
  for (const uint64_t word : comm.ExportCounters()) {
    digest_internal::Mix(word, &h);
  }
  return h;
}

/// FNV-1a 64 over a metrics JSONL stream without its "meta" row (it names
/// the host's fp64 kernel tier) and its "profile" rows (wall times). Every
/// kept line contributes its bytes plus the newline.
inline uint64_t MetricsStreamDigest(const std::string& jsonl) {
  std::string kept;
  size_t start = 0;
  while (start < jsonl.size()) {
    size_t end = jsonl.find('\n', start);
    if (end == std::string::npos) end = jsonl.size();
    const std::string line = jsonl.substr(start, end - start);
    if (line.find("\"type\":\"meta\"") == std::string::npos &&
        line.find("\"type\":\"profile\"") == std::string::npos) {
      kept += line;
      kept += '\n';
    }
    start = end + 1;
  }
  return Fnv1a(kept);
}

/// The whole file at `path` ("" when it cannot be opened).
inline std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

}  // namespace hetefedrec

#endif  // HETEFEDREC_TESTS_CORE_EQUIVALENCE_TEST_UTIL_H_
