// Sharded-server scale-out: rounds/wall-second and bytes/round per shard
// count under the streaming million-user workload (docs/SYNC.md
// "Sharding").
//
// For each S in {1, 2, 4, 8} the bench streams `--users` power-law clients
// (default 1M — nothing is materialized per user) through the round loop
// against a `HeteroServer` with S item-range shards, reporting round
// throughput, upload bytes/round, the per-shard upload balance under the
// Zipf-head item skew, and process peak RSS. Every S run replays the same
// seeds, and the final tables are checked bit-identical to the S=1 run —
// the shard count changes memory layout and accounting, never arithmetic
// (the merge-order contract pinned by tests/core/sharding_equivalence_test).
//
// Acceptance (ISSUE 9): the 1M-client run completes for every S with peak
// RSS under --max_rss_mb, and all S > 1 tables match S=1 bit-for-bit.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.h"
#include "src/data/stream.h"
#include "src/fed/shard/sharded_server.h"
#include "src/fed/shard/stream_loop.h"
#include "src/util/cli.h"
#include "src/util/table_printer.h"

namespace hetefedrec::bench {
namespace {

int Main(int argc, char** argv) {
  CommandLine cli;
  cli.AddFlag("users", "1000000", "streamed clients");
  cli.AddFlag("items", "200000", "item catalogue size");
  cli.AddFlag("width", "32", "embedding width of the single slot");
  cli.AddFlag("clients_per_round", "256", "uploads merged per round");
  cli.AddFlag("rounds", "0",
              "rounds per shard count (0 = one full pass over --users)");
  cli.AddFlag("lr", "0.05", "client SGD step scale");
  cli.AddFlag("seed", "7", "stream + loop seed");
  cli.AddFlag("pop_exponent", "1.05", "Zipf item-popularity exponent");
  cli.AddFlag("size_exponent", "1.6", "Pareto client-size tail index");
  cli.AddFlag("max_rss_mb", "4096", "peak-RSS acceptance bound (MiB)");
  cli.AddFlag("metrics_out", "",
              "telemetry JSONL path for the S=4 run (\"\" = off)");
  cli.AddFlag("out_dir", ".", "CSV output directory");
  Status st = cli.Parse(argc, argv);
  if (!st.ok()) return FailWith(st);

  StreamConfig scfg;
  scfg.num_users = cli.GetUint64("users");
  scfg.num_items = cli.GetUint64("items");
  scfg.popularity_exponent = cli.GetDouble("pop_exponent");
  scfg.size_exponent = cli.GetDouble("size_exponent");
  scfg.seed = cli.GetUint64("seed");
  const ClientStream stream(scfg);

  HeteroServer::Options sopts;
  sopts.widths = {static_cast<size_t>(cli.GetUint64("width"))};
  sopts.num_items = scfg.num_items;
  sopts.aggregation = AggregationMode::kMean;
  sopts.seed = cli.GetUint64("seed") + 1;

  StreamLoopOptions lopts;
  lopts.clients_per_round = cli.GetUint64("clients_per_round");
  lopts.rounds = cli.GetUint64("rounds");
  lopts.lr = cli.GetDouble("lr");
  lopts.seed = cli.GetUint64("seed") + 2;

  TablePrinter table(
      "Sharded server under the streaming power-law workload (width " +
          std::to_string(sopts.widths[0]) + ", " +
          TablePrinter::Count(static_cast<long long>(scfg.num_users)) +
          " clients, " +
          TablePrinter::Count(static_cast<long long>(scfg.num_items)) +
          " items)",
      {"Shards", "Rounds", "Clients", "Rounds/s", "MB/round", "Shard skew",
       "Peak RSS MB", "vs S=1"});

  const size_t max_rss_kb = cli.GetUint64("max_rss_mb") * 1024;
  std::vector<Matrix> s1_tables;
  bool all_identical = true;
  bool rss_ok = true;
  for (size_t shards : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    std::unique_ptr<ServerApi> server = MakeServer(sopts, shards);
    StreamLoopOptions run_opts = lopts;
    if (shards == 4) run_opts.metrics_out = cli.GetString("metrics_out");
    std::fprintf(stderr, "[sharding] S=%zu streaming...\n", shards);
    const StreamLoopResult r = RunStreamingRounds(server.get(), stream,
                                                  run_opts);

    // Per-shard balance: max over mean of upload scalars — the Zipf head
    // loads the low-id shard hardest.
    uint64_t max_scalars = 0;
    for (uint64_t v : r.shard_scalars) max_scalars = std::max(max_scalars, v);
    const double mean_scalars =
        static_cast<double>(r.upload_scalars) /
        static_cast<double>(r.shard_scalars.size());
    const double skew =
        mean_scalars > 0.0 ? static_cast<double>(max_scalars) / mean_scalars
                           : 1.0;

    // Bit-identity vs the S=1 run: same seeds, same workload, different
    // shard count — the final tables must match byte for byte.
    ServerSnapshot snap = server->Snapshot();
    std::string identical = "-";
    if (shards == 1) {
      s1_tables = std::move(snap.tables);
    } else {
      bool same = true;
      for (size_t s = 0; s < s1_tables.size() && same; ++s) {
        same = snap.tables[s].data() == s1_tables[s].data();
      }
      identical = same ? "identical" : "DIFFERS";
      all_identical = all_identical && same;
    }

    if (r.peak_rss_kb > max_rss_kb) rss_ok = false;
    const double rounds_per_sec =
        r.wall_seconds > 0.0 ? static_cast<double>(r.rounds) / r.wall_seconds
                             : 0.0;
    const double mb_per_round =
        static_cast<double>(r.upload_scalars) * sizeof(double) /
        (1024.0 * 1024.0) / static_cast<double>(r.rounds);
    table.AddRow({std::to_string(shards),
                  TablePrinter::Count(static_cast<long long>(r.rounds)),
                  TablePrinter::Count(static_cast<long long>(r.clients)),
                  TablePrinter::Num(rounds_per_sec, 1),
                  TablePrinter::Num(mb_per_round, 3),
                  TablePrinter::Num(skew, 3),
                  TablePrinter::Num(
                      static_cast<double>(r.peak_rss_kb) / 1024.0, 1),
                  identical});
  }

  table.Print();
  st = table.WriteCsv(CsvPath(cli, "sharding_scaleout"));
  if (!st.ok()) std::fprintf(stderr, "%s\n", st.ToString().c_str());

  std::printf(
      "acceptance: %s clients streamed per shard count, bounded RSS "
      "(< %llu MB): %s; S>1 tables bit-identical to S=1: %s\n",
      TablePrinter::Count(static_cast<long long>(scfg.num_users)).c_str(),
      static_cast<unsigned long long>(cli.GetUint64("max_rss_mb")),
      rss_ok ? "PASS" : "FAIL", all_identical ? "PASS" : "FAIL");
  return rss_ok && all_identical ? 0 : 1;
}

}  // namespace
}  // namespace hetefedrec::bench

int main(int argc, char** argv) { return hetefedrec::bench::Main(argc, argv); }
