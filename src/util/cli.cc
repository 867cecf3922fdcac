#include "src/util/cli.h"

#include <cstdlib>
#include <sstream>

#include "src/util/logging.h"

namespace hetefedrec {

void CommandLine::AddFlag(const std::string& name,
                          const std::string& default_value,
                          const std::string& help) {
  flags_[name] = Flag{default_value, help};
}

Status CommandLine::Parse(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      return Status::InvalidArgument("unexpected positional argument: " + arg);
    }
    arg = arg.substr(2);
    std::string name, value;
    auto eq = arg.find('=');
    if (eq != std::string::npos) {
      name = arg.substr(0, eq);
      value = arg.substr(eq + 1);
    } else {
      name = arg;
      auto it = flags_.find(name);
      if (it != flags_.end() &&
          (it->second.value == "true" || it->second.value == "false")) {
        value = "true";  // bare boolean flag
      } else if (i + 1 < argc) {
        value = argv[++i];
      } else {
        return Status::InvalidArgument("flag --" + name + " missing value");
      }
    }
    auto it = flags_.find(name);
    if (it == flags_.end()) {
      return Status::InvalidArgument("unknown flag --" + name + "\n" +
                                     Usage(argv[0]));
    }
    it->second.value = value;
  }
  return Status::OK();
}

std::string CommandLine::GetString(const std::string& name) const {
  auto it = flags_.find(name);
  HFR_CHECK(it != flags_.end()) << "unregistered flag " << name;
  return it->second.value;
}

int CommandLine::GetInt(const std::string& name) const {
  return std::atoi(GetString(name).c_str());
}

uint64_t CommandLine::GetUint64(const std::string& name) const {
  return std::strtoull(GetString(name).c_str(), nullptr, 10);
}

double CommandLine::GetDouble(const std::string& name) const {
  return std::atof(GetString(name).c_str());
}

bool CommandLine::GetBool(const std::string& name) const {
  std::string v = GetString(name);
  return v == "true" || v == "1" || v == "yes";
}

void RegisterExperimentFlags(CommandLine* cli) {
  cli->AddFlag("seed", "7", "experiment seed");
  cli->AddFlag("agg", "mean", "server aggregation: mean | sum | weighted");
  cli->AddFlag("threads", "1",
               "round-execution threads (0 = hardware concurrency; results "
               "are identical for any value)");
  cli->AddFlag("dense_updates", "false",
               "use the dense reference client-update path instead of "
               "sparse row-touched updates");
  cli->AddFlag("scalar_scoring", "false",
               "use the per-sample reference scoring path instead of the "
               "batched kernels (bit-identical; for comparison runs)");
  cli->AddFlag("scalar_topk", "false",
               "use the per-user partial_sort reference top-K selection "
               "instead of the fused streaming selector (bit-identical; "
               "for comparison runs)");
  cli->AddFlag("eval_candidates", "0",
               "candidate-sliced evaluation: test items + N seeded "
               "negatives per user (0 = full catalogue, the paper's "
               "protocol; changes reported metrics — docs/PERFORMANCE.md)");
  cli->AddFlag("replica_cap", "0",
               "per-client LRU cap on delta-sync replica rows (0 = "
               "unlimited; evicted rows re-ship on the next subscription)");
  cli->AddFlag("sparse_comm", "false",
               "report actually-shipped (sparse/delta) scalars instead of "
               "the paper's dense accounting");
  cli->AddFlag("delta_downloads", "false",
               "row-subscription delta downloads instead of full-table "
               "downloads (bit-identical metrics; see docs/SYNC.md)");
  cli->AddFlag("availability", "1.0",
               "P(selected client is online); offline clients requeue");
  cli->AddFlag("straggler_slack", "0",
               "over-selection slack: select N extra clients per round, "
               "merge the first clients_per_round to finish (0 = "
               "deterministic protocol)");
  cli->AddFlag("round_deadline", "0",
               "simulated round deadline in seconds (0 = none)");
  cli->AddFlag("compute_backend", "fp64",
               "numeric compute backend: fp64 (bit-exact reference) | fp32 "
               "(float client math) | fp32_simd (float + AVX2 kernels)");
  cli->AddFlag("wire_format", "auto",
               "wire scalar width for byte accounting: auto | fp64 | fp32 | "
               "fp16 (auto = fp64, or fp32 when --compute_backend is fp32*)");
  cli->AddFlag("server_shards", "0",
               "item-range parameter-server shards (0 and 1 both mean one "
               "range; at most the item count; any S is bit-identical — "
               "docs/SYNC.md \"Sharding\")");
  cli->AddFlag("net_bandwidth", "1.25e6",
               "median client bandwidth, bytes/second");
  cli->AddFlag("net_bandwidth_sigma", "0",
               "log-normal sigma of the per-client bandwidth multiplier");
  cli->AddFlag("net_latency", "0.05", "base round-trip latency, seconds");
  cli->AddFlag("net_latency_sigma", "0",
               "log-normal sigma of the per-(client,round) latency");
  cli->AddFlag("net_compute", "0",
               "local compute seconds per training sample");
  cli->AddFlag("async", "false",
               "asynchronous merge-on-arrival aggregation instead of "
               "synchronous rounds (docs/SYNC.md)");
  cli->AddFlag("async_alpha", "0.5",
               "staleness exponent: updates merge with w(s)=1/(1+s)^alpha");
  cli->AddFlag("async_max_staleness", "0",
               "drop arrivals staler than this version gap (0 = no cap)");
  cli->AddFlag("async_dispatch_batch", "1",
               "completions merged before freed slots re-dispatch as one "
               "parallel batch");
  cli->AddFlag("async_inflight", "0",
               "clients concurrently in flight (0 = clients_per_round)");
  cli->AddFlag("async_distill_every", "0",
               "merged updates between RESKD distillations "
               "(0 = clients_per_round)");
  cli->AddFlag("fault_upload_loss", "0", "P(trained update lost in flight)");
  cli->AddFlag("fault_download_loss", "0",
               "P(model never reaches the selected client)");
  cli->AddFlag("fault_crash", "0", "P(client crashes mid-local-epoch)");
  cli->AddFlag("fault_duplicate", "0",
               "P(update delivered twice; server dedupes)");
  cli->AddFlag("fault_corrupt", "0",
               "P(update corrupted in flight: NaN/Inf/large-norm)");
  cli->AddFlag("fault_retry_max", "5",
               "consecutive transfer failures before a client gives up "
               "for the epoch");
  cli->AddFlag("fault_retry_base", "1",
               "base retry backoff, simulated seconds");
  cli->AddFlag("fault_retry_cap", "60", "retry backoff cap, simulated seconds");
  cli->AddFlag("fault_quarantine_base", "5",
               "base quarantine after an admission rejection, simulated "
               "seconds");
  cli->AddFlag("fault_quarantine_cap", "300",
               "quarantine cap, simulated seconds");
  cli->AddFlag("fault_jitter", "0.5", "backoff jitter fraction in [0,1]");
  cli->AddFlag("admission", "false",
               "server-side update admission control (finite scan + clip + "
               "outlier gate; docs/ROBUSTNESS.md)");
  cli->AddFlag("admit_max_row_norm", "0",
               "clip uploaded item-delta rows to this L2 norm (0 = off)");
  cli->AddFlag("admit_outlier_z", "0",
               "reject updates with robust z-score above this over the "
               "slot's accepted-norm window (0 = off)");
  cli->AddFlag("checkpoint_every", "0",
               "write a crash-consistent run checkpoint every n rounds "
               "(sync) / epochs (async)");
  cli->AddFlag("resume", "false",
               "resume from a run checkpoint written by --checkpoint_every");
  cli->AddFlag("stop_after_rounds", "0",
               "kill the run after n merged rounds (kill-point testing)");
  cli->AddFlag("metrics_out", "",
               "stream per-round metrics as JSONL here "
               "(docs/OBSERVABILITY.md; never perturbs results)");
  cli->AddFlag("trace_out", "",
               "write a Chrome/Perfetto trace of the simulated run here "
               "(virtual-clock timeline; docs/OBSERVABILITY.md)");
  cli->AddFlag("profile", "false",
               "wall-clock phase profiling; prints a phase table per run "
               "and adds profile rows to --metrics_out");
}

std::string CommandLine::Usage(const std::string& program) const {
  std::ostringstream os;
  os << "usage: " << program << " [flags]\n";
  for (const auto& [name, flag] : flags_) {
    os << "  --" << name << " (default: " << flag.value << ")  " << flag.help
       << "\n";
  }
  return os.str();
}

}  // namespace hetefedrec
