#include "src/core/config.h"

#include <charconv>
#include <type_traits>
#include <utility>

#include "src/util/cli.h"
#include "src/util/telemetry/json.h"

namespace hetefedrec {

namespace {

// In AggregationMode's declaration order.
constexpr const char* kAggregationNames[] = {"sum", "mean", "weighted"};

StatusOr<AggregationMode> AggregationModeByName(const std::string& name) {
  for (int m = 0; m < 3; ++m) {
    if (name == kAggregationNames[m]) return static_cast<AggregationMode>(m);
  }
  return Status::InvalidArgument("unknown aggregation '" + name +
                                 "' (expected mean|sum|weighted)");
}

// --- per-type codecs: flag text <-> field value ---------------------------
// Text() renders a value the way ParseText() reads it back; the shared
// flags' defaults, and every JSON string in the meta row, are Text(). The
// enum codecs are here; numbers, bools, strings and arrays use the shared
// ones in src/util/cli.h.

std::string Text(AggregationMode m) {
  return kAggregationNames[static_cast<int>(m)];
}
std::string Text(ComputeBackend b) { return ComputeBackendName(b); }
std::string Text(BaseModel m) { return BaseModelShortName(m); }

template <typename T>
std::string Text(const T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    return v ? "true" : "false";
  } else if constexpr (std::is_integral_v<T>) {
    return std::to_string(v);
  } else if constexpr (std::is_floating_point_v<T>) {
    char buf[32];
    return std::string(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
  } else {
    return v;
  }
}

template <typename T, size_t N>
std::string Text(const std::array<T, N>& values) {
  std::string out;
  for (size_t i = 0; i < N; ++i) out += (i ? "," : "") + Text(values[i]);
  return out;
}

template <typename T>
Status Assign(StatusOr<T> parsed, T* out) {
  if (parsed.ok()) *out = *parsed;
  return parsed.status();
}

Status ParseText(const std::string& text, AggregationMode* out) {
  return Assign(AggregationModeByName(text), out);
}
Status ParseText(const std::string& text, ComputeBackend* out) {
  return Assign(ComputeBackendByName(text), out);
}
Status ParseText(const std::string& text, BaseModel* out) {
  return Assign(BaseModelByName(text), out);
}

// A "!" flag sets the negation of its bool field.
template <typename T>
T FlagSense(const ConfigField& field, T value) {
  if constexpr (std::is_same_v<T, bool>) return value != field.negated();
  return value;
}

template <typename T>
std::string Json(const T& v) {
  std::string out;
  if constexpr (std::is_floating_point_v<T>) {
    AppendJsonNumber(&out, v);
  } else if constexpr (std::is_arithmetic_v<T>) {
    out = Text(v);
  } else {
    AppendJsonString(&out, Text(v));
  }
  return out;
}

template <typename T, size_t N>
std::string Json(const std::array<T, N>& values) {
  std::string out;
  for (size_t i = 0; i < N; ++i) out += (i ? "," : "[") + Json(values[i]);
  return out + "]";
}

// Special case: --wire_format names a format, not a width, and its default
// "auto" follows the compute backend, so it is applied after the loop.
constexpr char kWireFormat[] = "wire_format";

}  // namespace

void RegisterExperimentFlags(CommandLine* cli) {
  const ExperimentConfig defaults;
  ForEachConfigField(defaults, [&](const ConfigField& f, const auto& value) {
    if (!f.has_flag()) return;
    const std::string name = f.flag_name();
    cli->AddFlag(name, name == kWireFormat ? "auto" : Text(FlagSense(f, value)),
                 f.help);
  });
}

Status ApplyExperimentFlags(const CommandLine& cli,
                            ExperimentConfig* config) {
  std::string name, text;
  Status status;
  ForEachConfigField(*config, [&](const ConfigField& f, auto& value) {
    if (!status.ok() || !f.has_flag() || f.flag_name() == kWireFormat) return;
    name = f.flag_name();
    text = cli.GetString(name);
    auto parsed = value;
    status = ParseText(text, &parsed);
    if (status.ok()) value = FlagSense(f, parsed);
  });
  if (status.ok()) {
    name = kWireFormat;
    text = cli.GetString(name);
    if (text == "auto") {
      config->wire_scalar_bytes =
          config->compute_backend == ComputeBackend::kFp64 ? 8 : 4;
    } else {
      status = Assign(WireScalarBytesByName(text), &config->wire_scalar_bytes);
    }
  }
  if (status.ok()) return status;
  return Status::InvalidArgument("--" + name + "='" + text +
                                 "': " + status.message());
}

std::string ConfigJson(const ExperimentConfig& config) {
  JsonObj obj;
  ForEachConfigField(config, [&](const ConfigField& f, const auto& value) {
    if (f.cls == FieldClass::kResults) obj.Raw(f.name, Json(value));
  });
  return obj.Build();
}

std::string MethodName(Method m) {
  switch (m) {
    case Method::kAllSmall:
      return "All Small";
    case Method::kAllLarge:
      return "All Large";
    case Method::kAllLargeExclusive:
      return "All Large/Exclusive";
    case Method::kStandalone:
      return "Standalone";
    case Method::kClusteredFedRec:
      return "Clustered FedRec";
    case Method::kDirectlyAggregate:
      return "Directly Aggregate";
    case Method::kHeteFedRec:
      return "HeteFedRec(Ours)";
  }
  return "?";
}

StatusOr<Method> MethodByName(const std::string& name) {
  if (name == "all_small") return Method::kAllSmall;
  if (name == "all_large") return Method::kAllLarge;
  if (name == "all_large_exclusive") return Method::kAllLargeExclusive;
  if (name == "standalone") return Method::kStandalone;
  if (name == "clustered") return Method::kClusteredFedRec;
  if (name == "direct") return Method::kDirectlyAggregate;
  if (name == "hetefedrec") return Method::kHeteFedRec;
  return Status::InvalidArgument(
      "unknown method '" + name +
      "' (expected all_small|all_large|all_large_exclusive|standalone|"
      "clustered|direct|hetefedrec)");
}

StatusOr<size_t> WireScalarBytesByName(const std::string& name) {
  if (name == "fp64") return size_t{8};
  if (name == "fp32") return size_t{4};
  if (name == "fp16") return size_t{2};
  return Status::InvalidArgument("unknown wire format '" + name +
                                 "' (expected fp64|fp32|fp16)");
}

bool IsHeterogeneous(Method m) {
  switch (m) {
    case Method::kStandalone:
    case Method::kClusteredFedRec:
    case Method::kDirectlyAggregate:
    case Method::kHeteFedRec:
      return true;
    default:
      return false;
  }
}

Status ExperimentConfig::Validate() const {
  if (dims[0] == 0 || dims[0] > dims[1] || dims[1] > dims[2]) {
    return Status::InvalidArgument("dims must satisfy 0 < Ns <= Nm <= Nl");
  }
  if (data_scale <= 0.0 || data_scale > 1.0) {
    return Status::InvalidArgument("data_scale must be in (0, 1]");
  }
  if (global_epochs <= 0 || local_epochs <= 0) {
    return Status::InvalidArgument("epoch counts must be positive");
  }
  if (clients_per_round == 0) {
    return Status::InvalidArgument("clients_per_round must be positive");
  }
  if (lr <= 0.0) return Status::InvalidArgument("lr must be positive");
  if (alpha < 0.0) return Status::InvalidArgument("alpha must be >= 0");
  if (kd_items == 0 && ensemble_distillation) {
    return Status::InvalidArgument("kd_items must be positive with RESKD on");
  }
  if (kd_steps < 0 || kd_lr < 0.0) {
    return Status::InvalidArgument("kd_steps/kd_lr must be non-negative");
  }
  if (top_k == 0) return Status::InvalidArgument("top_k must be positive");
  if (eval_candidate_sample > 0 && eval_candidate_sample < top_k) {
    // A candidate pool smaller than the list length would silently report
    // metrics over truncated rankings, incomparable with full evaluation.
    return Status::InvalidArgument(
        "eval_candidate_sample must be 0 (full catalogue) or >= top_k");
  }
  if (local_validation_fraction < 0.0 || local_validation_fraction >= 1.0) {
    return Status::InvalidArgument(
        "local_validation_fraction must be in [0, 1)");
  }
  double frac_total =
      group_fractions[0] + group_fractions[1] + group_fractions[2];
  if (frac_total <= 0.0) {
    return Status::InvalidArgument("group fractions must sum to > 0");
  }
  if (availability <= 0.0 || availability > 1.0) {
    return Status::InvalidArgument("availability must be in (0, 1]");
  }
  // Catch negative values cast through size_t (2^64-ish).
  if (num_threads > 4096) {
    return Status::InvalidArgument("num_threads is implausibly large");
  }
  if (server_shards > 4096) {
    return Status::InvalidArgument(
        "server_shards is implausibly large (negative value?)");
  }
  const std::pair<const char*, size_t> counts[] = {
      {"eval_candidate_sample", eval_candidate_sample},
      {"sync_replica_cap", sync_replica_cap},
      {"async_inflight", async_inflight},
      {"async_distill_every", async_distill_every},
      {"async_max_staleness", async_max_staleness},
      {"async_dispatch_batch", async_dispatch_batch},
      {"fault_retry_max", fault_retry_max},
      {"checkpoint_every", checkpoint_every},
      {"debug_stop_after_rounds", debug_stop_after_rounds}};
  for (const auto& [name, value] : counts) {
    if (value > (size_t{1} << 32)) {
      return Status::InvalidArgument(std::string(name) +
                                     " is implausibly large (negative value?)");
    }
  }
  if (straggler_slack > 16 * clients_per_round) {
    return Status::InvalidArgument(
        "straggler_slack must be <= 16 x clients_per_round");
  }
  if (round_deadline < 0.0) {
    return Status::InvalidArgument("round_deadline must be >= 0");
  }
  if (net_bandwidth <= 0.0) {
    return Status::InvalidArgument("net_bandwidth must be positive");
  }
  if (net_bandwidth_sigma < 0.0 || net_latency < 0.0 ||
      net_latency_sigma < 0.0 || net_compute_per_sample < 0.0) {
    return Status::InvalidArgument("network parameters must be >= 0");
  }
  if (wire_scalar_bytes != 2 && wire_scalar_bytes != 4 &&
      wire_scalar_bytes != 8) {
    return Status::InvalidArgument(
        "wire_scalar_bytes must be 2 (fp16), 4 (fp32) or 8 (fp64)");
  }
  if (async_staleness_alpha < 0.0) {
    return Status::InvalidArgument("async_staleness_alpha must be >= 0");
  }
  if (async_dispatch_batch == 0) {
    return Status::InvalidArgument("async_dispatch_batch must be >= 1");
  }
  if (async_mode && aggregation == AggregationMode::kDataWeighted) {
    // Async merges apply one update at a time with its staleness weight;
    // there is no round population to normalize data-size weights against.
    return Status::InvalidArgument(
        "async_mode does not support data-weighted aggregation");
  }
  if (async_mode && (straggler_slack > 0 || round_deadline > 0.0)) {
    // Over-selection ranks a sync round's batch by finish time; async
    // merges each arrival on its own and has no round to cut.
    return Status::InvalidArgument(
        "async_mode does not support straggler_slack or round_deadline "
        "(they rank a sync round; async_max_staleness bounds stale "
        "arrivals instead)");
  }
  const std::array<double, 5> fault_rates = {
      fault_upload_loss, fault_download_loss, fault_crash, fault_duplicate,
      fault_corrupt};
  double fault_total = 0.0;
  for (double rate : fault_rates) {
    if (rate < 0.0 || rate > 1.0) {
      return Status::InvalidArgument("fault_* rates must be in [0, 1]");
    }
    fault_total += rate;
  }
  if (fault_total > 1.0) {
    // The rates partition a single uniform draw; a sum above 1 would
    // silently truncate the last segments.
    return Status::InvalidArgument("fault_* rates must sum to <= 1");
  }
  if (fault_retry_max < 1) {
    return Status::InvalidArgument("fault_retry_max must be >= 1");
  }
  if (fault_retry_base <= 0.0 || fault_quarantine_base <= 0.0) {
    return Status::InvalidArgument(
        "fault retry/quarantine base delays must be positive");
  }
  if (fault_retry_cap < fault_retry_base ||
      fault_quarantine_cap < fault_quarantine_base) {
    return Status::InvalidArgument(
        "fault retry/quarantine caps must be >= their base delays");
  }
  if (fault_jitter < 0.0 || fault_jitter > 1.0) {
    return Status::InvalidArgument("fault_jitter must be in [0, 1]");
  }
  if (!admission_control && (admit_max_row_norm > 0.0 || admit_outlier_z > 0.0)) {
    return Status::InvalidArgument(
        "admit_* thresholds require admission_control");
  }
  if (admit_max_row_norm < 0.0 || admit_outlier_z < 0.0) {
    return Status::InvalidArgument("admit_* thresholds must be >= 0");
  }
  if (checkpoint_every > 0 && checkpoint_path.empty()) {
    return Status::InvalidArgument(
        "checkpoint_every requires checkpoint_path");
  }
  if (resume_run && checkpoint_path.empty()) {
    return Status::InvalidArgument("resume_run requires checkpoint_path");
  }
  if (resume_run && sync_verify_replicas) {
    // The verify cache (replica row bytes) is not serialized, so a resumed
    // audit run would immediately CHECK-fail on the first skipped row.
    return Status::InvalidArgument(
        "resume_run is incompatible with sync_verify_replicas");
  }
  return Status::OK();
}

}  // namespace hetefedrec
