// Experiment configuration shared by the trainer, benches and examples.
#ifndef HETEFEDREC_CORE_CONFIG_H_
#define HETEFEDREC_CORE_CONFIG_H_

#include <array>
#include <cstdint>
#include <string>

#include "src/math/backend.h"
#include "src/models/scorer.h"
#include "src/util/status.h"

namespace hetefedrec {

class CommandLine;
struct ExperimentConfig;

/// Registers the flags shared by every experiment binary: one per field
/// table row that names a flag, with the field's default and the row's
/// help. Binary-specific flags (presets, dataset, model) stay with their
/// binaries.
void RegisterExperimentFlags(CommandLine* cli);

/// Applies the flags registered by RegisterExperimentFlags onto `config`,
/// leaving every other field untouched. Returns InvalidArgument naming the
/// flag for trailing junk, an empty number, a sign or overflow in an
/// unsigned field, a non-finite double, a bool other than
/// true/false/1/0/yes/no, or an unknown enum or wire-format name.
Status ApplyExperimentFlags(const CommandLine& cli, ExperimentConfig* config);

/// The seven training schemes of §V-C: the six baselines plus HeteFedRec.
enum class Method {
  kAllSmall,
  kAllLarge,
  kAllLargeExclusive,
  kStandalone,
  kClusteredFedRec,
  kDirectlyAggregate,
  kHeteFedRec,
};

/// All seven methods in the paper's table order.
inline constexpr std::array<Method, 7> kAllMethods = {
    Method::kAllSmall,          Method::kAllLarge,
    Method::kAllLargeExclusive, Method::kStandalone,
    Method::kClusteredFedRec,   Method::kDirectlyAggregate,
    Method::kHeteFedRec,
};

/// Display name matching Table II rows.
std::string MethodName(Method m);

/// Parses a method name (case-sensitive short form, e.g. "hetefedrec",
/// "all_small", "clustered").
StatusOr<Method> MethodByName(const std::string& name);

/// Parses a wire-format name ("fp64" | "fp32" | "fp16") to its scalar size
/// in bytes — the shared mapping behind every --wire_format flag.
StatusOr<size_t> WireScalarBytesByName(const std::string& name);

/// True for the heterogeneous schemes (lower half of Table II).
bool IsHeterogeneous(Method m);

/// How the server combines uploaded updates.
enum class AggregationMode {
  /// Eq. 4/8-9 literally: V^t = V^{t-1} - lr * Σ ∇V_i, with clients
  /// uploading ∇V_i = (V_received - V_local)/lr, i.e. summed local updates.
  kSum,
  /// FedAvg-style: the summed updates are divided by the number of
  /// contributing clients before application.
  kMean,
  /// FedAvg with data-size weights (McMahan et al. 2017): each client's
  /// update is weighted by its local training-set size before the mean.
  kDataWeighted,
};

/// Array-valued field types, named so that their commas stay out of the
/// field table's macro arguments.
using SizeArray2 = std::array<size_t, 2>;
using SizeArray3 = std::array<size_t, 3>;
using DoubleArray3 = std::array<double, 3>;

/// A field's fingerprint class (see src/core/config_fields.def).
enum class FieldClass { kResults, kPlumbing };

/// One row of the field table, as ForEachConfigField hands it out.
struct ConfigField {
  const char* name;
  const char* flag;  ///< "" = no shared flag; "!x" = --x sets the negation
  FieldClass cls;
  const char* help;

  bool has_flag() const { return flag[0] != '\0'; }
  bool negated() const { return flag[0] == '!'; }
  std::string flag_name() const { return negated() ? flag + 1 : flag; }
};

/// \brief Everything needed to run one experiment. The members, their
/// defaults and their documentation are the rows of
/// src/core/config_fields.def.
struct ExperimentConfig {
#define HFR_CONFIG_FIELD(type, name, def, flag, cls, help) type name = def;
#include "src/core/config_fields.def"
#undef HFR_CONFIG_FIELD

  /// Validates ranges and cross-field constraints.
  Status Validate() const;
};

/// Calls visit(field, value) for every row of the field table, in row
/// order, where `value` is the matching member of `config` (const when
/// `config` is).
template <typename Config, typename Visitor>
void ForEachConfigField(Config& config, Visitor&& visit) {
#define HFR_CONFIG_FIELD(type, name, def, flag, cls, help) \
  visit(ConfigField{#name, flag, FieldClass::cls, help}, config.name);
#include "src/core/config_fields.def"
#undef HFR_CONFIG_FIELD
}

/// The kResults fields as one JSON object, keyed by member name in table
/// order: the "config" object of the telemetry meta row.
std::string ConfigJson(const ExperimentConfig& config);

}  // namespace hetefedrec

#endif  // HETEFEDREC_CORE_CONFIG_H_
