// Tiny command-line flag parser used by bench and example binaries.
//
// Flags look like --name=value or --name value. Unknown flags are an error
// so typos don't silently fall back to defaults mid-experiment. `Get` parses
// a value strictly with `ParseText`, the codec the shared experiment flags
// use too (ApplyExperimentFlags, src/core/config.h); the GetInt-style
// getters are lenient (atoi-style).
#ifndef HETEFEDREC_UTIL_CLI_H_
#define HETEFEDREC_UTIL_CLI_H_

#include <array>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

#include "src/util/status.h"

namespace hetefedrec {

/// Reads flag text into `*out`, strictly: a bool is one of
/// true|false|1|0|yes|no; a number takes no whitespace, no '+', no sign on
/// an unsigned type and no trailing junk, and must be in range and finite;
/// a string is taken as is. On failure `*out` is unspecified.
template <typename T>
Status ParseText(const std::string& text, T* out) {
  if constexpr (std::is_same_v<T, bool>) {
    const bool on = text == "true" || text == "1" || text == "yes";
    if (!on && text != "false" && text != "0" && text != "no") {
      return Status::InvalidArgument("expected true|false|1|0|yes|no");
    }
    *out = on;
    return Status::OK();
  } else if constexpr (std::is_arithmetic_v<T>) {
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
    if (ec == std::errc::result_out_of_range) {
      return Status::InvalidArgument("out of range");
    }
    if (ec != std::errc() || ptr != end) {
      return Status::InvalidArgument(
          std::is_floating_point_v<T> ? "expected a number"
          : std::is_unsigned_v<T>     ? "expected an unsigned integer"
                                      : "expected an integer");
    }
    if constexpr (std::is_floating_point_v<T>) {
      if (!std::isfinite(*out)) return Status::InvalidArgument("not finite");
    }
    return Status::OK();
  } else {
    static_assert(std::is_same_v<T, std::string>, "no codec for this type");
    *out = text;
    return Status::OK();
  }
}

/// Reads exactly N comma-separated values, each with `ParseText`.
template <typename T, size_t N>
Status ParseText(const std::string& text, std::array<T, N>* out) {
  size_t begin = 0;
  for (size_t i = 0; i < N; ++i) {
    const size_t end = i + 1 < N ? text.find(',', begin) : text.size();
    if (end == std::string::npos) {
      return Status::InvalidArgument("too few comma-separated values");
    }
    HFR_RETURN_NOT_OK(ParseText(text.substr(begin, end - begin), &(*out)[i]));
    begin = end + 1;
  }
  return Status::OK();
}

/// \brief Declarative flag registry + parser.
class CommandLine {
 public:
  /// Registers a flag with a default value and help text.
  void AddFlag(const std::string& name, const std::string& default_value,
               const std::string& help);

  /// Parses argv. Returns InvalidArgument on unknown flags or missing values.
  Status Parse(int argc, char** argv);

  /// Strict accessor: parses flag `name` with `ParseText` into `*out`, which
  /// is left untouched on failure. The error is InvalidArgument naming the
  /// flag: `--name='text': reason`.
  template <typename T>
  Status Get(const std::string& name, T* out) const {
    const std::string text = GetString(name);
    T value = *out;
    const Status status = ParseText(text, &value);
    if (!status.ok()) {
      return Status::InvalidArgument("--" + name + "='" + text +
                                     "': " + status.message());
    }
    *out = value;
    return status;
  }

  /// Lenient accessors; the flag must have been registered.
  std::string GetString(const std::string& name) const;
  int GetInt(const std::string& name) const;
  uint64_t GetUint64(const std::string& name) const;
  double GetDouble(const std::string& name) const;
  bool GetBool(const std::string& name) const;

  /// Help text listing all registered flags.
  std::string Usage(const std::string& program) const;

 private:
  struct Flag {
    std::string value;
    std::string help;
  };
  std::map<std::string, Flag> flags_;
};

}  // namespace hetefedrec

#endif  // HETEFEDREC_UTIL_CLI_H_
