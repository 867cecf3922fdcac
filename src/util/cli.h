// Tiny command-line flag parser used by bench and example binaries.
//
// Flags look like --name=value or --name value. Unknown flags are an error
// so typos don't silently fall back to defaults mid-experiment. The getters
// are lenient (atoi-style); the shared experiment flags are parsed strictly
// by ApplyExperimentFlags (src/core/config.h).
#ifndef HETEFEDREC_UTIL_CLI_H_
#define HETEFEDREC_UTIL_CLI_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/util/status.h"

namespace hetefedrec {

/// \brief Declarative flag registry + parser.
class CommandLine {
 public:
  /// Registers a flag with a default value and help text.
  void AddFlag(const std::string& name, const std::string& default_value,
               const std::string& help);

  /// Parses argv. Returns InvalidArgument on unknown flags or missing values.
  Status Parse(int argc, char** argv);

  /// Accessors; the flag must have been registered.
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
