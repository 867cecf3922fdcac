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
