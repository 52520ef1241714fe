#include "util/flags.h"

#include <sstream>

#include "util/text.h"

namespace p2p {
namespace util {
namespace {

// Flag values use the same number lexers as the scenario text format; these
// wrappers only add the error messages.
Status ParseInt64(const std::string& s, int64_t* out) {
  if (!ParseInt64Token(s, out)) {
    return Status::InvalidArgument("not an integer: '" + s + "'");
  }
  return Status::OK();
}

Status ParseDouble(const std::string& s, double* out) {
  if (!ParseDoubleToken(s, out)) {
    return Status::InvalidArgument("not a number: '" + s + "'");
  }
  return Status::OK();
}

}  // namespace

void FlagSet::Register(const std::string& name, Entry entry) {
  entries_[name] = std::move(entry);
}

void FlagSet::Int64(const std::string& name, int64_t* var, const std::string& help) {
  Entry e;
  e.help = help;
  e.default_value = std::to_string(*var);
  e.set = [var](const std::string& s) { return ParseInt64(s, var); };
  Register(name, std::move(e));
}

void FlagSet::Int32(const std::string& name, int* var, const std::string& help) {
  Entry e;
  e.help = help;
  e.default_value = std::to_string(*var);
  e.set = [var](const std::string& s) {
    int64_t v;
    P2P_RETURN_IF_ERROR(ParseInt64(s, &v));
    if (v < INT32_MIN || v > INT32_MAX) {
      return Status::OutOfRange("flag value does not fit in int32: " + s);
    }
    *var = static_cast<int>(v);
    return Status::OK();
  };
  Register(name, std::move(e));
}

void FlagSet::UInt32(const std::string& name, uint32_t* var, const std::string& help) {
  Entry e;
  e.help = help;
  e.default_value = std::to_string(*var);
  e.set = [var](const std::string& s) {
    int64_t v;
    P2P_RETURN_IF_ERROR(ParseInt64(s, &v));
    if (v < 0 || v > UINT32_MAX) {
      return Status::OutOfRange("flag value does not fit in uint32: " + s);
    }
    *var = static_cast<uint32_t>(v);
    return Status::OK();
  };
  Register(name, std::move(e));
}

void FlagSet::Double(const std::string& name, double* var, const std::string& help) {
  Entry e;
  e.help = help;
  e.default_value = std::to_string(*var);
  e.set = [var](const std::string& s) { return ParseDouble(s, var); };
  Register(name, std::move(e));
}

void FlagSet::Bool(const std::string& name, bool* var, const std::string& help) {
  Entry e;
  e.help = help;
  e.default_value = *var ? "true" : "false";
  e.is_bool = true;
  e.set = [var](const std::string& s) {
    if (s == "true" || s == "1" || s.empty()) {
      *var = true;
    } else if (s == "false" || s == "0") {
      *var = false;
    } else {
      return Status::InvalidArgument("not a boolean: '" + s + "'");
    }
    return Status::OK();
  };
  Register(name, std::move(e));
}

void FlagSet::String(const std::string& name, std::string* var,
                     const std::string& help) {
  Entry e;
  e.help = help;
  e.default_value = *var;
  e.set = [var](const std::string& s) {
    *var = s;
    return Status::OK();
  };
  Register(name, std::move(e));
}

Status FlagSet::Parse(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    arg = arg.substr(2);
    std::string value;
    bool has_value = false;
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
      has_value = true;
    }
    auto it = entries_.find(arg);
    bool negated = false;
    if (it == entries_.end() && arg.rfind("no-", 0) == 0) {
      it = entries_.find(arg.substr(3));
      negated = true;
    }
    if (it == entries_.end()) {
      return Status::InvalidArgument("unknown flag --" + arg);
    }
    Entry& entry = it->second;
    if (entry.is_bool) {
      if (negated) {
        if (has_value) {
          return Status::InvalidArgument("--no-" + it->first + " takes no value");
        }
        P2P_RETURN_IF_ERROR(entry.set("false"));
      } else {
        P2P_RETURN_IF_ERROR(entry.set(has_value ? value : "true"));
      }
      continue;
    }
    if (negated) return Status::InvalidArgument("unknown flag --no-" + it->first);
    if (!has_value) {
      if (i + 1 >= argc) {
        return Status::InvalidArgument("flag --" + arg + " expects a value");
      }
      value = argv[++i];
    }
    P2P_RETURN_IF_ERROR(entry.set(value));
  }
  return Status::OK();
}

std::string FlagSet::Usage(const std::string& program) const {
  std::ostringstream os;
  os << "usage: " << program << " [flags]\n";
  for (const auto& [name, entry] : entries_) {
    os << "  --" << name;
    if (!entry.is_bool) os << "=<value>";
    os << "  " << entry.help << " (default: " << entry.default_value << ")\n";
  }
  return os.str();
}

}  // namespace util
}  // namespace p2p
