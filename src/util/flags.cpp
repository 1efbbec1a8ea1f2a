#include "util/flags.hpp"

#include <algorithm>
#include <iostream>
#include <stdexcept>

namespace tiv {
namespace {

bool looks_like_flag(const std::string& s) {
  return s.size() > 2 && s[0] == '-' && s[1] == '-';
}

}  // namespace

Flags::Flags(int argc, const char* const* argv) {
  if (argc > 0) program_name_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (!looks_like_flag(arg)) {
      throw std::invalid_argument("expected --flag, got: " + arg);
    }
    const std::string body = arg.substr(2);
    const auto eq = body.find('=');
    if (eq != std::string::npos) {
      values_[body.substr(0, eq)] = body.substr(eq + 1);
      continue;
    }
    // "--key value" when the next token is not itself a flag; otherwise a
    // bare boolean.
    if (i + 1 < argc && !looks_like_flag(argv[i + 1])) {
      values_[body] = argv[++i];
    } else {
      values_[body] = "";
    }
  }
}

bool Flags::has(const std::string& name) const {
  consumed_[name] = true;
  return values_.count(name) > 0;
}

std::string Flags::get_string(const std::string& name,
                              const std::string& def) const {
  consumed_[name] = true;
  const auto it = values_.find(name);
  return it == values_.end() ? def : it->second;
}

std::int64_t Flags::get_int(const std::string& name, std::int64_t def) const {
  consumed_[name] = true;
  const auto it = values_.find(name);
  if (it == values_.end()) return def;
  // The whole value must parse: "12abc" is an error, not 12.
  std::size_t end = 0;
  try {
    const std::int64_t v = std::stoll(it->second, &end);
    if (end == it->second.size()) return v;
  } catch (const std::exception&) {
    // out of range or no digits: reported below
  }
  throw std::invalid_argument("flag --" + name +
                              " expects an integer, got: " + it->second);
}

std::uint64_t Flags::get_uint_at_most(const std::string& name,
                                      std::uint64_t def,
                                      std::uint64_t max) const {
  consumed_[name] = true;
  const auto it = values_.find(name);
  if (it == values_.end()) return def;
  // Digits only: std::stoull would accept "-1" and wrap it.
  const std::string& v = it->second;
  if (!v.empty() && v.find_first_not_of("0123456789") == std::string::npos) {
    try {
      const unsigned long long parsed = std::stoull(v);
      if (parsed <= max) return parsed;
    } catch (const std::out_of_range&) {
      // above 2^64 - 1: reported below
    }
  }
  throw std::invalid_argument("flag --" + name +
                              " expects an integer in [0, " +
                              std::to_string(max) + "], got: " + v);
}

double Flags::get_double(const std::string& name, double def) const {
  consumed_[name] = true;
  const auto it = values_.find(name);
  if (it == values_.end()) return def;
  std::size_t end = 0;
  try {
    const double v = std::stod(it->second, &end);
    if (end == it->second.size()) return v;
  } catch (const std::exception&) {
    // out of range or no digits: reported below
  }
  throw std::invalid_argument("flag --" + name +
                              " expects a number, got: " + it->second);
}

bool Flags::get_bool(const std::string& name, bool def) const {
  consumed_[name] = true;
  const auto it = values_.find(name);
  if (it == values_.end()) return def;
  const std::string& v = it->second;
  if (v.empty() || v == "true" || v == "1" || v == "yes") return true;
  if (v == "false" || v == "0" || v == "no") return false;
  throw std::invalid_argument("flag --" + name +
                              " expects a boolean, got: " + v);
}

std::vector<std::string> Flags::unconsumed() const {
  std::vector<std::string> out;
  for (const auto& [k, v] : values_) {
    if (!consumed_.count(k)) out.push_back(k);
  }
  return out;
}

void reject_unknown_flags(const Flags& flags) {
  const auto unknown = flags.unconsumed();
  if (unknown.empty()) return;
  std::string msg = "unknown flag(s):";
  for (const auto& name : unknown) msg += " --" + name;
  throw std::invalid_argument(msg);
}

int run_main(int (*body)(int, char**), int argc, char** argv) {
  try {
    return body(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace tiv
