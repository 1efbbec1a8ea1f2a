// Tiny command-line flag parser shared by the benchmark and example binaries.
// Supports --key=value, --key value, and bare boolean --key forms. Unknown
// flags are an error so typos in experiment sweeps fail loudly instead of
// silently running the default configuration.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

namespace tiv {

class Flags {
 public:
  /// Parses argv. Throws std::invalid_argument on malformed input (e.g.
  /// "--" prefix missing, or a value flag at the end without a value).
  Flags(int argc, const char* const* argv);

  /// True if the flag was present (with or without a value).
  bool has(const std::string& name) const;

  std::string get_string(const std::string& name,
                         const std::string& def) const;
  /// Numeric values must parse in full: "--hosts=12abc" and
  /// "--threshold=0.5x" throw std::invalid_argument instead of silently
  /// running with 12 or 0.5.
  std::int64_t get_int(const std::string& name, std::int64_t def) const;
  /// A count or size: the value must be a plain decimal in [0, max of T].
  /// "--runs=-1" and "--hosts=4294967296" (for a 32-bit T) throw
  /// std::invalid_argument instead of wrapping to a huge count.
  template <typename T>
  T get_uint(const std::string& name, T def) const {
    static_assert(std::is_unsigned_v<T>);
    return static_cast<T>(
        get_uint_at_most(name, def, std::numeric_limits<T>::max()));
  }
  double get_double(const std::string& name, double def) const;
  /// Bare "--name" and "--name=true/1/yes" are true; "--name=false/0/no" is
  /// false. Throws on other values.
  bool get_bool(const std::string& name, bool def) const;

  /// Names that were parsed but never queried — call at the end of main to
  /// reject typos. Returns the unknown names.
  std::vector<std::string> unconsumed() const;

  const std::string& program_name() const { return program_name_; }

 private:
  std::uint64_t get_uint_at_most(const std::string& name, std::uint64_t def,
                                 std::uint64_t max) const;

  std::string program_name_;
  std::map<std::string, std::string> values_;
  mutable std::map<std::string, bool> consumed_;
};

/// Throws std::invalid_argument listing any flag that was never queried.
void reject_unknown_flags(const Flags& flags);

/// Runs a binary's main body and turns an escaping std::exception (an
/// unknown flag, an unwritable --dir, ...) into "error: <what>" on stderr
/// and exit status 1, instead of std::terminate's abort:
///   int main(int argc, char** argv) { return tiv::run_main(run, argc, argv); }
int run_main(int (*body)(int, char**), int argc, char** argv);

}  // namespace tiv
