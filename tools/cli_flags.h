// Strict command-line flags for the shpir CLIs. A flag is `--name
// value`, or a bare `--name` for a switch; each command accepts only
// the flags it lists, and a numeric value must parse in full. An
// unknown flag, a missing value, or a value that does not parse (a sign,
// a trailing byte, an overflow, a port above 65535) is a usage error,
// never a silent default. Words that are not flags are positional.

#ifndef SHPIR_TOOLS_CLI_FLAGS_H_
#define SHPIR_TOOLS_CLI_FLAGS_H_

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/check.h"
#include "obs/admin.h"

namespace shpir::cli {

/// What a flag's value must be.
enum class Kind {
  kText,    // Any word.
  kCount,   // An unsigned decimal integer.
  kPort,    // An unsigned decimal integer up to 65535.
  kReal,    // A finite decimal number without a sign.
  kSwitch,  // No value: the flag is present or absent.
};

struct Flag {
  std::string_view name;  // Without the leading "--".
  Kind kind;
};

/// Parses all of `text` as a TCP port.
inline bool ParsePort(std::string_view text, uint16_t* port) {
  uint64_t value = 0;
  if (!obs::ParseAdminNumber(text, &value) || value > UINT16_MAX) {
    return false;
  }
  *port = static_cast<uint16_t>(value);
  return true;
}

/// Parses all of `text` as a finite number without a sign.
inline bool ParseReal(std::string_view text, double* value) {
  const char* end = text.data() + text.size();
  double parsed = 0.0;
  const auto [ptr, ec] = std::from_chars(text.data(), end, parsed);
  if (text.empty() || text[0] == '-' || ec != std::errc() || ptr != end ||
      !std::isfinite(parsed)) {
    return false;
  }
  *value = parsed;
  return true;
}

/// One command line, checked against the flags its command accepts.
class Flags {
 public:
  /// Parses argv[first, argc). On a usage error, says what is wrong on
  /// stderr and returns nullopt.
  static std::optional<Flags> Parse(int argc, char** argv, int first,
                                    const std::vector<Flag>& accepted) {
    Flags flags;
    for (int i = first; i < argc; ++i) {
      const std::string_view word = argv[i];
      if (word.substr(0, 2) != "--") {
        flags.positional_.emplace_back(word);
        continue;
      }
      const std::string_view name = word.substr(2);
      const Flag* flag = nullptr;
      for (const Flag& candidate : accepted) {
        if (candidate.name == name) {
          flag = &candidate;
        }
      }
      if (flag == nullptr) {
        std::fprintf(stderr, "error: unknown flag %s\n", argv[i]);
        return std::nullopt;
      }
      std::string value;
      if (flag->kind != Kind::kSwitch) {
        if (i + 1 == argc) {
          std::fprintf(stderr, "error: flag %s needs a value\n", argv[i]);
          return std::nullopt;
        }
        value = argv[++i];
        if (!ValidValue(flag->kind, value)) {
          std::fprintf(stderr, "error: bad value '%s' for flag --%.*s\n",
                       value.c_str(), static_cast<int>(name.size()),
                       name.data());
          return std::nullopt;
        }
      }
      flags.values_[std::string(name)] = std::move(value);
    }
    return flags;
  }

  bool Has(std::string_view name) const { return Find(name) != nullptr; }

  std::string Get(std::string_view name, std::string fallback = "") const {
    const std::string* text = Find(name);
    return text == nullptr ? fallback : *text;
  }

  // Parse accepted the value, so the conversions below cannot fail.
  uint64_t GetU64(std::string_view name, uint64_t fallback) const {
    const std::string* text = Find(name);
    SHPIR_CHECK(text == nullptr || obs::ParseAdminNumber(*text, &fallback));
    return fallback;
  }

  uint16_t GetPort(std::string_view name, uint16_t fallback) const {
    const std::string* text = Find(name);
    SHPIR_CHECK(text == nullptr || ParsePort(*text, &fallback));
    return fallback;
  }

  double GetDouble(std::string_view name, double fallback) const {
    const std::string* text = Find(name);
    SHPIR_CHECK(text == nullptr || ParseReal(*text, &fallback));
    return fallback;
  }

  const std::vector<std::string>& positional() const { return positional_; }

 private:
  const std::string* Find(std::string_view name) const {
    const auto it = values_.find(name);
    return it == values_.end() ? nullptr : &it->second;
  }

  static bool ValidValue(Kind kind, std::string_view text) {
    uint64_t count = 0;
    uint16_t port = 0;
    double real = 0.0;
    switch (kind) {
      case Kind::kCount:
        return obs::ParseAdminNumber(text, &count);
      case Kind::kPort:
        return ParsePort(text, &port);
      case Kind::kReal:
        return ParseReal(text, &real);
      default:
        return true;
    }
  }

  std::map<std::string, std::string, std::less<>> values_;
  std::vector<std::string> positional_;
};

}  // namespace shpir::cli

#endif  // SHPIR_TOOLS_CLI_FLAGS_H_
