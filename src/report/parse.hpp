// paxsim/report/parse.hpp
//
// The one JSON reader: the consumer-side counterpart of report::Json.
// Everything in the tree that ingests JSON — the result store's entries
// (src/serve/store), serve job files (src/serve/jobs), topology files
// (sim::Topology::parse_json) and report::validate_json — parses through
// this small document model, so number handling, escapes, nesting limits
// and error reporting are defined in exactly one place.
//
// The grammar is strict where it matters for untrusted files: numbers must
// match -?digits(.digits)?([eE][+-]?digits)? and be finite as doubles
// (an overflowing token such as 1e999 is an error, not an infinity),
// nesting deeper than 64 levels is rejected before it can exhaust the
// stack, and a duplicated object member is kept in order, so find()
// resolves it first-wins.
//
// The model is deliberately minimal: a JsonValue is null, a bool, a number,
// a string, an array, or an object whose members keep insertion order (the
// writer's order, so round-trip tooling sees stable documents).  Numbers
// retain their raw token text alongside the parsed double, because store
// entries carry exact 64-bit quantities (counter values, double bit
// patterns) that must not lose precision through a double round-trip.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace paxsim::report {

/// A parsed JSON value.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0;         ///< numeric value (lossy for 64-bit integers)
  std::string raw_number;    ///< the exact number token as written
  std::string string;        ///< string contents (escapes resolved)
  std::vector<JsonValue> items;                               ///< arrays
  std::vector<std::pair<std::string, JsonValue>> members;     ///< objects

  [[nodiscard]] bool is_null() const noexcept { return kind == Kind::kNull; }
  [[nodiscard]] bool is_object() const noexcept {
    return kind == Kind::kObject;
  }
  [[nodiscard]] bool is_array() const noexcept { return kind == Kind::kArray; }
  [[nodiscard]] bool is_string() const noexcept {
    return kind == Kind::kString;
  }
  [[nodiscard]] bool is_number() const noexcept {
    return kind == Kind::kNumber;
  }
  [[nodiscard]] bool is_bool() const noexcept { return kind == Kind::kBool; }

  /// Object member lookup; nullptr when absent or not an object.  With
  /// duplicate names the first occurrence wins.
  [[nodiscard]] const JsonValue* find(std::string_view key) const noexcept;

  /// The exact unsigned 64-bit value of a number token; false when the
  /// value is not an unsigned integer literal that fits.
  [[nodiscard]] bool as_u64(std::uint64_t* out) const noexcept;

  /// Convenience accessors with defaults for optional members.
  [[nodiscard]] std::string string_or(std::string_view key,
                                      std::string fallback) const;
  [[nodiscard]] double number_or(std::string_view key,
                                 double fallback) const noexcept;
  [[nodiscard]] bool bool_or(std::string_view key,
                             bool fallback) const noexcept;
};

/// Parses exactly one JSON value from @p text (trailing whitespace allowed,
/// trailing garbage rejected).  On failure returns false and, when @p error
/// is non-null, a human-readable message with the byte offset.
bool parse_json_value(std::string_view text, JsonValue* out,
                      std::string* error = nullptr);

}  // namespace paxsim::report
