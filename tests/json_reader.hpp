// JSON reader for the tests: parses the reports, snapshots and traces the
// telemetry writer (src/telemetry/json.hpp) emits so tests can check them
// field by field. Numbers are doubles. It takes any byte string: a
// truncated, corrupted or absurdly nested input yields nullptr and an
// error, never a crash.
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace dasched::json {

struct Value;
using ValuePtr = std::shared_ptr<Value>;

struct Value {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<ValuePtr> array;
  std::map<std::string, ValuePtr> object;

  bool is_object() const { return kind == Kind::kObject; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_number() const { return kind == Kind::kNumber; }
  bool is_string() const { return kind == Kind::kString; }

  /// Object member lookup; nullptr if absent or not an object.
  const Value* get(std::string_view key) const;
};

/// Deepest array/object nesting parse() accepts; deeper input is rejected
/// like any other malformed document, so no input can exhaust the stack.
inline constexpr std::size_t kMaxNestingDepth = 512;

/// Parses a complete JSON document. Returns nullptr on malformed input
/// (if `error` is non-null it receives a short description).
ValuePtr parse(std::string_view text, std::string* error = nullptr);

}  // namespace dasched::json
