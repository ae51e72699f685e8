// Minimal JSON support for the telemetry subsystem: a streaming writer (used
// by MetricsRegistry / ChromeTraceSink / RunReport) and a small recursive-
// descent parser (used by tests to round-trip snapshots and by tools that
// read reports back). Deliberately tiny and dependency-free; not a general
// JSON library -- numbers are doubles, no \uXXXX emission beyond pass-through
// escaping. The parser still takes any byte string: a truncated, corrupted
// or absurdly nested input yields nullptr and an error, never a crash.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace dasched::json {

/// Streaming writer producing compact, valid JSON. Usage:
///   Writer w(os);
///   w.begin_object();
///   w.key("counters"); w.begin_object(); ... w.end_object();
///   w.end_object();
/// Comma placement is automatic. The caller is responsible for balanced
/// begin/end calls.
class Writer {
 public:
  explicit Writer(std::ostream& os) : os_(os) {}

  void begin_object();
  void end_object();
  void begin_array();
  void end_array();

  /// Object key; must be followed by exactly one value (or container).
  void key(std::string_view k);

  void value(std::string_view s);
  void value(const char* s) { value(std::string_view(s)); }
  void value(double v);
  void value(std::uint64_t v);
  void value(std::int64_t v);
  void value(bool b);
  void null();

  /// Splices pre-rendered JSON verbatim in value position (after a key or as
  /// an array element), with normal comma/pending-key handling. The caller
  /// guarantees `text` is one complete JSON value.
  void raw(std::string_view text);

  // Convenience: key + scalar value.
  template <typename T>
  void kv(std::string_view k, T v) {
    key(k);
    value(v);
  }

 private:
  void separator();
  std::ostream& os_;
  /// Per-nesting-level flag: true once the first element has been written.
  std::vector<bool> has_element_{};
  bool pending_key_ = false;
};

/// Escapes `s` per RFC 8259 and writes it including surrounding quotes.
void write_escaped(std::ostream& os, std::string_view s);

// ---------------------------------------------------------------------------
// Parser (tests / report readers).
// ---------------------------------------------------------------------------

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
