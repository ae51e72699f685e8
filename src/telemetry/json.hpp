// Minimal JSON support for the telemetry subsystem: a streaming writer (used
// by MetricsRegistry / ChromeTraceSink / RunReport). Deliberately tiny and
// dependency-free; not a general JSON library -- no \uXXXX emission beyond
// pass-through escaping. The reader the tests use to round-trip reports
// lives with them (tests/json_reader.hpp).
#pragma once

#include <cstdint>
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
  void value(bool b);

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

}  // namespace dasched::json
