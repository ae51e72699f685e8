#include "telemetry/json.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "util/check.hpp"

namespace dasched::json {

// ---------------------------------------------------------------------------
// Writer.
// ---------------------------------------------------------------------------

void write_escaped(std::ostream& os, std::string_view s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\r': os << "\\r"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

void Writer::separator() {
  if (pending_key_) {
    pending_key_ = false;
    return;  // value belongs to the key just written; no comma.
  }
  if (!has_element_.empty()) {
    if (has_element_.back()) os_ << ',';
    has_element_.back() = true;
  }
}

void Writer::begin_object() {
  separator();
  os_ << '{';
  has_element_.push_back(false);
}

void Writer::end_object() {
  DASCHED_CHECK(!has_element_.empty());
  has_element_.pop_back();
  os_ << '}';
}

void Writer::begin_array() {
  separator();
  os_ << '[';
  has_element_.push_back(false);
}

void Writer::end_array() {
  DASCHED_CHECK(!has_element_.empty());
  has_element_.pop_back();
  os_ << ']';
}

void Writer::key(std::string_view k) {
  DASCHED_CHECK(!pending_key_);
  separator();
  write_escaped(os_, k);
  os_ << ':';
  pending_key_ = true;
}

void Writer::value(std::string_view s) {
  separator();
  write_escaped(os_, s);
}

void Writer::value(double v) {
  separator();
  if (!std::isfinite(v)) {  // JSON has no Inf/NaN; null is the least-bad spelling.
    os_ << "null";
    return;
  }
  char buf[32];
  // %.17g round-trips doubles; trim to shortest via %g first when exact.
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  if (std::strtod(buf, nullptr) != v) {
    std::snprintf(buf, sizeof(buf), "%.17e", v);
  }
  os_ << buf;
}

void Writer::value(std::uint64_t v) {
  separator();
  os_ << v;
}

void Writer::value(bool b) {
  separator();
  os_ << (b ? "true" : "false");
}

void Writer::raw(std::string_view text) {
  separator();
  os_ << text;
}

}  // namespace dasched::json
