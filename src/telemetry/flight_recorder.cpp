#include "telemetry/flight_recorder.hpp"

#include <algorithm>
#include <bit>
#include <fstream>

#include "telemetry/json.hpp"

namespace dasched {

namespace {

const char* kind_name(std::uint32_t kind) {
  switch (static_cast<FlightRecorder::Kind>(kind)) {
    case FlightRecorder::Kind::kEvent: return "event";
    case FlightRecorder::Kind::kCrashSkip: return "crash-skip";
    case FlightRecorder::Kind::kDeliver: return "deliver";
    case FlightRecorder::Kind::kDropRandom: return "drop-random";
    case FlightRecorder::Kind::kDropOutage: return "drop-outage";
    case FlightRecorder::Kind::kDropCrash: return "drop-crash";
    case FlightRecorder::Kind::kDuplicate: return "duplicate";
    case FlightRecorder::Kind::kRetry: return "retry";
    case FlightRecorder::Kind::kLost: return "lost";
    case FlightRecorder::Kind::kBarrier: return "barrier";
  }
  return "unknown";
}

void write_entry(json::Writer& w, const FlightRecorder::Entry& e) {
  w.begin_object();
  w.kv("kind", kind_name(e.kind));
  w.kv("round", std::uint64_t{e.big_round});
  switch (static_cast<FlightRecorder::Kind>(e.kind)) {
    case FlightRecorder::Kind::kEvent:
    case FlightRecorder::Kind::kCrashSkip:
      w.kv("alg", e.a >> 32);
      w.kv("vround", e.a & 0xffffffffu);
      w.kv("node", e.b);
      break;
    case FlightRecorder::Kind::kRetry:
      w.kv("attempt", e.a >> 32);
      w.kv("tag", e.a & 0xffffffffu);
      w.kv("edge", e.b);
      break;
    case FlightRecorder::Kind::kBarrier:
      w.kv("messages", e.a);
      w.kv("max_load", e.b);
      break;
    default:  // per-message fates: deliver / drops / duplicate / lost
      w.kv("alg", e.a >> 32);
      w.kv("tag", e.a & 0xffffffffu);
      w.kv("edge", e.b);
      break;
  }
  w.end_object();
}

}  // namespace

FlightRecorder::FlightRecorder(FlightRecorderConfig cfg) : cfg_(std::move(cfg)) {
  capacity_ = std::bit_ceil(std::max<std::uint32_t>(1, cfg_.capacity));
  mask_ = capacity_ - 1;
}

void FlightRecorder::begin_run(std::uint32_t num_workers) {
  num_workers_ = num_workers;
  rings_.resize(std::size_t{num_workers} + 1);
  for (auto& ring : rings_) {
    ring.buf.resize(capacity_);
    ring.pos = 0;
  }
}

void FlightRecorder::write_json(std::ostream& os, std::string_view reason) const {
  json::Writer w(os);
  w.begin_object();
  w.kv("schema", "dasched.flight_recorder.v1");
  w.kv("reason", reason);
  w.kv("workers", std::uint64_t{num_workers_});
  w.kv("capacity", std::uint64_t{capacity_});
  w.key("rings");
  w.begin_array();
  for (std::size_t r = 0; r < rings_.size(); ++r) {
    const Ring& ring = rings_[r];
    w.begin_object();
    w.kv("ring", r == num_workers_ ? std::string("barrier")
                                   : "worker" + std::to_string(r));
    w.kv("recorded", ring.pos);
    const std::uint64_t live = std::min<std::uint64_t>(ring.pos, capacity_);
    w.kv("dropped", ring.pos - live);
    w.key("entries");
    w.begin_array();
    // Oldest to newest among the live window.
    for (std::uint64_t i = ring.pos - live; i < ring.pos; ++i) {
      write_entry(w, ring.buf[i & mask_]);
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  os << '\n';
}

bool FlightRecorder::dump_file(const std::string& path, std::string_view reason) const {
  std::ofstream os(path);
  if (!os) return false;
  write_json(os, reason);
  return static_cast<bool>(os);
}

bool FlightRecorder::dump_on(std::string_view reason) {
  last_reason_ = std::string(reason);
  if (cfg_.dump_path.empty()) return false;
  if (!dump_file(cfg_.dump_path, reason)) return false;
  ++dumps_written_;
  return true;
}

}  // namespace dasched
