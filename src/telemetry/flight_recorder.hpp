// Bounded flight recorder for the scheduled-execution engine: a fixed-size
// ring buffer per worker (plus one for the serial fate commit and barrier) of the
// most recent logical events -- executions, deliveries, drops, retries,
// crash skips, barrier summaries -- that can be dumped as a post-mortem JSON
// document when something goes wrong: a unit-capacity phase overflows, or
// crash-stop faults fired during a run.
//
// Determinism contract: entries carry only *logical* fields (kind, big-round,
// ids, counts) and deliberately no wall-clock timestamps, so for a fixed seed
// the dump is byte-stable run over run (tests/test_profiler.cpp pins this).
// Wall-clock timing belongs to the Chrome trace sink.
//
// Memory contract: rings are sized once in begin_run() (power-of-two
// capacity, default 256 entries/ring of 24-byte PODs) and record() is a
// masked store plus an increment -- no allocation, no branch on fullness.
// Overwritten history is counted, not kept: dumps report how many entries
// each ring dropped.
//
// Dump schema (dasched.flight_recorder.v1, docs/OBSERVABILITY.md):
//   { "schema": ..., "reason": ..., "workers": N,
//     "rings": [ { "ring": "worker0" | ... | "barrier",
//                  "recorded": total, "dropped": overwritten,
//                  "entries": [ {"kind": ..., "round": ..., <per-kind>}... ] } ] }
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace dasched {

struct FlightRecorderConfig {
  /// Entries per ring; rounded up to a power of two. Every ring holds the
  /// newest `capacity` entries and counts (not stores) the rest.
  std::uint32_t capacity = 256;
  /// Auto-dump target for dump_on(); empty disables file dumps (the
  /// in-memory rings still record and can be dumped explicitly).
  std::string dump_path;
};

class FlightRecorder {
 public:
  enum class Kind : std::uint32_t {
    kEvent = 0,        // a = (alg << 32) | vround, b = node
    kCrashSkip,        // a = (alg << 32) | vround, b = node
    kDeliver,          // a = (alg << 32) | tag,    b = directed edge
    kDropRandom,       // a = (alg << 32) | tag,    b = directed edge
    kDropOutage,       // a = (alg << 32) | tag,    b = directed edge
    kDropCrash,        // a = (alg << 32) | tag,    b = directed edge
    kDuplicate,        // a = (alg << 32) | tag,    b = directed edge
    kRetry,            // a = (attempt << 32) | tag, b = directed edge
    kLost,             // a = (alg << 32) | tag,    b = directed edge
    kBarrier,          // a = messages this round,  b = max edge load
  };

  /// 24-byte POD; rings move these as raw bytes.
  struct Entry {
    std::uint32_t kind = 0;
    std::uint32_t big_round = 0;
    std::uint64_t a = 0;
    std::uint64_t b = 0;
  };

  explicit FlightRecorder(FlightRecorderConfig cfg = {});

  /// Sizes one ring per worker plus the barrier ring and clears history
  /// (capacities retained -- repeated runs allocate nothing).
  void begin_run(std::uint32_t num_workers);

  std::uint32_t num_workers() const { return num_workers_; }
  std::uint32_t capacity() const { return capacity_; }

  /// Hot path: store into `worker`'s ring (index num_workers() is the
  /// barrier ring, or use record_barrier below).
  void record(std::uint32_t worker, Kind kind, std::uint32_t big_round,
              std::uint64_t a, std::uint64_t b) {
    Ring& ring = rings_[worker];
    ring.buf[ring.pos & mask_] = {static_cast<std::uint32_t>(kind), big_round, a, b};
    ++ring.pos;
  }
  void record_barrier(std::uint32_t big_round, std::uint64_t messages,
                      std::uint64_t max_load) {
    record(num_workers_, Kind::kBarrier, big_round, messages, max_load);
  }

  /// Post-mortem dump to the configured dump_path (no-op returning false when
  /// the path is empty or the file cannot be written). Safe to call before
  /// begin_run(): the dump then has zero rings.
  bool dump_on(std::string_view reason);
  std::uint64_t dumps_written() const { return dumps_written_; }
  const std::string& last_reason() const { return last_reason_; }

  /// The dump document, to any stream (tests pin byte-stability on this).
  void write_json(std::ostream& os, std::string_view reason) const;
  bool dump_file(const std::string& path, std::string_view reason) const;

 private:
  struct Ring {
    std::vector<Entry> buf;  // size == capacity_, written modulo mask_
    std::uint64_t pos = 0;   // total recorded; oldest live entry is pos - cap
  };

  FlightRecorderConfig cfg_;
  std::uint32_t capacity_ = 0;  // power of two
  std::uint64_t mask_ = 0;
  std::uint32_t num_workers_ = 0;
  std::vector<Ring> rings_;  // num_workers_ + 1 (last = barrier)
  std::uint64_t dumps_written_ = 0;
  std::string last_reason_;
};

}  // namespace dasched
