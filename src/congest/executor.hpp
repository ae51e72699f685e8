// The scheduled-execution engine.
//
// Everything in this repo -- solo runs, the Theorem 1.1 shared-randomness
// scheduler, and the Theorem 4.1 private-randomness scheduler -- is a special
// case of one operation: run k black-box algorithms where each (algorithm,
// node, virtual round) triple is assigned a *big-round* (the paper's phase) in
// which that node executes that round and transmits its messages. The engine:
//
//  * drives every NodeProgram forward with the exact inbox semantics of a solo
//    execution (messages sent in virtual round r are consumed by the
//    receiver's round r+1),
//  * records per-(big-round, directed-edge) message loads, from which the two
//    schedule-length measures are derived: the adaptive measure
//    sum_t max(1, max_e load(e,t)) and the fixed-phase measure (phases of P
//    physical rounds, overflowing phases counted),
//  * detects causality violations: a message whose consumer was scheduled to
//    run before the message was transmitted. A correct schedule (what the
//    paper's w.h.p. analysis guarantees) has zero violations; the counter
//    exists so experiments can *measure* failures instead of crashing.
//
// De-duplication from Lemma 4.4 ("if a copy of a message has been sent
// before, this message gets dropped ... a node creating a round-j message
// takes into account all messages received about rounds up to j-1") is
// realized structurally: the engine keeps ONE canonical execution per
// (algorithm, node), and the schedule passed in by the private-randomness
// scheduler is the earliest big-round over all clustering layers -- the fixed
// point of the paper's first-copy-wins rule.
//
// Parallel execution: within one big-round every scheduled event is
// independent (each (alg, node) executes at most one event per big-round and
// messages are staged until the round barrier), so each bucket has one
// static owner partition across `ExecConfig::num_threads` pool workers:
// contiguous, 64-event aligned slot ranges. Owner w gathers the inboxes of
// its slots, executes their events into its own staging lanes (read in owner
// order at the barrier), and in the delivery barrier routes the messages
// bound for its slots and folds its slice of the edge loads -- on the pool
// for big rounds and in turn on the calling thread otherwise, whatever
// faults or observers are attached. The result is bit-identical for every
// thread count; see docs/PERFORMANCE.md for the argument and the measured
// scaling curve.
//
// Memory discipline: the message path is allocation-free in steady state.
// Messages travel as compact SoA lanes sized to the *run width* W (see run()):
// a packed u32 header lane (sender + length, congest/message.hpp) and a
// W-strided u64 payload lane, so a message costs 4 + 8*W bytes in staging and
// in the CSR inbox arena instead of a fixed worst-case record. Inboxes are
// not per-(alg, node, tag) vectors but flat arenas: at the delivery barrier
// each message is bound to the big-round in which its consumer executes, and
// at the start of that big-round all of its messages are counting-sorted once
// into contiguous lane slices per event -- each event's inbox is an InboxView
// over those slices. All buffers (worker staging lanes, pending-round
// buckets, parked retransmissions keyed by due round, the tag == T finish
// lanes, the round arena lanes) live in an ExecScratch owned by the Executor
// and are recycled across big-rounds and across runs, so a warmed-up run --
// clean or faulty with retries -- performs zero heap allocations per
// message; ExecutionResult::hot_path_allocs measures this (see
// docs/PERFORMANCE.md, "Memory layout & allocation budget"). The node
// programs live there too: each run constructs them in place in the
// scratch's ProgramArena (DistributedAlgorithm::construct_program) and
// destroys them once their outputs are collected into one flat NodeOutputs
// table per algorithm, so a warm run of programs that own no heap memory
// allocates only the ExecutionResult's own tables. The program pointer is
// the engine's only per-(alg, node) state: a node's private randomness is
// program state (node_rng, congest/program.hpp), and whether it completed
// follows from its schedule row and crash round.
//
// Fault injection: an optional `ExecConfig::faults` hook models an unreliable
// network (message drops/duplicates, link outages, crash-stop nodes). Fault
// decisions are pure functions of the plan seed and the message identity, so
// each execute shard decides the fates of the messages it staged, in
// parallel; one serial fate commit then applies the order-dependent effects
// (retransmissions and recorder fate notes) in shard order, so
// faulty runs stay bit-identical across thread counts. The delivery barrier
// then delivers each message's marked number of copies. With the hook null
// the executor is byte-for-byte the reliable engine above. `ExecConfig::retry`
// layers reliable delivery on top: dropped transmissions are re-sent with
// exponential slot backoff (bounded attempts), consuming bandwidth in the
// big-round of each retry; run the schedule through stretch_for_retries so
// the retry slots exist. See docs/FAULTS.md.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "congest/message.hpp"
#include "congest/node_outputs.hpp"
#include "congest/program.hpp"
#include "congest/schedule_table.hpp"
#include "fault/fault_injector.hpp"
#include "fault/reliable.hpp"
#include "graph/graph.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/profiler.hpp"
#include "telemetry/telemetry.hpp"
#include "util/load_cells.hpp"
#include "util/parallel.hpp"

namespace dasched {

struct ExecConfig {
  /// Enforce the raw CONGEST bound of one message per directed edge per
  /// big-round -- used by solo_run where big-round == round.
  bool enforce_unit_capacity = false;
  /// Worker threads for big-round execution. 0 and 1 both mean serial; N >= 2
  /// spawns a pool of N workers (N - 1 threads plus the calling thread) that
  /// is reused across big-rounds and runs; between dispatches its idle
  /// workers spin briefly, then park. Every value produces bit-identical
  /// ExecutionResults (asserted by tests/test_parallel_executor.cpp); pick
  /// hardware concurrency for throughput (docs/PERFORMANCE.md).
  std::uint32_t num_threads = 0;
  /// Optional telemetry sink (borrowed; must outlive the Executor). Null --
  /// the default -- emits nothing. The big-round loop never calls it, set or
  /// not: after the loop the executor emits, from
  /// ExecutionResult::round_records and the run's totals (see
  /// docs/OBSERVABILITY.md for the full name list):
  ///   spans      executor/run, executor/big_round (one per big-round, laid
  ///              end to end by wall_ns, with t/events/messages/max_load args)
  ///   counters   executor.events_executed, executor.messages_sent,
  ///              executor.messages_delivered, executor.causality_violations,
  ///              executor.big_rounds, executor.parallel.rounds_parallel,
  ///              executor.parallel.rounds_serial
  ///   gauges     executor.max_edge_load, executor.parallel.num_threads
  ///   histograms executor.max_load_per_big_round, and executor.edge_load
  ///              (per touched directed edge per big-round) when `profiler`
  ///              is set too, read from its cells
  TelemetrySink* telemetry = nullptr;
  /// Optional fault injector (borrowed; must outlive the run). Null -- the
  /// default -- models the paper's perfectly reliable network; results are
  /// then bit-identical to a build without the fault subsystem, and no
  /// fault.* telemetry is emitted. When set, every transmission attempt
  /// consults the injector (drops, duplicates, link outages) on the execute
  /// shard that staged it -- concurrently, hence FaultInjector's
  /// thread-safety contract -- and crash-stopped nodes skip their scheduled
  /// events; the run
  /// additionally fills ExecutionResult::faults and emits fault.* counters
  /// (docs/FAULTS.md lists them).
  const FaultInjector* faults = nullptr;
  /// Reliable-delivery retransmission policy; consulted only when `faults`
  /// is set, and then bounded by RetryPolicy's budget (the constructor
  /// aborts past it). With max_retries > 0, run the schedule through
  /// stretch_for_retries(schedule, retry) so retry slots exist between
  /// original big-rounds -- then every retransmission lands strictly before
  /// the consumers that depend on it (fault/reliable.hpp).
  RetryPolicy retry;
  /// Optional congestion profiler (borrowed; must outlive the run). Null --
  /// the default -- leaves the engine byte-for-byte unprofiled. When set, the
  /// executor sizes the profiler once per run (begin_run), hands it every
  /// touched (directed edge, big-round) load cell after each delivery
  /// barrier, on the calling thread, in (big-round, edge) order -- the one
  /// per-cell observer in the loop -- and after the loop gives it the run's
  /// per-round record (end_run). Profiled runs stay bit-identical across
  /// thread counts and allocation-free in steady state. The profiler only
  /// observes; ExecutionResults are unchanged (tests/test_profiler.cpp pins
  /// both).
  ExecProfiler* profiler = nullptr;
  /// Optional flight recorder (borrowed; must outlive the run). Null -- the
  /// default -- records nothing. When set, each worker logs its executions
  /// and crash skips to its own bounded ring, the serial fate commit logs
  /// per-message fates (in canonical order, read from the shards' fate
  /// bytes) and the round close a per-round summary; the executor dumps a
  /// post-mortem JSON document (FlightRecorderConfig::dump_path) when a
  /// unit-capacity round overflows or crash-stop faults fired during the run.
  /// See docs/OBSERVABILITY.md.
  FlightRecorder* recorder = nullptr;
};

struct ExecutionResult {
  /// outputs[alg][node]; meaningful only where completed[alg][node] is true
  /// (an incomplete node's output is empty). One flat table per algorithm.
  std::vector<NodeOutputs> outputs;  // perf-ok: filled once per run
  /// completed[alg][node]: node executed all rounds() rounds plus on_finish.
  std::vector<std::vector<std::uint8_t>> completed;  // perf-ok: filled once per run

  std::uint64_t causality_violations = 0;
  std::uint64_t total_messages = 0;
  std::uint32_t num_big_rounds = 0;
  /// max over directed edges of the message load, per big-round.
  std::vector<std::uint32_t> max_load_per_big_round;  // perf-ok: one entry per big-round
  std::uint32_t max_edge_load = 0;
  /// One record per big-round (util/load_cells.hpp), parallel to
  /// max_load_per_big_round: the counts the profiler and the telemetry read
  /// after the run. Its wall_ns is the one field of an ExecutionResult
  /// outside the bit-identity contract (and result_fingerprint): it varies
  /// from run to run. Every other field is bit-identical across thread
  /// counts, widths and observers.
  std::vector<RoundRecord> round_records;  // perf-ok: one entry per big-round

  /// Heap allocations observed during the big-round loop (event execution
  /// plus delivery barriers) -- the steady-state message path. Non-zero only
  /// in binaries that link util/alloc_hooks.cpp (bench_e13_message_hotpath,
  /// test_hotpath); 0 everywhere else. With allocation-free programs this is
  /// 0 from the second run of an Executor onwards, whatever observers are
  /// attached (the first run warms the arenas up to their high-water marks).
  std::uint64_t hot_path_allocs = 0;

  /// Fault accounting; all-zero unless ExecConfig::faults was set.
  struct FaultStats {
    std::uint64_t attempts = 0;        // transmissions incl. retransmissions
    std::uint64_t delivered = 0;       // copies appended to an inbox
    std::uint64_t dropped_random = 0;  // lost to Bernoulli(drop_rate)
    std::uint64_t dropped_outage = 0;  // lost to a link outage
    std::uint64_t dropped_crash = 0;   // receiver already crashed (never acks)
    std::uint64_t duplicated = 0;      // extra copies delivered (no reliable layer)
    std::uint64_t duplicates_suppressed = 0;  // deduped by the reliable layer
    std::uint64_t retransmissions = 0;
    std::uint64_t lost = 0;            // budget exhausted or sender crashed
    std::uint64_t skipped_events = 0;  // events not executed: crash-stop
    std::uint64_t dropped() const {
      return dropped_random + dropped_outage + dropped_crash;
    }
    /// Every field is a sum, so per-worker partials fold in any order.
    FaultStats& operator+=(const FaultStats& o) {
      attempts += o.attempts;
      delivered += o.delivered;
      dropped_random += o.dropped_random;
      dropped_outage += o.dropped_outage;
      dropped_crash += o.dropped_crash;
      duplicated += o.duplicated;
      duplicates_suppressed += o.duplicates_suppressed;
      retransmissions += o.retransmissions;
      lost += o.lost;
      skipped_events += o.skipped_events;
      return *this;
    }
    friend bool operator==(const FaultStats&, const FaultStats&) = default;
  };
  FaultStats faults;

  /// Realized schedule length if every big-round lasts exactly as many
  /// physical rounds as its busiest edge needs (>= 1).
  std::uint64_t adaptive_physical_rounds() const {
    return adaptive_length(max_load_per_big_round);
  }
  /// Realized length with fixed phases of `phase_len` physical rounds (the
  /// paper's w.h.p. regime); overflows indicate the schedule failed.
  FixedPhase fixed_phase(std::uint32_t phase_len) const {
    return fixed_length(max_load_per_big_round, phase_len);
  }

  bool all_completed() const;
};

/// Canonical fingerprint of an ExecutionResult: FNV-1a (util/fingerprint.hpp)
/// over the per-(alg, node) outputs (size then words), the completion flags,
/// and the per-big-round max loads -- exactly the fields the bit-identity
/// contract pins across thread counts, run widths, and observer attachments.
/// round_records stays out: its wall_ns is a clock reading, the one result
/// field outside that contract.
/// The golden constants in tests/test_fault.cpp and tests/test_profiler.cpp
/// are digests of this function; the service layer folds it into its own
/// end-to-end fingerprint (src/service/daemon.hpp).
std::uint64_t result_fingerprint(const ExecutionResult& result);

/// Reusable execution buffers (worker staging, pending-round delivery
/// buckets, parked retransmissions, the CSR inbox arena); owned by the
/// Executor so repeated runs reuse warmed-up capacity. Defined in
/// executor.cpp.
struct ExecScratch;

class Executor {
 public:
  /// Aborts if cfg.faults is set with a retry budget past RetryPolicy's bound.
  explicit Executor(const Graph& g, ExecConfig cfg = {});
  ~Executor();

  /// Runs all algorithms under the given schedule. Algorithms are borrowed
  /// (must outlive the call). The schedule is validated (gap-free prefix,
  /// strictly increasing big-rounds per (alg, node)) before execution, but
  /// nothing more is proved here: a caller that must not run an unproven
  /// schedule proves it first with verify::check_schedule, as the service
  /// daemon does for every cohort it composes (docs/VERIFICATION.md).
  ///
  /// The *run width* -- the payload-word stride of every staging and delivery
  /// lane, and the word budget every send is checked against -- is derived
  /// here, once per run: the maximum declared
  /// StaticFootprint::max_payload_words when every admitted algorithm
  /// declares one, else kMaxPayloadWords (always clamped to
  /// [1, kMaxPayloadWords]). Execution then dispatches to a
  /// width-specialized instantiation of the engine, so every per-message copy
  /// is a fixed-size move the compiler vectorizes. Results are bit-identical
  /// across widths >= what the algorithms actually send.
  ExecutionResult run(std::span<const DistributedAlgorithm* const> algorithms,
                      const ScheduleTable& schedule);

 private:
  /// The width-specialized engine body; W is the run width in payload words
  /// (1..kMaxPayloadWords). Instantiated in executor.cpp for
  /// every supported width by run()'s dispatch.
  template <std::uint32_t W>
  ExecutionResult run_impl(std::span<const DistributedAlgorithm* const> algorithms,
                           const ScheduleTable& schedule);
  /// One run's state and the big-round pipeline's stage functions; defined
  /// in executor.cpp.
  struct Run;

  const Graph& graph_;
  ExecConfig cfg_;
  /// Lazily created on the first parallel run; reused across runs.
  std::unique_ptr<ThreadPool> pool_;
  /// Arena-backed scratch recycled across big-rounds and runs.
  std::unique_ptr<ExecScratch> scratch_;
};

}  // namespace dasched
