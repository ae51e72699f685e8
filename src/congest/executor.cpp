#include "congest/executor.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstring>
#include <utility>

#include "util/alloc_counter.hpp"
#include "util/check.hpp"
#include "util/fingerprint.hpp"

namespace dasched {

using namespace std::chrono_literals;

bool ExecutionResult::all_completed() const {
  for (const auto& per_alg : completed) {
    for (const auto c : per_alg) {
      if (!c) return false;
    }
  }
  return true;
}

// The message-path structs live at namespace scope (not in an anonymous
// namespace) because ExecScratch -- declared in the header -- holds arenas of
// them; this TU is the only one that defines or uses them.
//
// Message layout (the width-dispatch layer, congest/message.hpp): a staged or
// delivered message is one packed u32 header (sender + payload length) in a
// header lane plus W u64 words in a W-strided payload lane, where W is the
// run width run() derived. Everything below that stores "a message" stores
// those two lanes; lane strides come from the run width alone.

/// One scheduled execution event.
struct ExecEvent {
  std::uint32_t alg;
  NodeId node;
  std::uint32_t vround;
};

/// Logical identity of a staged message, parallel to the staged header lane.
/// Filled only when fates or the fate commit consume identities (flight
/// recorder, fault injection); the clean unobserved path never writes
/// or reads it -- routing needs only the precomputed staged_dest lane.
struct StagedMeta {
  std::uint32_t alg;
  std::uint32_t tag;  // sender's virtual round
  NodeId to;
};

static_assert(std::is_trivially_copyable_v<ExecEvent>);
static_assert(std::is_trivially_copyable_v<StagedMeta>);

/// A minimal growable POD lane. The staging and parked-delivery lanes below
/// append tens of millions of fixed-size records per run; std::vector's
/// iterator-range insert machinery (range length, exception paths, memmove
/// dispatch) dominates the profile at that rate. A Lane is the subset the
/// engine needs: trivially-copyable elements, amortized-doubling growth that
/// only ever happens during warm-up (steady state is allocation-free, like
/// every other arena here), and an uninitialized bulk append that compiles
/// to one fixed-size copy.
template <typename T>
struct Lane {
  static_assert(std::is_trivially_copyable_v<T>);
  std::unique_ptr<T[]> store;
  std::size_t len = 0;
  std::size_t cap = 0;

  void clear() { len = 0; }
  std::size_t size() const { return len; }
  T* data() { return store.get(); }
  const T* data() const { return store.get(); }
  T& operator[](std::size_t i) { return store[i]; }
  const T& operator[](std::size_t i) const { return store[i]; }
  T* begin() { return store.get(); }
  T* end() { return store.get() + len; }
  const T* begin() const { return store.get(); }
  const T* end() const { return store.get() + len; }
  void reserve(std::size_t n) {
    if (n > cap) regrow(n);
  }
  void push(T v) {
    if (len == cap) [[unlikely]] regrow(cap != 0 ? cap * 2 : 64);
    store[len++] = v;
  }
  /// Uninitialized append of n elements; the caller fills them.
  T* append_n(std::size_t n) {
    if (len + n > cap) [[unlikely]] {
      regrow(std::max(cap != 0 ? cap * 2 : std::size_t{64}, len + n));
    }
    T* p = store.get() + len;
    len += n;
    return p;
  }
  void regrow(std::size_t n) {
    std::unique_ptr<T[]> grown(new T[n]);
    if (len != 0) std::memcpy(grown.get(), store.get(), len * sizeof(T));
    store = std::move(grown);
    cap = n;
  }
};

/// One owner-worker's parked deliveries bound to a future big-round: the
/// consumer-slot lane, the header lane, and the W-strided payload lane kept
/// parallel (SoA), so the gather histogram at that round streams a dense u32
/// lane and only the final scatter moves payload words. The tag == T stream
/// uses the same shape with the packed finish key in the slot lane.
struct PendingSeg {
  Lane<std::uint32_t> slot;  // perf-ok: consumer slot (or finish key) per message
  Lane<std::uint32_t> hdr;   // perf-ok: packed header per message
  Lane<std::uint64_t> pay;   // perf-ok: W-strided payload lane

  void clear() {
    slot.clear();
    hdr.clear();
    pay.clear();
  }
};

/// One lane source of the delivery barrier: compact SoA staging lanes, all
/// parallel (entry i of each lane describes staged message i). The payload
/// lane is W-strided: message i's words live at [i*W, i*W + W). staged_dest
/// packs (consumer big-round << 32) | bucket slot -- or a sentinel round
/// (kFinishDest with the packed finish key, kNeverDest) -- into one word so
/// the send path and barrier move one lane instead of two; the fault
/// decision marks its copy count in the same word.
struct StagedLanes {
  Lane<std::uint32_t> staged_hdr;   // perf-ok: cleared per round, capacity retained
  Lane<std::uint64_t> staged_pay;   // perf-ok: W-strided payload lane
  Lane<StagedMeta> staged_meta;     // perf-ok: only filled when need_meta
  Lane<std::uint32_t> staged_edge;  // perf-ok: directed edge per message
  Lane<std::uint64_t> staged_dest;  // perf-ok: (round << 32) | slot per message

  void clear() {
    staged_hdr.clear();
    staged_pay.clear();
    staged_meta.clear();
    staged_edge.clear();
    staged_dest.clear();
  }
};

/// Retransmissions due in one big-round, parked by the fate commit: the
/// dropped attempts' staged lanes (destination as first staged, so nothing
/// is looked up twice) plus the 1-based attempt each entry makes. At its
/// round the bundle is the delivery barrier's first lane source as it
/// stands, ahead of worker 0.
struct RetryLanes : StagedLanes {
  Lane<std::uint8_t> attempt;  // perf-ok: one attempt index per entry

  void clear() {
    StagedLanes::clear();
    attempt.clear();
  }
};

constexpr std::uint32_t kNoBucket = ~std::uint32_t{0};

/// Lane bundles keyed by big-round, recycled through a free list, so the
/// number of live bundles tracks the rounds with traffic in flight. A
/// bundle is addressed by round through `index`: acquire() may grow `pool`,
/// which invalidates references to every bundle.
template <typename Seg>
struct RoundPool {
  std::vector<std::uint32_t> index;      // perf-ok: big-round -> pool slot or kNoBucket
  std::vector<Seg> pool;                 // perf-ok: recycled via free_list
  std::vector<std::uint32_t> free_list;  // perf-ok: released pool slots

  /// Releases every bundle and keys the pool by big-rounds [0, rounds).
  void reset(std::size_t rounds) {
    index.assign(rounds, kNoBucket);
    free_list.clear();
    for (std::uint32_t b = 0; b < pool.size(); ++b) {
      pool[b].clear();
      free_list.push_back(b);
    }
  }
  std::uint32_t find(std::uint32_t round) const {
    return round < index.size() ? index[round] : kNoBucket;
  }
  /// Forced inline: the barrier calls it once per routed message.
  [[gnu::always_inline]] Seg& acquire(std::uint32_t round) {
    std::uint32_t& b = index[round];
    if (b == kNoBucket) {
      if (free_list.empty()) {
        b = static_cast<std::uint32_t>(pool.size());
        pool.emplace_back();
      } else {
        b = free_list.back();
        free_list.pop_back();
      }
    }
    return pool[b];
  }
  void release(std::uint32_t round) {
    pool[index[round]].clear();
    free_list.push_back(index[round]);
    index[round] = kNoBucket;
  }
};

/// Per-worker staging plus reusable scratch. Within one big-round every event
/// touches only its own (alg, node) state, so shards race only if they shared
/// scratch -- they don't; and because each shard appends to its own staging
/// lanes and shards are contiguous slices of the bucket, concatenating the
/// lanes in shard order reproduces the canonical staging order bit for bit.
struct WorkerState : StagedLanes {
  // Duplicate-send detection without any clearing: slot s was used by the
  // current event iff slot_stamp[s] == event_serial. The serial is bumped
  // before every event and never reset (a u64 cannot realistically wrap), so
  // stale stamps from any earlier event, round, or run can never collide.
  std::vector<std::uint64_t> slot_stamp;  // perf-ok: size max_degree, never cleared
  std::uint64_t event_serial = 0;
  // --- Ownership (the owner partition, docs/PERFORMANCE.md). Each worker
  // statically owns a contiguous range of consumer slots and of directed
  // edges per round; everything below is written only by its owner,
  // whichever thread runs the owner's body, so the contents are
  // bit-identical across thread counts. ---
  RoundPool<PendingSeg> pend;             // parked deliveries by consumer big-round
  std::vector<std::uint32_t> touched;     // perf-ok: touched edges of this owner's edge range
  // One bit per edge of the owner's slice, all-zero between rounds: puts
  // `touched` in edge order for per-cell observers without a sort.
  std::vector<std::uint64_t> touched_bits;  // perf-ok: sized once per observed run
  // Inbox-presence words this owner set during the current round's gather;
  // the post-execution clear walks exactly these instead of memsetting the
  // whole bitset (the bitset is all-zero outside the round window).
  std::vector<std::uint32_t> touched_words;  // perf-ok: scoped presence clears
  std::uint32_t max_load_partial = 0;  // max edge load over this owner's edge range
  std::uint64_t violations = 0;  // causality violations counted at the barrier (owner 0)
  std::uint64_t delivered = 0;  // inbox messages this worker's events consumed this round
  std::uint64_t skipped = 0;    // events skipped this round: the node crash-stopped
  // --- Fault fates of this worker's staged messages, decided at the end of
  // its execute shard on faulty runs and read by the serial fate commit. ---
  Lane<std::uint8_t> staged_fate;   // perf-ok: one fate byte per staged message
  Lane<std::uint32_t> retransmit;   // perf-ok: staged indices to retransmit, ascending
  ExecutionResult::FaultStats fault_partial;  // folded into the result at run end
};

namespace {

/// staged_dest round-half sentinels. kFinishDest marks tag == T messages
/// (consumed by on_finish after the loop); kNeverDest marks messages whose
/// consumer is never scheduled, and messages a fault dropped (counted
/// nowhere, delivered nowhere). Real destinations are big-rounds below both
/// (run_impl checks the horizon). The top bit is the fault decision's
/// raw-duplicate mark (deliver two copies), so `dest >= kNeverDest` tests for
/// either sentinel or a mark in one compare.
constexpr std::uint32_t kNeverDest = 0x7ffffffe;
constexpr std::uint32_t kFinishDest = 0x7fffffff;
constexpr std::uint32_t kTwoCopies = 0x80000000;

/// A message's fate byte: the FlightRecorder kind of its attempt's outcome
/// (kDeliver or one of the kDrop kinds) in the low bits, plus two flags.
constexpr std::uint8_t kFateDuplicate = 0x10;   // delivered with a raw duplicate
constexpr std::uint8_t kFateRetransmit = 0x20;  // dropped, retransmission due
constexpr std::uint8_t kFateKindMask = 0x0f;
static_assert(static_cast<std::uint32_t>(FlightRecorder::Kind::kDropCrash) <= kFateKindMask);

/// Minimum messages in a big-round before the delivery barrier's owners run
/// on the pool; below this the calling thread runs them in turn (one pool
/// dispatch publishes a batch to every worker and waits for all their acks).
/// Invisible in results: it is the same body either way.
constexpr std::uint64_t kMinMessagesParallelBarrier = 256;

/// Per-event send path, width-specialized: stages straight into the
/// executing worker's compact lanes with no intermediate send buffer. One
/// binary search over the (sorted) adjacency validates the neighbor and
/// yields its adjacency slot; the per-slot epoch stamp flags duplicate sends
/// in O(1) with no clearing; the directed edge id is one indexed load off
/// the slot; and the consumer's (big-round, bucket slot) coordinate is
/// resolved right here from the flat schedule -- the delivery barrier never
/// touches the schedule at all.
template <std::uint32_t W>
struct SendSink {
  // Per-run bindings.
  WorkerState* ws;
  const std::uint32_t* sched_flat;
  const std::uint32_t* slot_of;
  NodeId num_nodes;
  bool need_meta;
  // Per-event bindings. The consumer's flat-schedule slot for a send to node
  // v is si_base + v * si_stride (ScheduleTable row layout), hoisted here so
  // the per-send cost is one multiply-add.
  std::span<const HalfEdge> neighbors;
  const std::uint32_t* directed;  // directed edge id per adjacency slot
  std::size_t si_base;            // slot_index(alg, 0, vround + 1)
  std::size_t si_stride;          // rounds(alg)
  std::uint32_t alg;
  std::uint32_t vround;
  std::uint32_t from;       // sender id == low header bits
  bool finishing;           // vround == rounds(alg): messages go to on_finish
  std::uint32_t slot_hint;  // next adjacency slot if sends come in order

  static void send(void* raw, NodeId neighbor, const Payload& payload) {
    auto* sink = static_cast<SendSink*>(raw);
    WorkerState& ws = *sink->ws;
    const auto nbrs = sink->neighbors;
    // Nearly every program iterates ctx.neighbors() (sorted) when sending,
    // so the next send's slot is almost always the hint; the binary search
    // only runs for out-of-order senders.
    std::uint32_t slot = sink->slot_hint;
    if (slot >= nbrs.size() || nbrs[slot].neighbor != neighbor) [[unlikely]] {
      const auto it = std::lower_bound(
          nbrs.begin(), nbrs.end(), neighbor,
          [](const HalfEdge& h, NodeId x) { return h.neighbor < x; });
      DASCHED_CHECK_MSG(it != nbrs.end() && it->neighbor == neighbor,
                        "send to non-neighbor");
      slot = static_cast<std::uint32_t>(it - nbrs.begin());
    }
    sink->slot_hint = slot + 1;
    // W is the run's word budget: the declared footprint width, or the full
    // CONGEST budget for undeclared algorithms. A wider message is a contract
    // bug, not a silent truncation.
    DASCHED_CHECK_MSG(payload.size() <= W,
                      "message exceeds the run's word budget (declared footprint payload width)");
    DASCHED_CHECK_MSG(ws.slot_stamp[slot] != ws.event_serial,
                      "two messages to one neighbor in one round");
    ws.slot_stamp[slot] = ws.event_serial;
    // Compact lane staging: one packed header word plus a fixed W-word
    // payload copy (InlinePayload zero-fills its tail, so copying W words
    // never reads indeterminate bytes and the compiler emits one straight
    // vector move).
    ws.staged_hdr.push(sink->from | (payload.size() << kMsgHeaderFromBits));
    std::memcpy(ws.staged_pay.append_n(W), payload.data(),
                W * sizeof(std::uint64_t));
    if (sink->need_meta) ws.staged_meta.push({sink->alg, sink->vround, neighbor});
    ws.staged_edge.push(sink->directed[slot]);
    if (sink->finishing) {
      // tag == T: the slot half carries the packed finish key alg*n + to.
      ws.staged_dest.push(
          (std::uint64_t{kFinishDest} << 32) |
          static_cast<std::uint32_t>(std::size_t{sink->alg} * sink->num_nodes +
                                     neighbor));
    } else {
      const std::size_t si =
          sink->si_base + std::size_t{neighbor} * sink->si_stride;
      const std::uint32_t dest = sink->sched_flat[si];
      ws.staged_dest.push(dest == kNeverScheduled
                              ? std::uint64_t{kNeverDest} << 32
                              : (std::uint64_t{dest} << 32) | sink->slot_of[si]);
    }
  }
};

/// Software prefetch distance (messages ahead) on the scatter's CSR targets:
/// far enough to cover a cache miss on the arena line, near enough that the
/// line is still resident when the copy reaches it.
constexpr std::size_t kScatterPrefetchDist = 8;

inline void prefetch_for_write(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, 1, 3);
#else
  (void)p;
#endif
}

/// Visited-marker bit for the in-place stable finish permutation below; the
/// finish arena is checked to stay under 2^31 messages so the bit is free.
constexpr std::uint32_t kPlaced = 0x80000000u;

/// The barrier's first lane source in rounds with no retransmission due.
const StagedLanes kNoRetries{};

}  // namespace

/// Everything the engine reuses across big-rounds and runs. First run of a
/// workload grows each buffer to its high-water mark; from then on the
/// message path performs no heap allocation (ExecutionResult::hot_path_allocs
/// measures exactly this window). All lanes are width-agnostic storage: the
/// payload lanes are raw u64 vectors whose stride is whatever run width the
/// current run_impl<W> instantiation uses, so one scratch serves runs of any
/// width.
struct ExecScratch {
  // perf-ok: all members below are arenas/scratch -- sized once per run (or
  // grown to a high-water mark during warm-up) and recycled, never allocated
  // per message.

  // --- Schedule flattening (rebuilt per run, capacity retained). ---
  std::vector<ExecEvent> events;          // perf-ok: per-run arena
  std::vector<std::size_t> bucket_start;  // perf-ok: CSR offsets per big-round
  std::vector<std::size_t> bucket_cursor;  // perf-ok: counting-sort scratch

  // --- Worker staging (persistent; slot_used zeroed once at creation and
  // kept all-zero between events by the senders themselves). ---
  std::vector<WorkerState> workers;  // perf-ok: persistent across runs
  std::size_t staged_high_water = 0;  // max staged per worker per big-round

  // --- Owner-partitioned delivery (docs/PERFORMANCE.md). Pending deliveries
  // live in per-worker PendingSegs keyed by the consumer's big-round (see
  // WorkerState); the lanes below are the shared, statically-partitioned
  // coordinate system the owners operate in.
  //
  // slot_of is the lane parallel to ScheduleTable::flat(): for every
  // scheduled (alg, node, vround) slot, that event's index within its
  // big-round bucket, filled during the counting sort. It is never reset:
  // any entry the barrier reads belongs to a scheduled slot, which was
  // freshly written this run.
  //
  // slot_bound is the owner partition, num_big_rounds + 1 rows of
  // (num_workers + 1) consumer-slot boundaries: worker w owns slots
  // [row[w], row[w + 1]) of round t's bucket -- 64-event aligned so one
  // inbox_present word never spans two owners.
  //
  // inbox_present is maintained all-zero outside a round's gather/execute
  // window: the gather's first-touch histogram sets bits and records the
  // touched words, and the post-execution sweep clears exactly those words.
  // That invariant is what lets the per-slot count lane skip zeroing
  // entirely -- a count cell is only ever read behind a presence bit set
  // this round, and the first touch *assigns* 1 instead of incrementing. ---
  std::vector<std::uint32_t> slot_of;      // perf-ok: lane of schedule.flat(), rebuilt per run
  std::vector<std::uint32_t> slot_bound;   // perf-ok: owner partition, rebuilt per run
  std::vector<std::uint64_t> inbox_present;  // perf-ok: 1 bit per event of the bucket

  // --- Per-big-round CSR inbox arena lanes: this round's consumable
  // messages, counting-sorted into contiguous per-event slices. ---
  std::vector<std::uint32_t> arena_hdr;     // perf-ok: reused every big-round
  std::vector<std::uint64_t> arena_pay;     // perf-ok: W-strided, reused every big-round
  std::vector<std::uint32_t> inbox_offset;  // perf-ok: per populated event slot
  std::vector<std::uint32_t> inbox_cursor;  // perf-ok: counting-sort scratch
  std::vector<std::uint32_t> inbox_count;   // perf-ok: never zeroed (presence-guarded)

  // --- tag == T messages, consumed by on_finish after the loop. Appended
  // across the run to one seg whose slot lane holds the packed finish key
  // alg*n + to (fits u32, checked per run), and stably sorted IN PLACE by
  // one cycle-following permutation after the loop -- there is no second
  // arena copy. ---
  PendingSeg finish;
  std::vector<std::uint32_t> finish_target;  // perf-ok: permutation scratch, one u32 per message
  std::vector<std::size_t> finish_offset;  // perf-ok: per (alg, node), size k*n + 1

  // --- Edge-load accounting (self-zeroing between rounds via the owners'
  // touched lists). A dense per-edge count, not util/load_cells: the barrier
  // must not allocate or sort in steady state. ---
  std::vector<std::uint32_t> edge_count;  // perf-ok: zeroed via WorkerState::touched

  // --- Parked retransmissions keyed by due big-round (docs/FAULTS.md). ---
  RoundPool<RetryLanes> retry;

  // --- The only per-(alg, node) state: program pointers, one flat k*n lane
  // indexed alg*n + node. The programs live in the arena from construction
  // until the run has collected its outputs; reset() then destroys them in
  // place. ---
  ProgramArena arena;
  std::vector<NodeProgram*> programs;  // perf-ok: per-run lane, capacity retained

  // --- One algorithm's outputs while they are collected; each finished
  // table is copied out at its exact size. ---
  std::vector<std::uint64_t> out_words;   // perf-ok: reused per algorithm
  std::vector<std::uint32_t> out_offsets;  // perf-ok: reused per algorithm
};

static_assert(kDefaultMaxPayloadWords <= InlinePayload::kInlineCapacity,
              "the CONGEST word budget exceeds the inline payload capacity; "
              "recompile with a larger -DDASCHED_PAYLOAD_INLINE_WORDS=<n>");

// --- The big-round pipeline, one function per stage (docs/PERFORMANCE.md):
// validate + bucket and prepare once per run; then per big-round gather,
// execute (with fate decide), fate commit, barrier and round close; then
// finish. Every parallel stage is one owner-partitioned body run by
// for_each_owner, plus a serial tail on the calling thread. ---

namespace {

/// One big-round as its stages hand it on.
struct Round {
  std::uint32_t t = 0;
  std::size_t begin = 0;  // the bucket is events [begin, begin + size)
  std::size_t size = 0;
  bool has_inbox = false;  // the gather populated the CSR inbox arena
  std::uint32_t due = kNoBucket;  // retry-pool slot of the retransmissions due now
  std::uint64_t retries = 0;      // retransmissions sent this round
  std::uint64_t messages = 0;     // every transmission this round
};

}  // namespace

/// The per-run state the stages share: the run's inputs, the values derived
/// from them by the initializers below, the schedule's extent (set by
/// validate_and_bucket), the horizon (which retransmissions extend) and the
/// tallies that accumulate across rounds.
struct Executor::Run {
  const Graph& g;
  const ScheduleTable& schedule;
  std::span<const DistributedAlgorithm* const> algorithms;
  ExecScratch& s;
  const ExecConfig& cfg;
  ThreadPool* pool = nullptr;  // bound after validation, for parallel runs
  const FaultInjector* faults = cfg.faults;
  ExecProfiler* profiler = cfg.profiler;
  FlightRecorder* recorder = cfg.recorder;
  std::size_t k = algorithms.size();
  NodeId n = g.num_nodes();
  std::uint32_t num_workers = std::max<std::uint32_t>(1, cfg.num_threads);
  std::uint32_t max_retries = faults != nullptr ? cfg.retry.max_retries : 0;
  /// Rounds retransmissions may add past the schedule: chained retries back
  /// off exponentially, so at most sum_{i<R} 2^i = 2^R - 1.
  std::uint32_t round_headroom = max_retries > 0 ? (1u << max_retries) - 1 : 0;
  /// Identity lanes are needed only when fates or the fate commit consume
  /// message identities; the clean unobserved path skips the lane.
  bool need_meta = faults != nullptr || recorder != nullptr;

  std::uint32_t num_big_rounds = 0;
  std::uint64_t total_events = 0;
  std::size_t max_bucket_size = 0;
  std::uint32_t horizon = 0;

  std::uint64_t rounds_parallel = 0;
  std::uint64_t rounds_serial = 0;
  std::chrono::steady_clock::time_point round_clock{};  // the last round's close

  /// Runs an owner-partitioned body on the pool when `parallel`, else for each
  /// owner in turn on the calling thread: the same body either way.
  template <typename Body>
  void for_each_owner(bool parallel, Body& body) {
    if (parallel) {
      pool->run(num_workers, body);
    } else {
      for (std::uint32_t w = 0; w < num_workers; ++w) body(w);
    }
  }

  /// Validate + bucket. One pass over the schedule validates it (gap-free
  /// prefix, strictly increasing big-rounds, horizon inside the packed
  /// destination range), counts events per big-round and records the last
  /// one. The horizon is checked per slot, before bucket_start grows to cover
  /// it, so a corrupt table fails here instead of sizing O(max big-round)
  /// buffers. A counting sort then buckets the events into one flat array plus
  /// CSR offsets, preserving (alg, node, round) order within each bucket --
  /// the canonical serial execution order -- and fills the slot_of lane: each
  /// scheduled slot's event index within its bucket, i.e. the consumer-side
  /// coordinate every staged message will carry.
  void validate_and_bucket() {
    DASCHED_CHECK_EQ(schedule.num_algorithms(), k,
                     "schedule table does not match the problem dimensions");
    DASCHED_CHECK_EQ(schedule.num_nodes(), n,
                     "schedule table does not match the problem dimensions");
    // Packed-header capacity: the sender id must fit the header's from-field
    // (32 bits minus the length bits; congest/message.hpp).
    DASCHED_CHECK_MSG(std::uint64_t{n} <= kMaxPackedHeaderNodes,
                      "graph too large for packed 32-bit message headers");
    // Packed finish keys alg*n + to must fit u32 (see the finish lanes).
    DASCHED_CHECK_MSG(static_cast<std::uint64_t>(k) * n <= (std::uint64_t{1} << 32),
                      "k*n exceeds the packed finish-key range");
    auto& bucket_start = s.bucket_start;
    std::uint32_t max_big_round = 0;
    bucket_start.clear();
    for (std::size_t a = 0; a < k; ++a) {
      DASCHED_CHECK_EQ(schedule.rounds(a), algorithms[a]->rounds(),
                       "schedule table does not match the algorithm round counts");
      for (NodeId v = 0; v < n; ++v) {
        const auto slots = schedule.row(a, v);
        std::uint32_t prev = 0;
        bool ended = false;
        for (std::uint32_t r = 1; r <= slots.size(); ++r) {
          const std::uint32_t t = slots[r - 1];
          if (t == kNeverScheduled) {
            ended = true;
            continue;
          }
          DASCHED_CHECK_MSG(!ended, "schedule has a gap: round scheduled after a skipped one");
          DASCHED_CHECK_MSG(r == 1 || t > prev,
                            "schedule must be strictly increasing per (alg, node)");
          DASCHED_CHECK_MSG(std::uint64_t{t} + 1 + round_headroom < kNeverDest,
                            "schedule horizon exceeds the packed destination range");
          prev = t;
          max_big_round = std::max(max_big_round, t);
          if (std::size_t{t} + 2 > bucket_start.size()) bucket_start.resize(std::size_t{t} + 2, 0);
          ++bucket_start[std::size_t{t} + 1];
          ++total_events;
        }
      }
    }
    num_big_rounds = total_events == 0 ? 0 : max_big_round + 1;
    horizon = num_big_rounds;
    bucket_start.resize(std::size_t{num_big_rounds} + 1, 0);
    for (std::uint32_t t = 1; t <= num_big_rounds; ++t) {
      max_bucket_size = std::max(max_bucket_size, bucket_start[t]);
      bucket_start[t] += bucket_start[t - 1];
    }

    auto& events = s.events;
    events.resize(total_events);
    if (s.slot_of.size() < schedule.flat_size()) s.slot_of.resize(schedule.flat_size());
    auto& cursor = s.bucket_cursor;
    cursor.assign(bucket_start.begin(), bucket_start.end() - 1);
    for (std::size_t a = 0; a < k; ++a) {
      for (NodeId v = 0; v < n; ++v) {
        const auto slots = schedule.row(a, v);
        for (std::uint32_t r = 1; r <= slots.size(); ++r) {
          const std::uint32_t t = slots[r - 1];
          if (t != kNeverScheduled) {
            s.slot_of[schedule.slot_index(a, v, r)] =
                static_cast<std::uint32_t>(cursor[t] - bucket_start[t]);
            events[cursor[t]++] = {static_cast<std::uint32_t>(a), v, r};
          }
        }
      }
    }
  }

  /// Prepare: the per-run sizing that keeps the steady-state window
  /// allocation-free -- programs built in the scratch arena, the result's
  /// tables, the delivery arenas (which only grow to warm-up high-water
  /// marks), the retry pool and the workers' staging -- then the owner
  /// partition.
  template <std::uint32_t W>
  void prepare(ExecutionResult& result) {
    s.arena.reset();
    s.programs.clear();
    for (std::size_t a = 0; a < k; ++a) {
      for (NodeId v = 0; v < n; ++v) {
        s.programs.push_back(&algorithms[a]->construct_program(v, s.arena));
      }
    }

    result.outputs.resize(k);
    result.completed.assign(k, {});
    // Retransmissions extend the horizon into the reserved headroom, inside
    // the loop, without reallocating.
    result.max_load_per_big_round.reserve(std::size_t{num_big_rounds} + round_headroom);
    result.max_load_per_big_round.assign(num_big_rounds, 0);
    result.round_records.reserve(std::size_t{num_big_rounds} + round_headroom);

    s.inbox_offset.reserve(max_bucket_size);
    s.inbox_cursor.reserve(max_bucket_size);
    s.inbox_count.reserve(max_bucket_size);
    s.inbox_present.reserve(max_bucket_size / 64 + 1);
    // The tag == T stream holds at most one message per directed edge per
    // algorithm (an event sends once per neighbor), twice that with raw
    // duplicates, so it is sized once here instead of doubling mid-run with
    // both buffers live; the pages a run never writes are never touched.
    s.finish.clear();
    const bool raw_duplicates = faults != nullptr && max_retries == 0;
    const std::size_t num_dir_edges = g.num_directed_edges();
    const std::size_t finish_cap = k * num_dir_edges * (raw_duplicates ? 2 : 1);
    s.finish.slot.reserve(finish_cap);
    s.finish.hdr.reserve(finish_cap);
    s.finish.pay.reserve(finish_cap * W);
    s.edge_count.assign(num_dir_edges, 0);
    // Retransmissions park under their due round, at most
    // num_big_rounds + round_headroom - 1 (docs/FAULTS.md).
    s.retry.reset(std::size_t{num_big_rounds} + round_headroom);

    // Workers persist across runs: slot_stamp is set once at creation and the
    // staging lanes keep their warmed-up capacity.
    if (s.workers.size() != num_workers) {
      s.workers.resize(num_workers);
      for (auto& ws : s.workers) ws.slot_stamp.assign(g.max_degree(), 0);
    }
    for (auto& ws : s.workers) {
      ws.delivered = 0;
      ws.skipped = 0;
      ws.max_load_partial = 0;
      ws.violations = 0;
      ws.fault_partial = {};
      ws.clear();
      ws.staged_hdr.reserve(s.staged_high_water);
      ws.staged_pay.reserve(s.staged_high_water * W);
      if (need_meta) ws.staged_meta.reserve(s.staged_high_water);
      ws.staged_edge.reserve(s.staged_high_water);
      ws.staged_dest.reserve(s.staged_high_water);
      ws.pend.reset(num_big_rounds);
      ws.touched.clear();
      ws.touched.reserve(num_dir_edges / num_workers + 1);
      ws.touched_bits.assign(
          profiler != nullptr ? (num_dir_edges / num_workers + 1) / 64 + 1 : 0, 0);
      ws.touched_words.clear();
    }
    // The owner partition (docs/PERFORMANCE.md, "Owner partition"). Round t's
    // bucket of B events splits into P = ceil(B / 64) inbox-presence words;
    // owner w holds words [ceil(w*P/W), ceil((w+1)*P/W)), recorded as
    // consumer-slot boundaries clamped to B. The gather, the execute shards and
    // the delivery barrier all read this one partition, so the worker that
    // scatters a slot's inbox also executes its event, and owners never share a
    // presence word. The extra all-zero row serves the empty buckets of
    // retry-extended rounds.
    const std::uint32_t nw = num_workers;
    auto& slot_bound = s.slot_bound;
    slot_bound.assign(std::size_t{num_big_rounds + 1} * (nw + 1), 0);
    for (std::uint32_t t = 0; t < num_big_rounds; ++t) {
      const std::size_t bsize = s.bucket_start[t + 1] - s.bucket_start[t];
      const std::size_t words = (bsize + 63) / 64;
      auto* row = slot_bound.data() + std::size_t{t} * (nw + 1);
      for (std::uint32_t w = 0; w <= nw; ++w) {
        const std::size_t lo_word = (std::size_t{w} * words + nw - 1) / nw;
        row[w] = static_cast<std::uint32_t>(std::min(bsize, lo_word * 64));
      }
    }
  }

  /// The round's bucket. Rounds >= num_big_rounds exist only when
  /// retransmissions extended the horizon; they have no events.
  Round open_round(std::uint32_t t) const {
    if (t >= num_big_rounds) return {t, s.events.size(), 0};
    return {t, s.bucket_start[t], s.bucket_start[t + 1] - s.bucket_start[t]};
  }

  /// Gather this round's inboxes from the owners' pending segs: counting-sort
  /// them (stably -- seg order is delivery order) into contiguous arena-lane
  /// slices per event. Every pending message's consumer provably executes in
  /// this round, and its slot lies in its owner's range, so owners histogram
  /// and scatter only slots (and 64-event presence words) they own: the whole
  /// gather runs on the pool with no atomics, and a serial sweep over the same
  /// segs builds the identical arena. Exact per-slot offsets come from one
  /// serial prefix-walk over the populated presence bits between the two
  /// phases -- O(messages + bucket/64), with no per-slot zeroing anywhere: the
  /// presence bitset is all-zero on entry (the previous round cleared exactly
  /// the words it touched) and the first touch of a slot *assigns* its count.
  template <std::uint32_t W>
  void gather(Round& r) {
    std::size_t pend_total = 0;
    for (auto& ws : s.workers) {
      const std::uint32_t b = ws.pend.find(r.t);
      if (b != kNoBucket) pend_total += ws.pend.pool[b].slot.size();
    }
    if (pend_total == 0) return;
    r.has_inbox = true;
    const std::size_t present_words = (r.size + 63) / 64;
    // Grow-only sizing: shrinking would churn the zero-page invariant of
    // inbox_present and the warm capacity of the lanes.
    if (s.inbox_offset.size() < r.size) {
      s.inbox_offset.resize(r.size);
      s.inbox_cursor.resize(r.size);
      s.inbox_count.resize(r.size);
    }
    if (s.inbox_present.size() < present_words) s.inbox_present.resize(present_words, 0);
    if (s.arena_hdr.size() < pend_total) s.arena_hdr.resize(pend_total);
    if (s.arena_pay.size() < pend_total * W) s.arena_pay.resize(pend_total * W);
    const bool parallel = num_workers > 1 && pend_total >= kMinMessagesParallelBarrier;
    auto histogram_body = [&](std::uint32_t w) {
      auto& ws = s.workers[w];
      const std::uint32_t seg_idx = ws.pend.find(r.t);
      if (seg_idx == kNoBucket) return;
      std::uint64_t* const present = s.inbox_present.data();
      std::uint32_t* const count = s.inbox_count.data();
      // First-touch histogram over this owner's dense slot lane: presence
      // bits double as the "count is live" guard, so count cells need no
      // pre-zeroing and the touched-word list scopes the post-round clear.
      for (const auto slot : ws.pend.pool[seg_idx].slot) {
        const std::size_t word = slot >> 6;
        const std::uint64_t bit = std::uint64_t{1} << (slot & 63);
        const std::uint64_t wv = present[word];
        if ((wv & bit) != 0) {
          ++count[slot];
        } else {
          if (wv == 0) ws.touched_words.push_back(static_cast<std::uint32_t>(word));
          present[word] = wv | bit;
          count[slot] = 1;
        }
      }
    };
    auto scatter_body = [&](std::uint32_t w) {
      auto& ws = s.workers[w];
      const std::uint32_t seg_idx = ws.pend.find(r.t);
      if (seg_idx == kNoBucket) return;
      const auto& seg = ws.pend.pool[seg_idx];
      const std::size_t m = seg.slot.size();
      const std::uint32_t* const sl = seg.slot.data();
      const std::uint32_t* const sh = seg.hdr.data();
      const std::uint64_t* const sp = seg.pay.data();
      const std::uint32_t* const offset = s.inbox_offset.data();
      std::uint32_t* const cursor = s.inbox_cursor.data();
      std::uint32_t* const ah = s.arena_hdr.data();
      std::uint64_t* const ap = s.arena_pay.data();
      // Width-specialized scatter: the W-word copy is a compile-time-sized
      // move; the prefetch hides the CSR target's first-touch miss (the slot's
      // base offset approximates the cursor well enough for a cache line).
      for (std::size_t i = 0; i < m; ++i) {
        if (i + kScatterPrefetchDist < m) {
          prefetch_for_write(ap + std::size_t{offset[sl[i + kScatterPrefetchDist]]} * W);
        }
        const std::uint32_t at = cursor[sl[i]]++;
        ah[at] = sh[i];
        std::memcpy(ap + std::size_t{at} * W, sp + i * W, W * sizeof(std::uint64_t));
      }
      ws.pend.release(r.t);
    };
    for_each_owner(parallel, histogram_body);
    // Serial prefix over the populated slots only, in slot order (the
    // presence bits are walked word by word via countr_zero); doubles as the
    // cursor init, so the scatter needs no bit-walk of its own.
    std::uint32_t running = 0;
    for (std::size_t wi = 0; wi < present_words; ++wi) {
      for (std::uint64_t bits = s.inbox_present[wi]; bits != 0; bits &= bits - 1) {
        const std::size_t slot = (wi << 6) + std::countr_zero(bits);
        s.inbox_offset[slot] = running;
        s.inbox_cursor[slot] = running;
        running += s.inbox_count[slot];
      }
    }
    for_each_owner(parallel, scatter_body);
  }

  /// One event on its owner's shard. Everything it mutates is either owned by
  /// the event's (alg, node) -- its program -- or by the executing shard's
  /// WorkerState; the round arena and its offsets are read-only during
  /// execution, so shards are data-race free. Events reach a program in
  /// virtual-round order: the validation pass proved every row gap-free and
  /// strictly increasing, each bucket runs once in big-round order, and
  /// crash-stop is monotone in t.
  template <std::uint32_t W>
  void execute_event(const Round& r, std::size_t event_index, WorkerState& ws) const {
    const ExecEvent& ev = s.events[event_index];
    const auto worker = static_cast<std::uint32_t>(&ws - s.workers.data());
    if (faults != nullptr && faults->node_crashed(ev.node, r.t)) {
      // Crash-stop: the node executes nothing from its crash round on, so it
      // is never marked completed (crash_round(v) < horizon in finish).
      ++ws.skipped;
      if (recorder != nullptr) {
        recorder->record(worker, FlightRecorder::Kind::kCrashSkip, r.t,
                         (std::uint64_t{ev.alg} << 32) | ev.vround, ev.node);
      }
      return;
    }

    // This event's inbox: its contiguous slice of the round arena lanes.
    // Events without messages (vround 1, quiet rounds) get an empty view --
    // detected by one presence-bitset bit instead of two offset loads.
    InboxView in;
    std::uint32_t in_count = 0;
    if (r.has_inbox) {
      const std::size_t li = event_index - r.begin;
      if ((s.inbox_present[li >> 6] >> (li & 63)) & 1) {
        const std::uint32_t off = s.inbox_offset[li];
        in_count = s.inbox_count[li];
        in = InboxView(s.arena_hdr.data() + off, s.arena_pay.data() + std::size_t{off} * W, W,
                       in_count);
      }
    }
    ws.delivered += in_count;
    if (recorder != nullptr) {
      recorder->record(worker, FlightRecorder::Kind::kEvent, r.t,
                       (std::uint64_t{ev.alg} << 32) | ev.vround, ev.node);
    }

    const auto nbrs = g.neighbors(ev.node);
    // Every send of this event stages directly into ws's compact lanes,
    // routed against the flat schedule as it lands (see SendSink).
    ++ws.event_serial;
    const bool finishing = ev.vround == schedule.rounds(ev.alg);
    SendSink<W> sink{&ws, schedule.flat().data(), s.slot_of.data(), n, need_meta, nbrs,
                     g.directed_ids(ev.node).data(),
                     finishing ? 0 : schedule.slot_index(ev.alg, 0, ev.vround + 1),
                     schedule.rounds(ev.alg), ev.alg, ev.vround, ev.node, finishing,
                     /*slot_hint=*/0};
    VirtualContext ctx(ev.node, n, ev.vround, in, nbrs, &SendSink<W>::send, &sink);
    s.programs[std::size_t{ev.alg} * n + ev.node]->on_round(ctx);
  }

  /// Fault decision for one staged attempt (docs/FAULTS.md): the attempt
  /// accounting into `fs`, the injector queries, and the copy-count mark on
  /// staged_dest -- two copies for a raw duplicate, none for a lost message.
  /// A message due for retransmission keeps its destination for the commit to
  /// copy. Reads only pure injector state, so shards run it in parallel.
  /// Inlined into both callers, as its lambda form was: the shard loop in
  /// decide_fresh runs it once per message.
  [[gnu::always_inline]] std::uint8_t decide(std::uint32_t t, StagedLanes& src, std::size_t i,
                                             std::uint32_t attempt,
                                             ExecutionResult::FaultStats& fs) const {
    const StagedMeta meta = src.staged_meta[i];
    const std::uint32_t edge = src.staged_edge[i];
    ++fs.attempts;
    FlightRecorder::Kind kind = FlightRecorder::Kind::kDeliver;
    if (faults->link_down(edge / 2, t)) {
      ++fs.dropped_outage;
      kind = FlightRecorder::Kind::kDropOutage;
    } else if (faults->node_crashed(meta.to, t)) {
      // A crashed receiver neither stores nor acks the message.
      ++fs.dropped_crash;
      kind = FlightRecorder::Kind::kDropCrash;
    } else if (faults->drop(meta.alg, edge, meta.tag, attempt)) {
      ++fs.dropped_random;
      kind = FlightRecorder::Kind::kDropRandom;
    }
    const auto fate = static_cast<std::uint8_t>(kind);
    if (kind == FlightRecorder::Kind::kDeliver) {
      ++fs.delivered;
      if (!faults->duplicate(meta.alg, edge, meta.tag, attempt)) return fate;
      if (max_retries > 0) {
        // The reliable layer's per-edge bookkeeping recognizes the copy.
        ++fs.duplicates_suppressed;
        return fate;
      }
      ++fs.duplicated;
      ++fs.delivered;
      src.staged_dest[i] |= std::uint64_t{kTwoCopies} << 32;
      return fate | kFateDuplicate;
    }
    // Dropped. Retransmit with exponential backoff (gap 2^attempt after failed
    // attempt `attempt`) while the sender is alive and budget lasts.
    if (attempt < max_retries &&
        !faults->node_crashed(msg_header_from(src.staged_hdr[i]), t + (1u << attempt))) {
      ++fs.retransmissions;
      return fate | kFateRetransmit;
    }
    ++fs.lost;
    src.staged_dest[i] = std::uint64_t{kNeverDest} << 32;
    return fate;
  }

  /// A shard's fresh messages, decided while its lanes are still in the
  /// worker's cache. Out of line, so the shard body -- with the event loop
  /// inlined into it -- compiles for clean runs as if faults did not exist.
  __attribute__((noinline)) void decide_fresh(std::uint32_t t, WorkerState& ws) const {
    for (std::size_t i = 0; i < ws.staged_hdr.size(); ++i) {
      const std::uint8_t fate = decide(t, ws, i, 0, ws.fault_partial);
      ws.staged_fate.push(fate);
      if ((fate & kFateRetransmit) != 0) ws.retransmit.push(static_cast<std::uint32_t>(i));
    }
  }

  /// Execute the bucket: owner w runs its own slots on workers[w], while the
  /// inboxes it just scattered are cache-resident, and decides its messages'
  /// fates on faulty runs. The pool runs the owners when more than one is
  /// non-empty; results are bit-identical either way. The serial tail restores
  /// the presence-bitset invariant (all-zero between rounds) by clearing
  /// exactly the words this round's gather touched.
  template <std::uint32_t W>
  void execute(const Round& r) {
    // Owner w runs slots [bound[w], bound[w + 1]) of the bucket; the
    // all-zero last row serves retry-extended rounds.
    const std::uint32_t* const bound =
        s.slot_bound.data() + std::size_t{std::min(r.t, num_big_rounds)} * (num_workers + 1);
    auto shard_body = [&](std::uint32_t w) {
      auto& ws = s.workers[w];
      const std::size_t hi = r.begin + bound[w + 1];
      for (std::size_t i = r.begin + bound[w]; i < hi; ++i) execute_event<W>(r, i, ws);
      if (faults != nullptr) decide_fresh(r.t, ws);
    };
    const bool parallel = bound[1] < r.size;
    for_each_owner(parallel, shard_body);
    ++(parallel ? rounds_parallel : rounds_serial);
    if (r.has_inbox) {
      for (auto& ws : s.workers) {
        for (const auto word : ws.touched_words) s.inbox_present[word] = 0;
        ws.touched_words.clear();
      }
    }
  }

  /// One message's fate entries in the flight recorder's barrier ring (index
  /// num_workers).
  void note(std::uint32_t t, const StagedLanes& src, std::size_t i, std::uint32_t attempt,
            std::uint8_t fate) const {
    const std::uint32_t ring = num_workers;
    const StagedMeta meta = src.staged_meta[i];
    const std::uint32_t edge = src.staged_edge[i];
    const std::uint64_t fr_key = (std::uint64_t{meta.alg} << 32) | meta.tag;
    const auto kind = static_cast<FlightRecorder::Kind>(fate & kFateKindMask);
    recorder->record(ring, kind, t, fr_key, edge);
    if ((fate & kFateDuplicate) != 0) {
      recorder->record(ring, FlightRecorder::Kind::kDuplicate, t, fr_key, edge);
    } else if ((fate & kFateRetransmit) != 0) {
      recorder->record(ring, FlightRecorder::Kind::kRetry, t,
                       (std::uint64_t{attempt + 1} << 32) | meta.tag, edge);
    } else if (kind != FlightRecorder::Kind::kDeliver) {
      recorder->record(ring, FlightRecorder::Kind::kLost, t, fr_key, edge);
    }
  }

  /// Parks a dropped attempt in its due round's lanes and marks the staged
  /// entry dropped (kNeverDest, 0 copies); extends the horizon into the
  /// reserved headroom when the due round lies past it.
  template <std::uint32_t W>
  void retransmit(std::uint32_t t, StagedLanes& src, std::size_t i,
                  std::uint32_t attempt, ExecutionResult& result) {
    const std::uint32_t retry_round = t + (1u << attempt);
    if (retry_round >= horizon) {
      horizon = retry_round + 1;
      result.max_load_per_big_round.resize(horizon, 0);  // within the reserve
    }
    // `src` is read out before acquire(), which may grow the pool and so move
    // `src` when it is this round's bundle.
    const std::uint32_t hdr = src.staged_hdr[i];
    const StagedMeta meta = src.staged_meta[i];
    const std::uint32_t edge = src.staged_edge[i];
    const std::uint64_t dest = src.staged_dest[i];
    std::uint64_t pay[W];
    std::memcpy(pay, src.staged_pay.data() + i * W, W * sizeof(std::uint64_t));
    src.staged_dest[i] = std::uint64_t{kNeverDest} << 32;
    RetryLanes& out = s.retry.acquire(retry_round);
    out.staged_hdr.push(hdr);
    std::memcpy(out.staged_pay.append_n(W), pay, W * sizeof(std::uint64_t));
    out.staged_meta.push(meta);
    out.staged_edge.push(edge);
    out.staged_dest.push(dest);
    out.attempt.push(static_cast<std::uint8_t>(attempt + 1));
  }

  /// Fate commit (docs/FAULTS.md): one serial walk in canonical order -- this
  /// round's due retransmissions (small: decided here, in the lanes they were
  /// parked in), then the workers' staged lanes in shard order, whose fates
  /// the shards decided. It does everything whose order is observable: flight
  /// recorder fate notes (read back from the fate bytes) and retransmissions.
  template <std::uint32_t W>
  void commit_fates(Round& r, ExecutionResult& result) {
    r.due = s.retry.find(r.t);
    r.retries = r.due == kNoBucket ? 0 : s.retry.pool[r.due].staged_hdr.size();
    for (std::size_t j = 0; j < r.retries; ++j) {
      RetryLanes& lanes = s.retry.pool[r.due];  // re-indexed: retransmit may grow the pool
      const std::uint32_t attempt = lanes.attempt[j];
      const std::uint8_t fate = decide(r.t, lanes, j, attempt, result.faults);
      if (recorder != nullptr) note(r.t, lanes, j, attempt, fate);
      if ((fate & kFateRetransmit) != 0) retransmit<W>(r.t, lanes, j, attempt, result);
    }
    r.messages = r.retries;
    for (auto& ws : s.workers) {
      s.staged_high_water = std::max(s.staged_high_water, ws.staged_hdr.size());
      r.messages += ws.staged_hdr.size();
      if (recorder != nullptr) {
        for (std::size_t i = 0; i < ws.staged_hdr.size(); ++i) {
          note(r.t, ws, i, 0,
               faults != nullptr ? ws.staged_fate[i]
                                 : static_cast<std::uint8_t>(FlightRecorder::Kind::kDeliver));
        }
      }
      for (const auto i : ws.retransmit) retransmit<W>(r.t, ws, i, 0, result);
    }
  }

  /// Delivery barrier: one owner-partitioned body. Lane sources are this
  /// round's due-round lanes as they stand, then the workers' staging lanes in
  /// shard order -- the order the fate commit walked. Owner w folds edge loads
  /// over its static slice of the directed-edge space (every attempt costs
  /// bandwidth, whatever its fate), then appends each parked copy whose
  /// consumer slot it owns to its own seg -- so gathers see one seg order
  /// regardless of thread count. Owner 0 additionally takes the tag == T
  /// stream (routed by its packed finish key) and the violation count: a copy
  /// whose consumer already ran would sit unread in any inbox, so it is
  /// counted and dropped, which is observationally identical. No atomics
  /// anywhere: every written cell has exactly one owner. The serial tail
  /// releases the due-round lanes.
  template <std::uint32_t W>
  void barrier(const Round& r) {
    const std::uint32_t nw = num_workers;
    const StagedLanes& due_lanes = r.due == kNoBucket ? kNoRetries : s.retry.pool[r.due];
    const std::uint64_t num_dir_edges = g.num_directed_edges();
    // The profiler reads the owners' touched lists at the round close.
    const bool cells_observed = profiler != nullptr;
    auto barrier_body = [&](std::uint32_t w) {
      auto& ow = s.workers[w];
      auto& edge_count = s.edge_count;
      auto source = [&](std::uint32_t v) -> const StagedLanes& {
        return v == 0 ? due_lanes : s.workers[v - 1];
      };
      const auto elo = static_cast<std::uint32_t>(num_dir_edges * w / nw);
      const auto ehi = static_cast<std::uint32_t>(num_dir_edges * (w + 1) / nw);
      // First touches of this owner's edges. Per-cell observers read the
      // touched list after the barrier in edge order, so observed runs mark
      // the slice's bitset and walk it -- O(touched + slice / 64), no sort.
      for (std::uint32_t v = 0; v <= nw; ++v) {
        for (const auto d : source(v).staged_edge) {
          if (d < elo || d >= ehi || edge_count[d]++ != 0) continue;
          if (cells_observed) {
            ow.touched_bits[(d - elo) >> 6] |= std::uint64_t{1} << ((d - elo) & 63);
          } else {
            ow.touched.push_back(d);
          }
        }
      }
      for (std::size_t wi = 0; wi < ow.touched_bits.size(); ++wi) {
        for (std::uint64_t bits = std::exchange(ow.touched_bits[wi], 0); bits != 0;
             bits &= bits - 1) {
          ow.touched.push_back(elo + static_cast<std::uint32_t>(wi * 64 + std::countr_zero(bits)));
        }
      }
      std::uint32_t local_max = 0;
      for (const auto d : ow.touched) {
        local_max = std::max(local_max, edge_count[d]);
        if (!cells_observed) edge_count[d] = 0;
      }
      ow.max_load_partial = local_max;
      if (!cells_observed) ow.touched.clear();
      for (std::uint32_t v = 0; v <= nw; ++v) {
        const StagedLanes& src = source(v);
        const std::size_t m = src.staged_hdr.size();
        for (std::size_t i = 0; i < m; ++i) {
          const std::uint64_t ds = src.staged_dest[i];
          auto dest = static_cast<std::uint32_t>(ds >> 32);
          std::uint32_t copies = 1;
          if (dest >= kNeverDest) {
            copies += dest >> 31;
            dest &= ~kTwoCopies;
            if (dest == kNeverDest) continue;
            if (dest == kFinishDest) {
              for (std::uint32_t cp = 0; w == 0 && cp < copies; ++cp) {
                s.finish.slot.push(static_cast<std::uint32_t>(ds));
                s.finish.hdr.push(src.staged_hdr[i]);
                std::memcpy(s.finish.pay.append_n(W), src.staged_pay.data() + i * W,
                            W * sizeof(std::uint64_t));
              }
              continue;
            }
          }
          if (dest <= r.t) {
            if (w == 0) ow.violations += copies;
            continue;
          }
          const auto slot = static_cast<std::uint32_t>(ds);
          const auto* bound = s.slot_bound.data() + std::size_t{dest} * (nw + 1);
          if (slot < bound[w] || slot >= bound[w + 1]) continue;
          auto& seg = ow.pend.acquire(dest);
          for (std::uint32_t cp = 0; cp < copies; ++cp) {
            seg.slot.push(slot);
            seg.hdr.push(src.staged_hdr[i]);
            std::memcpy(seg.pay.append_n(W), src.staged_pay.data() + i * W,
                        W * sizeof(std::uint64_t));
          }
        }
      }
    };
    for_each_owner(nw > 1 && r.messages >= kMinMessagesParallelBarrier, barrier_body);
    if (r.due != kNoBucket) s.retry.release(r.t);
  }

  /// Round close: folds the owners' partials into the result and the
  /// round's record, aborts on a unit-capacity overflow (after the flight
  /// recorder's post-mortem) and hands the round's touched cells to the
  /// profiler -- the one per-cell observer. Reads the clock once.
  void close_round(const Round& r, ExecutionResult& result) {
    auto& workers = s.workers;
    std::uint32_t max_load = 0;
    std::uint64_t inbox = 0;
    std::uint64_t skipped = 0;
    for (auto& ws : workers) {
      max_load = std::max(max_load, ws.max_load_partial);
      inbox += std::exchange(ws.delivered, 0);
      skipped += std::exchange(ws.skipped, 0);
      ws.clear();
      ws.staged_fate.clear();
      ws.retransmit.clear();
    }
    result.faults.skipped_events += skipped;
    const auto now = std::chrono::steady_clock::now();
    result.round_records.push_back({r.messages, r.retries, r.size - skipped, inbox,
                                    static_cast<std::uint64_t>((now - round_clock) / 1ns)});
    round_clock = now;
    result.causality_violations += workers[0].violations;
    workers[0].violations = 0;
    result.total_messages += r.messages;
    if (cfg.enforce_unit_capacity && max_load > 1) {
      // Post-mortem before the hard failure: the rings hold the deliveries
      // leading up to the overflow.
      if (recorder != nullptr) recorder->dump_on("unit_capacity_overflow");
      DASCHED_CHECK_LE(max_load, 1u, "CONGEST bandwidth violated: >1 message per edge per round");
    }
    if (profiler != nullptr) {
      // Owners' edge slices ascend and each touched list is sorted, so cells
      // arrive in canonical (round, edge) order at every thread count.
      for (auto& ws : workers) {
        for (const auto d : ws.touched) {
          profiler->record_cell(r.t, d, s.edge_count[d]);
          s.edge_count[d] = 0;
        }
        ws.touched.clear();
      }
    }
    result.max_load_per_big_round[r.t] = max_load;
    result.max_edge_load = std::max(result.max_edge_load, max_load);
    if (recorder != nullptr) recorder->record_barrier(r.t, r.messages, max_load);
  }

  /// Finish. First the tag == T lanes accumulated across the run are
  /// counting-sorted by their packed keys (stably: delivery order is preserved
  /// within each node's slice) IN PLACE: compute each message's final
  /// position, then realize the permutation by following its cycles, swapping
  /// one header word and W payload words at a time. No second arena exists --
  /// at the million-node scale an out-of-place copy would double the largest
  /// allocation of the whole run. Returns the inbox messages on_finish
  /// consumed.
  template <std::uint32_t W>
  std::uint64_t finish(ExecutionResult& result) {
    auto& finish_offset = s.finish_offset;
    const std::size_t fcount = s.finish.slot.size();
    DASCHED_CHECK_MSG(fcount < std::size_t{kPlaced},
                      "finish arena exceeds the in-place permutation index range");
    finish_offset.assign(k * n + 1, 0);
    for (const auto key : s.finish.slot) ++finish_offset[std::size_t{key} + 1];
    for (std::size_t i = 1; i <= k * n; ++i) finish_offset[i] += finish_offset[i - 1];
    s.finish_target.resize(fcount);
    auto& cursor = s.bucket_cursor;  // reuse: the events array is flattened
    cursor.assign(finish_offset.begin(), finish_offset.end() - 1);
    for (std::size_t i = 0; i < fcount; ++i) {
      s.finish_target[i] = static_cast<std::uint32_t>(cursor[s.finish.slot[i]]++);
    }
    std::uint32_t* const target = s.finish_target.data();
    std::uint32_t* const fh = s.finish.hdr.data();
    std::uint64_t* const fpay = s.finish.pay.data();
    for (std::size_t i = 0; i < fcount; ++i) {
      if ((target[i] & kPlaced) != 0) continue;
      if (target[i] == static_cast<std::uint32_t>(i)) {
        target[i] |= kPlaced;
        continue;
      }
      std::uint32_t tmp_hdr = fh[i];
      std::uint64_t tmp_pay[W];
      std::memcpy(tmp_pay, fpay + i * W, W * sizeof(std::uint64_t));
      std::uint32_t j = target[i];
      while (j != static_cast<std::uint32_t>(i)) {
        std::swap(tmp_hdr, fh[j]);
        for (std::uint32_t q = 0; q < W; ++q) std::swap(tmp_pay[q], fpay[std::size_t{j} * W + q]);
        const std::uint32_t nxt = target[j] & ~kPlaced;
        target[j] |= kPlaced;
        j = nxt;
      }
      fh[i] = tmp_hdr;
      std::memcpy(fpay + i * W, tmp_pay, W * sizeof(std::uint64_t));
      target[i] |= kPlaced;
    }

    // Then on_finish runs over each finishing node's slice and collects its
    // output. Each completed node appends its output words to the
    // algorithm's table in the scratch lanes; the finished table is copied
    // out at its exact size, so collection costs two allocations per
    // algorithm at any n.
    std::uint64_t delivered_at_finish = 0;
    auto& out_words = s.out_words;
    auto& out_offsets = s.out_offsets;
    for (std::size_t a = 0; a < k; ++a) {
      const std::uint32_t rounds = algorithms[a]->rounds();
      result.completed[a].assign(n, 0);
      out_words.clear();
      out_offsets.assign(1, 0);
      for (NodeId v = 0; v < n; ++v) {
        const std::size_t key = a * n + v;
        // A node completes iff its row's last slot is scheduled (rows are
        // gap-free, so it then ran every round) and it did not crash before
        // the horizon (a crash at or past it spares every event). A
        // crash-stopped node never runs on_finish, even if it crashed after
        // its last scheduled event.
        const auto row = schedule.row(a, v);
        const bool finishes = (row.empty() || row.back() != kNeverScheduled) &&
                              (faults == nullptr || faults->crash_round(v) >= horizon);
        if (!finishes) {
          out_offsets.push_back(static_cast<std::uint32_t>(out_words.size()));
          continue;
        }
        const std::size_t off = s.finish_offset[key];
        const auto cnt = static_cast<std::uint32_t>(s.finish_offset[key + 1] - off);
        delivered_at_finish += cnt;
        VirtualContext ctx(v, n, rounds + 1,
                           InboxView(s.finish.hdr.data() + off, s.finish.pay.data() + off * W,
                                     W, cnt),
                           g.neighbors(v), nullptr, nullptr);
        s.programs[key]->on_finish(ctx);
        result.completed[a][v] = 1;
        s.programs[key]->write_output(out_words);
        out_offsets.push_back(static_cast<std::uint32_t>(out_words.size()));
      }
      // The table only grows, so a final size in range means every offset was.
      DASCHED_CHECK_MSG(out_words.size() <= ~std::uint32_t{0},
                        "node outputs exceed the 32-bit offset range");
      if (n > 0) result.outputs[a] = NodeOutputs(out_words, out_offsets);
    }
    s.arena.reset();
    return delivered_at_finish;
  }

  /// The run's telemetry (docs/OBSERVABILITY.md), all of it derived after
  /// the loop from the result's per-round record and, for executor.edge_load,
  /// the profiler's cells. The big-round spans are laid end to end from the
  /// loop's start, each ending at its round's close. fault.* names are
  /// emitted only on faulty runs, so a null injector leaves the telemetry
  /// stream byte-identical to the reliable engine.
  void emit_run_telemetry(const ExecutionResult& result, TimedSpan& run_span,
                          std::uint64_t delivered_at_finish,
                          std::chrono::steady_clock::time_point loop_start) const {
    TelemetrySink* const telemetry = cfg.telemetry;
    std::uint64_t delivered = delivered_at_finish;
    auto end_ns = static_cast<std::uint64_t>(loop_start.time_since_epoch() / 1ns);
    for (std::uint32_t t = 0; t < horizon; ++t) {
      const RoundRecord& rec = result.round_records[t];
      const std::uint32_t max_load = result.max_load_per_big_round[t];
      delivered += rec.inbox;
      telemetry->record_value("executor.max_load_per_big_round", max_load);
      const std::uint64_t start_ns = end_ns;
      end_ns += rec.wall_ns;
      const SpanArg args[] = {{"t", static_cast<double>(t)},
                              {"events", static_cast<double>(open_round(t).size)},
                              {"messages", static_cast<double>(rec.messages)},
                              {"max_load", static_cast<double>(max_load)}};
      telemetry->record_span("executor", "big_round", start_ns / 1000,
                             end_ns / 1000 - start_ns / 1000, args);
    }
    if (profiler != nullptr) {
      for (const LoadCell& cell : profiler->cells()) {
        telemetry->record_value("executor.edge_load", cell.load);
      }
    }
    telemetry->add_counter("executor.events_executed", total_events);
    telemetry->add_counter("executor.big_rounds", horizon);
    telemetry->add_counter("executor.messages_sent", result.total_messages);
    telemetry->add_counter("executor.messages_delivered", delivered);
    telemetry->add_counter("executor.causality_violations", result.causality_violations);
    telemetry->set_gauge("executor.max_edge_load", result.max_edge_load);
    telemetry->set_gauge("executor.parallel.num_threads", num_workers);
    telemetry->add_counter("executor.parallel.rounds_parallel", rounds_parallel);
    telemetry->add_counter("executor.parallel.rounds_serial", rounds_serial);
    run_span.arg("algorithms", static_cast<double>(k));
    run_span.arg("big_rounds", static_cast<double>(num_big_rounds));
    run_span.arg("events", static_cast<double>(total_events));
    run_span.arg("total_messages", static_cast<double>(result.total_messages));
    if (faults == nullptr) return;
    const auto& fs = result.faults;
    telemetry->add_counter("fault.attempts", fs.attempts);
    telemetry->add_counter("fault.delivered", fs.delivered);
    telemetry->add_counter("fault.dropped.random", fs.dropped_random);
    telemetry->add_counter("fault.dropped.outage", fs.dropped_outage);
    telemetry->add_counter("fault.dropped.crash", fs.dropped_crash);
    telemetry->add_counter("fault.duplicates.delivered", fs.duplicated);
    telemetry->add_counter("fault.duplicates.suppressed", fs.duplicates_suppressed);
    telemetry->add_counter("fault.retransmissions", fs.retransmissions);
    telemetry->add_counter("fault.lost", fs.lost);
    telemetry->add_counter("fault.skipped_events", fs.skipped_events);
    telemetry->set_gauge("fault.crashed_nodes", faults->num_crashes());
    telemetry->set_gauge("fault.retry_budget", max_retries);
  }
};

Executor::Executor(const Graph& g, ExecConfig cfg)
    : graph_(g), cfg_(cfg), scratch_(std::make_unique<ExecScratch>()) {
  // The retry budget sizes 2^max_retries backoff arithmetic in run_impl;
  // RetryPolicy's own bound keeps it well inside 32 bits.
  if (cfg_.faults != nullptr) (void)cfg_.retry.stretch_factor();
}

Executor::~Executor() = default;

ExecutionResult Executor::run(std::span<const DistributedAlgorithm* const> algorithms,
                              const ScheduleTable& schedule) {
  // --- Derive the run width: the payload-word stride of every staging and
  // delivery lane for this run. When every admitted algorithm bounds its
  // payload via StaticFootprint::max_payload_words, the lanes shrink to the
  // largest declared width; an undeclared algorithm (kUndeclaredWidth, above
  // every width) forces the full word budget. Starting at 1 keeps the width
  // a valid lane stride. ---
  std::uint32_t width = 1;
  for (const auto* alg : algorithms) {
    width = std::max(width, alg->static_footprint().max_payload_words);
  }
  width = std::min(width, kDefaultMaxPayloadWords);

  // Dispatch to the width-specialized engine: one instantiation per
  // supported width, selected once per run, so every per-message copy inside
  // is a fixed-size move.
  ExecutionResult out;
  bool dispatched = false;
  [&]<std::size_t... I>(std::index_sequence<I...>) {
    (void)(((I + 1 == width)
                ? (out = run_impl<static_cast<std::uint32_t>(I + 1)>(algorithms, schedule),
                   dispatched = true)
                : false) ||
           ...);
  }(std::make_index_sequence<InlinePayload::kInlineCapacity>{});
  DASCHED_CHECK_MSG(dispatched, "run width outside the inline payload capacity");
  return out;
}

template <std::uint32_t W>
ExecutionResult Executor::run_impl(std::span<const DistributedAlgorithm* const> algorithms,
                                   const ScheduleTable& schedule) {
  Run c{graph_, schedule, algorithms, *scratch_, cfg_};
  c.validate_and_bucket();
  if (c.num_workers > 1 && pool_ == nullptr) pool_ = std::make_unique<ThreadPool>(c.num_workers);
  c.pool = pool_.get();
  ExecutionResult result;
  c.prepare<W>(result);
  // The observers are sized here, before the steady-state window opens.
  if (c.profiler != nullptr) c.profiler->begin_run(graph_.num_directed_edges());
  if (c.recorder != nullptr) c.recorder->begin_run(c.num_workers);
  TimedSpan run_span(cfg_.telemetry, "executor", "run");

  // --- Steady-state window: the big-round loop is allocation-free once the
  // arenas are warm; hot_path_allocs measures it. ---
  const auto loop_start = std::chrono::steady_clock::now();
  c.round_clock = loop_start;
  const std::uint64_t allocs_before = alloc_count();
  for (std::uint32_t t = 0; t < c.horizon; ++t) {
    Round r = c.open_round(t);
    c.gather<W>(r);
    c.execute<W>(r);
    c.commit_fates<W>(r, result);
    c.barrier<W>(r);
    c.close_round(r, result);
  }
  result.hot_path_allocs = alloc_count() - allocs_before;

  // Retransmissions may have extended the run past the scheduled horizon.
  result.num_big_rounds = c.horizon;
  for (const auto& ws : scratch_->workers) result.faults += ws.fault_partial;
  if (c.profiler != nullptr) {
    c.profiler->end_run(result.round_records, result.max_load_per_big_round);
  }
  if (c.recorder != nullptr && c.faults != nullptr && c.faults->num_crashes() > 0) {
    // Crash-stop faults fired: leave a post-mortem of the run's last events.
    c.recorder->dump_on("crash_stop_faults");
  }

  const std::uint64_t delivered_at_finish = c.finish<W>(result);
  if (cfg_.telemetry != nullptr) {
    c.emit_run_telemetry(result, run_span, delivered_at_finish, loop_start);
  }
  return result;
}

std::uint64_t result_fingerprint(const ExecutionResult& result) {
  Fingerprint fp;
  for (const auto& per_alg : result.outputs) {
    for (const OutputView out : per_alg) {
      fp.mix(out.size());
      for (const auto w : out) fp.mix(w);
    }
  }
  for (const auto& per_alg : result.completed) {
    for (const auto c : per_alg) fp.mix(c);
  }
  for (const auto l : result.max_load_per_big_round) fp.mix(l);
  return fp.digest();
}

}  // namespace dasched
