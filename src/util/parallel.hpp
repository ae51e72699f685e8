// A small fixed-size worker pool for deterministic fork-join parallelism.
//
// The pool exists for one pattern, used by the big-round execution engine and
// reusable by schedulers and benches: a caller repeatedly has a batch of
// statically partitioned work (e.g. the owner ranges of one big-round's
// event bucket) and wants party i of the batch run on worker i, with a full
// barrier at the end of every batch. Threads are spawned once; between
// batches idle workers spin on a generation counter for a short window and
// then park, so a batch that follows closely costs one release store and a
// few cache-line transfers -- cheap enough to dispatch several times per
// big-round -- and a pool left idle costs no CPU.
//
// Determinism contract: party i runs exactly once, on worker i (worker 0 is
// the calling thread), and all party effects happen-before run() returns.
// The binding is fixed, so a caller that partitions state per worker -- the
// executor's slot owners and per-worker staging lanes -- gets the same thread
// touching the same state batch after batch. Callers that need
// bit-reproducible results write into per-party buffers and merge them in
// party order after run() returns; that is how the executor keeps parallel
// execution bit-identical to serial (see docs/PERFORMANCE.md).
#pragma once

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

namespace dasched {

class ThreadPool {
 public:
  /// A pool with `num_workers` total workers (>= 1). The calling thread is
  /// worker 0 of every run(), so num_workers - 1 threads are spawned.
  explicit ThreadPool(unsigned num_workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total workers (spawned threads + the caller).
  unsigned num_workers() const { return num_workers_; }

  /// Invokes body(i) once for every party i in [0, parties), party i on
  /// worker i, and blocks until all have completed; CHECKs parties <=
  /// num_workers(). Parties must be free of data races against each other;
  /// `body` is borrowed for the duration of the call and dispatched through
  /// a function pointer, so no call allocates. Not reentrant: run() must not
  /// be called from inside a party, and only one run() may be active at a
  /// time.
  template <typename F>
  void run(std::uint32_t parties, F& body) {
    dispatch(parties, [](void* ctx, std::uint32_t i) { (*static_cast<F*>(ctx))(i); }, &body);
  }

  /// std::thread::hardware_concurrency() clamped to >= 1.
  static unsigned hardware_workers();

 private:
  using Task = void (*)(void*, std::uint32_t);

  void dispatch(std::uint32_t parties, Task task, void* ctx);
  void worker_loop(std::uint32_t index);

  const unsigned num_workers_;
  std::vector<std::thread> threads_;

  // The batch: written by the caller before it bumps generation_ (release),
  // read by workers after they observe the bump (acquire).
  Task task_ = nullptr;
  void* ctx_ = nullptr;
  std::uint32_t parties_ = 0;
  bool stop_ = false;

  std::atomic<std::uint32_t> generation_{0};  // bumped once per batch and at shutdown
  std::atomic<std::uint32_t> acks_{0};        // spawned workers done with this batch
  std::atomic<bool> busy_{false};             // a run() is active (reentrancy check)
};

}  // namespace dasched
