#include "util/parallel.hpp"

#include <algorithm>
#include <chrono>

#include "util/check.hpp"

namespace dasched {
namespace {

/// How long an idle thread spins before it parks. Consecutive dispatches of
/// one big-round are microseconds apart, so a spinning worker catches them
/// without a futex round trip; a pool left idle (serial scheduler work beside
/// it) parks after the window and stops competing for cores. 50 us is ~2,000
/// `pause`s at the 22.5 ns each measured on a 4-vCPU x86 host; the bound is
/// in time, not iterations, because `pause` latency differs up to 10x between
/// CPUs.
constexpr std::chrono::microseconds kSpinWindow{50};

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Spin-then-park: returns the first value of `word` (loaded with acquire)
/// that satisfies `done`, spinning for kSpinWindow and then blocking in
/// std::atomic::wait until the word changes. Every 64th spin yields, so
/// when threads outnumber cores a spinner hands its core to the thread it
/// waits on (7 workers on 4 cores: ~90 us per dispatch without, ~10 us with).
template <typename Done>
std::uint32_t await(const std::atomic<std::uint32_t>& word, Done done) {
  const auto deadline = std::chrono::steady_clock::now() + kSpinWindow;
  std::uint32_t v = word.load(std::memory_order_acquire);
  for (std::uint32_t spins = 1; !done(v); ++spins) {
    if (spins % 64 != 0) {
      cpu_relax();
    } else if (std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    } else {
      word.wait(v, std::memory_order_acquire);
    }
    v = word.load(std::memory_order_acquire);
  }
  return v;
}

}  // namespace

ThreadPool::ThreadPool(unsigned num_workers)
    : num_workers_(std::max(1u, num_workers)) {
  threads_.reserve(num_workers_ - 1);
  for (std::uint32_t i = 1; i < num_workers_; ++i) {
    threads_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  stop_ = true;
  generation_.fetch_add(1, std::memory_order_release);
  generation_.notify_all();
  for (auto& t : threads_) t.join();
}

unsigned ThreadPool::hardware_workers() {
  return std::max(1u, std::thread::hardware_concurrency());
}

void ThreadPool::dispatch(std::uint32_t parties, Task task, void* ctx) {
  if (parties == 0) return;
  DASCHED_CHECK_LE(parties, num_workers_, "ThreadPool::run has more parties than workers");
  DASCHED_CHECK_MSG(!busy_.exchange(true, std::memory_order_acquire),
                    "ThreadPool::run is not reentrant");
  task_ = task;
  ctx_ = ctx;
  parties_ = parties;
  acks_.store(0, std::memory_order_relaxed);
  generation_.fetch_add(1, std::memory_order_release);
  generation_.notify_all();
  task(ctx, 0);
  // Every spawned worker acks, with or without a party, so none can still be
  // reading this batch's fields when the next dispatch overwrites them.
  const std::uint32_t spawned = num_workers_ - 1;
  await(acks_, [spawned](std::uint32_t acked) { return acked == spawned; });
  busy_.store(false, std::memory_order_release);
}

void ThreadPool::worker_loop(std::uint32_t index) {
  const std::uint32_t spawned = num_workers_ - 1;
  std::uint32_t seen = 0;
  for (;;) {
    seen = await(generation_, [seen](std::uint32_t g) { return g != seen; });
    if (stop_) return;
    if (index < parties_) task_(ctx_, index);
    if (acks_.fetch_add(1, std::memory_order_release) + 1 == spawned) acks_.notify_one();
  }
}

}  // namespace dasched
