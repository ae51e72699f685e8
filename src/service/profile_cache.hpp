// Solo-run profile cache for the scheduling service.
//
// Admitting a job requires its solo profile (communication pattern, outputs,
// message totals) -- the inputs to congestion accounting, delay drawing, and
// the verifier gate. Profiling means running the job alone on the graph,
// which dominates admission cost; but tenants resubmit recurring specs, so
// the daemon caches profiles keyed on (program fingerprint, graph
// fingerprint) and reuses them across jobs, epochs, and serve() calls.
//
// Eviction is deterministic LRU on a logical access clock (no wall time, no
// pointers ordered by address), so cache behaviour -- and therefore the whole
// service run -- is bit-identical across machines and thread counts. A
// cached entry is *trusted data, not trusted truth*: every composed schedule
// still passes the verifier gate, which is what catches a stale or poisoned
// entry (see the divergence test in tests/test_service.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>

#include "sched/problem.hpp"

namespace dasched::service {

/// Cache key: the program half comes from JobSpec::fingerprint(), the graph
/// half from graph_fingerprint(). Equal keys mean "same program text on the
/// same topology", which is exactly when a solo profile is reusable.
struct ProfileKey {
  std::uint64_t program_fp = 0;
  std::uint64_t graph_fp = 0;

  friend auto operator<=>(const ProfileKey&, const ProfileKey&) = default;
};

/// A cached solo run plus the headline scalars admission reads constantly.
/// The solo run is immutable and shared: a cache hit, the composed problem
/// (ScheduleProblem::adopt_solo), both verifier runs and the completion
/// check all read the one instance profiling produced. Null means "no
/// profile" -- the daemon treats it as a shape-guard miss.
struct JobProfile {
  std::uint32_t rounds = 0;         // declared rounds of the profiled program
  std::uint32_t max_edge_load = 0;  // solo congestion contribution
  std::uint64_t total_messages = 0;
  std::shared_ptr<const SoloRunResult> solo;
};

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t invalidations = 0;  // explicit erases (verifier-gate fallout)
};

class ProfileCache {
 public:
  /// capacity == 0 disables caching (every find misses, inserts are dropped).
  explicit ProfileCache(std::size_t capacity) : capacity_(capacity) {}

  /// Looks up `key`, counting a hit or miss and bumping recency on hit.
  /// The returned pointer is invalidated by the next insert/erase -- callers
  /// that outlive the lookup copy the JobProfile, which shares (does not
  /// duplicate) its solo run.
  const JobProfile* find(const ProfileKey& key);

  /// Inserts (or replaces) the profile for `key`, evicting the
  /// least-recently-used entry when at capacity.
  void insert(const ProfileKey& key, JobProfile profile);

  /// Drops `key` if present (verifier-gate invalidation). Counts toward
  /// `invalidations` only when an entry was actually removed.
  void erase(const ProfileKey& key);

  std::size_t size() const { return entries_.size(); }
  std::size_t capacity() const { return capacity_; }
  const CacheStats& stats() const { return stats_; }

 private:
  struct Entry {
    JobProfile profile;
    std::uint64_t last_use = 0;
  };

  std::size_t capacity_;
  // std::map, not unordered: eviction scans iterate the container, and that
  // iteration feeds a decision (which key to evict). Deterministic order is
  // load-bearing here, not a style choice.
  std::map<ProfileKey, Entry> entries_;
  std::uint64_t clock_ = 0;  // logical access counter -> deterministic LRU
  CacheStats stats_;
};

}  // namespace dasched::service
