// Seeded multi-tenant job streams for the scheduling service.
//
// The service regime (ROADMAP "scheduling-as-a-service") replaces the fixed
// batch of k algorithms with jobs arriving continuously on a simulated
// clock. A stream is generated *up front* from a seed -- Poisson arrivals
// per tick, tenants drawn per arrival, each tenant cycling through a small
// pool of recurring job specs -- so the whole workload is a pure function of
// (JobStreamConfig, n) and every run of the daemon over it is reproducible,
// thread-count invariant, and diffable.
//
// Recurring specs are the point: a tenant resubmitting the same JobSpec
// produces the same program fingerprint, which is what makes the profile
// cache (profile_cache.hpp) earn its keep on repeat tenants.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "congest/program.hpp"
#include "graph/graph.hpp"

namespace dasched::service {

/// What a tenant asks the service to run: a concrete algorithm family plus
/// its parameters. The spec is the unit of profile caching -- two requests
/// with equal specs run byte-identical programs, so one solo profile serves
/// both (fingerprint() is the cache key's program half).
struct JobSpec {
  enum class Kind : std::uint8_t { kBroadcast = 0, kBfs = 1, kAggregate = 2 };

  Kind kind = Kind::kBroadcast;
  NodeId root = 0;            // broadcast/BFS source or aggregation root
  std::uint32_t radius = 3;   // hop radius; rounds follow the family's rule
  std::uint64_t payload_seed = 0;  // base seed and value material

  friend bool operator==(const JobSpec&, const JobSpec&) = default;

  /// Canonical program fingerprint (util/fingerprint.hpp) over every field
  /// that shapes the program: the cache key's program half.
  std::uint64_t fingerprint() const;
};

/// Builds the algorithm instance a spec describes. `root` must be < n of the
/// graph the job will run on (the stream generator guarantees this).
std::unique_ptr<DistributedAlgorithm> make_algorithm(const JobSpec& spec);

/// One queued unit of work: a spec plus its arrival bookkeeping. job_id is
/// the dense arrival index -- the deterministic tie-break everywhere order
/// matters (fairness sort, delay derivation).
struct JobRequest {
  std::uint64_t job_id = 0;
  std::uint32_t tenant = 0;
  std::uint64_t arrival_tick = 0;
  JobSpec spec;
};

struct JobStreamConfig {
  /// Expected arrivals per tick (Poisson). Must be > 0.
  double arrival_rate = 0.5;
  std::uint64_t arrival_seed = 1;
  /// Number of tenants; each arrival is tagged with one, uniformly. Must be >= 1.
  std::uint32_t tenants = 4;
  /// Ticks of arrivals: arrival_tick ranges over [0, duration). Must be >= 1.
  std::uint64_t duration = 64;
  /// Hop radius every generated spec uses.
  std::uint32_t radius = 3;
  /// Size of each tenant's recurring spec pool. Small pools mean frequent
  /// resubmission of identical specs -- the profile cache's hit source.
  std::uint32_t specs_per_tenant = 2;
};

/// The recurring spec a tenant's pool holds at `slot`: a pure function of
/// (arrival_seed, tenant, slot, radius, n), so streams and tests agree on it
/// without sharing state.
JobSpec tenant_spec(const JobStreamConfig& cfg, std::uint32_t tenant,
                    std::uint32_t slot, NodeId n);

/// Generates the full stream: for each tick, a Poisson(arrival_rate) number
/// of arrivals, each tagged with a uniform tenant and one spec from that
/// tenant's pool. Sorted by (arrival_tick, job_id) with dense job ids --
/// exactly the shape SchedulerDaemon::serve consumes.
std::vector<JobRequest> generate_job_stream(const JobStreamConfig& cfg, NodeId n);

}  // namespace dasched::service
