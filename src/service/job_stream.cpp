#include "service/job_stream.hpp"

#include <cmath>

#include "algos/aggregate.hpp"
#include "algos/bfs.hpp"
#include "algos/broadcast.hpp"
#include "util/check.hpp"
#include "util/fingerprint.hpp"
#include "util/rng.hpp"

namespace dasched::service {
namespace {

// Purpose tags keep the per-tick arrival draws and the per-(tenant, slot)
// spec derivation on disjoint seed streams.
constexpr std::uint64_t kArrivalTag = 0x5eb1ce0a44174a01ULL;
constexpr std::uint64_t kSpecTag = 0x5eb1ce0a44174a02ULL;

}  // namespace

std::uint64_t JobSpec::fingerprint() const {
  return Fingerprint{}
      .mix(static_cast<std::uint64_t>(kind))
      .mix(root)
      .mix(radius)
      .mix(payload_seed)
      .digest();
}

std::unique_ptr<DistributedAlgorithm> make_algorithm(const JobSpec& spec) {
  DASCHED_CHECK_MSG(spec.radius >= 1, "JobSpec: radius must be >= 1");
  switch (spec.kind) {
    case JobSpec::Kind::kBroadcast:
      return std::make_unique<BroadcastAlgorithm>(
          spec.root, spec.radius, splitmix64(spec.payload_seed), spec.payload_seed);
    case JobSpec::Kind::kBfs:
      return std::make_unique<BfsAlgorithm>(spec.root, spec.radius, spec.payload_seed);
    case JobSpec::Kind::kAggregate:
      return std::make_unique<AggregateAlgorithm>(spec.root, spec.radius,
                                                  spec.payload_seed);
  }
  DASCHED_CHECK_MSG(false, "make_algorithm: unknown kind");
  return nullptr;
}

JobSpec tenant_spec(const JobStreamConfig& cfg, std::uint32_t tenant,
                    std::uint32_t slot, NodeId n) {
  DASCHED_CHECK(n > 0);
  DASCHED_CHECK(cfg.radius >= 1);
  const std::uint64_t material = seed_combine(cfg.arrival_seed, kSpecTag, tenant, slot);
  JobSpec spec;
  spec.kind = static_cast<JobSpec::Kind>((tenant + slot) % 3);
  spec.root = static_cast<NodeId>(splitmix64(material) % n);
  spec.radius = cfg.radius;
  spec.payload_seed = seed_combine(material, kSpecTag);
  return spec;
}

std::vector<JobRequest> generate_job_stream(const JobStreamConfig& cfg, NodeId n) {
  DASCHED_CHECK_MSG(cfg.arrival_rate > 0.0, "job stream: arrival rate must be > 0");
  DASCHED_CHECK_MSG(cfg.tenants >= 1, "job stream: need at least one tenant");
  DASCHED_CHECK_MSG(cfg.duration >= 1, "job stream: duration must be >= 1");
  DASCHED_CHECK_MSG(cfg.specs_per_tenant >= 1,
                    "job stream: need at least one spec per tenant");

  std::vector<JobRequest> stream;
  const double threshold = std::exp(-cfg.arrival_rate);
  for (std::uint64_t tick = 0; tick < cfg.duration; ++tick) {
    // Per-tick Rng: inserting or removing ticks never perturbs the draws of
    // other ticks, so truncated and extended streams share a prefix.
    Rng rng(seed_combine(cfg.arrival_seed, kArrivalTag, tick));
    // Knuth's product-of-uniforms Poisson sampler; exact for the modest
    // arrival rates the service targets.
    std::uint32_t arrivals = 0;
    double product = rng.next_double();
    while (product > threshold) {
      ++arrivals;
      product *= rng.next_double();
    }
    for (std::uint32_t i = 0; i < arrivals; ++i) {
      JobRequest request;
      request.job_id = stream.size();
      request.tenant = static_cast<std::uint32_t>(rng.next_below(cfg.tenants));
      request.arrival_tick = tick;
      const auto slot = static_cast<std::uint32_t>(rng.next_below(cfg.specs_per_tenant));
      request.spec = tenant_spec(cfg, request.tenant, slot, n);
      stream.push_back(request);
    }
  }
  return stream;
}

}  // namespace dasched::service
