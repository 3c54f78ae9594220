// Crowd-shared valley knowledge base (the paper's §7 "crowd-sourced
// Drongo" direction, where clients share trial data).
//
// Clients *contribute* their trials into a shared knowledge base keyed by a
// cluster, and any client in the cluster *consults* it at resolution time
// when its own training windows are not yet conclusive. One training
// window's worth of measurements then amortizes across every member of the
// cluster, whether or not they share a subnet.
//
// Clusters come from routing_cluster_key(): clients whose valley-free BGP
// paths toward the provider landmarks traverse the same first transit ASes
// see (nearly) the same path inflation, so a valley observed by one is
// predictive for the others (PAPERS.md: routing-aware partitioning for
// server ranking).
//
// Determinism is load-bearing: per-(cluster, domain, subnet) knowledge is a
// commutative integer aggregate {observations, valleys, ratio_ticks} — pure
// sums, no windows, no ordering — so any interleaving of contribute() calls
// from any number of threads produces the same store state, and choose() is
// a pure function of that state (no RNG tie-breaks; the radix trie's
// canonical walk order breaks ties). Campaign telemetry with the store on is
// therefore byte-identical at --threads 1 and 8.
//
// Concurrency: clusters are striped over independently locked shards (FNV-1a
// of the cluster key, the same deterministic striping the serving cache
// uses), so contributors in different clusters never contend.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/valley.hpp"
#include "measure/trial.hpp"
#include "net/lpm.hpp"
#include "net/prefix.hpp"
#include "obs/metrics.hpp"
#include "obs/schema.hpp"

namespace drongo::topology {
class World;
}

namespace drongo::core {

/// Counter block generated from the shared X-macro schema, mirrored as
/// `core.valley_store.<field>`. All fields are commutative sums.
struct ValleyStoreStats {
  DRONGO_OBS_VALLEY_STORE_COUNTERS(DRONGO_OBS_DECLARE_FIELD)

  ValleyStoreStats& operator+=(const ValleyStoreStats& other) {
#define DRONGO_VALLEY_STORE_FOLD(field) field += other.field;
    DRONGO_OBS_VALLEY_STORE_COUNTERS(DRONGO_VALLEY_STORE_FOLD)
#undef DRONGO_VALLEY_STORE_FOLD
    return *this;
  }
};

/// Shared-knowledge analogues of DrongoParams: the same vt/vf semantics,
/// with `min_observations` playing window_size's "sufficient data" role
/// (the store has no per-client windows — evidence is pooled).
struct ValleyStoreParams {
  double valley_threshold = 0.95;     ///< vt: ratio must be below this to count
  double min_valley_frequency = 1.0;  ///< vf: required valley fraction
  std::size_t min_observations = 5;   ///< pooled ratios needed to qualify
  RatioConvention convention = RatioConvention::deployment();
};

/// The routing-similarity cluster key for `client`: for each landmark AS
/// (in practice, the provider ASes the client measures against) the first
/// `depth` transit ASNs of the client's valley-free BGP path toward it,
/// concatenated. Clients mapping to the same key route their CDN traffic
/// through the same upstream ASes, so their valley observations transfer.
/// Throws net::InvalidArgument when the client has no AS or depth < 1.
/// (`world` is non-const only because routing tables build lazily; the
/// routing cache is internally synchronized.)
std::string routing_cluster_key(topology::World& world, net::Ipv4Addr client,
                                const std::vector<std::size_t>& landmark_as_indices,
                                int depth = 2);

class ValleyStore {
 public:
  explicit ValleyStore(ValleyStoreParams params = {}, std::size_t stripes = 8);
  ~ValleyStore();

  ValleyStore(const ValleyStore&) = delete;
  ValleyStore& operator=(const ValleyStore&) = delete;

  /// Ingests one trial contributed by a member of `cluster`: every usable
  /// hop with a computable latency ratio adds one observation (and one
  /// valley when the ratio is below vt) to the (cluster, domain, subnet)
  /// aggregate. Failed trials are ignored, mirroring DecisionEngine.
  /// Thread-safe; contribution order never affects the resulting state.
  void contribute(const std::string& cluster, const measure::TrialRecord& trial);

  /// The cluster's best assimilation subnet for `domain`, or nullopt when
  /// no subnet has both `min_observations` pooled ratios and a valley
  /// frequency of at least vf. Highest valley frequency wins; ties go to
  /// the first subnet in the trie's canonical walk order (deterministic, no
  /// RNG — unlike DecisionEngine, whose windows are client-private).
  std::optional<net::Prefix> choose(const std::string& cluster,
                                    const std::string& domain);

  /// A pooled subnet's standing, for introspection and benches.
  struct Candidate {
    net::Prefix subnet;
    std::uint64_t observations = 0;
    std::uint64_t valleys = 0;
    double valley_frequency = 0.0;
    double mean_ratio = 0.0;
    bool qualified = false;
  };

  /// All pooled subnets for (cluster, domain) in canonical trie order.
  [[nodiscard]] std::vector<Candidate> candidates(const std::string& cluster,
                                                  const std::string& domain) const;

  /// Attaches an obs registry (borrowed; nullptr detaches): every stat bump
  /// is mirrored as `core.valley_store.<field>`. Setup-phase only, like
  /// ShardedDnsCache::set_registry.
  void set_registry(obs::Registry* registry);

  /// Aggregated counters over all stripes. Takes every stripe lock briefly.
  [[nodiscard]] ValleyStoreStats stats() const;
  [[nodiscard]] std::size_t cluster_count() const;
  /// Total (cluster, domain, subnet) aggregates currently pooled.
  [[nodiscard]] std::size_t tracked_subnets() const;

  [[nodiscard]] const ValleyStoreParams& params() const { return params_; }

 private:
  /// Pure commutative sums: merging contributions in any order yields the
  /// same aggregate. `ratio_ticks` is the ratio quantized to millionths so
  /// the mean stays exactly representable (doubles would drift with
  /// summation order).
  struct Aggregate {
    std::uint64_t observations = 0;
    std::uint64_t valleys = 0;
    std::uint64_t ratio_ticks = 0;  ///< sum of round(ratio * 1e6)
  };

  struct Stripe;

  Stripe& stripe_of(const std::string& cluster) const;
  void bump(std::uint64_t ValleyStoreStats::* field, const char* name,
            ValleyStoreStats& stats, std::uint64_t delta = 1);

  ValleyStoreParams params_;
  std::vector<std::unique_ptr<Stripe>> stripes_;
  obs::Registry* registry_ = nullptr;  // borrowed; optional telemetry mirror
};

}  // namespace drongo::core
