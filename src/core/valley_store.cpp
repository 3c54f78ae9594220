#include "core/valley_store.hpp"

#include <algorithm>
#include <cmath>

#include "net/error.hpp"
#include "net/strings.hpp"
#include "topology/world.hpp"

namespace drongo::core {

namespace {

constexpr double kRatioTick = 1e6;

std::uint64_t stripe_hash(const std::string& key) {
  // FNV-1a: deterministic across runs and platforms, unlike std::hash.
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : key) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace

std::string routing_cluster_key(topology::World& world, net::Ipv4Addr client,
                                const std::vector<std::size_t>& landmark_as_indices,
                                int depth) {
  if (depth < 1) {
    throw net::InvalidArgument("routing cluster depth must be >= 1, got " +
                               std::to_string(depth));
  }
  const auto src = world.as_index_of(client);
  if (!src) {
    throw net::InvalidArgument("client address outside every AS block: " +
                               client.to_string());
  }
  std::string key;
  for (const std::size_t landmark : landmark_as_indices) {
    const auto path = world.routing().as_path(*src, landmark);
    key += '|';
    // Skip path[0] (the client's own AS): the cluster captures HOW traffic
    // leaves toward the landmark, so clients in different stub ASes behind
    // the same transit chain still pool their observations.
    const std::size_t take =
        std::min(path.size(), static_cast<std::size_t>(depth) + 1);
    for (std::size_t i = 1; i < take; ++i) {
      key += world.graph().node(path[i]).asn.to_string();
      key += ',';
    }
  }
  return key;
}

struct ValleyStore::Stripe {
  mutable std::mutex mutex;
  /// cluster -> domain (canonical) -> pooled subnet aggregates.
  std::map<std::string, std::map<std::string, net::IpLpmTrie<Aggregate>>> clusters;
  ValleyStoreStats stats;
};

ValleyStore::ValleyStore(ValleyStoreParams params, std::size_t stripes)
    : params_(params) {
  if (params_.valley_threshold <= 0.0 || params_.valley_threshold > 1.0) {
    throw net::InvalidArgument("valley threshold must be in (0, 1]");
  }
  if (params_.min_valley_frequency < 0.0 || params_.min_valley_frequency > 1.0) {
    throw net::InvalidArgument("valley frequency must be in [0, 1]");
  }
  if (params_.min_observations == 0) {
    throw net::InvalidArgument("min_observations must be >= 1");
  }
  const std::size_t count = std::max<std::size_t>(1, stripes);
  stripes_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    stripes_.push_back(std::make_unique<Stripe>());
  }
}

ValleyStore::~ValleyStore() = default;

ValleyStore::Stripe& ValleyStore::stripe_of(const std::string& cluster) const {
  return *stripes_[static_cast<std::size_t>(stripe_hash(cluster) % stripes_.size())];
}

void ValleyStore::bump(std::uint64_t ValleyStoreStats::* field, const char* name,
                       ValleyStoreStats& stats, std::uint64_t delta) {
  stats.*field += delta;
  if (registry_ != nullptr && delta != 0) {
    registry_->add(obs::counter_name("core.valley_store.", name), delta);
  }
}

/// Bumps `field` on the (locked) stripe's stats and mirrors it.
#define DRONGO_STORE_BUMP(field, ...) \
  bump(&ValleyStoreStats::field, #field, stripe.stats, ##__VA_ARGS__)

void ValleyStore::contribute(const std::string& cluster,
                             const measure::TrialRecord& trial) {
  // Mirrors DecisionEngine::observe's evidence rules exactly (failed trials
  // carry nothing; only usable hops with a computable ratio teach), so the
  // store never learns from data an engine would reject.
  if (trial.failed()) return;
  Stripe& stripe = stripe_of(cluster);
  std::lock_guard lock(stripe.mutex);
  DRONGO_STORE_BUMP(contributions);
  auto& domain_tries = stripe.clusters[cluster][net::to_lower(trial.domain)];
  for (const auto& hop : trial.hops) {
    if (!hop.usable) continue;
    const auto ratio = latency_ratio(trial, hop, params_.convention);
    if (!ratio) continue;
    Aggregate* agg = domain_tries.find(hop.subnet);
    if (agg == nullptr) agg = domain_tries.insert(hop.subnet, Aggregate{});
    ++agg->observations;
    agg->ratio_ticks +=
        static_cast<std::uint64_t>(std::llround(*ratio * kRatioTick));
    if (is_valley(*ratio, params_.valley_threshold)) {
      ++agg->valleys;
      DRONGO_STORE_BUMP(valley_observations);
    }
  }
}

std::optional<net::Prefix> ValleyStore::choose(const std::string& cluster,
                                               const std::string& domain) {
  Stripe& stripe = stripe_of(cluster);
  std::lock_guard lock(stripe.mutex);
  DRONGO_STORE_BUMP(lookups);
  std::optional<net::Prefix> best;
  double best_vf = -1.0;
  const auto cit = stripe.clusters.find(cluster);
  if (cit != stripe.clusters.end()) {
    const auto dit = cit->second.find(net::to_lower(domain));
    if (dit != cit->second.end()) {
      // Strictly-greater keeps the FIRST walk-order subnet on ties: the
      // trie's canonical order stands in for DecisionEngine's RNG
      // tie-break, because shared knowledge must choose identically for
      // every cluster member on every thread.
      dit->second.walk([&](const net::IpPrefix& subnet, const Aggregate& agg) {
        if (agg.observations < params_.min_observations) return;
        const double vf = static_cast<double>(agg.valleys) /
                          static_cast<double>(agg.observations);
        if (vf < params_.min_valley_frequency || vf <= 0.0) return;
        if (vf > best_vf) {
          best_vf = vf;
          best = subnet.to_v4();
        }
      });
    }
  }
  if (best) {
    DRONGO_STORE_BUMP(shared_hits);
  } else {
    DRONGO_STORE_BUMP(shared_misses);
  }
  return best;
}

std::vector<ValleyStore::Candidate> ValleyStore::candidates(
    const std::string& cluster, const std::string& domain) const {
  const Stripe& stripe = stripe_of(cluster);
  std::lock_guard lock(stripe.mutex);
  std::vector<Candidate> out;
  const auto cit = stripe.clusters.find(cluster);
  if (cit == stripe.clusters.end()) return out;
  const auto dit = cit->second.find(net::to_lower(domain));
  if (dit == cit->second.end()) return out;
  dit->second.walk([&](const net::IpPrefix& subnet, const Aggregate& agg) {
    Candidate c;
    c.subnet = *subnet.to_v4();  // hop subnets are v4: the store keys no v6
    c.observations = agg.observations;
    c.valleys = agg.valleys;
    c.valley_frequency = agg.observations == 0
                             ? 0.0
                             : static_cast<double>(agg.valleys) /
                                   static_cast<double>(agg.observations);
    c.mean_ratio = agg.observations == 0
                       ? 0.0
                       : static_cast<double>(agg.ratio_ticks) /
                             (kRatioTick * static_cast<double>(agg.observations));
    c.qualified = agg.observations >= params_.min_observations &&
                  c.valley_frequency >= params_.min_valley_frequency &&
                  c.valley_frequency > 0.0;
    out.push_back(c);
  });
  return out;
}

void ValleyStore::set_registry(obs::Registry* registry) { registry_ = registry; }

ValleyStoreStats ValleyStore::stats() const {
  ValleyStoreStats total;
  for (const auto& stripe : stripes_) {
    std::lock_guard lock(stripe->mutex);
    total += stripe->stats;
  }
  return total;
}

std::size_t ValleyStore::cluster_count() const {
  std::size_t total = 0;
  for (const auto& stripe : stripes_) {
    std::lock_guard lock(stripe->mutex);
    total += stripe->clusters.size();
  }
  return total;
}

std::size_t ValleyStore::tracked_subnets() const {
  std::size_t total = 0;
  for (const auto& stripe : stripes_) {
    std::lock_guard lock(stripe->mutex);
    for (const auto& [cluster, domains] : stripe->clusters) {
      for (const auto& [domain, trie] : domains) {
        total += trie.size();
      }
    }
  }
  return total;
}

#undef DRONGO_STORE_BUMP

}  // namespace drongo::core
