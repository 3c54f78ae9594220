// DrongoClient: the complete client-side system (§4).
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "core/decision.hpp"
#include "core/valley_store.hpp"
#include "dns/proxy.hpp"
#include "dns/stub_resolver.hpp"
#include "measure/trial.hpp"

namespace drongo::core {

/// The deployable Drongo system for one client machine.
///
/// Drongo sits on top of the client's DNS path: it collects trials during
/// idle time (train/observe), and at resolution time reshapes the outgoing
/// ECS option toward a qualified valley-prone subnet — never touching the
/// CDN's answer, never reordering replicas, never measuring on the fly
/// (§2.4: past measurements predictively choose the assimilation subnet).
///
/// It implements dns::SubnetSelector, so it plugs directly into an
/// LdnsProxy to become the machine's default resolver.
class DrongoClient : public dns::SubnetSelector {
 public:
  explicit DrongoClient(DrongoParams params = {}, std::uint64_t seed = 7);

  /// Idle-time data collection: runs `trials` trials against (client,
  /// provider) spaced `spacing_hours` apart and feeds them to the decision
  /// engine. The domain is pinned (`label_index` into the provider's
  /// content names) so the window accumulates on one name, as a deployed
  /// Drongo does per domain. Returns the trial records.
  std::vector<measure::TrialRecord> train(measure::TrialRunner& runner,
                                          std::size_t client_index,
                                          std::size_t provider_index, int trials,
                                          double spacing_hours,
                                          double start_time_hours = 0.0,
                                          std::size_t label_index = 0);

  /// Feeds one externally collected trial.
  void observe(const measure::TrialRecord& trial) {
    engine_.observe(trial);
    if (store_ != nullptr) store_->contribute(cluster_, trial);
  }

  /// Joins the crowd-shared valley store as a member of `cluster` (a key
  /// its members share: a /24, or core::routing_cluster_key). The store is
  /// borrowed and must outlive the client; nullptr leaves. While joined,
  /// every observed trial is also contributed to the cluster's pooled
  /// knowledge, and resolutions fall back to the cluster's choice when this
  /// client's own windows are not yet conclusive — own evidence always
  /// outranks crowd evidence.
  void share_via(ValleyStore* store, std::string cluster) {
    store_ = store;
    cluster_ = std::move(cluster);
  }

  /// Resolution with assimilation: uses the qualified subnet when one
  /// exists, else the client's own /24. Takes the FIRST replica of the
  /// answer — always respecting the CDN's serving order.
  dns::ResolutionResult resolve(dns::StubResolver& stub, const dns::DnsName& domain);

  /// SubnetSelector hook for LdnsProxy deployment.
  std::optional<net::Prefix> select_subnet(const dns::DnsName& domain,
                                           const net::Prefix& client_subnet) override;

  [[nodiscard]] DecisionEngine& engine() { return engine_; }
  [[nodiscard]] const DecisionEngine& engine() const { return engine_; }

  /// How many resolutions used an assimilated subnet vs the client's own.
  [[nodiscard]] std::uint64_t assimilated_queries() const { return assimilated_; }
  [[nodiscard]] std::uint64_t total_queries() const { return total_; }
  /// Assimilated resolutions that failed and fell back to the client's own
  /// subnet (resolve() only; the proxy path degrades inside the stub).
  [[nodiscard]] std::uint64_t assimilation_fallbacks() const {
    return assimilation_fallbacks_;
  }

  /// Resolutions whose subnet came from the crowd-shared store because this
  /// client's own engine had no qualified subnet yet.
  [[nodiscard]] std::uint64_t shared_assimilations() const {
    return shared_assimilations_;
  }

  /// Attaches an obs registry to the client AND its decision engine
  /// (borrowed; nullptr detaches). Resolutions tally `core.drongo.*`:
  /// total/assimilated queries and assimilation fallbacks.
  void set_registry(obs::Registry* registry) {
    registry_ = registry;
    engine_.set_registry(registry);
  }

 private:
  /// Engine choice first, crowd knowledge second. Tallies the shared-hit
  /// counters when the crowd supplies the subnet.
  std::optional<net::Prefix> choose_subnet(const std::string& domain);

  DecisionEngine engine_;
  ValleyStore* store_ = nullptr;  // borrowed; optional crowd knowledge
  std::string cluster_;           ///< this client's sharing cluster
  std::uint64_t assimilated_ = 0;
  std::uint64_t total_ = 0;
  std::uint64_t assimilation_fallbacks_ = 0;
  std::uint64_t shared_assimilations_ = 0;
  obs::Registry* registry_ = nullptr;  // borrowed; optional telemetry
};

}  // namespace drongo::core
