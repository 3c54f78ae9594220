#include "core/drongo.hpp"

#include "net/error.hpp"

namespace drongo::core {

DrongoClient::DrongoClient(DrongoParams params, std::uint64_t seed)
    : engine_(params, seed) {}

std::vector<measure::TrialRecord> DrongoClient::train(measure::TrialRunner& runner,
                                                      std::size_t client_index,
                                                      std::size_t provider_index,
                                                      int trials, double spacing_hours,
                                                      double start_time_hours,
                                                      std::size_t label_index) {
  std::vector<measure::TrialRecord> records;
  records.reserve(static_cast<std::size_t>(trials));
  for (int t = 0; t < trials; ++t) {
    records.push_back(runner.run(client_index, provider_index,
                                 start_time_hours + t * spacing_hours, label_index));
    observe(records.back());
  }
  return records;
}

std::optional<net::Prefix> DrongoClient::choose_subnet(const std::string& domain) {
  if (auto own = engine_.choose(domain)) return own;
  if (store_ == nullptr) return std::nullopt;
  auto shared = store_->choose(cluster_, domain);
  if (shared) {
    ++shared_assimilations_;
    if (registry_ != nullptr) registry_->add("core.drongo.shared_assimilations");
  }
  return shared;
}

dns::ResolutionResult DrongoClient::resolve(dns::StubResolver& stub,
                                            const dns::DnsName& domain) {
  const auto note = [this](const char* name) {
    if (registry_ != nullptr) registry_->add(name);
  };
  ++total_;
  note("core.drongo.queries");
  if (const auto subnet = choose_subnet(domain.to_string())) {
    ++assimilated_;
    note("core.drongo.assimilated");
    // Assimilation is an optimization, never a dependency: when the
    // assimilated resolution cannot produce an answer (retries exhausted or
    // the server kept failing), fall back to an ordinary own-subnet
    // resolution — the client ends up exactly where it would be without
    // Drongo. A fallback failure then propagates: the network is down for
    // everyone.
    try {
      const auto result = stub.resolve(domain, *subnet);
      if (!result.server_failure()) return result;
    } catch (const net::TransientError&) {
    }
    ++assimilation_fallbacks_;
    note("core.drongo.assimilation_fallbacks");
  }
  return stub.resolve_with_own_subnet(domain);
}

std::optional<net::Prefix> DrongoClient::select_subnet(const dns::DnsName& domain,
                                                       const net::Prefix& /*client*/) {
  ++total_;
  if (registry_ != nullptr) registry_->add("core.drongo.queries");
  auto choice = choose_subnet(domain.to_string());
  if (choice) {
    ++assimilated_;
    if (registry_ != nullptr) registry_->add("core.drongo.assimilated");
  }
  return choice;
}

}  // namespace drongo::core
