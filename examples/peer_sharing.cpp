// Peer-to-peer trial sharing (§7): splitting Drongo's measurement cost
// across clients that share a subnet.
//
//   $ ./peer_sharing [devices] [seed]
//
// Simulates a household/office /24 with several devices. One device runs
// the idle-time trials; every device joins one ValleyStore cluster and
// falls back to its pooled knowledge. The output compares measurement cost
// and decisions with and without sharing.
#include <cstdlib>
#include <iostream>

#include "core/drongo.hpp"
#include "measure/testbed.hpp"

using namespace drongo;

int main(int argc, char** argv) {
  const int devices = argc > 1 ? std::atoi(argv[1]) : 4;
  const std::uint64_t seed = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 42;

  measure::TestbedConfig config = measure::TestbedConfig::planetlab();
  config.client_count = 4;
  config.seed = seed;
  measure::Testbed testbed(config);
  measure::TrialRunner runner(&testbed, seed ^ 0x31);

  // Lenient parameters for the demo: one training valley qualifies.
  core::DrongoParams params;
  params.min_valley_frequency = 0.2;
  params.valley_threshold = 1.0;

  // Without sharing: every device measures its own full window.
  const int window = static_cast<int>(params.window_size);
  const auto& network = testbed.dns_network();
  const auto queries_before_solo = network.exchange_count();
  std::vector<std::unique_ptr<core::DecisionEngine>> solo_engines;
  std::string domain;
  for (int d = 0; d < devices; ++d) {
    solo_engines.push_back(std::make_unique<core::DecisionEngine>(params, seed + d));
    for (int t = 0; t < window; ++t) {
      const auto trial = runner.run(0, 0, t * 12.0, 0);
      domain = trial.domain;
      solo_engines.back()->observe(trial);
    }
  }
  const auto solo_queries = network.exchange_count() - queries_before_solo;

  // With sharing: device 0 measures and contributes its trials to the
  // store; every device consults the /24 cluster's pooled knowledge.
  const auto queries_before_shared = network.exchange_count();
  core::ValleyStore store(core::ValleyStoreParams{
      .valley_threshold = params.valley_threshold,
      .min_valley_frequency = params.min_valley_frequency,
      .min_observations = params.window_size,
      .convention = params.convention,
  });
  const auto client_subnet = net::Prefix(testbed.clients()[0], 24);
  const auto group = client_subnet.to_string();
  std::vector<std::unique_ptr<core::DrongoClient>> shared_devices;
  for (int d = 0; d < devices; ++d) {
    shared_devices.push_back(std::make_unique<core::DrongoClient>(params, seed + d));
    shared_devices.back()->share_via(&store, group);
  }
  for (int t = 0; t < window; ++t) {
    shared_devices[0]->observe(runner.run(0, 0, 100.0 + t * 12.0, 0));
  }
  const auto shared_queries = network.exchange_count() - queries_before_shared;

  std::cout << devices << " devices in " << group << ", window " << window << ":\n";
  std::cout << "  without sharing: " << solo_queries << " DNS exchanges\n";
  std::cout << "  with sharing:    " << shared_queries << " DNS exchanges ("
            << (devices - 1) * window << " peer trials saved)\n";
  std::cout << "  reduction:       "
            << (solo_queries == 0
                    ? 0.0
                    : (1.0 - static_cast<double>(shared_queries) /
                                 static_cast<double>(solo_queries)) *
                          100.0)
            << "%\n\n";

  // A device is qualified when it would assimilate a subnet for the domain.
  int decided = 0;
  const auto name = dns::DnsName::must_parse(domain);
  for (auto& device : shared_devices) {
    if (device->select_subnet(name, client_subnet)) ++decided;
  }
  std::cout << decided << "/" << devices
            << " shared devices hold a qualified assimilation subnet for " << domain
            << "\n";
  std::cout << "\nThe paper leaves this component as future work (§7); here it is the\n"
               "natural answer to its mass-deployment measurement-traffic concern.\n";
  return 0;
}
