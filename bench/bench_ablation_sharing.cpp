// Ablation: the §7 peer-sharing extension — measurement cost vs group size.
//
// For household groups of 1..8 devices behind one /24, one device runs the
// idle-time trials and contributes them to a ValleyStore cluster every
// device consults. Reported: DNS exchanges per device to reach a full
// training window, and how many devices end up with a qualified
// assimilation subnet.
#include <iostream>

#include "analysis/render.hpp"
#include "bench_common.hpp"
#include "core/drongo.hpp"

using namespace drongo;

int main() {
  std::cout << "Peer-sharing ablation (one /24, provider Google-like)\n\n";
  measure::TestbedConfig config = measure::TestbedConfig::planetlab();
  config.client_count = 4;
  measure::Testbed testbed(config);

  core::DrongoParams params;
  params.min_valley_frequency = 0.2;
  params.valley_threshold = 1.0;
  const int window = static_cast<int>(params.window_size);
  const auto client_subnet = net::Prefix(testbed.clients()[0], 24);

  std::vector<std::vector<std::string>> cells;
  for (int devices : {1, 2, 4, 8}) {
    measure::TrialRunner runner(&testbed, 0xFA0 + static_cast<std::uint64_t>(devices));
    core::ValleyStore store(core::ValleyStoreParams{
        .valley_threshold = params.valley_threshold,
        .min_valley_frequency = params.min_valley_frequency,
        .min_observations = params.window_size,
        .convention = params.convention,
    });
    std::vector<std::unique_ptr<core::DrongoClient>> clients;
    for (int d = 0; d < devices; ++d) {
      clients.push_back(std::make_unique<core::DrongoClient>(params, 100 + d));
      clients.back()->share_via(&store, client_subnet.to_string());
    }
    const auto before = testbed.dns_network().exchange_count();
    std::string domain;
    for (int t = 0; t < window; ++t) {
      auto trial = runner.run(0, 0, t * 12.0, 0);
      domain = trial.domain;
      clients[0]->observe(trial);
    }
    const auto exchanges = testbed.dns_network().exchange_count() - before;
    int qualified = 0;
    const auto name = dns::DnsName::must_parse(domain);
    for (auto& client : clients) {
      if (client->select_subnet(name, client_subnet)) ++qualified;
    }
    cells.push_back({std::to_string(devices), std::to_string(exchanges),
                     analysis::fmt(static_cast<double>(exchanges) / devices, 1),
                     std::to_string(qualified) + "/" + std::to_string(devices),
                     std::to_string((devices - 1) * window)});
  }
  std::cout << analysis::render_table(
      "Cost to fill one training window",
      {"devices", "DNS exchanges", "exchanges/device", "qualified", "peer trials saved"},
      cells);
  std::cout << "\nReading guide: total measurement cost is constant, so per-device cost\n"
               "falls as 1/devices while every device reaches the same decision — the\n"
               "scaling answer to the paper's mass-deployment concern (§7).\n";
  return 0;
}
