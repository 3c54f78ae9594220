// Drongo as a real local DNS proxy over UDP (the §4 deployment shape).
//
//   $ ./ldns_proxy [--serve seconds] [seed]
//
// Builds the simulated Internet, trains a Drongo client, then serves it as
// an LDNS proxy through dns::DaemonServer on real loopback sockets (UDP,
// plus TCP for truncated answers). By default the example queries itself
// through the socket and prints a dig-style transcript; with --serve N it
// stays up so you can point dig at it:
//
//   dig @127.0.0.1 -p <udp port> img.googlecdn.sim
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <thread>

#include "core/drongo.hpp"
#include "dns/daemon_server.hpp"
#include "dns/proxy.hpp"
#include "dns/udp.hpp"
#include "measure/testbed.hpp"

using namespace drongo;

int main(int argc, char** argv) {
  int serve_seconds = 0;
  std::uint64_t seed = 42;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--serve") == 0 && i + 1 < argc) {
      serve_seconds = std::atoi(argv[++i]);
    } else {
      seed = std::strtoull(argv[i], nullptr, 10);
    }
  }

  measure::TestbedConfig config = measure::TestbedConfig::planetlab();
  config.client_count = 8;
  config.seed = seed;
  measure::Testbed testbed(config);

  // Train Drongo for client 0 against every provider (idle-time trials).
  measure::TrialRunner runner(&testbed, seed ^ 0x11);
  core::DrongoParams params;
  params.min_valley_frequency = 0.6;
  params.valley_threshold = 0.95;
  core::DrongoClient drongo(params, seed ^ 0x12);
  for (std::size_t p = 0; p < testbed.provider_count(); ++p) {
    drongo.train(runner, /*client=*/0, p, /*trials=*/5, /*spacing_hours=*/12.0);
  }
  std::cout << "Trained on " << testbed.provider_count() << " providers; tracking "
            << drongo.engine().tracked_windows() << " (domain, subnet) windows\n";

  // Mount Drongo in the proxy and serve it over real sockets. The packet
  // cache is off so every query reaches the proxy and its counters.
  dns::LdnsProxy proxy(&testbed.dns_network(), testbed.resolver_address(),
                       net::Ipv4Addr(127, 0, 0, 53), &drongo);
  dns::DaemonServerConfig server_config;
  server_config.packet_cache_entries = 0;
  dns::DaemonServer server(&proxy, server_config);
  std::cout << "Drongo LDNS proxy listening on 127.0.0.1: udp port " << server.udp_port()
            << ", tcp port " << server.tcp_port() << "\n";
  std::cout << "  try: dig @127.0.0.1 -p " << server.udp_port()
            << " img.googlecdn.sim\n\n";

  // Self-demo: resolve every provider's first content name through the
  // socket and report where assimilation kicked in.
  dns::UdpDnsClient udp(2000);
  const net::Ipv4Addr proxy_identity(198, 18, 250, 1);
  udp.register_endpoint(proxy_identity, server.udp_port());
  dns::StubResolver stub(&udp, testbed.clients()[0], proxy_identity, seed ^ 0x13);
  for (std::size_t p = 0; p < testbed.provider_count(); ++p) {
    const auto domain = testbed.content_names(p)[0];
    const auto before = proxy.assimilated();
    const auto result = stub.resolve_with_own_subnet(domain);
    const bool assimilated = proxy.assimilated() > before;
    std::cout << testbed.profile(p).name << "  " << domain.to_string() << " -> ";
    if (result.ok()) {
      std::cout << result.addresses.front().to_string()
                << (assimilated ? "   [subnet assimilation applied]" : "");
    } else {
      std::cout << dns::to_string(result.rcode);
    }
    std::cout << "\n";
  }
  std::cout << "\nproxy stats: " << proxy.forwarded() << " forwarded, "
            << proxy.assimilated() << " assimilated, " << server.served()
            << " responses served\n";

  if (serve_seconds > 0) {
    std::cout << "serving for " << serve_seconds << "s...\n";
    std::this_thread::sleep_for(std::chrono::seconds(serve_seconds));
  }
  server.stop();
  return 0;
}
