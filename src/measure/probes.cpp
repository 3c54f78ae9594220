#include "measure/probes.hpp"

#include <cmath>

#include "net/error.hpp"

namespace drongo::measure {

double ping_ms(topology::World& world, net::Ipv4Addr src, net::Ipv4Addr dst,
               net::Rng& rng, const PingConfig& config) {
  if (config.burst <= 0) throw net::InvalidArgument("ping burst must be positive");
  // The base RTT is fixed per pair; only the noise is drawn per sample.
  const double base_rtt_ms = world.rtt_base_ms(src, dst);
  double sum = 0.0;
  for (int i = 0; i < config.burst; ++i) {
    sum += world.rtt_sample_from_base_ms(base_rtt_ms, rng);
  }
  return sum / config.burst;
}

double download_ms(topology::World& world, net::Ipv4Addr client, net::Ipv4Addr replica,
                   std::uint64_t object_bytes, bool repeat_request, net::Rng& rng,
                   const DownloadModel& model) {
  const double rtt = world.rtt_sample_ms(client, replica, rng);

  // TCP handshake, then slow-start delivery rounds: cwnd doubles each RTT
  // from the initial window until the object is fully delivered.
  const double window_bytes = model.initial_cwnd_segments * model.mss_bytes;
  const double rounds =
      std::ceil(std::log2(static_cast<double>(object_bytes) / window_bytes + 1.0));
  const double transfer_ms = static_cast<double>(object_bytes) * 8.0 /
                             (model.client_bandwidth_mbps * 1000.0);

  const bool cached = repeat_request || rng.chance(model.first_request_hit_prob);
  const double server_ms =
      cached ? rng.exponential(1.0 / model.server_cached_ms_mean)
             : rng.exponential(1.0 / model.server_first_ms_mean);

  return rtt /* handshake */ + std::max(0.0, rounds) * rtt + transfer_ms + server_ms;
}

}  // namespace drongo::measure
