// Daemon serving bench: what does the epoll + recvmmsg/sendmmsg front end
// buy over the naive one-datagram-per-syscall UDP server?
//
// Both arms serve the SAME workload from the SAME resolver configuration
// (sharded cache on, coalescing on, frozen serving time) over real loopback
// sockets, driven by a pipelined load generator that keeps a window of
// queries outstanding and itself batches syscalls (the client must not
// steal the server's core with per-datagram overhead). The window is split
// over one client flow per listener, each with its own socket and thread,
// so SO_REUSEPORT spreads the load and the client does not cap arm B:
//
//   arm A  serve_naive()        blocking thread, one recvfrom/sendto pair
//                               and a fresh 64 KB buffer per datagram
//   arm B  dns::DaemonServer    event loop, SO_REUSEPORT listeners,
//                               recvmmsg/sendmmsg batches, reused buffers
//
// The arms alternate over kRounds rounds (A then B, then B then A, ...), so
// CPU that something else on the host takes lands on both arms rather than
// on one sample of one of them. The bench FAILS (exit 1) when the median
// round's arm B falls below DRONGO_DAEMON_MIN_QPS (default 50k) or the
// median per-round speedup of B over A falls below DRONGO_DAEMON_MIN_SPEEDUP
// (default 2x) — the gate that keeps the front end honest. Every round is
// printed; the medians (and arm B's median per-round p50/p99 latency over
// every response) land in BENCH_daemon.json.
#include <netinet/in.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "analysis/render.hpp"
#include "cdn/authoritative.hpp"
#include "cdn/deploy.hpp"
#include "cdn/resolver.hpp"
#include "dns/daemon_server.hpp"
#include "dns/inmemory.hpp"
#include "dns/tcp.hpp"
#include "dns/udp.hpp"
#include "net/clock.hpp"
#include "net/error.hpp"
#include "netio/socket.hpp"
#include "obs/bench_report.hpp"
#include "topology/as_gen.hpp"
#include "topology/world.hpp"

using namespace drongo;

namespace {

// ---- Environment knobs (fail loudly; see the README knob table) -----------

long parse_env_long(const char* name, const char* value, long fallback, long min_value) {
  if (value == nullptr || *value == '\0') return fallback;
  char* end = nullptr;
  const long parsed = std::strtol(value, &end, 10);
  if (end == value || *end != '\0' || parsed < min_value) {
    throw net::InvalidArgument(std::string(name) + " must be an integer >= " +
                               std::to_string(min_value) + ", got '" + value + "'");
  }
  return parsed;
}

double parse_env_double(const char* name, const char* value, double fallback) {
  if (value == nullptr || *value == '\0') return fallback;
  char* end = nullptr;
  const double parsed = std::strtod(value, &end);
  if (end == value || *end != '\0' || parsed < 0.0) {
    throw net::InvalidArgument(std::string(name) + " must be a number >= 0, got '" +
                               value + "'");
  }
  return parsed;
}

double parse_min_qps() {
  return parse_env_double("DRONGO_DAEMON_MIN_QPS",
                          std::getenv("DRONGO_DAEMON_MIN_QPS"), 50'000.0);
}

double parse_min_speedup() {
  return parse_env_double("DRONGO_DAEMON_MIN_SPEEDUP",
                          std::getenv("DRONGO_DAEMON_MIN_SPEEDUP"), 2.0);
}

std::size_t parse_daemon_listeners() {
  const long v = parse_env_long("DRONGO_DAEMON_LISTENERS",
                                std::getenv("DRONGO_DAEMON_LISTENERS"), 0, 0);
  if (v > 0) return static_cast<std::size_t>(v);
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

std::size_t parse_daemon_batch() {
  return static_cast<std::size_t>(parse_env_long(
      "DRONGO_DAEMON_BATCH", std::getenv("DRONGO_DAEMON_BATCH"), 64, 1));
}

double parse_bench_seconds() {
  return parse_env_double("DRONGO_DAEMON_BENCH_SECONDS",
                          std::getenv("DRONGO_DAEMON_BENCH_SECONDS"), 0.6);
}

std::size_t parse_window() {
  return static_cast<std::size_t>(parse_env_long(
      "DRONGO_DAEMON_WINDOW", std::getenv("DRONGO_DAEMON_WINDOW"), 128, 1));
}

// ---- World (mirrors bench_serving) ----------------------------------------

struct World {
  World() {
    topology::AsGenConfig as_config;
    as_config.tier1_count = 4;
    as_config.tier2_count = 8;
    as_config.stub_count = 30;
    as_config.seed = 2026;
    auto graph = topology::generate_as_graph(as_config);
    net::Rng rng(2027);
    const auto plan = cdn::plan_cdn(graph, cdn::google_like(), rng);
    world = std::make_unique<topology::World>(std::move(graph));
    provider = std::make_unique<cdn::CdnProvider>(cdn::deploy_cdn(*world, plan));
    auth = std::make_unique<cdn::CdnAuthoritative>(provider.get());
    const auto auth_addr =
        world->add_host(provider->as_index(), topology::HostKind::kServer, 0);
    network.register_server(auth_addr, auth.get());

    std::size_t t1 = 0;
    for (std::size_t v = 0; v < world->graph().node_count(); ++v) {
      if (world->graph().node(v).tier == topology::AsTier::kTier1) {
        t1 = v;
        break;
      }
    }
    resolver_addr = world->add_host(t1, topology::HostKind::kServer, 0);
    auth_address = auth_addr;
    for (std::size_t v = 0; v < world->graph().node_count(); ++v) {
      if (world->graph().node(v).tier == topology::AsTier::kStub) {
        client = world->add_host(v, topology::HostKind::kClient);
        break;
      }
    }
  }

  std::unique_ptr<cdn::PublicResolver> make_resolver() {
    cdn::ServingConfig serving;
    serving.enable_cache = true;
    serving.shards = 8;
    serving.coalesce = true;
    auto resolver =
        std::make_unique<cdn::PublicResolver>(&network, resolver_addr, serving);
    resolver->register_zone(dns::DnsName::must_parse(provider->profile().zone),
                            auth_address);
    // Serving time is frozen before any socket traffic: set_time_ms is
    // setup-phase only and must never race concurrent handle() calls.
    resolver->set_time_ms(0);
    return resolver;
  }

  std::unique_ptr<topology::World> world;
  std::unique_ptr<cdn::CdnProvider> provider;
  std::unique_ptr<cdn::CdnAuthoritative> auth;
  dns::InMemoryDnsNetwork network;
  net::Ipv4Addr auth_address;
  net::Ipv4Addr resolver_addr;
  net::Ipv4Addr client;
};

// ---- Arm A: the naive reference server ------------------------------------

/// Serves `handler` on `socket` until `stop` is set, one datagram per
/// syscall: a blocking recvfrom into a fresh 64 KB buffer, then decode,
/// handle, truncate to the client's payload, encode and sendto. The socket's
/// receive timeout is the tick at which `stop` is checked. Undecodable
/// datagrams and handler failures are dropped, as a UDP server would.
void serve_naive(dns::DnsServer& handler, dns::UdpSocket& socket,
                 const std::atomic<bool>& stop) {
  const net::Ipv4Addr identity(127, 0, 0, 1);
  while (!stop.load()) {
    std::uint16_t peer_port = 0;
    const std::vector<std::uint8_t> datagram = socket.receive_from(peer_port);
    if (datagram.empty()) continue;  // timeout tick
    try {
      const dns::Message query = dns::Message::decode(datagram);
      dns::Message reply = handler.handle(query, identity);
      dns::truncate_to_fit(reply, dns::max_udp_payload(query));
      socket.send_to(peer_port, reply.encode());
    } catch (const net::Error&) {
    }
  }
}

// ---- Load generator -------------------------------------------------------

struct LoadResult {
  std::uint64_t responses = 0;
  double seconds = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
};

double percentile(std::vector<double>& sorted_samples, double q) {
  if (sorted_samples.empty()) return 0.0;
  const double rank = q * static_cast<double>(sorted_samples.size() - 1);
  const std::size_t index = static_cast<std::size_t>(rank);
  return sorted_samples[std::min(index, sorted_samples.size() - 1)];
}

/// What one client flow measured.
struct FlowResult {
  std::uint64_t responses = 0;
  double seconds = 0.0;
  std::vector<double> samples;  // per-response latency, ms
};

/// One client flow: keeps window slots [first, first + slots) outstanding
/// against 127.0.0.1:`port` for `duration` seconds over its own socket.
/// Each slot owns one pre-encoded query (its DNS id IS the slot's index in
/// this flow, so a response maps back without decoding); every response
/// immediately re-arms its slot. Client syscalls are batched with the same
/// UdpBatch machinery the daemon uses — on a shared core the client's own
/// syscall count is part of the measurement budget.
FlowResult run_flow(World& env, std::uint16_t port, double duration, std::size_t first,
                    std::size_t slots, std::size_t batch) {
  dns::UdpSocket socket(0);  // blocking: the client parks while the server runs
  socket.set_receive_timeout(50);
  netio::UdpBatch io(batch, 4096);

  sockaddr_in dest{};
  dest.sin_family = AF_INET;
  dest.sin_port = htons(port);
  dest.sin_addr.s_addr = htonl(INADDR_LOOPBACK);

  const auto names = env.auth->content_names();
  std::vector<std::vector<std::uint8_t>> queries;
  queries.reserve(slots);
  for (std::size_t slot = 0; slot < slots; ++slot) {
    const std::size_t global = first + slot;
    const auto& name = names[global % names.size()];
    // A distinct /24 per slot spreads cache entries across scopes/shards.
    const net::Prefix subnet(
        net::Ipv4Addr(20, static_cast<std::uint8_t>(global >> 8),
                      static_cast<std::uint8_t>(global & 0xFF), 0),
        24);
    queries.push_back(
        dns::Message::make_query(static_cast<std::uint16_t>(slot), name, subnet)
            .encode());
  }

  std::vector<double> sent_at(slots, -1.0);
  FlowResult result;
  result.samples.reserve(1u << 18);

  const net::Stopwatch watch;
  auto stage_slot = [&](std::size_t slot, double now) {
    if (io.staged() == io.batch_size()) io.flush(socket.fd());
    io.stage(dest, queries[slot]);
    sent_at[slot] = now;
  };
  for (std::size_t slot = 0; slot < slots; ++slot) stage_slot(slot, watch.seconds());
  io.flush(socket.fd());

  while (true) {
    const std::size_t count = io.receive(socket.fd(), /*wait_for_one=*/true);
    const double now = watch.seconds();
    if (now >= duration) break;
    if (count == 0) {
      // Timeout tick: re-arm slots whose query or response was dropped.
      for (std::size_t slot = 0; slot < slots; ++slot) {
        if (now - sent_at[slot] > 0.25) stage_slot(slot, now);
      }
      io.flush(socket.fd());
      continue;
    }
    for (std::size_t i = 0; i < count; ++i) {
      const auto payload = io.payload(i);
      if (payload.size() < 2) continue;
      const std::size_t slot =
          (static_cast<std::size_t>(payload[0]) << 8) | payload[1];
      if (slot >= slots || sent_at[slot] < 0.0) continue;
      result.samples.push_back((now - sent_at[slot]) * 1000.0);
      ++result.responses;
      stage_slot(slot, now);
    }
    io.flush(socket.fd());
  }
  result.seconds = watch.seconds();
  return result;
}

/// Keeps `window` queries outstanding against 127.0.0.1:`port` for
/// `duration` seconds, split over `flows` client flows, each its own socket
/// and thread. Distinct source ports are what let SO_REUSEPORT spread the
/// load over the daemon's listeners (one flow always lands on one
/// listener), and one generator thread per flow keeps the client from
/// capping the measurement: a single generator thread saturates its core
/// while one daemon listener idles.
LoadResult run_load(World& env, std::uint16_t port, double duration, std::size_t window,
                    std::size_t batch, std::size_t flows) {
  flows = std::clamp<std::size_t>(flows, 1, window);
  std::vector<FlowResult> results(flows);
  std::vector<std::exception_ptr> errors(flows);
  std::vector<std::thread> threads;
  for (std::size_t f = 0; f < flows; ++f) {
    const std::size_t first = window * f / flows;
    const std::size_t slots = window * (f + 1) / flows - first;
    threads.emplace_back([&, f, first, slots] {
      try {
        results[f] = run_flow(env, port, duration, first, slots, batch);
      } catch (...) {
        errors[f] = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (const auto& error : errors) {
    if (error) std::rethrow_exception(error);
  }

  LoadResult result;
  std::vector<double> samples;
  for (auto& flow : results) {
    result.responses += flow.responses;
    result.seconds = std::max(result.seconds, flow.seconds);
    samples.insert(samples.end(), flow.samples.begin(), flow.samples.end());
  }
  std::sort(samples.begin(), samples.end());
  result.p50_ms = percentile(samples, 0.50);
  result.p99_ms = percentile(samples, 0.99);
  return result;
}

/// Rounds of the naive and daemon arms, alternating which goes first.
constexpr int kRounds = 3;

double qps_of(const LoadResult& load) {
  return static_cast<double>(load.responses) / std::max(load.seconds, 1e-9);
}

double median_of(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];  // kRounds is odd
}

}  // namespace

int main() {
  const double min_qps = parse_min_qps();
  const double min_speedup = parse_min_speedup();
  const std::size_t listeners = parse_daemon_listeners();
  const std::size_t batch = parse_daemon_batch();
  const double duration = parse_bench_seconds();
  const std::size_t kWindow = parse_window();

  World env;
  std::cout << "Daemon bench: " << listeners << " listener(s), batch " << batch << ", "
            << kRounds << " rounds of " << duration << "s per arm, window " << kWindow
            << "...\n\n";

  // Arm A: the naive blocking single-listener server.
  const auto run_naive = [&] {
    auto resolver = env.make_resolver();
    dns::UdpSocket socket(0);
    socket.set_receive_timeout(50);
    std::atomic<bool> stop{false};
    std::thread server([&] { serve_naive(*resolver, socket, stop); });
    const LoadResult load = run_load(env, socket.port(), duration, kWindow, batch, listeners);
    stop = true;
    server.join();
    return load;
  };

  // Arm B: the event-loop daemon, full configuration (packet cache on).
  dns::DaemonStats daemon_stats;
  const auto run_daemon = [&] {
    auto resolver = env.make_resolver();
    dns::DaemonServerConfig config;
    config.listeners = listeners;
    config.batch = batch;
    config.pin_threads = listeners > 1;
    config.enable_tcp = false;  // pure UDP throughput arm
    dns::DaemonServer server(resolver.get(), config);
    const LoadResult load = run_load(env, server.udp_port(), duration, kWindow, batch, listeners);
    server.stop();
    const dns::DaemonStats stats = server.stats();
    daemon_stats.pcache_hits += stats.pcache_hits;
    daemon_stats.pcache_misses += stats.pcache_misses;
    daemon_stats.udp_queries += stats.udp_queries;
    daemon_stats.udp_batches += stats.udp_batches;
    return load;
  };

  std::vector<double> naive_qps;
  std::vector<double> daemon_qps;
  std::vector<double> speedups;
  std::vector<double> p50s;
  std::vector<double> p99s;
  std::uint64_t daemon_responses = 0;
  double daemon_seconds = 0.0;
  for (int round = 0; round < kRounds; ++round) {
    LoadResult naive;
    LoadResult daemon;
    if (round % 2 == 0) {
      naive = run_naive();
      daemon = run_daemon();
    } else {
      daemon = run_daemon();
      naive = run_naive();
    }
    naive_qps.push_back(qps_of(naive));
    daemon_qps.push_back(qps_of(daemon));
    speedups.push_back(daemon_qps.back() / std::max(naive_qps.back(), 1e-9));
    p50s.push_back(daemon.p50_ms);
    p99s.push_back(daemon.p99_ms);
    daemon_responses += daemon.responses;
    daemon_seconds += daemon.seconds;
    std::cout << "round " << round + 1 << ": naive " << analysis::fmt(naive_qps.back(), 0)
              << " QPS, daemon " << analysis::fmt(daemon_qps.back(), 0) << " QPS, speedup "
              << analysis::fmt(speedups.back(), 2) << "x\n";
  }
  std::cout << "\n";

  // Arm B': daemon with the packet cache off — informational, isolating
  // what batching + the event loop buy before the cache kicks in.
  LoadResult no_pcache;
  {
    auto resolver = env.make_resolver();
    dns::DaemonServerConfig config;
    config.listeners = listeners;
    config.batch = batch;
    config.pin_threads = listeners > 1;
    config.enable_tcp = false;
    config.packet_cache_entries = 0;
    dns::DaemonServer server(resolver.get(), config);
    no_pcache = run_load(env, server.udp_port(), duration * 0.5, kWindow, batch, listeners);
    server.stop();
  }

  const double qps_naive = median_of(naive_qps);
  const double qps_daemon = median_of(daemon_qps);
  const double qps_no_pcache = qps_of(no_pcache);
  const double speedup = median_of(speedups);
  const std::uint64_t pcache_lookups =
      daemon_stats.pcache_hits + daemon_stats.pcache_misses;
  const double pcache_hit_rate =
      pcache_lookups == 0 ? 0.0
                          : static_cast<double>(daemon_stats.pcache_hits) /
                                static_cast<double>(pcache_lookups);
  const double batch_fill =
      daemon_stats.udp_batches == 0
          ? 0.0
          : static_cast<double>(daemon_stats.udp_queries) /
                static_cast<double>(daemon_stats.udp_batches);

  std::vector<std::vector<std::string>> cells;
  cells.push_back({"naive QPS (one datagram per syscall), median round",
                   analysis::fmt(qps_naive, 0)});
  cells.push_back({"daemon QPS, median round", analysis::fmt(qps_daemon, 0)});
  cells.push_back({"daemon QPS (packet cache off)", analysis::fmt(qps_no_pcache, 0)});
  cells.push_back({"packet cache hit rate", analysis::fmt(pcache_hit_rate, 3)});
  cells.push_back({"speedup, median round", analysis::fmt(speedup, 2) + "x (need >= " +
                                                 analysis::fmt(min_speedup, 2) + "x)"});
  cells.push_back({"daemon p50 latency (ms), median round", analysis::fmt(median_of(p50s), 3)});
  cells.push_back({"daemon p99 latency (ms), median round", analysis::fmt(median_of(p99s), 3)});
  cells.push_back({"recvmmsg batch fill", analysis::fmt(batch_fill, 1)});
  std::cout << analysis::render_table("Daemon serving", {"Metric", "Value"}, cells);

  obs::BenchReport report("daemon");
  report.set_number("qps", qps_daemon);
  report.set_number("qps_naive", qps_naive);
  report.set_number("speedup", speedup);
  report.set_number("p50_ms", median_of(p50s));
  report.set_number("p99_ms", median_of(p99s));
  report.set_integer("listeners", static_cast<std::int64_t>(listeners));
  report.set_integer("batch", static_cast<std::int64_t>(batch));
  report.set_integer("rounds", kRounds);
  report.set_integer("queries", static_cast<std::int64_t>(daemon_responses));
  report.set_number("duration_seconds", daemon_seconds);
  report.set_number("qps_packet_cache_off", qps_no_pcache);
  report.set_number("packet_cache_hit_rate", pcache_hit_rate);
  report.set_number("batch_fill", batch_fill);
  report.set_integer("udp_batches", static_cast<std::int64_t>(daemon_stats.udp_batches));
  report.set_number("min_qps", min_qps);
  report.set_number("min_speedup", min_speedup);
  const std::string out = report.default_path();
  report.write_file(out);
  std::cout << "\nwrote " << out << "\n";

  bool failed = false;
  if (qps_daemon < min_qps) {
    std::cout << "FAIL: daemon sustained only " << analysis::fmt(qps_daemon, 0)
              << " QPS in the median round (< " << analysis::fmt(min_qps, 0) << ")\n";
    failed = true;
  }
  if (speedup < min_speedup) {
    std::cout << "FAIL: daemon is only " << analysis::fmt(speedup, 2)
              << "x the naive arm in the median round (< " << analysis::fmt(min_speedup, 2)
              << "x)\n";
    failed = true;
  }
  return failed ? 1 : 0;
}
