// Loopback integration tests for the epoll serving front end: the
// netio::EventLoop primitives, then dns::DaemonServer over real sockets —
// batched UDP round trips, the TC→TCP retry path, malformed-input
// survival, the whole-packet cache, graceful drain, the full
// cdn::PublicResolver behind the daemon, and an LdnsProxy served through it.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "cdn/authoritative.hpp"
#include "cdn/deploy.hpp"
#include "cdn/resolver.hpp"
#include "dns/daemon_server.hpp"
#include "dns/inmemory.hpp"
#include "dns/proxy.hpp"
#include "dns/tcp.hpp"
#include "dns/udp.hpp"
#include "net/error.hpp"
#include "netio/event_loop.hpp"
#include "topology/as_gen.hpp"
#include "topology/world.hpp"

namespace drongo::dns {
namespace {

// ---- netio::EventLoop primitives -------------------------------------------

TEST(EventLoopTest, PostedTaskRunsOnLoopThread) {
  netio::EventLoop loop;
  std::thread runner([&] { loop.run(); });
  std::atomic<bool> ran{false};
  loop.post([&] { ran = true; });
  while (!ran) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  loop.stop();
  runner.join();
  EXPECT_TRUE(ran);
}

TEST(EventLoopTest, TimerFiresAndCanStopTheLoop) {
  netio::EventLoop loop;
  bool fired = false;
  loop.add_timer(5, [&] {
    fired = true;
    loop.stop();
  });
  loop.run();  // returns only if the timer fired and stopped the loop
  EXPECT_TRUE(fired);
}

TEST(EventLoopTest, CancelledTimerNeverFires) {
  netio::EventLoop loop;
  bool cancelled_fired = false;
  const auto id = loop.add_timer(1, [&] { cancelled_fired = true; });
  loop.cancel_timer(id);
  loop.add_timer(20, [&] { loop.stop(); });
  loop.run();
  EXPECT_FALSE(cancelled_fired);
}

TEST(EventLoopTest, StopFromAnotherThreadUnblocksRun) {
  netio::EventLoop loop;
  std::thread stopper([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    loop.stop();
  });
  loop.run();  // must return once stop() pokes the eventfd
  stopper.join();
}

// ---- DaemonServer over real sockets ----------------------------------------

/// Answers every query with one A record and the RFC 7871 ECS echo at
/// scope /24 — enough surface to verify the full codec round trip.
class EchoServer : public DnsServer {
 public:
  Message handle(const Message& query, net::Ipv4Addr /*source*/) override {
    Message response = Message::make_response(query, Rcode::kNoError, 24);
    response.answers.push_back(
        ResourceRecord::a(query.questions[0].name, net::Ipv4Addr(21, 7, 7, 7), 30));
    return response;
  }
};

/// BigAnswerServer's shape: names starting with "big" get an answer far
/// beyond any UDP payload advertisement, forcing TC and the TCP retry.
class SometimesBigServer : public DnsServer {
 public:
  Message handle(const Message& query, net::Ipv4Addr /*source*/) override {
    Message response = Message::make_response(query, Rcode::kNoError, 24);
    const auto& name = query.questions[0].name;
    response.answers.push_back(ResourceRecord::a(name, net::Ipv4Addr(21, 1, 1, 1), 30));
    if (name.labels().front() == "big") {
      for (int i = 0; i < 40; ++i) {
        response.answers.push_back(
            ResourceRecord::txt(name, {std::string(120, static_cast<char>('a' + i % 26))}));
      }
    }
    return response;
  }
};

/// Always throws: every query becomes a handler-failure SERVFAIL.
class FailingServer : public DnsServer {
 public:
  Message handle(const Message& /*query*/, net::Ipv4Addr /*source*/) override {
    throw net::Error("backend on fire");
  }
};

Message exchange_udp(UdpSocket& socket, std::uint16_t port, const Message& query) {
  const auto wire = query.encode();
  socket.send_to(port, wire);
  std::uint16_t from = 0;
  const auto reply = socket.receive_from(from);
  if (reply.empty()) throw net::Error("daemon did not answer within the timeout");
  return Message::decode(reply);
}

TEST(DaemonServerTest, UdpRoundTripEchoesEcs) {
  EchoServer handler;
  DaemonServerConfig config;
  config.listeners = 1;
  config.enable_tcp = false;
  DaemonServer daemon(&handler, config);
  ASSERT_NE(daemon.udp_port(), 0);

  UdpSocket client(0);
  client.set_receive_timeout(2000);
  const auto query = Message::make_query(0x4242, DnsName::must_parse("img.cdn.sim"),
                                         net::Prefix::must_parse("10.1.2.0/24"));
  const auto reply = exchange_udp(client, daemon.udp_port(), query);
  EXPECT_EQ(reply.header.id, 0x4242);
  EXPECT_TRUE(reply.header.qr);
  EXPECT_EQ(reply.header.rcode, Rcode::kNoError);
  ASSERT_EQ(reply.answers.size(), 1u);
  ASSERT_TRUE(reply.edns.has_value());
  ASSERT_TRUE(reply.edns->client_subnet.has_value());
  EXPECT_EQ(reply.edns->client_subnet->scope_prefix_length, 24);

  daemon.stop();
  const auto stats = daemon.stats();
  EXPECT_EQ(stats.udp_queries, 1u);
  EXPECT_EQ(stats.udp_responses, 1u);
  EXPECT_EQ(stats.malformed, 0u);
}

TEST(DaemonServerTest, PipelinedQueriesAllAnsweredAndBatched) {
  EchoServer handler;
  DaemonServerConfig config;
  config.listeners = 1;
  config.batch = 16;
  config.enable_tcp = false;
  config.packet_cache_entries = 0;  // every query must reach the handler
  DaemonServer daemon(&handler, config);

  UdpSocket client(0);
  client.set_receive_timeout(2000);
  constexpr int kQueries = 200;
  for (int i = 0; i < kQueries; ++i) {
    const auto query =
        Message::make_query(static_cast<std::uint16_t>(i),
                            DnsName::must_parse("img.cdn.sim"),
                            net::Prefix(net::Ipv4Addr(10, 0, static_cast<std::uint8_t>(i), 0), 24));
    client.send_to(daemon.udp_port(), query.encode());
  }
  std::vector<bool> seen(kQueries, false);
  for (int i = 0; i < kQueries; ++i) {
    std::uint16_t from = 0;
    const auto wire = client.receive_from(from);
    ASSERT_FALSE(wire.empty()) << "reply " << i << " missing";
    const auto reply = Message::decode(wire);
    ASSERT_LT(reply.header.id, kQueries);
    EXPECT_FALSE(seen[reply.header.id]) << "duplicate reply " << reply.header.id;
    seen[reply.header.id] = true;
  }

  daemon.stop();
  const auto stats = daemon.stats();
  EXPECT_EQ(stats.udp_queries, static_cast<std::uint64_t>(kQueries));
  EXPECT_EQ(stats.udp_responses, static_cast<std::uint64_t>(kQueries));
  // 200 datagrams blasted before the first read must not take 200 syscalls.
  EXPECT_LT(stats.udp_batches, static_cast<std::uint64_t>(kQueries));
}

TEST(DaemonServerTest, TruncationFallsBackToTcp) {
  SometimesBigServer handler;
  DaemonServerConfig config;
  config.listeners = 1;
  config.enable_tcp = true;
  DaemonServer daemon(&handler, config);
  ASSERT_NE(daemon.tcp_port(), 0);

  UdpDnsClient udp_client(2000);
  TcpDnsClient tcp_client(2000);
  const net::Ipv4Addr virtual_server(9, 9, 9, 9);
  udp_client.register_endpoint(virtual_server, daemon.udp_port());
  tcp_client.register_endpoint(virtual_server, daemon.tcp_port());
  TruncationFallbackTransport transport(&udp_client, &tcp_client);

  // A small answer fits the advertisement and stays on UDP.
  const auto small = Message::make_query(6, DnsName::must_parse("img.cdn.sim"),
                                         net::Prefix::must_parse("10.0.0.0/24"));
  const auto small_reply = Message::decode(
      transport.exchange(net::Ipv4Addr(10, 0, 0, 1), virtual_server, small.encode()));
  EXPECT_FALSE(small_reply.header.tc);
  EXPECT_EQ(small_reply.answers.size(), 1u);
  EXPECT_EQ(transport.fallbacks(), 0u);

  const auto big = Message::make_query(7, DnsName::must_parse("big.cdn.sim"),
                                       net::Prefix::must_parse("10.0.0.0/24"));
  const auto reply = Message::decode(
      transport.exchange(net::Ipv4Addr(10, 0, 0, 1), virtual_server, big.encode()));
  EXPECT_FALSE(reply.header.tc);
  EXPECT_EQ(reply.answers.size(), 41u);
  EXPECT_EQ(transport.fallbacks(), 1u);

  daemon.stop();
  const auto stats = daemon.stats();
  EXPECT_GE(stats.truncated, 1u);
  EXPECT_EQ(stats.tcp_queries, 1u);
  EXPECT_EQ(stats.tcp_responses, 1u);
}

TEST(DaemonServerTest, MalformedDatagramDoesNotKillTheListener) {
  EchoServer handler;
  DaemonServerConfig config;
  config.listeners = 1;
  config.enable_tcp = false;
  DaemonServer daemon(&handler, config);

  UdpSocket client(0);
  client.set_receive_timeout(2000);
  const std::uint8_t junk[] = {0xDE, 0xAD, 0xBE};
  client.send_to(daemon.udp_port(), junk);

  // The listener must survive and answer the next well-formed query.
  const auto query = Message::make_query(3, DnsName::must_parse("img.cdn.sim"),
                                         net::Prefix::must_parse("10.1.2.0/24"));
  const auto reply = exchange_udp(client, daemon.udp_port(), query);
  EXPECT_EQ(reply.header.id, 3);

  daemon.stop();
  EXPECT_GE(daemon.stats().malformed, 1u);
}

TEST(DaemonServerTest, HandlerFailureBecomesServfailAndIsNeverCached) {
  FailingServer handler;
  DaemonServerConfig config;
  config.listeners = 1;
  config.enable_tcp = false;
  config.packet_cache_entries = 1024;
  DaemonServer daemon(&handler, config);

  UdpSocket client(0);
  client.set_receive_timeout(2000);
  const auto query = Message::make_query(11, DnsName::must_parse("img.cdn.sim"),
                                         net::Prefix::must_parse("10.1.2.0/24"));
  for (int i = 0; i < 2; ++i) {
    const auto reply = exchange_udp(client, daemon.udp_port(), query);
    EXPECT_EQ(reply.header.rcode, Rcode::kServFail);
  }

  daemon.stop();
  const auto stats = daemon.stats();
  EXPECT_EQ(stats.handler_failures, 2u);
  // SERVFAIL must re-consult the handler every time: no hits, two misses.
  EXPECT_EQ(stats.pcache_hits, 0u);
  EXPECT_EQ(stats.pcache_misses, 2u);
}

TEST(DaemonServerTest, PacketCacheHitPatchesTheId) {
  EchoServer handler;
  DaemonServerConfig config;
  config.listeners = 1;
  config.enable_tcp = false;
  config.packet_cache_entries = 1024;
  config.packet_cache_ttl_ms = 60'000;
  DaemonServer daemon(&handler, config);

  UdpSocket client(0);
  client.set_receive_timeout(2000);
  // Same question, different ids: the second answer must come from the
  // packet cache byte-for-byte, with only the id patched.
  const auto first = exchange_udp(
      client, daemon.udp_port(),
      Message::make_query(100, DnsName::must_parse("img.cdn.sim"),
                          net::Prefix::must_parse("10.1.2.0/24")));
  const auto second = exchange_udp(
      client, daemon.udp_port(),
      Message::make_query(200, DnsName::must_parse("img.cdn.sim"),
                          net::Prefix::must_parse("10.1.2.0/24")));
  EXPECT_EQ(first.header.id, 100);
  EXPECT_EQ(second.header.id, 200);
  ASSERT_EQ(second.answers.size(), 1u);
  EXPECT_EQ(first.to_string().substr(first.to_string().find('\n')),
            second.to_string().substr(second.to_string().find('\n')));

  daemon.stop();
  const auto stats = daemon.stats();
  EXPECT_EQ(stats.pcache_hits, 1u);
  EXPECT_EQ(stats.pcache_misses, 1u);
}

TEST(DaemonServerTest, PacketCacheExpiresByTtl) {
  EchoServer handler;
  DaemonServerConfig config;
  config.listeners = 1;
  config.enable_tcp = false;
  config.packet_cache_entries = 1024;
  config.packet_cache_ttl_ms = 30;
  DaemonServer daemon(&handler, config);

  UdpSocket client(0);
  client.set_receive_timeout(2000);
  const auto query = Message::make_query(1, DnsName::must_parse("img.cdn.sim"),
                                         net::Prefix::must_parse("10.1.2.0/24"));
  exchange_udp(client, daemon.udp_port(), query);
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  exchange_udp(client, daemon.udp_port(), query);

  daemon.stop();
  const auto stats = daemon.stats();
  EXPECT_EQ(stats.pcache_hits, 0u);
  EXPECT_EQ(stats.pcache_misses, 2u);
}

TEST(DaemonServerTest, PacketCacheDisabledNeverCounts) {
  EchoServer handler;
  DaemonServerConfig config;
  config.listeners = 1;
  config.enable_tcp = false;
  config.packet_cache_entries = 0;
  DaemonServer daemon(&handler, config);

  UdpSocket client(0);
  client.set_receive_timeout(2000);
  const auto query = Message::make_query(1, DnsName::must_parse("img.cdn.sim"),
                                         net::Prefix::must_parse("10.1.2.0/24"));
  exchange_udp(client, daemon.udp_port(), query);
  exchange_udp(client, daemon.udp_port(), query);

  daemon.stop();
  const auto stats = daemon.stats();
  EXPECT_EQ(stats.pcache_hits, 0u);
  EXPECT_EQ(stats.pcache_misses, 0u);
}

TEST(DaemonServerTest, DrainAnswersEverythingAlreadyQueued) {
  EchoServer handler;
  DaemonServerConfig config;
  config.listeners = 1;
  config.enable_tcp = false;
  DaemonServer daemon(&handler, config);

  UdpSocket client(0);
  client.set_receive_timeout(2000);
  constexpr int kQueries = 50;
  for (int i = 0; i < kQueries; ++i) {
    const auto query = Message::make_query(static_cast<std::uint16_t>(i),
                                           DnsName::must_parse("img.cdn.sim"),
                                           net::Prefix::must_parse("10.1.2.0/24"));
    // Loopback send_to is synchronous: once it returns, the datagram sits
    // in the daemon's socket buffer, so drain must answer it.
    client.send_to(daemon.udp_port(), query.encode());
  }
  daemon.begin_drain();
  int answered = 0;
  for (int i = 0; i < kQueries; ++i) {
    std::uint16_t from = 0;
    if (!client.receive_from(from).empty()) ++answered;
  }
  EXPECT_EQ(answered, kQueries);
  daemon.stop();
  EXPECT_EQ(daemon.served(), static_cast<std::uint64_t>(kQueries));
}

TEST(DaemonServerTest, MultipleListenersShareThePort) {
  EchoServer handler;
  DaemonServerConfig config;
  config.listeners = 3;
  config.enable_tcp = false;
  config.packet_cache_entries = 0;
  DaemonServer daemon(&handler, config);

  // Distinct client sockets hash to different listeners kernel-side; every
  // flow must get its answers regardless of which listener it lands on.
  constexpr int kClients = 8;
  std::vector<UdpSocket> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back(0);
    clients.back().set_receive_timeout(2000);
  }
  for (int c = 0; c < kClients; ++c) {
    const auto query = Message::make_query(static_cast<std::uint16_t>(c),
                                           DnsName::must_parse("img.cdn.sim"),
                                           net::Prefix::must_parse("10.1.2.0/24"));
    clients[c].send_to(daemon.udp_port(), query.encode());
  }
  for (int c = 0; c < kClients; ++c) {
    std::uint16_t from = 0;
    const auto wire = clients[c].receive_from(from);
    ASSERT_FALSE(wire.empty()) << "client " << c << " unanswered";
    EXPECT_EQ(Message::decode(wire).header.id, c);
  }
  daemon.stop();
  EXPECT_EQ(daemon.stats().udp_queries, static_cast<std::uint64_t>(kClients));
}

// ---- The full serving stack behind the daemon ------------------------------

/// A miniature CDN world: seeded AS graph, google_like deployment, and a
/// PublicResolver with the sharded cache + coalescing — the daemon bench's
/// backend, shrunk to test size.
struct MiniWorld {
  MiniWorld() {
    topology::AsGenConfig as_config;
    as_config.tier1_count = 2;
    as_config.tier2_count = 4;
    as_config.stub_count = 10;
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
    const auto resolver_addr = world->add_host(t1, topology::HostKind::kServer, 0);
    cdn::ServingConfig serving;
    serving.enable_cache = true;
    serving.shards = 4;
    serving.coalesce = true;
    resolver = std::make_unique<cdn::PublicResolver>(&network, resolver_addr, serving);
    resolver->register_zone(dns::DnsName::must_parse(provider->profile().zone),
                            auth_addr);
    resolver->set_time_ms(0);  // frozen before any socket traffic
  }

  std::unique_ptr<topology::World> world;
  std::unique_ptr<cdn::CdnProvider> provider;
  std::unique_ptr<cdn::CdnAuthoritative> auth;
  dns::InMemoryDnsNetwork network;
  std::unique_ptr<cdn::PublicResolver> resolver;
};

TEST(DaemonServerTest, PublicResolverServesEcsTailoredAnswersOverSockets) {
  MiniWorld env;
  DaemonServerConfig config;
  config.listeners = 1;
  config.enable_tcp = false;
  DaemonServer daemon(env.resolver.get(), config);

  UdpSocket client(0);
  client.set_receive_timeout(5000);
  const auto names = env.auth->content_names();
  ASSERT_FALSE(names.empty());
  std::uint16_t id = 1;
  for (const auto& name : names) {
    const auto query = Message::make_query(
        id, name, net::Prefix(net::Ipv4Addr(20, 0, static_cast<std::uint8_t>(id), 0), 24));
    const auto reply = exchange_udp(client, daemon.udp_port(), query);
    EXPECT_EQ(reply.header.id, id);
    EXPECT_EQ(reply.header.rcode, Rcode::kNoError);
    EXPECT_FALSE(reply.answers.empty()) << name.to_string();
    ASSERT_TRUE(reply.edns.has_value());
    EXPECT_TRUE(reply.edns->client_subnet.has_value());
    ++id;
  }
  daemon.stop();
}

/// Assimilates every query into one fixed subnet.
class AlwaysAssimilate : public SubnetSelector {
 public:
  std::optional<net::Prefix> select_subnet(const DnsName& /*domain*/,
                                           const net::Prefix& /*client*/) override {
    return net::Prefix::must_parse("20.99.5.0/24");
  }
};

TEST(DaemonServerTest, ProxyCountersAreReadableWhileServing) {
  // The listener thread bumps the proxy's counters while this thread reads
  // them: under TSan, plain integers there are a reported data race.
  EchoServer upstream;
  InMemoryDnsNetwork network;
  const net::Ipv4Addr upstream_addr(20, 0, 0, 53);
  network.register_server(upstream_addr, &upstream);
  AlwaysAssimilate selector;
  LdnsProxy proxy(&network, upstream_addr, net::Ipv4Addr(127, 0, 0, 53), &selector);
  DaemonServerConfig config;
  config.enable_tcp = false;
  config.packet_cache_entries = 0;  // every query must reach the proxy
  DaemonServer daemon(&proxy, config);

  constexpr std::uint64_t kQueries = 20;
  std::atomic<bool> done{false};
  std::thread client([&] {
    UdpSocket socket(0);
    socket.set_receive_timeout(2000);
    try {
      for (std::uint64_t i = 0; i < kQueries; ++i) {
        const auto query = Message::make_query(
            static_cast<std::uint16_t>(i + 1), DnsName::must_parse("img.cdn.sim"),
            net::Prefix::must_parse("10.1.2.0/24"));
        (void)exchange_udp(socket, daemon.udp_port(), query);
      }
    } catch (const net::Error&) {
      // A lost answer shows up as a short count below.
    }
    done = true;
  });
  std::uint64_t last_seen = 0;
  while (!done) {
    const std::uint64_t forwarded = proxy.forwarded();
    EXPECT_GE(forwarded, last_seen);  // a counter never runs backwards
    EXPECT_LE(proxy.assimilated(), kQueries);
    last_seen = forwarded;
    std::this_thread::yield();
  }
  client.join();
  daemon.stop();
  EXPECT_EQ(proxy.forwarded(), kQueries);
  EXPECT_EQ(proxy.assimilated(), kQueries);
  EXPECT_EQ(proxy.upstream_failures(), 0u);
}

}  // namespace
}  // namespace drongo::dns
