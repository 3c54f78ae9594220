// Dual-stack end-to-end: family-2 ECS through the full serving resolver
// (announce, tailor, scope-cache), foreign-family queries served but never
// cached, the §3.1 hop filter on v6 routes, the daemon's AF_INET6
// dual-stack listener over real loopback sockets, and serial-vs-threaded
// byte-identity of the family-2 campaign.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <memory>
#include <vector>

#include "analysis/evaluation.hpp"
#include "cdn/authoritative.hpp"
#include "cdn/deploy.hpp"
#include "cdn/resolver.hpp"
#include "dns/daemon_server.hpp"
#include "dns/inmemory.hpp"
#include "dns/stub_resolver.hpp"
#include "dns/udp.hpp"
#include "measure/hop_filter.hpp"
#include "measure/testbed.hpp"
#include "net/ipaddr.hpp"
#include "obs/metrics.hpp"
#include "topology/as_gen.hpp"
#include "topology/world.hpp"

namespace drongo {
namespace {

// ---- Serving resolver on family-2 and foreign-family ECS -------------------

class DualStackServingFixture : public ::testing::Test {
 protected:
  DualStackServingFixture() {
    topology::AsGenConfig as_config;
    as_config.tier1_count = 4;
    as_config.tier2_count = 8;
    as_config.stub_count = 30;
    as_config.seed = 331;
    auto graph = topology::generate_as_graph(as_config);
    net::Rng rng(332);
    plan_ = cdn::plan_cdn(graph, cdn::google_like(), rng);
    world_ = std::make_unique<topology::World>(std::move(graph));
    provider_ = std::make_unique<cdn::CdnProvider>(cdn::deploy_cdn(*world_, plan_));
    auth_ = std::make_unique<cdn::CdnAuthoritative>(provider_.get());
    auth_addr_ = world_->add_host(provider_->as_index(), topology::HostKind::kServer, 0);
    network_.register_server(auth_addr_, auth_.get());

    std::size_t t1 = 0;
    for (std::size_t v = 0; v < world_->graph().node_count(); ++v) {
      if (world_->graph().node(v).tier == topology::AsTier::kTier1) {
        t1 = v;
        break;
      }
    }
    resolver_addr_ = world_->add_host(t1, topology::HostKind::kServer, 0);
    for (std::size_t v = 0; v < world_->graph().node_count(); ++v) {
      if (world_->graph().node(v).tier == topology::AsTier::kStub) {
        client_ = world_->add_host(v, topology::HostKind::kClient);
        break;
      }
    }

    cdn::ServingConfig serving;
    serving.enable_cache = true;
    serving.shards = 4;
    resolver_ = std::make_unique<cdn::PublicResolver>(&network_, resolver_addr_, serving);
    resolver_->register_zone(dns::DnsName::must_parse(provider_->profile().zone),
                             auth_addr_);
    network_.register_server(resolver_addr_, resolver_.get());
    resolver_->set_time_ms(0);
  }

  dns::DnsName content_name() const {
    return dns::DnsName::must_parse("img." + provider_->profile().zone);
  }

  cdn::CdnPlan plan_;
  std::unique_ptr<topology::World> world_;
  std::unique_ptr<cdn::CdnProvider> provider_;
  std::unique_ptr<cdn::CdnAuthoritative> auth_;
  dns::InMemoryDnsNetwork network_;
  std::unique_ptr<cdn::PublicResolver> resolver_;
  net::Ipv4Addr auth_addr_;
  net::Ipv4Addr resolver_addr_;
  net::Ipv4Addr client_;
};

TEST_F(DualStackServingFixture, Family2AnnouncementTailorsLikeFamily1) {
  // The same client resolving the same name in both wire families must get
  // the same front address: /56 embeds the v4 /24 exactly. Both stubs share
  // one seed so their first queries carry the same id — replica rotation is
  // id-seeded, and only the announcement family may differ between the arms.
  dns::StubResolver v4_stub(&network_, client_, resolver_addr_, 5);
  const auto v4_result = v4_stub.resolve_with_own_subnet(content_name());
  ASSERT_TRUE(v4_result.ok());
  ASSERT_TRUE(v4_result.ecs_scope.has_value());
  EXPECT_EQ(v4_result.ecs_scope->family(), net::IpFamily::kV4);

  dns::StubResolver v6_stub(&network_, client_, resolver_addr_, 5);
  v6_stub.set_ecs_family({.family = 2});
  const auto v6_result = v6_stub.resolve_with_own_subnet(content_name());
  ASSERT_TRUE(v6_result.ok());
  EXPECT_EQ(v6_result.addresses.front(), v4_result.addresses.front());
  // The reply scope comes back in the announced family, shifted into the
  // embedding (v4 granularity + 32).
  ASSERT_TRUE(v6_result.ecs_scope.has_value());
  EXPECT_EQ(v6_result.ecs_scope->family(), net::IpFamily::kV6);
  EXPECT_EQ(v6_result.ecs_scope->length(),
            v4_result.ecs_scope->length() + 32);
}

TEST_F(DualStackServingFixture, Family2AnswersAreScopeCachedPerFamily) {
  dns::StubResolver stub(&network_, client_, resolver_addr_, 7);
  stub.set_ecs_family({.family = 2});

  ASSERT_TRUE(stub.resolve_with_own_subnet(content_name()).ok());
  const auto after_first = resolver_->upstream_queries();
  EXPECT_GE(after_first, 1u);

  // Same v6 announcement again: answered from the v6-scoped cache entry.
  ASSERT_TRUE(stub.resolve_with_own_subnet(content_name()).ok());
  EXPECT_EQ(resolver_->upstream_queries(), after_first);

  // The equivalent family-1 announcement is a DIFFERENT-family subnet: the
  // v6 scope must not serve it (structural family separation), so the
  // resolver goes upstream again.
  dns::StubResolver v4_stub(&network_, client_, resolver_addr_, 8);
  ASSERT_TRUE(v4_stub.resolve_with_own_subnet(content_name()).ok());
  EXPECT_GT(resolver_->upstream_queries(), after_first);
}

TEST_F(DualStackServingFixture, CoarseFamily2AnnouncementWidensTheSubnet) {
  // /48 collapses the embedded /24 to a /16 — the answer is tailored to the
  // wider subnet, and the reply scope echoes at most what was announced.
  dns::StubResolver stub(&network_, client_, resolver_addr_, 9);
  stub.set_ecs_family({.family = 2, .v6_source_length = 48});
  const auto result = stub.resolve_with_own_subnet(content_name());
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result.ecs_scope.has_value());
  EXPECT_EQ(result.ecs_scope->family(), net::IpFamily::kV6);
  EXPECT_LE(result.ecs_scope->length(), 48);
}

TEST_F(DualStackServingFixture, ForeignFamilyEcsIsServedButNeverCached) {
  obs::Registry registry;
  resolver_->set_registry(&registry);

  dns::ClientSubnet foreign;
  foreign.family = 3;  // neither IPv4 nor IPv6: opaque on the wire
  foreign.source_prefix_length = 16;
  foreign.scope_prefix_length = 0;
  foreign.opaque_address = {0x20, 0x01};
  auto query = dns::Message::make_query(404, content_name());
  query.set_client_subnet(foreign);

  const auto first = resolver_->handle(query, client_);
  EXPECT_EQ(first.header.rcode, dns::Rcode::kNoError);
  EXPECT_FALSE(first.answer_addresses().empty());
  // RFC 7871 §7.1.2: an untailored family is echoed with scope 0 — never a
  // scope that claims the answer was tailored to the unknown subnet.
  ASSERT_TRUE(first.edns.has_value());
  ASSERT_TRUE(first.edns->client_subnet.has_value());
  EXPECT_EQ(first.edns->client_subnet->family, 3);
  EXPECT_EQ(first.edns->client_subnet->scope_prefix_length, 0);
  const auto after_first = resolver_->upstream_queries();

  // The answer must not have been cached: the identical foreign-family
  // query goes upstream again, and the drop counter says why.
  const auto second = resolver_->handle(query, client_);
  EXPECT_EQ(second.header.rcode, dns::Rcode::kNoError);
  EXPECT_GT(resolver_->upstream_queries(), after_first);
  EXPECT_GE(resolver_->cache_stats().foreign_family_drops, 2u);
  EXPECT_GE(registry.snapshot().counters.at("dns.cache.foreign_family_drops"), 2u);

  // And it must not have poisoned the generic/scoped v4 path either: a
  // normal client resolving the same name still gets a cacheable answer.
  dns::StubResolver stub(&network_, client_, resolver_addr_, 11);
  ASSERT_TRUE(stub.resolve_with_own_subnet(content_name()).ok());
  const auto after_v4 = resolver_->upstream_queries();
  ASSERT_TRUE(stub.resolve_with_own_subnet(content_name()).ok());
  EXPECT_EQ(resolver_->upstream_queries(), after_v4);
}

// ---- §3.1 hop filter on v6 routes ------------------------------------------

class DualStackHopFilterFixture : public ::testing::Test {
 protected:
  DualStackHopFilterFixture() : world_(make_graph()) {
    for (std::size_t v = 0; v < world_.graph().node_count(); ++v) {
      if (world_.graph().node(v).tier == topology::AsTier::kStub) {
        client_as_ = v;
        break;
      }
    }
    client_ = world_.add_host(client_as_, topology::HostKind::kClient);
  }

  static topology::AsGraph make_graph() {
    topology::AsGenConfig config;
    config.tier1_count = 4;
    config.tier2_count = 8;
    config.stub_count = 20;
    config.seed = 31;
    return topology::generate_as_graph(config);
  }

  /// The v6 face of a router in `as_index`, carrying that AS's rdns/asn —
  /// exactly what a v6 traceroute through the simulated world reports.
  measure::IpHop v6_hop_in_as(std::size_t as_index, int third_octet = 0) {
    const net::Ipv4Addr v4(world_.block_of(as_index).network().to_uint() |
                           (static_cast<std::uint32_t>(third_octet) << 8) | 1u);
    return measure::IpHop{net::IpAddr(topology::World::v6_of(v4)),
                          world_.rdns_view(v4), world_.asn_of(v4), false, true};
  }

  topology::World world_;
  std::size_t client_as_ = 0;
  net::Ipv4Addr client_;
};

TEST_F(DualStackHopFilterFixture, V6BogonHopsNeverUsable) {
  const std::vector<measure::IpHop> hops = {
      {net::IpAddr(net::Ipv6Addr::must_parse("fe80::1")), "", net::Asn(0), false, true},
      {net::IpAddr(net::Ipv6Addr::must_parse("fd00::1")), "", net::Asn(0), false, true},
      {net::IpAddr(net::Ipv6Addr::must_parse("ff02::1")), "", net::Asn(0), false, true},
      {net::IpAddr(net::Ipv6Addr::must_parse("::ffff:8.8.8.8")), "", net::Asn(0), false,
       true},
      v6_hop_in_as(1),
  };
  const auto usable = measure::usable_hops(world_, net::IpAddr(client_), hops);
  EXPECT_FALSE(usable[0]);  // link-local
  EXPECT_FALSE(usable[1]);  // unique local
  EXPECT_FALSE(usable[2]);  // multicast
  EXPECT_FALSE(usable[3]);  // v4-mapped can't be a real v6 hop
  EXPECT_TRUE(usable[4]);   // globally routable v6 in a remote AS
}

TEST_F(DualStackHopFilterFixture, V6ClientIdentityResolvesThroughTheEmbedding) {
  // The client addressed by its v6 face keeps its ASN/rdns identity, so a
  // same-AS v6 hop still fails the ASN+domain conditions at route start.
  const net::IpAddr v6_client(topology::World::v6_of(client_));
  const auto usable = measure::usable_hops(
      world_, v6_client, {v6_hop_in_as(client_as_), v6_hop_in_as(1)});
  EXPECT_FALSE(usable[0]);
  // All embedded addresses share documentation /32, so for an embedded v6
  // client the site rule alone filters every embedded hop; the remote-AS
  // hop passes once that condition is lifted to ASN/domain only.
  measure::HopFilterConfig no_site;
  no_site.require_different_slash16 = false;
  const auto lenient = measure::usable_hops(
      world_, v6_client, {v6_hop_in_as(client_as_), v6_hop_in_as(1)}, no_site);
  EXPECT_FALSE(lenient[0]);  // same AS, same domain
  EXPECT_TRUE(lenient[1]);
}

TEST_F(DualStackHopFilterFixture, CrossFamilyHopTriviallyClearsTheSiteRule) {
  // A v4 client with one v6 hop: the hop cannot share the client's v4 /16,
  // so only the ASN/domain conditions apply (and a remote AS passes both).
  measure::HopFilterConfig site_only;
  site_only.require_different_asn = false;
  site_only.require_different_domain = false;
  const auto usable = measure::usable_hops(world_, net::IpAddr(client_),
                                           {v6_hop_in_as(client_as_)}, site_only);
  EXPECT_TRUE(usable[0]);
}

// ---- Daemon AF_INET6 dual-stack listener -----------------------------------

/// Answers every query with one A record and the ECS echo at scope /24.
class EchoServer : public dns::DnsServer {
 public:
  dns::Message handle(const dns::Message& query, net::Ipv4Addr /*source*/) override {
    dns::Message response = dns::Message::make_response(query, dns::Rcode::kNoError, 24);
    response.answers.push_back(dns::ResourceRecord::a(query.questions[0].name,
                                                      net::Ipv4Addr(21, 7, 7, 7), 30));
    return response;
  }
};

/// A raw AF_INET6 datagram socket aimed at [::1]:port; `skip_reason` is set
/// instead of an fd when the kernel offers no usable v6 loopback (common in
/// minimal containers), so the test can GTEST_SKIP cleanly.
struct V6LoopbackClient {
  int fd = -1;
  std::string skip_reason;

  explicit V6LoopbackClient(std::uint16_t port) {
    fd = ::socket(AF_INET6, SOCK_DGRAM, 0);
    if (fd < 0) {
      skip_reason = "AF_INET6 sockets unavailable";
      return;
    }
    timeval tv{};
    tv.tv_sec = 2;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    std::memset(&dest, 0, sizeof(dest));
    dest.sin6_family = AF_INET6;
    dest.sin6_addr = in6addr_loopback;
    dest.sin6_port = htons(port);
  }

  ~V6LoopbackClient() {
    if (fd >= 0) ::close(fd);
  }

  /// False (with skip_reason set) when ::1 is unreachable on this kernel.
  bool send(const std::vector<std::uint8_t>& wire) {
    if (::sendto(fd, wire.data(), wire.size(), 0,
                 reinterpret_cast<const sockaddr*>(&dest), sizeof(dest)) < 0) {
      skip_reason = "IPv6 loopback ::1 unreachable";
      return false;
    }
    return true;
  }

  std::vector<std::uint8_t> receive() {
    std::uint8_t buffer[4096];
    const auto n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) return {};
    return {buffer, buffer + n};
  }

  sockaddr_in6 dest{};
};

TEST(DualStackDaemonTest, V6AndV4ClientsShareOneDualStackListener) {
  EchoServer handler;
  dns::DaemonServerConfig config;
  config.listeners = 1;
  config.enable_tcp = false;
  config.dual_stack = true;
  dns::DaemonServer daemon(&handler, config);
  ASSERT_NE(daemon.udp_port(), 0);

  V6LoopbackClient v6(daemon.udp_port());
  if (v6.fd < 0) GTEST_SKIP() << v6.skip_reason;
  const auto query =
      dns::Message::make_query(0x660, dns::DnsName::must_parse("img.cdn.sim"),
                               net::IpPrefix::must_parse("2001:db8:1401:200::/56"));
  if (!v6.send(query.encode())) GTEST_SKIP() << v6.skip_reason;
  const auto wire = v6.receive();
  ASSERT_FALSE(wire.empty()) << "no reply over the v6 loopback";
  const auto reply = dns::Message::decode(wire);
  EXPECT_EQ(reply.header.id, 0x660);
  EXPECT_EQ(reply.header.rcode, dns::Rcode::kNoError);
  ASSERT_TRUE(reply.edns.has_value());
  ASSERT_TRUE(reply.edns->client_subnet.has_value());
  EXPECT_EQ(reply.edns->client_subnet->family, 2);

  // The SAME socket serves v4 clients (they arrive v4-mapped kernel-side).
  dns::UdpSocket v4_client(0);
  v4_client.set_receive_timeout(2000);
  const auto v4_query =
      dns::Message::make_query(0x440, dns::DnsName::must_parse("img.cdn.sim"),
                               net::Prefix::must_parse("10.1.2.0/24"));
  v4_client.send_to(daemon.udp_port(), v4_query.encode());
  std::uint16_t from = 0;
  const auto v4_wire = v4_client.receive_from(from);
  ASSERT_FALSE(v4_wire.empty()) << "v4 client unanswered on the dual-stack socket";
  EXPECT_EQ(dns::Message::decode(v4_wire).header.id, 0x440);

  daemon.stop();
  EXPECT_EQ(daemon.stats().udp_queries, 2u);
  EXPECT_EQ(daemon.stats().udp_responses, 2u);
}

// ---- Campaign determinism under family 2 -----------------------------------

TEST(DualStackCampaignTest, Family2EvaluationIsByteIdenticalSerialVsThreaded) {
  measure::TestbedConfig config = measure::TestbedConfig::ripe_atlas();
  config.seed = 20260809;
  config.client_count = 18;
  config.ecs_policy = {.family = 2};

  const auto run = [&](int threads) {
    measure::Testbed testbed(config);
    analysis::EvaluationConfig eval_config;
    eval_config.threads = threads;
    analysis::Evaluation evaluation(&testbed, 0x219E, eval_config);
    return evaluation.evaluate(1.0, 0.95);
  };
  const auto serial = run(1);
  const auto threaded = run(3);

  ASSERT_FALSE(serial.empty());
  ASSERT_EQ(serial.size(), threaded.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(serial[i].provider, threaded[i].provider) << "sample " << i;
    ASSERT_EQ(serial[i].client_index, threaded[i].client_index) << "sample " << i;
    ASSERT_EQ(serial[i].assimilated, threaded[i].assimilated) << "sample " << i;
    ASSERT_EQ(serial[i].ratio, threaded[i].ratio) << "sample " << i;
  }
}

TEST(DualStackCampaignTest, DefaultV6LengthReproducesTheFamily1Campaign) {
  // /56 embeds the v4 /24 exactly, so at the default v6 source length the
  // wire family is invisible to the results — the regression gate for the
  // whole embedding path.
  measure::TestbedConfig config = measure::TestbedConfig::ripe_atlas();
  config.seed = 20260809;
  config.client_count = 12;

  const auto run = [&](dns::EcsFamilyPolicy policy) {
    measure::TestbedConfig run_config = config;
    run_config.ecs_policy = policy;
    measure::Testbed testbed(run_config);
    analysis::Evaluation evaluation(&testbed, 0x219E, {});
    return evaluation.evaluate(1.0, 0.95);
  };
  const auto family1 = run({.family = 1});
  const auto family2 = run({.family = 2});

  ASSERT_FALSE(family1.empty());
  ASSERT_EQ(family1.size(), family2.size());
  for (std::size_t i = 0; i < family1.size(); ++i) {
    ASSERT_EQ(family1[i].provider, family2[i].provider) << "sample " << i;
    ASSERT_EQ(family1[i].client_index, family2[i].client_index) << "sample " << i;
    ASSERT_EQ(family1[i].assimilated, family2[i].assimilated) << "sample " << i;
    ASSERT_EQ(family1[i].ratio, family2[i].ratio) << "sample " << i;
  }
}

}  // namespace
}  // namespace drongo
