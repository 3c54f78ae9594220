// In-memory transport, stub resolver, cache, and LDNS proxy tests.
#include <gtest/gtest.h>

#include <functional>

#include "dns/cache.hpp"
#include "dns/inmemory.hpp"
#include "dns/proxy.hpp"
#include "dns/stub_resolver.hpp"
#include "net/error.hpp"

namespace drongo::dns {
namespace {

/// A scripted authoritative: answers A queries with addresses derived from
/// the announced ECS subnet so tests can observe which subnet arrived.
class EchoingServer : public DnsServer {
 public:
  Message handle(const Message& query, net::Ipv4Addr source) override {
    last_source = source;
    last_ecs.reset();
    net::Prefix subnet(source, 24);
    if (query.edns && query.edns->client_subnet) {
      last_ecs = *query.edns->client_subnet->source_prefix().to_v4();
      subnet = *last_ecs;
    }
    Message response = Message::make_response(query, Rcode::kNoError, 24);
    // Answer encodes the subnet's first octet so callers can tell subnets
    // apart: 21.x.0.10 for subnet x.*.
    response.answers.push_back(ResourceRecord::a(
        query.questions[0].name,
        net::Ipv4Addr(21, subnet.network().octet(0), subnet.network().octet(1), 10), 30));
    ++queries;
    return response;
  }

  std::optional<net::Prefix> last_ecs;
  net::Ipv4Addr last_source;
  int queries = 0;
};

class ResolverFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    network.register_server(server_addr, &server);
  }

  InMemoryDnsNetwork network;
  EchoingServer server;
  const net::Ipv4Addr server_addr{net::Ipv4Addr(9, 9, 9, 9)};
  const net::Ipv4Addr client_addr{net::Ipv4Addr(20, 1, 36, 10)};
};

TEST_F(ResolverFixture, ExchangeRoutesToRegisteredServer) {
  StubResolver stub(&network, client_addr, server_addr);
  const auto result = stub.resolve("img.cdn.sim");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(server.queries, 1);
  EXPECT_EQ(network.exchange_count(), 1u);
  EXPECT_EQ(server.last_source, client_addr);
}

TEST_F(ResolverFixture, UnknownServerThrows) {
  StubResolver stub(&network, client_addr, net::Ipv4Addr(8, 8, 4, 4));
  EXPECT_THROW(stub.resolve("img.cdn.sim"), net::Error);
}

TEST_F(ResolverFixture, ResolveWithOwnSubnetAnnouncesSlash24) {
  StubResolver stub(&network, client_addr, server_addr);
  const auto result = stub.resolve_with_own_subnet(DnsName::must_parse("img.cdn.sim"));
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(server.last_ecs.has_value());
  EXPECT_EQ(server.last_ecs->to_string(), "20.1.36.0/24");
}

TEST_F(ResolverFixture, SubnetAssimilationAnnouncesForeignSubnet) {
  StubResolver stub(&network, client_addr, server_addr);
  const auto hop_subnet = net::Prefix::must_parse("20.7.2.0/24");
  const auto result = stub.resolve(DnsName::must_parse("img.cdn.sim"), hop_subnet);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(server.last_ecs.has_value());
  EXPECT_EQ(*server.last_ecs, hop_subnet);
  // The answer depended on the assimilated subnet, not the client's.
  EXPECT_EQ(result.addresses.front().octet(1), 20);
  EXPECT_EQ(result.addresses.front().octet(2), 7);
}

TEST_F(ResolverFixture, ResolutionResultCarriesScopeAndTtl) {
  StubResolver stub(&network, client_addr, server_addr);
  const auto result = stub.resolve_with_own_subnet(DnsName::must_parse("img.cdn.sim"));
  ASSERT_TRUE(result.ecs_scope.has_value());
  EXPECT_EQ(result.ecs_scope->length(), 24);
  EXPECT_EQ(result.ttl, 30u);
}

// ---- LdnsProxy ------------------------------------------------------------

/// A selector scripted to assimilate one fixed subnet for one domain.
class FixedSelector : public SubnetSelector {
 public:
  std::optional<net::Prefix> select_subnet(const DnsName& domain,
                                           const net::Prefix& client_subnet) override {
    last_client_subnet = client_subnet;
    if (domain == DnsName::must_parse("img.cdn.sim")) {
      return net::Prefix::must_parse("20.99.5.0/24");
    }
    return std::nullopt;
  }
  net::Prefix last_client_subnet;
};

TEST_F(ResolverFixture, ProxyForwardsAndRewritesEcs) {
  FixedSelector selector;
  LdnsProxy proxy(&network, server_addr, net::Ipv4Addr(127, 5, 5, 5), &selector);
  const net::Ipv4Addr proxy_addr(10, 0, 0, 53);
  network.register_server(proxy_addr, &proxy);

  StubResolver stub(&network, client_addr, proxy_addr);
  const auto result = stub.resolve_with_own_subnet(DnsName::must_parse("img.cdn.sim"));
  ASSERT_TRUE(result.ok());
  // Upstream saw the assimilated subnet...
  ASSERT_TRUE(server.last_ecs.has_value());
  EXPECT_EQ(server.last_ecs->to_string(), "20.99.5.0/24");
  // ...the selector saw the client's own subnet...
  EXPECT_EQ(selector.last_client_subnet.to_string(), "20.1.36.0/24");
  // ...and the client's response shows its OWN subnet echoed (assimilation
  // is invisible to applications).
  EXPECT_EQ(proxy.assimilated(), 1u);
  EXPECT_EQ(proxy.forwarded(), 1u);
}

TEST_F(ResolverFixture, ProxyPassesThroughWhenSelectorDeclines) {
  FixedSelector selector;
  LdnsProxy proxy(&network, server_addr, net::Ipv4Addr(127, 5, 5, 5), &selector);
  const net::Ipv4Addr proxy_addr(10, 0, 0, 53);
  network.register_server(proxy_addr, &proxy);

  StubResolver stub(&network, client_addr, proxy_addr);
  const auto result = stub.resolve_with_own_subnet(DnsName::must_parse("other.cdn.sim"));
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(server.last_ecs.has_value());
  EXPECT_EQ(server.last_ecs->to_string(), "20.1.36.0/24");
  EXPECT_EQ(proxy.assimilated(), 0u);
}

TEST_F(ResolverFixture, ProxyDerivesSubnetFromSourceWithoutEcs) {
  LdnsProxy proxy(&network, server_addr, net::Ipv4Addr(127, 5, 5, 5), nullptr);
  const net::Ipv4Addr proxy_addr(10, 0, 0, 53);
  network.register_server(proxy_addr, &proxy);

  StubResolver stub(&network, client_addr, proxy_addr);
  const auto result = stub.resolve(DnsName::must_parse("img.cdn.sim"));  // no ECS
  ASSERT_TRUE(result.ok());
  // The proxy filled in the client's /24 on its behalf.
  ASSERT_TRUE(server.last_ecs.has_value());
  EXPECT_EQ(server.last_ecs->to_string(), "20.1.36.0/24");
}

TEST_F(ResolverFixture, ProxyRejectsEmptyQuestion) {
  LdnsProxy proxy(&network, server_addr, net::Ipv4Addr(127, 5, 5, 5), nullptr);
  Message empty;
  const auto response = proxy.handle(empty, client_addr);
  EXPECT_EQ(response.header.rcode, Rcode::kFormErr);
}

// ---- Rcode semantics & retry policy ----------------------------------------

/// Answers every query with one fixed rcode (and no answer records).
class RcodeServer : public DnsServer {
 public:
  explicit RcodeServer(Rcode rcode) : rcode_(rcode) {}
  Message handle(const Message& query, net::Ipv4Addr) override {
    ++queries;
    return Message::make_response(query, rcode_);
  }
  Rcode rcode_;
  int queries = 0;
};

/// Throws a scripted transient error for the first `failures` exchanges,
/// then delegates — a network that recovers.
class FailNTimesTransport : public DnsTransport {
 public:
  FailNTimesTransport(DnsTransport* inner, int failures)
      : inner_(inner), remaining_(failures) {}
  std::vector<std::uint8_t> exchange(net::Ipv4Addr source, net::Ipv4Addr destination,
                                     std::span<const std::uint8_t> query) override {
    ++exchanges;
    if (remaining_ > 0) {
      --remaining_;
      throw net::TimeoutError("scripted loss");
    }
    return inner_->exchange(source, destination, query);
  }
  DnsTransport* inner_;
  int remaining_;
  int exchanges = 0;
};

/// Truncates every reply (TC=1, answers dropped), as an over-UDP answer
/// that did not fit would be.
class TruncatingTransport : public DnsTransport {
 public:
  explicit TruncatingTransport(DnsTransport* inner) : inner_(inner) {}
  std::vector<std::uint8_t> exchange(net::Ipv4Addr source, net::Ipv4Addr destination,
                                     std::span<const std::uint8_t> query) override {
    Message reply = Message::decode(inner_->exchange(source, destination, query));
    reply.header.tc = true;
    reply.answers.clear();
    return reply.encode();
  }
  DnsTransport* inner_;
};

/// Returns bytes that are not a DNS message at all.
class GarbageTransport : public DnsTransport {
 public:
  std::vector<std::uint8_t> exchange(net::Ipv4Addr, net::Ipv4Addr,
                                     std::span<const std::uint8_t>) override {
    ++exchanges;
    return {0xde, 0xad};
  }
  int exchanges = 0;
};

TEST_F(ResolverFixture, NxDomainIsPermanentAndNeverRetried) {
  RcodeServer nx(Rcode::kNxDomain);
  const net::Ipv4Addr nx_addr(9, 9, 9, 10);
  network.register_server(nx_addr, &nx);
  StubResolver stub(&network, client_addr, nx_addr);
  const auto result = stub.resolve("gone.cdn.sim");
  EXPECT_TRUE(result.name_error());
  EXPECT_FALSE(result.ok());
  EXPECT_FALSE(result.server_failure());
  EXPECT_EQ(result.attempts, 1);  // retrying a nonexistent name cannot help
  EXPECT_EQ(nx.queries, 1);
  EXPECT_EQ(stub.stats().retries, 0u);
}

TEST_F(ResolverFixture, NoDataIsAHealthyAnswerNotAFailure) {
  RcodeServer empty(Rcode::kNoError);
  const net::Ipv4Addr empty_addr(9, 9, 9, 11);
  network.register_server(empty_addr, &empty);
  StubResolver stub(&network, client_addr, empty_addr);
  const auto result = stub.resolve("aaaa-only.cdn.sim");
  EXPECT_TRUE(result.nodata());
  EXPECT_FALSE(result.ok());          // no addresses to use...
  EXPECT_FALSE(result.server_failure());  // ...but nothing failed
  EXPECT_EQ(result.attempts, 1);
  EXPECT_EQ(stub.stats().failed_queries, 0u);
}

TEST_F(ResolverFixture, ServfailIsRetriedThenReturnedTyped) {
  RcodeServer sick(Rcode::kServFail);
  const net::Ipv4Addr sick_addr(9, 9, 9, 12);
  network.register_server(sick_addr, &sick);
  StubResolver stub(&network, client_addr, sick_addr);
  const auto result = stub.resolve("img.cdn.sim");
  EXPECT_TRUE(result.server_failure());
  EXPECT_EQ(result.rcode, Rcode::kServFail);
  EXPECT_EQ(result.attempts, stub.config().max_attempts);
  EXPECT_EQ(sick.queries, stub.config().max_attempts);
  EXPECT_EQ(stub.stats().server_failures,
            static_cast<std::uint64_t>(stub.config().max_attempts));
  EXPECT_EQ(stub.stats().failed_queries, 1u);
}

TEST_F(ResolverFixture, RefusedIsTransientLikeServfail) {
  RcodeServer refusing(Rcode::kRefused);
  const net::Ipv4Addr ref_addr(9, 9, 9, 13);
  network.register_server(ref_addr, &refusing);
  StubResolver stub(&network, client_addr, ref_addr);
  const auto result = stub.resolve("img.cdn.sim");
  EXPECT_TRUE(result.server_failure());
  EXPECT_EQ(result.rcode, Rcode::kRefused);
  EXPECT_EQ(result.attempts, stub.config().max_attempts);
}

TEST_F(ResolverFixture, ServerFailureRetryCanBeDisabled) {
  RcodeServer sick(Rcode::kServFail);
  const net::Ipv4Addr sick_addr(9, 9, 9, 14);
  network.register_server(sick_addr, &sick);
  ResolverConfig config;
  config.retry_server_failure = false;
  StubResolver stub(&network, client_addr, sick_addr, 1, config);
  const auto result = stub.resolve("img.cdn.sim");
  EXPECT_TRUE(result.server_failure());
  EXPECT_EQ(result.attempts, 1);
  EXPECT_EQ(sick.queries, 1);
}

TEST_F(ResolverFixture, TransientTimeoutRecoversOnRetry) {
  FailNTimesTransport flaky(&network, /*failures=*/1);
  StubResolver stub(&flaky, client_addr, server_addr);
  const auto result = stub.resolve("img.cdn.sim");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.attempts, 2);
  EXPECT_EQ(stub.stats().retries, 1u);
  EXPECT_EQ(stub.stats().timeouts, 1u);
  EXPECT_EQ(stub.stats().queries, 2u);
  EXPECT_EQ(stub.stats().failed_queries, 0u);
}

TEST_F(ResolverFixture, ExhaustedRetriesRethrowTheLastTransientError) {
  FailNTimesTransport dead(&network, /*failures=*/1000);
  StubResolver stub(&dead, client_addr, server_addr);
  EXPECT_THROW(stub.resolve("img.cdn.sim"), net::TimeoutError);
  EXPECT_EQ(stub.stats().timeouts,
            static_cast<std::uint64_t>(stub.config().max_attempts));
  EXPECT_EQ(stub.stats().failed_queries, 1u);
}

TEST_F(ResolverFixture, SimulatedDeadlineBoundsTheRetrySchedule) {
  FailNTimesTransport dead(&network, /*failures=*/1000);
  ResolverConfig config;
  config.max_attempts = 10;
  config.base_backoff_ms = 3000.0;
  config.backoff_factor = 2.0;
  config.max_backoff_ms = 100000.0;
  config.query_deadline_ms = 5000.0;
  config.jitter_fraction = 0.0;  // exact schedule: 3000, then 6000 > deadline
  StubResolver impatient(&dead, client_addr, server_addr, 1, config);
  EXPECT_THROW(impatient.resolve("img.cdn.sim"), net::TimeoutError);
  EXPECT_EQ(impatient.stats().queries, 2u);  // deadline cut 8 attempts short
  EXPECT_EQ(impatient.stats().deadline_exceeded, 1u);
}

TEST_F(ResolverFixture, TruncatedUdpAnswerRetriesOverTcp) {
  TruncatingTransport udp(&network);
  StubResolver stub(&udp, client_addr, server_addr);
  stub.set_fallback_transport(&network);  // the "TCP" channel is clean
  const auto result = stub.resolve_with_own_subnet(DnsName::must_parse("img.cdn.sim"));
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.used_tcp);
  EXPECT_EQ(stub.stats().tcp_fallbacks, 1u);
  EXPECT_EQ(stub.stats().queries, 2u);  // UDP attempt + TCP re-send
}

TEST_F(ResolverFixture, TruncationWithoutFallbackReturnsEmptyAnswer) {
  TruncatingTransport udp(&network);
  StubResolver stub(&udp, client_addr, server_addr);  // no fallback configured
  const auto result = stub.resolve("img.cdn.sim");
  EXPECT_TRUE(result.nodata());
  EXPECT_FALSE(result.used_tcp);
  EXPECT_EQ(stub.stats().tcp_fallbacks, 0u);
}

TEST_F(ResolverFixture, PermanentDecodeErrorPropagatesWithoutRetry) {
  GarbageTransport garbage;
  StubResolver stub(&garbage, client_addr, server_addr);
  // Two stray bytes can't even hold a header: decoding fails with a
  // PermanentError subtype (here BoundsError), which must not be retried.
  EXPECT_THROW(stub.resolve("img.cdn.sim"), net::PermanentError);
  EXPECT_EQ(garbage.exchanges, 1);  // permanent: retrying cannot help
  EXPECT_EQ(stub.stats().retries, 0u);
}

// ---- PTR reply validation ---------------------------------------------------

/// Answers every PTR query with one fixed hop name.
class PtrServer : public DnsServer {
 public:
  Message handle(const Message& query, net::Ipv4Addr) override {
    Message response = Message::make_response(query);
    response.answers.push_back(ResourceRecord::ptr(
        query.questions[0].name, DnsName::must_parse("core1.paris.transit.example")));
    return response;
  }
};

/// Rewrites the first `bad` replies with `tamper`, then passes replies
/// through untouched: a late or spoofed datagram that beats the genuine one.
class TamperingTransport : public DnsTransport {
 public:
  TamperingTransport(DnsTransport* inner, int bad, std::function<void(Message&)> tamper)
      : inner_(inner), bad_(bad), tamper_(std::move(tamper)) {}
  std::vector<std::uint8_t> exchange(net::Ipv4Addr source, net::Ipv4Addr destination,
                                     std::span<const std::uint8_t> query) override {
    std::vector<std::uint8_t> reply = inner_->exchange(source, destination, query);
    if (bad_ == 0) return reply;
    --bad_;
    Message m = Message::decode(reply);
    tamper_(m);
    return m.encode();
  }

 private:
  DnsTransport* inner_;
  int bad_;
  std::function<void(Message&)> tamper_;
};

class PtrValidationFixture : public ResolverFixture {
 protected:
  void SetUp() override {
    ResolverFixture::SetUp();
    network.register_server(ptr_addr, &ptr_server);
  }

  PtrServer ptr_server;
  const net::Ipv4Addr ptr_addr{net::Ipv4Addr(9, 9, 9, 20)};
  const net::Ipv4Addr hop{net::Ipv4Addr(20, 23, 4, 2)};
};

TEST_F(PtrValidationFixture, CleanReplyNamesTheHop) {
  StubResolver stub(&network, client_addr, ptr_addr);
  EXPECT_EQ(stub.resolve_ptr(hop), "core1.paris.transit.example");
  EXPECT_EQ(stub.stats().queries, 1u);
  EXPECT_EQ(stub.stats().validation_failures, 0u);
}

TEST_F(PtrValidationFixture, WrongIdReplyIsDiscardedAndRetried) {
  TamperingTransport wrong_id(&network, 1, [](Message& m) { m.header.id ^= 0x5A5A; });
  StubResolver stub(&wrong_id, client_addr, ptr_addr);
  EXPECT_EQ(stub.resolve_ptr(hop), "core1.paris.transit.example");
  EXPECT_EQ(stub.stats().validation_failures, 1u);
  EXPECT_EQ(stub.stats().retries, 1u);
  EXPECT_EQ(stub.stats().queries, 2u);
  EXPECT_EQ(stub.stats().failed_queries, 0u);
}

TEST_F(PtrValidationFixture, ReplyToAnotherQuestionNeverNamesTheHop) {
  // Every attempt gets an answer for a different address's PTR name.
  TamperingTransport other_question(&network, 3, [](Message& m) {
    const DnsName other = DnsName::must_parse("1.0.0.10.in-addr.arpa");
    m.questions[0].name = other;
    m.answers = {ResourceRecord::ptr(other, DnsName::must_parse("spoofed.example"))};
  });
  StubResolver stub(&other_question, client_addr, ptr_addr);
  ASSERT_EQ(stub.config().max_attempts, 3);
  EXPECT_EQ(stub.resolve_ptr(hop), "");
  EXPECT_EQ(stub.stats().validation_failures, 3u);
  EXPECT_EQ(stub.stats().queries, 3u);
  EXPECT_EQ(stub.stats().failed_queries, 1u);
}

TEST_F(PtrValidationFixture, ReplyWithoutQrBitIsRejected) {
  TamperingTransport echo(&network, 1, [](Message& m) { m.header.qr = false; });
  StubResolver stub(&echo, client_addr, ptr_addr);
  EXPECT_EQ(stub.resolve_ptr(hop), "core1.paris.transit.example");
  EXPECT_EQ(stub.stats().validation_failures, 1u);
}

// ---- DnsCache ---------------------------------------------------------------

TEST(DnsCacheTest, ScopeGatesReuse) {
  DnsCache cache;
  const auto name = DnsName::must_parse("img.cdn.sim");
  cache.insert(name, net::Prefix::must_parse("20.1.0.0/16"),
               {net::Ipv4Addr(21, 0, 0, 1)}, 60, /*now_ms=*/0);
  // A client inside the scope hits...
  EXPECT_TRUE(cache.lookup(name, net::Prefix::must_parse("20.1.36.0/24"), 10).has_value());
  // ...one outside misses.
  EXPECT_FALSE(cache.lookup(name, net::Prefix::must_parse("20.2.36.0/24"), 10).has_value());
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(DnsCacheTest, TtlExpires) {
  DnsCache cache;
  const auto name = DnsName::must_parse("img.cdn.sim");
  cache.insert(name, net::Prefix::must_parse("0.0.0.0/0"), {net::Ipv4Addr(1, 1, 1, 1)},
               30, /*now_ms=*/0);
  EXPECT_TRUE(cache.lookup(name, net::Prefix::must_parse("9.9.9.0/24"), 29'999).has_value());
  EXPECT_FALSE(cache.lookup(name, net::Prefix::must_parse("9.9.9.0/24"), 30'000).has_value());
}

TEST(DnsCacheTest, PurgeDropsExpiredOnly) {
  DnsCache cache;
  cache.insert(DnsName::must_parse("a.b"), net::Prefix::must_parse("0.0.0.0/0"),
               {net::Ipv4Addr(1, 1, 1, 1)}, 10, 0);
  cache.insert(DnsName::must_parse("c.d"), net::Prefix::must_parse("0.0.0.0/0"),
               {net::Ipv4Addr(2, 2, 2, 2)}, 100, 0);
  cache.purge(50'000);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(DnsCacheTest, CapacityEvicts) {
  DnsCache cache(/*max_entries=*/4);
  for (int i = 0; i < 10; ++i) {
    cache.insert(DnsName::must_parse("n" + std::to_string(i) + ".x"),
                 net::Prefix::must_parse("0.0.0.0/0"), {net::Ipv4Addr(1, 1, 1, 1)},
                 1000, 0);
  }
  EXPECT_LE(cache.size(), 5u);  // bounded, not growing without limit
}

TEST(DnsCacheTest, DistinctScopesCoexistPerName) {
  DnsCache cache;
  const auto name = DnsName::must_parse("img.cdn.sim");
  cache.insert(name, net::Prefix::must_parse("20.1.0.0/16"), {net::Ipv4Addr(21, 1, 1, 1)},
               60, 0);
  cache.insert(name, net::Prefix::must_parse("20.2.0.0/16"), {net::Ipv4Addr(21, 2, 2, 2)},
               60, 0);
  const auto a = cache.lookup(name, net::Prefix::must_parse("20.1.5.0/24"), 1);
  const auto b = cache.lookup(name, net::Prefix::must_parse("20.2.5.0/24"), 1);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_NE(a->addresses.front(), b->addresses.front());
}

}  // namespace
}  // namespace drongo::dns
