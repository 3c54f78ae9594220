// FaultyTransport and fault-profile tests: every injected pathology, its
// determinism guarantee, and the strict knob parsing.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>

#include "dns/faults.hpp"
#include "dns/inmemory.hpp"
#include "dns/message.hpp"
#include "net/error.hpp"

namespace drongo::dns {
namespace {

/// Answers every A query with one fixed address, echoing ECS with scope 24;
/// records what the query carried so tests can observe strips.
class RecordingServer : public DnsServer {
 public:
  Message handle(const Message& query, net::Ipv4Addr /*source*/) override {
    ++queries;
    saw_ecs = query.edns && query.edns->client_subnet;
    Message response = Message::make_response(query, Rcode::kNoError, 24);
    response.answers.push_back(
        ResourceRecord::a(query.questions[0].name, net::Ipv4Addr(21, 0, 0, 1), 30));
    return response;
  }

  int queries = 0;
  bool saw_ecs = false;
};

class FaultyTransportFixture : public ::testing::Test {
 protected:
  void SetUp() override { network.register_server(server_addr, &server); }

  std::vector<std::uint8_t> query_wire(std::uint16_t id,
                                       bool with_ecs = false) const {
    return Message::make_query(id, DnsName::must_parse("img.cdn.sim"),
                               with_ecs ? std::make_optional(net::Prefix(client, 24))
                                        : std::nullopt)
        .encode();
  }

  InMemoryDnsNetwork network;
  RecordingServer server;
  const net::Ipv4Addr server_addr{net::Ipv4Addr(9, 9, 9, 9)};
  const net::Ipv4Addr client{net::Ipv4Addr(20, 1, 36, 10)};
};

TEST_F(FaultyTransportFixture, InactiveProfileIsTransparent) {
  FaultyTransport faulty(&network, 1, FaultProfile::none());
  const auto wire = query_wire(100);
  const auto direct = network.exchange(client, server_addr, wire);
  const auto through = faulty.exchange(client, server_addr, wire);
  EXPECT_EQ(direct, through);
  EXPECT_EQ(faulty.clean_exchanges(), 1u);
}

TEST_F(FaultyTransportFixture, SameSeedSameBytesSameFate) {
  // The headline determinism contract: fault decisions are a pure function
  // of (seed, channel, exchange bytes). Two decorators with the same seed
  // must agree on every exchange — including which ones they kill.
  FaultProfile profile;
  profile.loss_prob = 0.5;
  FaultyTransport a(&network, 7, profile);
  FaultyTransport b(&network, 7, profile);
  int losses = 0;
  int passes = 0;
  for (std::uint16_t id = 0; id < 64; ++id) {
    const auto wire = query_wire(id);
    bool a_lost = false;
    bool b_lost = false;
    try {
      (void)a.exchange(client, server_addr, wire);
    } catch (const net::TimeoutError&) {
      a_lost = true;
    }
    try {
      (void)b.exchange(client, server_addr, wire);
    } catch (const net::TimeoutError&) {
      b_lost = true;
    }
    EXPECT_EQ(a_lost, b_lost) << "diverged at id " << id;
    (a_lost ? losses : passes) += 1;
  }
  // At p=0.5 over 64 draws both outcomes must occur.
  EXPECT_GT(losses, 0);
  EXPECT_GT(passes, 0);
  EXPECT_EQ(a.losses(), b.losses());
}

TEST_F(FaultyTransportFixture, DifferentSeedsDisagreeSomewhere) {
  FaultProfile profile;
  profile.loss_prob = 0.5;
  FaultyTransport a(&network, 7, profile);
  FaultyTransport b(&network, 8, profile);
  bool diverged = false;
  for (std::uint16_t id = 0; id < 64 && !diverged; ++id) {
    const auto wire = query_wire(id);
    bool a_lost = false;
    bool b_lost = false;
    try {
      (void)a.exchange(client, server_addr, wire);
    } catch (const net::TimeoutError&) {
      a_lost = true;
    }
    try {
      (void)b.exchange(client, server_addr, wire);
    } catch (const net::TimeoutError&) {
      b_lost = true;
    }
    diverged = a_lost != b_lost;
  }
  EXPECT_TRUE(diverged);
}

TEST_F(FaultyTransportFixture, CertainLossAlwaysTimesOut) {
  FaultProfile profile;
  profile.loss_prob = 1.0;
  FaultyTransport faulty(&network, 3, profile);
  EXPECT_THROW((void)faulty.exchange(client, server_addr, query_wire(1)),
               net::TimeoutError);
  EXPECT_EQ(faulty.losses(), 1u);
  EXPECT_EQ(server.queries, 0);  // dropped before the server ever saw it
}

TEST_F(FaultyTransportFixture, ServfailAnswersWithoutReachingServer) {
  FaultProfile profile;
  profile.servfail_prob = 1.0;
  FaultyTransport faulty(&network, 3, profile);
  const auto reply = Message::decode(faulty.exchange(client, server_addr, query_wire(42)));
  EXPECT_EQ(reply.header.rcode, Rcode::kServFail);
  EXPECT_EQ(reply.header.id, 42);  // still a valid answer to THIS query
  ASSERT_EQ(reply.questions.size(), 1u);
  EXPECT_EQ(server.queries, 0);
  EXPECT_EQ(faulty.servfails(), 1u);
}

TEST_F(FaultyTransportFixture, RefusedAnswersWithRefusedRcode) {
  FaultProfile profile;
  profile.refused_prob = 1.0;
  FaultyTransport faulty(&network, 3, profile);
  const auto reply = Message::decode(faulty.exchange(client, server_addr, query_wire(42)));
  EXPECT_EQ(reply.header.rcode, Rcode::kRefused);
  EXPECT_EQ(faulty.refusals(), 1u);
}

TEST_F(FaultyTransportFixture, EcsStripHidesSubnetFromServer) {
  FaultProfile profile;
  profile.ecs_strip_prob = 1.0;
  FaultyTransport faulty(&network, 3, profile);
  (void)faulty.exchange(client, server_addr, query_wire(5, /*with_ecs=*/true));
  EXPECT_EQ(server.queries, 1);
  EXPECT_FALSE(server.saw_ecs);  // the recursive dropped the option
  EXPECT_EQ(faulty.ecs_strips(), 1u);

  // A query without ECS has nothing to strip — no count, no touch.
  (void)faulty.exchange(client, server_addr, query_wire(6, /*with_ecs=*/false));
  EXPECT_EQ(faulty.ecs_strips(), 1u);
}

TEST_F(FaultyTransportFixture, ScopeZeroRewritesResponseScope) {
  FaultProfile profile;
  profile.scope_zero_prob = 1.0;
  FaultyTransport faulty(&network, 3, profile);
  const auto reply =
      Message::decode(faulty.exchange(client, server_addr, query_wire(5, true)));
  ASSERT_TRUE(reply.edns && reply.edns->client_subnet);
  EXPECT_EQ(reply.edns->client_subnet->scope_prefix_length, 0);
  EXPECT_EQ(faulty.scope_zeros(), 1u);
}

TEST_F(FaultyTransportFixture, TruncationFiresOnUdpOnly) {
  FaultProfile profile;
  profile.truncate_prob = 1.0;
  FaultyTransport udp(&network, 3, profile, FaultyTransport::Channel::kUdp);
  FaultyTransport tcp(&network, 3, profile, FaultyTransport::Channel::kTcp);

  const auto udp_reply = Message::decode(udp.exchange(client, server_addr, query_wire(5)));
  EXPECT_TRUE(udp_reply.header.tc);
  EXPECT_TRUE(udp_reply.answers.empty());
  EXPECT_EQ(udp.truncations(), 1u);

  const auto tcp_reply = Message::decode(tcp.exchange(client, server_addr, query_wire(5)));
  EXPECT_FALSE(tcp_reply.header.tc);
  EXPECT_FALSE(tcp_reply.answers.empty());
  EXPECT_EQ(tcp.truncations(), 0u);
}

TEST_F(FaultyTransportFixture, OutageWindowMatchesSimulatedTimeOnly) {
  FaultProfile profile;
  profile.outages.push_back({server_addr, 2.0, 4.0});
  FaultyTransport faulty(&network, 3, profile);

  // No trial clock: outages cannot fire.
  EXPECT_NO_THROW((void)faulty.exchange(client, server_addr, query_wire(1)));

  {
    ScopedFaultTime at(3.0);  // inside the window
    EXPECT_THROW((void)faulty.exchange(client, server_addr, query_wire(2)),
                 net::UnreachableError);
  }
  {
    ScopedFaultTime at(4.0);  // window end is exclusive
    EXPECT_NO_THROW((void)faulty.exchange(client, server_addr, query_wire(3)));
  }
  {
    // Another destination is unaffected even inside the window.
    ScopedFaultTime at(3.0);
    network.register_server(net::Ipv4Addr(9, 9, 9, 10), &server);
    EXPECT_NO_THROW(
        (void)faulty.exchange(client, net::Ipv4Addr(9, 9, 9, 10), query_wire(4)));
  }
  EXPECT_EQ(faulty.outage_hits(), 1u);
  // The clock restored to "no trial" after the scopes closed.
  EXPECT_TRUE(std::isnan(ScopedFaultTime::current()));
}

TEST(FaultProfileTest, NamedProfiles) {
  EXPECT_FALSE(parse_fault_profile("none").active());
  EXPECT_FALSE(parse_fault_profile("").active());
  EXPECT_DOUBLE_EQ(parse_fault_profile("lossy").loss_prob, 0.10);
  EXPECT_DOUBLE_EQ(parse_fault_profile("flaky").servfail_prob, 0.10);
  EXPECT_DOUBLE_EQ(parse_fault_profile("ecs-hostile").ecs_strip_prob, 0.25);
  EXPECT_TRUE(parse_fault_profile("chaos").active());
  EXPECT_THROW(parse_fault_profile("mayhem"), net::InvalidArgument);
}

TEST(FaultProfileTest, ProbabilityKnobParsingIsStrict) {
  EXPECT_DOUBLE_EQ(parse_fault_prob("0.25", 0.0, "K"), 0.25);
  EXPECT_DOUBLE_EQ(parse_fault_prob(nullptr, 0.1, "K"), 0.1);
  EXPECT_DOUBLE_EQ(parse_fault_prob("", 0.1, "K"), 0.1);
  EXPECT_THROW(parse_fault_prob("banana", 0.0, "K"), net::InvalidArgument);
  EXPECT_THROW(parse_fault_prob("1.5", 0.0, "K"), net::InvalidArgument);
  EXPECT_THROW(parse_fault_prob("-0.1", 0.0, "K"), net::InvalidArgument);
  EXPECT_THROW(parse_fault_prob("0.5x", 0.0, "K"), net::InvalidArgument);
}

TEST(FaultProfileTest, EnvKnobsLayerOverBase) {
  ::setenv("DRONGO_FAULT_LOSS", "0.33", 1);
  const auto profile = fault_profile_from_env(parse_fault_profile("flaky"));
  ::unsetenv("DRONGO_FAULT_LOSS");
  EXPECT_DOUBLE_EQ(profile.servfail_prob, 0.10);  // from the named base
  EXPECT_DOUBLE_EQ(profile.loss_prob, 0.33);      // the env override
}

TEST(FaultProfileTest, MalformedEnvThrowsLoudly) {
  ::setenv("DRONGO_FAULT_LOSS", "lots", 1);
  EXPECT_THROW(fault_profile_from_env(), net::InvalidArgument);
  ::unsetenv("DRONGO_FAULT_LOSS");
}

TEST(ErrorTaxonomyTest, TransientAndPermanentSubtypeNetError) {
  // Every typed error stays catchable as net::Error (existing handlers keep
  // working), while the transient/permanent split is what retry loops key on.
  EXPECT_THROW(throw net::TimeoutError("x"), net::TransientError);
  EXPECT_THROW(throw net::UnreachableError("x"), net::TransientError);
  EXPECT_THROW(throw net::TimeoutError("x"), net::Error);
  EXPECT_THROW(throw net::ParseError("x"), net::PermanentError);
  EXPECT_THROW(throw net::BoundsError("x"), net::PermanentError);
  EXPECT_THROW(throw net::InvalidArgument("x"), net::PermanentError);
  EXPECT_THROW(throw net::InvalidArgument("x"), net::Error);
  try {
    throw net::TimeoutError("query lost");
  } catch (const net::PermanentError&) {
    FAIL() << "a timeout must not be permanent";
  } catch (const net::TransientError& e) {
    EXPECT_STREQ(e.what(), "timeout: query lost");
  }
}

}  // namespace
}  // namespace drongo::dns
