// HedgedTransport tests: the unhedged testbed, firing, rescue, dual
// failure, id patch-back, determinism, and argument checks.
#include <gtest/gtest.h>

#include <limits>

#include "dns/faults.hpp"
#include "dns/hedge.hpp"
#include "dns/inmemory.hpp"
#include "dns/message.hpp"
#include "measure/testbed.hpp"
#include "net/error.hpp"

namespace drongo::dns {
namespace {

/// Answers every A query with one fixed address.
class FixedServer : public DnsServer {
 public:
  Message handle(const Message& query, net::Ipv4Addr /*source*/) override {
    ++queries;
    Message response = Message::make_response(query, Rcode::kNoError, 24);
    response.answers.push_back(
        ResourceRecord::a(query.questions[0].name, net::Ipv4Addr(21, 0, 0, 1), 30));
    return response;
  }

  int queries = 0;
};

class HedgeFixture : public ::testing::Test {
 protected:
  void SetUp() override { network.register_server(server_addr, &server); }

  std::vector<std::uint8_t> query_wire(std::uint16_t id) const {
    return Message::make_query(id, DnsName::must_parse("img.cdn.sim"), std::nullopt)
        .encode();
  }

  /// A threshold every primary draw exceeds (the modelled base latency is
  /// 4 ms), so the hedge fires on every exchange.
  static constexpr double kAlwaysFires = 1.0;

  InMemoryDnsNetwork network;
  FixedServer server;
  const net::Ipv4Addr server_addr{net::Ipv4Addr(9, 9, 9, 9)};
  const net::Ipv4Addr client{net::Ipv4Addr(20, 1, 36, 10)};
};

TEST_F(HedgeFixture, DisabledPassesThroughUntouched) {
  // Threshold 0 is "no hedging": the testbed builds no decorator, so the
  // resolver talks to the fault fabric directly.
  measure::TestbedConfig config = measure::TestbedConfig::planetlab();
  config.client_count = 2;
  config.site_count = 0;
  measure::Testbed testbed(config);
  EXPECT_EQ(testbed.hedged_upstream(), nullptr);
}

TEST_F(HedgeFixture, UnreachableThresholdNeverFires) {
  HedgedTransport hedged(&network, 1e9);
  for (std::uint16_t id = 0; id < 32; ++id) {
    const auto wire = query_wire(id);
    EXPECT_EQ(hedged.exchange(client, server_addr, wire),
              network.exchange(client, server_addr, wire));
  }
  EXPECT_EQ(hedged.exchanges(), 32u);
  EXPECT_EQ(hedged.hedges_fired(), 0u);
}

TEST_F(HedgeFixture, WinnerIdIsAlwaysTheCallersId) {
  // Threshold 1 ms: every exchange hedges, and the winner alternates between
  // primary and duplicate across ids. Whatever wins, the reply's id bytes
  // must match what the caller sent — a winning hedge is patched back.
  HedgedTransport hedged(&network, kAlwaysFires);
  for (std::uint16_t id = 0; id < 64; ++id) {
    const auto wire = query_wire(id);
    const auto reply = hedged.exchange(client, server_addr, wire);
    ASSERT_GE(reply.size(), 2u);
    EXPECT_EQ(reply[0], wire[0]) << "id " << id;
    EXPECT_EQ(reply[1], wire[1]) << "id " << id;
  }
  EXPECT_EQ(hedged.hedges_fired(), 64u);
  // Hedge pays threshold + a fresh draw, so both outcomes occur over 64 ids.
  EXPECT_GT(hedged.hedge_wins(), 0u);
  EXPECT_GT(hedged.hedge_losses(), 0u);
  EXPECT_EQ(hedged.hedge_wins() + hedged.hedge_losses(), 64u);
}

TEST_F(HedgeFixture, HedgeRescuesFailedPrimaries) {
  // The duplicate carries rewritten id bytes, so the fault fabric — a pure
  // function of the bytes — gives it an independent fate: some primaries
  // that time out are rescued by a duplicate that does not.
  FaultProfile profile;
  profile.timeout_prob = 0.5;
  FaultyTransport faulty(&network, 7, profile);
  HedgedTransport hedged(&faulty, kAlwaysFires);
  int answered = 0;
  int failed = 0;
  for (std::uint16_t id = 0; id < 128; ++id) {
    try {
      const auto reply = hedged.exchange(client, server_addr, query_wire(id));
      EXPECT_FALSE(reply.empty());
      ++answered;
    } catch (const net::TransientError&) {
      ++failed;
    }
  }
  EXPECT_GT(hedged.rescued(), 0u);
  EXPECT_GT(hedged.both_failed(), 0u);
  EXPECT_EQ(hedged.both_failed(), static_cast<std::uint64_t>(failed));
  EXPECT_GT(answered, failed) << "hedging should beat a 50% timeout rate";
}

TEST_F(HedgeFixture, DualFailureRethrowsThePrimarysError) {
  FaultProfile profile;
  profile.timeout_prob = 1.0;
  FaultyTransport faulty(&network, 7, profile);
  HedgedTransport hedged(&faulty, kAlwaysFires);
  EXPECT_THROW((void)hedged.exchange(client, server_addr, query_wire(5)),
               net::TimeoutError);
  EXPECT_EQ(hedged.hedges_fired(), 1u);
  EXPECT_EQ(hedged.both_failed(), 1u);
  EXPECT_EQ(hedged.rescued(), 0u);
}

TEST_F(HedgeFixture, SameBytesSameFate) {
  // Hedging decisions are pure functions of (seed, exchange bytes): two
  // decorators over identical fabrics agree on every tally.
  FaultProfile profile;
  profile.timeout_prob = 0.3;
  FaultyTransport faulty_a(&network, 7, profile);
  FaultyTransport faulty_b(&network, 7, profile);
  HedgedTransport a(&faulty_a, kAlwaysFires);
  HedgedTransport b(&faulty_b, kAlwaysFires);
  for (std::uint16_t id = 0; id < 96; ++id) {
    const auto wire = query_wire(id);
    std::vector<std::uint8_t> ra;
    std::vector<std::uint8_t> rb;
    bool ea = false;
    bool eb = false;
    try {
      ra = a.exchange(client, server_addr, wire);
    } catch (const net::TransientError&) {
      ea = true;
    }
    try {
      rb = b.exchange(client, server_addr, wire);
    } catch (const net::TransientError&) {
      eb = true;
    }
    EXPECT_EQ(ea, eb) << "diverged at id " << id;
    EXPECT_EQ(ra, rb) << "diverged at id " << id;
  }
  EXPECT_EQ(a.hedges_fired(), b.hedges_fired());
  EXPECT_EQ(a.hedge_wins(), b.hedge_wins());
  EXPECT_EQ(a.hedge_losses(), b.hedge_losses());
  EXPECT_EQ(a.rescued(), b.rescued());
  EXPECT_EQ(a.both_failed(), b.both_failed());
}

TEST_F(HedgeFixture, ConstructionRejectsBadArguments) {
  EXPECT_THROW(HedgedTransport(nullptr, kAlwaysFires), net::InvalidArgument);
  EXPECT_THROW(HedgedTransport(&network, 0.0), net::InvalidArgument);
  EXPECT_THROW(HedgedTransport(&network, -1.0), net::InvalidArgument);
  EXPECT_THROW(HedgedTransport(&network, std::numeric_limits<double>::quiet_NaN()),
               net::InvalidArgument);
  // A testbed hands its threshold straight to the decorator, so a negative
  // one fails there too instead of silently running unhedged.
  measure::TestbedConfig config = measure::TestbedConfig::planetlab();
  config.client_count = 2;
  config.site_count = 0;
  config.hedge_threshold_ms = -3.0;
  EXPECT_THROW(measure::Testbed{config}, net::InvalidArgument);
}

}  // namespace
}  // namespace drongo::dns
