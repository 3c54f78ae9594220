// The §3.1 usable-hop filter.
#include <gtest/gtest.h>

#include <string>

#include "measure/hop_filter.hpp"
#include "topology/as_gen.hpp"

namespace drongo::measure {
namespace {

class HopFilterFixture : public ::testing::Test {
 protected:
  HopFilterFixture() : world_(make_graph()) {
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

  topology::TracerouteHop hop_in_as(std::size_t as_index, int third_octet = 0) {
    topology::TracerouteHop hop;
    hop.ip = net::Ipv4Addr(world_.block_of(as_index).network().to_uint() |
                           (static_cast<std::uint32_t>(third_octet) << 8) | 1u);
    hop.rdns = world_.rdns_view(hop.ip);
    hop.asn = world_.asn_of(hop.ip);
    return hop;
  }

  topology::World world_;
  std::size_t client_as_ = 0;
  net::Ipv4Addr client_;
};

TEST_F(HopFilterFixture, PrivateHopsNeverUsable) {
  topology::TracerouteHop gw;
  gw.ip = net::Ipv4Addr(192, 168, 0, 1);
  gw.is_private = true;
  const auto usable = usable_hops(world_, client_, {gw, hop_in_as(0)});
  EXPECT_FALSE(usable[0]);
  EXPECT_TRUE(usable[1]);
}

TEST_F(HopFilterFixture, UnresponsiveHopsNeverUsable) {
  auto hop = hop_in_as(0);
  hop.responded = false;
  EXPECT_FALSE(usable_hops(world_, client_, {hop})[0]);
}

TEST_F(HopFilterFixture, SameAsHopsFilteredAtRouteStart) {
  // A hop in the client's own AS fails /16, ASN, and domain conditions.
  const auto usable = usable_hops(world_, client_, {hop_in_as(client_as_), hop_in_as(1)});
  EXPECT_FALSE(usable[0]);
  EXPECT_TRUE(usable[1]);
}

TEST_F(HopFilterFixture, FilteringStopsAfterFirstUsableHop) {
  // Client-AS hop APPEARING AFTER a usable hop is kept (the paper's rule:
  // "once a hop is observed that meets the constraints, we stop filtering").
  const auto usable = usable_hops(
      world_, client_, {hop_in_as(client_as_), hop_in_as(1), hop_in_as(client_as_, 2)});
  EXPECT_FALSE(usable[0]);
  EXPECT_TRUE(usable[1]);
  EXPECT_TRUE(usable[2]);
}

TEST_F(HopFilterFixture, StrictVariantKeepsFiltering) {
  HopFilterConfig config;
  config.stop_after_first_usable = false;
  const auto usable = usable_hops(
      world_, client_, {hop_in_as(client_as_), hop_in_as(1), hop_in_as(client_as_, 2)},
      config);
  EXPECT_FALSE(usable[0]);
  EXPECT_TRUE(usable[1]);
  EXPECT_FALSE(usable[2]);  // still same-AS, still filtered
}

TEST_F(HopFilterFixture, IndividualConditionsCanBeDisabled) {
  HopFilterConfig lenient;
  lenient.require_different_slash16 = false;
  lenient.require_different_asn = false;
  lenient.require_different_domain = false;
  const auto usable = usable_hops(world_, client_, {hop_in_as(client_as_)}, lenient);
  EXPECT_TRUE(usable[0]);  // only the hard conditions remain
}

TEST_F(HopFilterFixture, DomainConditionCatchesSharedOperator) {
  // Synthetic hop with the client's registrable domain but another AS/IP:
  // the domain rule alone must reject it.
  auto hop = hop_in_as(1);
  const std::string name = "edge1.metro." + world_.graph().node(client_as_).domain;
  hop.rdns = name;
  HopFilterConfig domain_only;
  domain_only.require_different_slash16 = false;
  domain_only.require_different_asn = false;
  EXPECT_FALSE(usable_hops(world_, client_, {hop}, domain_only)[0]);
}

TEST_F(HopFilterFixture, EmptyRouteYieldsEmptyFlags) {
  EXPECT_TRUE(usable_hops(world_, client_, {}).empty());
}

TEST_F(HopFilterFixture, RealTracerouteHasUsableHops) {
  // End-to-end: a traceroute toward a host in a remote AS must expose at
  // least one usable hop once it leaves the client's network.
  std::size_t remote_as = client_as_;
  for (std::size_t v = 0; v < world_.graph().node_count(); ++v) {
    if (v != client_as_ && world_.graph().node(v).tier == topology::AsTier::kStub) {
      remote_as = v;
      break;
    }
  }
  const auto target = world_.add_host(remote_as, topology::HostKind::kServer);
  net::Rng rng(1);
  const auto hops = world_.traceroute(client_, target, rng);
  const auto usable = usable_hops(world_, client_, hops);
  int usable_count = 0;
  for (bool u : usable) usable_count += u ? 1 : 0;
  EXPECT_GT(usable_count, 0);
}

}  // namespace
}  // namespace drongo::measure
