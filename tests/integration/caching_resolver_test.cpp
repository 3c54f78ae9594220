// Assimilation under a CACHING recursive resolver.
//
// The paper's Drongo forwards through Google Public DNS, which caches
// aggressively. Correctness rests on RFC 7871 scoped caching: an answer
// tailored to subnet S may be reused only for queries whose subnet falls
// inside the returned SCOPE. These tests pin that property end to end —
// an assimilated answer must never be served to a plain query (or another
// hop's query) from the cache, and vice versa.
#include <gtest/gtest.h>

#include <set>

#include "cdn/authoritative.hpp"
#include "cdn/deploy.hpp"
#include "cdn/resolver.hpp"
#include "dns/inmemory.hpp"
#include "dns/stub_resolver.hpp"
#include "topology/as_gen.hpp"

namespace drongo {
namespace {

class CachingFixture : public ::testing::Test {
 protected:
  CachingFixture() {
    topology::AsGenConfig as_config;
    as_config.tier1_count = 4;
    as_config.tier2_count = 8;
    as_config.stub_count = 30;
    as_config.seed = 151;
    auto graph = topology::generate_as_graph(as_config);
    net::Rng rng(152);
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
    resolver_ =
        std::make_unique<cdn::PublicResolver>(&network_, resolver_addr_,
                                              cdn::ServingConfig{.enable_cache = true});
    resolver_->register_zone(dns::DnsName::must_parse(provider_->profile().zone),
                             auth_addr_);
    network_.register_server(resolver_addr_, resolver_.get());

    for (std::size_t v = 0; v < world_->graph().node_count(); ++v) {
      if (world_->graph().node(v).tier == topology::AsTier::kStub) {
        client_ = world_->add_host(v, topology::HostKind::kClient);
        break;
      }
    }
  }

  /// A /24 in a far-away AS block, usable as an assimilation target.
  net::Prefix foreign_subnet(std::size_t as_index) const {
    return net::Prefix(
        net::Ipv4Addr(world_->block_of(as_index).network().to_uint() | (40u << 8)), 24);
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

TEST_F(CachingFixture, AssimilatedAnswersAreScopedNotLeaked) {
  dns::StubResolver stub(&network_, client_, resolver_addr_, 5);
  const auto domain = dns::DnsName::must_parse("img." + provider_->profile().zone);
  resolver_->set_time_ms(0);

  // Own-subnet answer first.
  const auto own = stub.resolve_with_own_subnet(domain);
  ASSERT_TRUE(own.ok());

  // Assimilate a far subnet: must NOT be served the client's cached answer
  // (different /24, and the scope returned for the client's subnet is /24).
  const auto upstream_before = resolver_->upstream_queries();
  const auto assimilated = stub.resolve(domain, foreign_subnet(5));
  ASSERT_TRUE(assimilated.ok());
  EXPECT_GT(resolver_->upstream_queries(), upstream_before)
      << "assimilated query must bypass the own-subnet cache entry";

  // And the reverse: a fresh own-subnet query must hit the client's own
  // cached entry, not the assimilated one.
  const auto upstream_mid = resolver_->upstream_queries();
  const auto own_again = stub.resolve_with_own_subnet(domain);
  ASSERT_TRUE(own_again.ok());
  EXPECT_EQ(resolver_->upstream_queries(), upstream_mid)
      << "own-subnet answer should come from cache";
  // Same serving set as before (cache returns the cached addresses).
  EXPECT_EQ(std::set<net::Ipv4Addr>(own_again.addresses.begin(), own_again.addresses.end()),
            std::set<net::Ipv4Addr>(own.addresses.begin(), own.addresses.end()));
}

TEST_F(CachingFixture, DistinctAssimilationTargetsGetDistinctCacheEntries) {
  dns::StubResolver stub(&network_, client_, resolver_addr_, 6);
  const auto domain = dns::DnsName::must_parse("img." + provider_->profile().zone);
  resolver_->set_time_ms(0);

  const auto a = stub.resolve(domain, foreign_subnet(3));
  const auto b = stub.resolve(domain, foreign_subnet(9));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());

  // Repeat both within TTL: both served from cache, each with its own set.
  const auto upstream_before = resolver_->upstream_queries();
  const auto a2 = stub.resolve(domain, foreign_subnet(3));
  const auto b2 = stub.resolve(domain, foreign_subnet(9));
  EXPECT_EQ(resolver_->upstream_queries(), upstream_before);
  EXPECT_EQ(std::set<net::Ipv4Addr>(a2.addresses.begin(), a2.addresses.end()),
            std::set<net::Ipv4Addr>(a.addresses.begin(), a.addresses.end()));
  EXPECT_EQ(std::set<net::Ipv4Addr>(b2.addresses.begin(), b2.addresses.end()),
            std::set<net::Ipv4Addr>(b.addresses.begin(), b.addresses.end()));
}

TEST_F(CachingFixture, CachedAnswersExpireAndRefresh) {
  dns::StubResolver stub(&network_, client_, resolver_addr_, 7);
  const auto domain = dns::DnsName::must_parse("img." + provider_->profile().zone);
  resolver_->set_time_ms(0);
  ASSERT_TRUE(stub.resolve_with_own_subnet(domain).ok());
  const auto upstream_before = resolver_->upstream_queries();
  // Past the 30 s TTL the entry must refresh upstream.
  resolver_->set_time_ms(31'000);
  ASSERT_TRUE(stub.resolve_with_own_subnet(domain).ok());
  EXPECT_GT(resolver_->upstream_queries(), upstream_before);
}

}  // namespace
}  // namespace drongo
