// CdnAuthoritative and PublicResolver behaviour.
#include <gtest/gtest.h>

#include "cdn/authoritative.hpp"
#include "cdn/deploy.hpp"
#include "cdn/resolver.hpp"
#include "dns/inmemory.hpp"
#include "dns/stub_resolver.hpp"
#include "topology/as_gen.hpp"

namespace drongo::cdn {
namespace {

class DnsServersFixture : public ::testing::Test {
 protected:
  DnsServersFixture() {
    topology::AsGenConfig as_config;
    as_config.tier1_count = 4;
    as_config.tier2_count = 8;
    as_config.stub_count = 20;
    as_config.seed = 21;
    auto graph = topology::generate_as_graph(as_config);
    net::Rng rng(22);
    plan_ = plan_cdn(graph, google_like(), rng);
    // Spill-free restricted profile so ECS-insensitivity is exactly
    // observable (load balancing would otherwise add per-query noise).
    CdnProfile restricted_profile = akamai_like_restricted();
    restricted_profile.lb_spill_prob = 0.0;
    restricted_plan_ = plan_cdn(graph, restricted_profile, rng);
    world_ = std::make_unique<topology::World>(std::move(graph));
    provider_ = std::make_unique<CdnProvider>(deploy_cdn(*world_, plan_));
    restricted_ = std::make_unique<CdnProvider>(deploy_cdn(*world_, restricted_plan_));
    auth_ = std::make_unique<CdnAuthoritative>(provider_.get());
    restricted_auth_ = std::make_unique<CdnAuthoritative>(restricted_.get());

    auth_addr_ = world_->add_host(provider_->as_index(), topology::HostKind::kServer, 0);
    restricted_addr_ =
        world_->add_host(restricted_->as_index(), topology::HostKind::kServer, 0);
    network_.register_server(auth_addr_, auth_.get());
    network_.register_server(restricted_addr_, restricted_auth_.get());

    for (std::size_t v = 0; v < world_->graph().node_count(); ++v) {
      if (world_->graph().node(v).tier == topology::AsTier::kStub) {
        client_ = world_->add_host(v, topology::HostKind::kClient);
        break;
      }
    }
  }

  dns::Message query_for(const std::string& name,
                         std::optional<net::Prefix> ecs = std::nullopt) {
    return dns::Message::make_query(99, dns::DnsName::must_parse(name), ecs);
  }

  CdnPlan plan_;
  CdnPlan restricted_plan_;
  std::unique_ptr<topology::World> world_;
  std::unique_ptr<CdnProvider> provider_;
  std::unique_ptr<CdnProvider> restricted_;
  std::unique_ptr<CdnAuthoritative> auth_;
  std::unique_ptr<CdnAuthoritative> restricted_auth_;
  dns::InMemoryDnsNetwork network_;
  net::Ipv4Addr auth_addr_;
  net::Ipv4Addr restricted_addr_;
  net::Ipv4Addr client_;
};

TEST_F(DnsServersFixture, AnswersContentNames) {
  for (const auto& name : auth_->content_names()) {
    const auto response =
        auth_->handle(query_for(name.to_string(), net::Prefix(client_, 24)), client_);
    EXPECT_EQ(response.header.rcode, dns::Rcode::kNoError);
    EXPECT_FALSE(response.answer_addresses().empty()) << name.to_string();
    EXPECT_TRUE(response.header.aa);
  }
}

TEST_F(DnsServersFixture, NxdomainInsideZoneRefusedOutside) {
  const auto inside = auth_->handle(
      query_for("nosuch." + provider_->profile().zone, net::Prefix(client_, 24)), client_);
  EXPECT_EQ(inside.header.rcode, dns::Rcode::kNxDomain);
  const auto outside =
      auth_->handle(query_for("img.other.sim", net::Prefix(client_, 24)), client_);
  EXPECT_EQ(outside.header.rcode, dns::Rcode::kRefused);
}

TEST_F(DnsServersFixture, NonAQueryGetsEmptyNoError) {
  auto query = query_for("img." + provider_->profile().zone, net::Prefix(client_, 24));
  query.questions[0].type = dns::RrType::kTxt;
  const auto response = auth_->handle(query, client_);
  EXPECT_EQ(response.header.rcode, dns::Rcode::kNoError);
  EXPECT_TRUE(response.answers.empty());
}

TEST_F(DnsServersFixture, EcsScopeEchoesGranularity) {
  const auto response = auth_->handle(
      query_for("img." + provider_->profile().zone, net::Prefix(client_, 24)), client_);
  ASSERT_TRUE(response.client_subnet().has_value());
  EXPECT_EQ(response.client_subnet()->scope_prefix_length,
            provider_->profile().mapping_granularity);
}

TEST_F(DnsServersFixture, EcsChangesTheAnswer) {
  // Two distant subnets receive (usually) different replica sets; verify
  // that the announced subnet, not the transport source, drives mapping.
  const auto name = "img." + provider_->profile().zone;
  std::set<net::Ipv4Addr> from_a;
  std::set<net::Ipv4Addr> from_b;
  for (int i = 0; i < 6; ++i) {
    for (auto addr : auth_->handle(query_for(name, net::Prefix(client_, 24)), client_)
                         .answer_addresses()) {
      from_a.insert(addr);
    }
    // A router subnet on another continent's AS block.
    for (auto addr : auth_->handle(
                             query_for(name, net::Prefix(world_->block_of(2).network(), 24)),
                             client_)
                         .answer_addresses()) {
      from_b.insert(addr);
    }
  }
  EXPECT_NE(from_a, from_b);
}

TEST_F(DnsServersFixture, RestrictedEcsIgnoresTheOption) {
  // The Akamai-like provider ignores ECS: answers track the resolver source
  // address regardless of the announced subnet (§2.2 — unusable by Drongo).
  const auto name = "img." + restricted_->profile().zone;
  std::set<net::Ipv4Addr> with_ecs_a;
  std::set<net::Ipv4Addr> with_ecs_b;
  for (int i = 0; i < 8; ++i) {
    for (auto addr :
         restricted_auth_->handle(query_for(name, net::Prefix(client_, 24)), client_)
             .answer_addresses()) {
      with_ecs_a.insert(addr);
    }
    for (auto addr : restricted_auth_
                         ->handle(query_for(name, net::Prefix(world_->block_of(2).network(), 24)),
                                  client_)
                         .answer_addresses()) {
      with_ecs_b.insert(addr);
    }
  }
  EXPECT_EQ(with_ecs_a, with_ecs_b);
}

TEST_F(DnsServersFixture, ResolverRoutesByZoneSuffix) {
  PublicResolver resolver(&network_, client_);
  resolver.register_zone(dns::DnsName::must_parse(provider_->profile().zone), auth_addr_);
  const auto response =
      resolver.handle(query_for("img." + provider_->profile().zone), client_);
  EXPECT_EQ(response.header.rcode, dns::Rcode::kNoError);
  EXPECT_TRUE(response.header.ra);
  EXPECT_FALSE(response.answer_addresses().empty());
  const auto refused = resolver.handle(query_for("www.unknown.sim"), client_);
  EXPECT_EQ(refused.header.rcode, dns::Rcode::kRefused);
}

TEST_F(DnsServersFixture, ResolverInsertsClientSubnetWhenMissing) {
  PublicResolver resolver(&network_, client_);
  resolver.register_zone(dns::DnsName::must_parse(provider_->profile().zone), auth_addr_);
  // No ECS in the query: the resolver must add source/24 upstream but strip
  // the option from the client-facing reply.
  const auto response =
      resolver.handle(query_for("img." + provider_->profile().zone), client_);
  EXPECT_FALSE(response.client_subnet().has_value());
  // With ECS: it is forwarded and echoed.
  const auto with = resolver.handle(
      query_for("img." + provider_->profile().zone, net::Prefix(client_, 24)), client_);
  EXPECT_TRUE(with.client_subnet().has_value());
}

TEST_F(DnsServersFixture, ResolverCacheRespectsScope) {
  PublicResolver resolver(&network_, client_, ServingConfig{.enable_cache = true});
  resolver.register_zone(dns::DnsName::must_parse(provider_->profile().zone), auth_addr_);
  const auto name = "img." + provider_->profile().zone;
  resolver.set_time_ms(0);
  resolver.handle(query_for(name, net::Prefix(client_, 24)), client_);
  const auto upstream_after_first = resolver.upstream_queries();
  // Same subnet again within TTL: served from cache.
  resolver.handle(query_for(name, net::Prefix(client_, 24)), client_);
  EXPECT_EQ(resolver.upstream_queries(), upstream_after_first);
  // Different subnet outside the returned scope: goes upstream.
  resolver.handle(query_for(name, net::Prefix(world_->block_of(3).network(), 24)), client_);
  EXPECT_GT(resolver.upstream_queries(), upstream_after_first);
  // After TTL expiry the original subnet refetches too.
  resolver.set_time_ms(120'000);
  resolver.handle(query_for(name, net::Prefix(client_, 24)), client_);
  EXPECT_GT(resolver.upstream_queries(), upstream_after_first + 1);
}

}  // namespace
}  // namespace drongo::cdn
