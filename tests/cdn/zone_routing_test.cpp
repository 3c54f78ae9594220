// PublicResolver zone routing: the hashed suffix index against the linear
// longest-suffix scan it replaced, which is kept here as the oracle.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cdn/resolver.hpp"
#include "dns/inmemory.hpp"
#include "net/rng.hpp"

namespace drongo::cdn {
namespace {

/// The rule as the resolver applied it before the hashed index: a map keyed
/// by the (case-insensitively ordered) zone name, so registering a zone
/// again in other case replaces its server, and a linear scan that keeps
/// the longest zone the name is in.
class LinearZoneOracle {
 public:
  void register_zone(const dns::DnsName& zone, net::Ipv4Addr server) { zones_[zone] = server; }

  [[nodiscard]] std::optional<net::Ipv4Addr> authoritative_for(const dns::DnsName& name) const {
    std::optional<net::Ipv4Addr> best;
    std::size_t best_labels = 0;
    for (const auto& [zone, server] : zones_) {
      if (name.is_subdomain_of(zone) && zone.label_count() >= best_labels) {
        best = server;
        best_labels = zone.label_count();
      }
    }
    return best;
  }

 private:
  std::map<dns::DnsName, net::Ipv4Addr> zones_;
};

/// Registers each zone with both the resolver and the oracle.
struct Routing {
  dns::InMemoryDnsNetwork network;
  PublicResolver resolver{&network, net::Ipv4Addr(8, 8, 8, 8)};
  LinearZoneOracle oracle;

  void add(std::string_view zone, net::Ipv4Addr server) {
    const dns::DnsName name = dns::DnsName::must_parse(zone);
    resolver.register_zone(name, server);
    oracle.register_zone(name, server);
  }
  void expect_agree(std::string_view query) const {
    const dns::DnsName name = dns::DnsName::must_parse(query);
    EXPECT_EQ(resolver.authoritative_for(name), oracle.authoritative_for(name)) << query;
  }
};

const net::Ipv4Addr kRootServer(9, 0, 0, 1);
const net::Ipv4Addr kComServer(9, 0, 0, 2);
const net::Ipv4Addr kExampleServer(9, 0, 0, 3);
const net::Ipv4Addr kCdnServer(9, 0, 0, 4);

TEST(ZoneRoutingTest, LongestRegisteredSuffixWins) {
  Routing routing;
  routing.add("example.com", kExampleServer);
  routing.add("cdn.example.com", kCdnServer);
  const auto& resolver = routing.resolver;
  EXPECT_EQ(resolver.authoritative_for(dns::DnsName::must_parse("example.com")), kExampleServer);
  EXPECT_EQ(resolver.authoritative_for(dns::DnsName::must_parse("www.example.com")),
            kExampleServer);
  EXPECT_EQ(resolver.authoritative_for(dns::DnsName::must_parse("cdn.example.com")), kCdnServer);
  EXPECT_EQ(resolver.authoritative_for(dns::DnsName::must_parse("a.b.CDN.Example.COM")),
            kCdnServer);
  // A label boundary matters: "xcdn" is not "cdn", "com" alone is not a zone.
  EXPECT_EQ(resolver.authoritative_for(dns::DnsName::must_parse("xcdn.example.com")),
            kExampleServer);
  EXPECT_EQ(resolver.authoritative_for(dns::DnsName::must_parse("com")), std::nullopt);
  EXPECT_EQ(resolver.authoritative_for(dns::DnsName::must_parse("example.net")), std::nullopt);
  EXPECT_EQ(resolver.authoritative_for(dns::DnsName()), std::nullopt);
}

TEST(ZoneRoutingTest, RootZoneCoversEveryNameButLongerZonesWin) {
  Routing routing;
  routing.add(".", kRootServer);
  routing.add("com", kComServer);
  const auto& resolver = routing.resolver;
  EXPECT_EQ(resolver.authoritative_for(dns::DnsName()), kRootServer);
  EXPECT_EQ(resolver.authoritative_for(dns::DnsName::must_parse("unknown.test")), kRootServer);
  EXPECT_EQ(resolver.authoritative_for(dns::DnsName::must_parse("Example.COM")), kComServer);
}

TEST(ZoneRoutingTest, ReRegisteringInOtherCaseReplacesTheServer) {
  Routing routing;
  routing.add("example.com", kExampleServer);
  routing.add("EXAMPLE.Com", kCdnServer);
  EXPECT_EQ(routing.resolver.authoritative_for(dns::DnsName::must_parse("www.example.com")),
            kCdnServer);
  routing.expect_agree("www.example.com");
  routing.expect_agree("eXample.cOm");
}

TEST(ZoneRoutingTest, MatchesLinearOracleOverRandomZoneSets) {
  // Few labels, so zones nest, collide and repeat in other case often.
  const std::vector<std::string> labels = {"com", "net", "example", "cdn", "a", "b", "in-addr",
                                           "arpa", "x1"};
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    net::Rng rng(seed);
    const auto random_name = [&](std::size_t max_labels) {
      std::string text;
      const std::size_t count = rng.index(max_labels + 1);
      for (std::size_t i = 0; i < count; ++i) {
        std::string label = labels[rng.index(labels.size())];
        for (char& c : label) {
          if (rng.chance(0.3) && c >= 'a' && c <= 'z') c = static_cast<char>(c - 'a' + 'A');
        }
        text += (i == 0 ? "" : ".") + label;
      }
      return text.empty() ? std::string(".") : text;
    };
    Routing routing;
    const std::size_t zones = 1 + rng.index(20);
    for (std::size_t z = 0; z < zones; ++z) {
      // The root (zero labels) comes up now and then.
      routing.add(random_name(3), net::Ipv4Addr(9, 1, 0, static_cast<std::uint8_t>(z)));
    }
    for (int q = 0; q < 200; ++q) routing.expect_agree(random_name(5));
  }
}

/// Answers every query under its zone with a CNAME to `target`.
class CnameServer : public dns::DnsServer {
 public:
  explicit CnameServer(dns::DnsName target) : target_(std::move(target)) {}
  dns::Message handle(const dns::Message& query, net::Ipv4Addr /*source*/) override {
    dns::Message response = dns::Message::make_response(query, dns::Rcode::kNoError);
    response.answers.push_back(dns::ResourceRecord::cname(query.questions[0].name, target_));
    return response;
  }

 private:
  dns::DnsName target_;
};

TEST(ZoneRoutingTest, UnknownNamesAreRefusedAtDepthZeroAndServfailMidChase) {
  dns::InMemoryDnsNetwork network;
  const net::Ipv4Addr resolver_addr(8, 8, 8, 8);
  PublicResolver resolver(&network, resolver_addr);
  CnameServer dangling(dns::DnsName::must_parse("target.unknown.test"));
  resolver.register_zone(dns::DnsName::must_parse("cdn.sim"), kCdnServer);
  network.register_server(kCdnServer, &dangling);
  const net::Ipv4Addr client(20, 1, 36, 10);

  const auto ask = [&](std::string_view name) {
    return resolver.handle(dns::Message::make_query(7, dns::DnsName::must_parse(name)), client);
  };
  EXPECT_EQ(ask("www.unknown.test").header.rcode, dns::Rcode::kRefused);
  EXPECT_EQ(resolver.upstream_queries(), 0u);
  // The zone answers with a CNAME out of every registered zone.
  EXPECT_EQ(ask("IMG.Cdn.Sim").header.rcode, dns::Rcode::kServFail);
  EXPECT_EQ(resolver.upstream_queries(), 1u);
}

}  // namespace
}  // namespace drongo::cdn
