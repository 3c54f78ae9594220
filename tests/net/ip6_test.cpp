// Dual-stack address layer: Ipv6Addr text forms and classification,
// IpAddr/IpPrefix semantics, the sim's v4-in-v6 embedding, the bogon
// tables (the v4 table is pinned to the is_global_unicast() predicate it
// mirrors), and the per-family default ECS scopes.
#include "net/ip6.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "net/bogon.hpp"
#include "net/error.hpp"
#include "net/ip.hpp"
#include "net/ipaddr.hpp"
#include "net/prefix.hpp"

namespace drongo::net {
namespace {

TEST(Ipv6AddrTest, ParsesCanonicalAndCompressedForms) {
  struct Case {
    std::string text;
    std::uint64_t hi;
    std::uint64_t lo;
  };
  const std::vector<Case> cases = {
      {"::", 0, 0},
      {"::1", 0, 1},
      {"2001:db8::", 0x20010DB8'00000000ULL, 0},
      {"2001:db8::1", 0x20010DB8'00000000ULL, 1},
      {"2001:0db8:0000:0000:0000:0000:0000:0001", 0x20010DB8'00000000ULL, 1},
  };
  for (const auto& c : cases) {
    const auto parsed = Ipv6Addr::parse(c.text);
    ASSERT_TRUE(parsed.has_value()) << c.text;
    EXPECT_EQ(parsed->hi(), c.hi) << c.text;
    EXPECT_EQ(parsed->lo(), c.lo) << c.text;
  }
  // Dotted-quad tail (RFC 4291 mixed form).
  const auto mapped = Ipv6Addr::parse("::ffff:192.0.2.1");
  ASSERT_TRUE(mapped.has_value());
  EXPECT_EQ(*mapped, Ipv6Addr::v4_mapped(Ipv4Addr(192, 0, 2, 1)));
}

TEST(Ipv6AddrTest, RejectsMalformedText) {
  const std::vector<std::string> bad = {
      "",            ":",          ":::",       "1::2::3",
      "12345::",     "g::1",       "1:2:3:4:5:6:7:8:9",
      "1:2:3:4:5:6:7",             "::ffff:192.0.2",
      "::ffff:192.0.2.256",        "fe80::1%eth0",
      "192.0.2.1",  // dotted quad alone is v4, not v6
  };
  for (const auto& text : bad) {
    EXPECT_FALSE(Ipv6Addr::parse(text).has_value()) << text;
    EXPECT_THROW((void)Ipv6Addr::must_parse(text), ParseError) << text;
  }
}

TEST(Ipv6AddrTest, ToStringIsRfc5952Canonical) {
  struct Case {
    std::string in;
    std::string out;
  };
  const std::vector<Case> cases = {
      {"::", "::"},
      {"::1", "::1"},
      {"2001:DB8::1", "2001:db8::1"},             // lowercase
      {"2001:db8:0:0:1:0:0:1", "2001:db8::1:0:0:1"},  // longest zero run wins
      {"2001:db8:0:1:1:1:1:1", "2001:db8:0:1:1:1:1:1"},  // single zero uncompressed
      {"fe80::", "fe80::"},
      {"::ffff:192.0.2.1", "::ffff:192.0.2.1"},   // v4-mapped keeps dotted tail
  };
  for (const auto& c : cases) {
    EXPECT_EQ(Ipv6Addr::must_parse(c.in).to_string(), c.out) << c.in;
  }
}

TEST(Ipv6AddrTest, RoundTripsThroughBytesAndText) {
  const std::vector<std::string> texts = {
      "::", "::1", "2001:db8:cafe:f00d::1", "fe80::dead:beef",
      "::ffff:10.0.0.1", "ff02::fb", "fd00::42"};
  for (const auto& text : texts) {
    const Ipv6Addr addr = Ipv6Addr::must_parse(text);
    EXPECT_EQ(Ipv6Addr::from_bytes(addr.to_bytes()), addr) << text;
    EXPECT_EQ(Ipv6Addr::must_parse(addr.to_string()), addr) << text;
  }
}

TEST(Ipv6AddrTest, ClassifiesSpecialRanges) {
  EXPECT_TRUE(Ipv6Addr::must_parse("::").is_unspecified());
  EXPECT_TRUE(Ipv6Addr::must_parse("::1").is_loopback());
  EXPECT_FALSE(Ipv6Addr::must_parse("::1").is_unspecified());
  EXPECT_TRUE(Ipv6Addr::must_parse("::ffff:1.2.3.4").is_v4_mapped());
  EXPECT_EQ(Ipv6Addr::must_parse("::ffff:1.2.3.4").mapped_v4(), Ipv4Addr(1, 2, 3, 4));
  EXPECT_TRUE(Ipv6Addr::must_parse("fe80::1").is_link_local());
  EXPECT_FALSE(Ipv6Addr::must_parse("fec0::1").is_link_local());
  EXPECT_TRUE(Ipv6Addr::must_parse("fc00::1").is_unique_local());
  EXPECT_TRUE(Ipv6Addr::must_parse("fd12::1").is_unique_local());
  EXPECT_FALSE(Ipv6Addr::must_parse("fe00::1").is_unique_local());
  EXPECT_TRUE(Ipv6Addr::must_parse("ff02::1").is_multicast());
  EXPECT_TRUE(Ipv6Addr::must_parse("2001:db8::1").is_documentation());
  EXPECT_FALSE(Ipv6Addr::must_parse("2001:db9::1").is_documentation());
}

TEST(IpAddrTest, TagsFamilyAndConvertsExplicitly) {
  const IpAddr v4(Ipv4Addr(20, 1, 2, 3));
  EXPECT_TRUE(v4.is_v4());
  EXPECT_EQ(v4.family(), IpFamily::kV4);
  EXPECT_EQ(v4.v4(), Ipv4Addr(20, 1, 2, 3));
  EXPECT_EQ(v4.to_string(), "20.1.2.3");
  // The v6 view of a v4 address is its v4-mapped form.
  EXPECT_TRUE(v4.v6().is_v4_mapped());

  const IpAddr v6(Ipv6Addr::must_parse("2001:db8::1"));
  EXPECT_TRUE(v6.is_v6());
  EXPECT_EQ(v6.to_string(), "2001:db8::1");
  EXPECT_THROW((void)v6.v4(), InvalidArgument);
}

TEST(IpAddrTest, CanonicalFoldsV4MappedIntoFamilyV4) {
  const IpAddr mapped(Ipv6Addr::must_parse("::ffff:192.0.2.7"));
  EXPECT_TRUE(mapped.is_v6());
  const IpAddr canonical = mapped.canonical();
  EXPECT_TRUE(canonical.is_v4());
  EXPECT_EQ(canonical.v4(), Ipv4Addr(192, 0, 2, 7));
  // Genuine v6 is untouched.
  const IpAddr v6(Ipv6Addr::must_parse("2001:db8::1"));
  EXPECT_EQ(v6.canonical(), v6);
}

TEST(IpAddrTest, ParseDispatchesOnFamily) {
  const auto v4 = IpAddr::parse("10.0.0.1");
  ASSERT_TRUE(v4.has_value());
  EXPECT_TRUE(v4->is_v4());
  const auto v6 = IpAddr::parse("2001:db8::2");
  ASSERT_TRUE(v6.has_value());
  EXPECT_TRUE(v6->is_v6());
  EXPECT_FALSE(IpAddr::parse("not-an-address").has_value());
  EXPECT_THROW((void)IpAddr::must_parse("10.0.0"), ParseError);
}

TEST(IpAddrTest, OrdersV4BeforeV6) {
  const IpAddr high_v4(Ipv4Addr(255, 255, 255, 255));
  const IpAddr low_v6(Ipv6Addr{});
  EXPECT_LT(high_v4, low_v6);
}

TEST(IpPrefixTest, MasksHostBitsAndChecksContainment) {
  const IpPrefix p = IpPrefix::must_parse("2001:db8:cafe::/48");
  EXPECT_EQ(p.length(), 48);
  EXPECT_EQ(p.to_string(), "2001:db8:cafe::/48");
  EXPECT_TRUE(p.contains(IpAddr(Ipv6Addr::must_parse("2001:db8:cafe:1::9"))));
  EXPECT_FALSE(p.contains(IpAddr(Ipv6Addr::must_parse("2001:db8:cafd::1"))));
  // Host bits clear on construction.
  const IpPrefix noisy(IpAddr(Ipv6Addr::must_parse("2001:db8:cafe:ffff::1")), 48);
  EXPECT_EQ(noisy, p);
}

TEST(IpPrefixTest, ContainmentIsFamilyChecked) {
  const IpPrefix v6_all = IpPrefix::zero(IpFamily::kV6);
  EXPECT_TRUE(v6_all.contains(IpAddr(Ipv6Addr::must_parse("2001:db8::1"))));
  // ::/0 must never cover a v4 client (RFC 7871: scopes serve their own
  // family only), and 0.0.0.0/0 never covers a v6 one.
  EXPECT_FALSE(v6_all.contains(IpAddr(Ipv4Addr(10, 0, 0, 1))));
  const IpPrefix v4_all = IpPrefix::zero(IpFamily::kV4);
  EXPECT_TRUE(v4_all.contains(IpAddr(Ipv4Addr(10, 0, 0, 1))));
  EXPECT_FALSE(v4_all.contains(IpAddr(Ipv6Addr::must_parse("2001:db8::1"))));
}

TEST(IpPrefixTest, ImplicitV4ConversionPreservesMeaning) {
  const Prefix v4 = Prefix::must_parse("20.1.2.0/24");
  const IpPrefix dual = v4;  // implicit: existing call sites convert freely
  EXPECT_EQ(dual.family(), IpFamily::kV4);
  EXPECT_EQ(dual.length(), 24);
  EXPECT_TRUE(dual.contains(IpAddr(Ipv4Addr(20, 1, 2, 99))));
  ASSERT_TRUE(dual.to_v4().has_value());
  EXPECT_EQ(*dual.to_v4(), v4);
  EXPECT_FALSE(IpPrefix::must_parse("2001:db8::/32").to_v4().has_value());
}

TEST(IpPrefixTest, RejectsOutOfFamilyLengths) {
  EXPECT_THROW(IpPrefix(IpAddr(Ipv4Addr(1, 2, 3, 4)), 33), InvalidArgument);
  EXPECT_THROW(IpPrefix(IpAddr(Ipv6Addr{}), 129), InvalidArgument);
  EXPECT_THROW(IpPrefix(IpAddr(Ipv6Addr{}), -1), InvalidArgument);
  EXPECT_FALSE(IpPrefix::parse("10.0.0.0/33").has_value());
  EXPECT_FALSE(IpPrefix::parse("2001:db8::/129").has_value());
}

TEST(IpPrefixTest, TruncationWidensLikeRfc7871Source) {
  const IpPrefix p = IpPrefix::must_parse("2001:db8:cafe:f00d::/64");
  EXPECT_EQ(p.truncated(48).to_string(), "2001:db8:cafe::/48");
  EXPECT_EQ(p.truncated(0), IpPrefix::zero(IpFamily::kV6));
}

TEST(DefaultEcsScopeTest, Is24ForV4And56ForV6) {
  EXPECT_EQ(default_ecs_scope(IpFamily::kV4), 24);
  EXPECT_EQ(default_ecs_scope(IpFamily::kV6), 56);
  EXPECT_EQ(family_bits(IpFamily::kV4), 32);
  EXPECT_EQ(family_bits(IpFamily::kV6), 128);
}

// --- Sim-world embedding ---------------------------------------------------

TEST(EmbeddingTest, EmbedsV4AtBits32Through63OfDocumentationSpace) {
  const Ipv6Addr v6 = embed_v4(Ipv4Addr(20, 1, 2, 3));
  EXPECT_EQ(v6.to_string(), "2001:db8:1401:203::");
  EXPECT_TRUE(v6.is_documentation());
  EXPECT_TRUE(is_embedded_v4(v6));
  const auto back = extract_embedded_v4(v6);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, Ipv4Addr(20, 1, 2, 3));
  EXPECT_FALSE(extract_embedded_v4(Ipv6Addr::must_parse("2001:db9::1")).has_value());
}

TEST(EmbeddingTest, PrefixLengthShiftsBy32) {
  const IpPrefix v6_56 = embed_v4_prefix(Prefix::must_parse("20.1.2.0/24"));
  EXPECT_EQ(v6_56.length(), 56);
  EXPECT_EQ(v6_56.to_string(), "2001:db8:1401:200::/56");
  const IpPrefix v6_48 = embed_v4_prefix(Prefix::must_parse("20.1.0.0/16"));
  EXPECT_EQ(v6_48.length(), 48);
  EXPECT_TRUE(v6_48.contains(IpAddr(embed_v4(Ipv4Addr(20, 1, 200, 7)))));
}

TEST(EmbeddingTest, EffectiveV4SubnetCoversAllThreeShapes) {
  // Identity for v4.
  const auto v4 = effective_v4_subnet(IpPrefix::must_parse("20.1.2.0/24"));
  ASSERT_TRUE(v4.has_value());
  EXPECT_EQ(*v4, Prefix::must_parse("20.1.2.0/24"));
  // v4-mapped tail at /96 or longer.
  const auto mapped = effective_v4_subnet(IpPrefix::must_parse("::ffff:20.1.2.0/120"));
  ASSERT_TRUE(mapped.has_value());
  EXPECT_EQ(*mapped, Prefix::must_parse("20.1.2.0/24"));
  // Sim embedding: /56 is exactly the v4 /24, /48 coarsens to the /16.
  const auto fine = effective_v4_subnet(embed_v4_prefix(Prefix::must_parse("20.1.2.0/24")));
  ASSERT_TRUE(fine.has_value());
  EXPECT_EQ(*fine, Prefix::must_parse("20.1.2.0/24"));
  const auto coarse =
      effective_v4_subnet(IpPrefix(IpAddr(embed_v4(Ipv4Addr(20, 1, 2, 3))), 48));
  ASSERT_TRUE(coarse.has_value());
  EXPECT_EQ(*coarse, Prefix::must_parse("20.1.0.0/16"));
  // Deeper-than-host embeddings clamp to /32.
  const auto host =
      effective_v4_subnet(IpPrefix(IpAddr(embed_v4(Ipv4Addr(20, 1, 2, 3))), 128));
  ASSERT_TRUE(host.has_value());
  EXPECT_EQ(*host, Prefix::must_parse("20.1.2.3/32"));
  // Plain global v6 has no v4 meaning.
  EXPECT_FALSE(effective_v4_subnet(IpPrefix::must_parse("2400:cb00::/32")).has_value());
  // A too-short embedded prefix doesn't select a subnet either.
  EXPECT_FALSE(effective_v4_subnet(IpPrefix::must_parse("2001:db8::/31")).has_value());
}

// --- Bogon tables ----------------------------------------------------------

TEST(BogonTest, V4TableMirrorsIsGlobalUnicastExactly) {
  // The table exists so v6 can share the mechanism; it must stay
  // bit-identical to the predicate the §3.1 hop filter always used. Sweep
  // the 32-bit space with a golden-ratio stride plus every range boundary.
  const auto check = [](std::uint32_t bits) {
    const Ipv4Addr addr(bits);
    ASSERT_EQ(is_bogon(addr), !addr.is_global_unicast())
        << addr.to_string() << " diverges from is_global_unicast()";
  };
  for (const auto& range : kBogonRangesV4) {
    check(range.bits);
    check(range.bits - 1);
    // A shift by 32 is undefined; a /32 range spans no further address.
    const std::uint32_t span =
        range.length >= 32 ? 0u : (~std::uint32_t{0} >> range.length);
    check(range.bits + span);
    check(range.bits + span + 1);
  }
  std::uint32_t probe = 0;
  for (int i = 0; i < 100000; ++i) {
    check(probe);
    probe += 2654435761u;  // golden-ratio stride visits the space evenly
  }
}

TEST(BogonTest, V6TableRejectsNonRoutableRanges) {
  const std::vector<std::string> bogons = {
      "::",       "::1",        "::ffff:8.8.8.8", "100::1",
      "fc00::1",  "fd12:3456::1", "fe80::1",      "ff02::fb",
  };
  for (const auto& text : bogons) {
    EXPECT_TRUE(is_bogon(Ipv6Addr::must_parse(text))) << text;
  }
  // Documentation space hosts the simulated world — deliberately NOT bogon,
  // mirroring the v4 plan's use of global-looking 20.0.0.0/8.
  const std::vector<std::string> routable = {
      "2001:db8::1", "2001:db8:1401:203::", "2400:cb00::1", "2606:4700::1",
      "::2",  // just past the ::/127 unspecified+loopback pair
  };
  for (const auto& text : routable) {
    EXPECT_FALSE(is_bogon(Ipv6Addr::must_parse(text))) << text;
  }
}

}  // namespace
}  // namespace drongo::net
