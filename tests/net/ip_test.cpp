#include "net/ip.hpp"

#include <gtest/gtest.h>

#include <string>
#include <unordered_set>

#include "net/error.hpp"

namespace drongo::net {
namespace {

TEST(Ipv4AddrTest, DefaultIsUnspecified) {
  Ipv4Addr addr;
  EXPECT_EQ(addr.to_uint(), 0u);
  EXPECT_TRUE(addr.is_unspecified());
  EXPECT_EQ(addr.to_string(), "0.0.0.0");
}

TEST(Ipv4AddrTest, OctetConstructionMatchesUintConstruction) {
  Ipv4Addr a(192, 0, 2, 1);
  Ipv4Addr b(0xC0000201u);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.octet(0), 192);
  EXPECT_EQ(a.octet(1), 0);
  EXPECT_EQ(a.octet(2), 2);
  EXPECT_EQ(a.octet(3), 1);
}

TEST(Ipv4AddrTest, ParseValid) {
  auto addr = Ipv4Addr::parse("203.0.113.77");
  ASSERT_TRUE(addr.has_value());
  EXPECT_EQ(addr->to_string(), "203.0.113.77");
}

struct BadAddress {
  const char* text;
};

// Print the text, not the pointer's bytes: ctest names parameterized cases
// by this value, so it must be the same on every build.
void PrintTo(const BadAddress& bad, std::ostream* os) {
  *os << ::testing::PrintToString(std::string(bad.text));
}

class Ipv4ParseRejects : public ::testing::TestWithParam<BadAddress> {};

TEST_P(Ipv4ParseRejects, RejectsMalformedText) {
  EXPECT_FALSE(Ipv4Addr::parse(GetParam().text).has_value()) << GetParam().text;
}

INSTANTIATE_TEST_SUITE_P(
    Malformed, Ipv4ParseRejects,
    ::testing::Values(BadAddress{""}, BadAddress{"1.2.3"}, BadAddress{"1.2.3.4.5"},
                      BadAddress{"256.1.1.1"}, BadAddress{"1.2.3.256"},
                      BadAddress{"a.b.c.d"}, BadAddress{"1..2.3"},
                      BadAddress{"1.2.3.4 "}, BadAddress{" 1.2.3.4"},
                      BadAddress{"1.2.3.+4"}, BadAddress{"1.2.3.4x"},
                      BadAddress{"-1.2.3.4"}, BadAddress{"1,2,3,4"}));

TEST(Ipv4AddrTest, MustParseThrowsOnGarbage) {
  EXPECT_THROW(Ipv4Addr::must_parse("not-an-ip"), ParseError);
  EXPECT_NO_THROW(Ipv4Addr::must_parse("10.0.0.1"));
}

TEST(Ipv4AddrTest, RoundTripsThroughText) {
  for (std::uint32_t bits : {0u, 1u, 0x01020304u, 0xFFFFFFFFu, 0x7F000001u, 0xC0A80101u}) {
    Ipv4Addr addr(bits);
    auto back = Ipv4Addr::parse(addr.to_string());
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, addr);
  }
}

TEST(Ipv4AddrTest, ClassifiesPrivateRanges) {
  EXPECT_TRUE(Ipv4Addr(10, 0, 0, 1).is_private());
  EXPECT_TRUE(Ipv4Addr(172, 16, 0, 1).is_private());
  EXPECT_TRUE(Ipv4Addr(172, 31, 255, 255).is_private());
  EXPECT_FALSE(Ipv4Addr(172, 32, 0, 1).is_private());
  EXPECT_FALSE(Ipv4Addr(172, 15, 255, 255).is_private());
  EXPECT_TRUE(Ipv4Addr(192, 168, 5, 5).is_private());
  EXPECT_FALSE(Ipv4Addr(192, 169, 0, 1).is_private());
  EXPECT_FALSE(Ipv4Addr(11, 0, 0, 1).is_private());
}

TEST(Ipv4AddrTest, ClassifiesSpecialRanges) {
  EXPECT_TRUE(Ipv4Addr(127, 0, 0, 1).is_loopback());
  EXPECT_FALSE(Ipv4Addr(128, 0, 0, 1).is_loopback());
  EXPECT_TRUE(Ipv4Addr(169, 254, 1, 1).is_link_local());
  EXPECT_TRUE(Ipv4Addr(224, 0, 0, 1).is_multicast_or_reserved());
  EXPECT_TRUE(Ipv4Addr(240, 0, 0, 1).is_multicast_or_reserved());
  EXPECT_FALSE(Ipv4Addr(223, 255, 255, 255).is_multicast_or_reserved());
}

TEST(Ipv4AddrTest, GlobalUnicastExcludesAllSpecials) {
  EXPECT_TRUE(Ipv4Addr(20, 1, 2, 3).is_global_unicast());
  EXPECT_TRUE(Ipv4Addr(8, 8, 8, 8).is_global_unicast());
  EXPECT_FALSE(Ipv4Addr(10, 1, 2, 3).is_global_unicast());
  EXPECT_FALSE(Ipv4Addr(127, 0, 0, 1).is_global_unicast());
  EXPECT_FALSE(Ipv4Addr(0, 0, 0, 0).is_global_unicast());
  EXPECT_FALSE(Ipv4Addr(239, 1, 1, 1).is_global_unicast());
  EXPECT_FALSE(Ipv4Addr(169, 254, 0, 1).is_global_unicast());
}

TEST(Ipv4AddrTest, OrderingFollowsNumericValue) {
  EXPECT_LT(Ipv4Addr(1, 0, 0, 0), Ipv4Addr(2, 0, 0, 0));
  EXPECT_LT(Ipv4Addr(1, 2, 3, 4), Ipv4Addr(1, 2, 3, 5));
  EXPECT_GT(Ipv4Addr(200, 0, 0, 0), Ipv4Addr(100, 255, 255, 255));
}

TEST(Ipv4AddrTest, HashSpreadsSequentialAddresses) {
  std::unordered_set<std::size_t> hashes;
  for (std::uint32_t i = 0; i < 1000; ++i) {
    hashes.insert(std::hash<Ipv4Addr>{}(Ipv4Addr(0x14000000u + i)));
  }
  // All 1000 sequential addresses hash distinctly.
  EXPECT_EQ(hashes.size(), 1000u);
}

}  // namespace
}  // namespace drongo::net
