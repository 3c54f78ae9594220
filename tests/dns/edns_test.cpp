#include "dns/edns.hpp"

#include <gtest/gtest.h>

#include "net/error.hpp"

namespace drongo::dns {
namespace {

ClientSubnet round_trip(const ClientSubnet& ecs) {
  net::ByteWriter w;
  ecs.encode(w);
  const auto bytes = w.take();
  net::ByteReader r(bytes);
  return ClientSubnet::decode(r, bytes.size());
}

TEST(ClientSubnetTest, ForSubnetBuildsQueryOption) {
  const auto ecs = ClientSubnet::for_subnet(net::Prefix::must_parse("203.0.113.0/24"));
  EXPECT_EQ(ecs.family, 1);
  EXPECT_EQ(ecs.source_prefix_length, 24);
  EXPECT_EQ(ecs.scope_prefix_length, 0);
  EXPECT_EQ(ecs.address, net::Ipv4Addr(203, 0, 113, 0));
  EXPECT_EQ(ecs.source_prefix().to_string(), "203.0.113.0/24");
}

class EcsPrefixLengths : public ::testing::TestWithParam<int> {};

TEST_P(EcsPrefixLengths, RoundTripsAtEveryLength) {
  const int length = GetParam();
  ClientSubnet ecs;
  ecs.family = 1;
  ecs.source_prefix_length = static_cast<std::uint8_t>(length);
  ecs.address = net::Prefix(net::Ipv4Addr(198, 51, 100, 201), length).network();
  const auto back = round_trip(ecs);
  EXPECT_EQ(back, ecs);
}

INSTANTIATE_TEST_SUITE_P(Lengths, EcsPrefixLengths,
                         ::testing::Values(0, 1, 7, 8, 9, 15, 16, 17, 20, 24, 25, 31, 32));

TEST(ClientSubnetTest, EncodingTruncatesAddressBytes) {
  ClientSubnet ecs;
  ecs.source_prefix_length = 24;
  ecs.address = net::Ipv4Addr(10, 20, 30, 0);
  net::ByteWriter w;
  ecs.encode(w);
  // family(2) + source(1) + scope(1) + 3 address bytes for /24.
  EXPECT_EQ(w.size(), 7u);
  EXPECT_EQ(w.bytes()[4], 10);
  EXPECT_EQ(w.bytes()[5], 20);
  EXPECT_EQ(w.bytes()[6], 30);
}

TEST(ClientSubnetTest, ZeroLengthEncodesNoAddress) {
  ClientSubnet ecs;
  ecs.source_prefix_length = 0;
  ecs.address = net::Ipv4Addr(1, 2, 3, 4);
  net::ByteWriter w;
  ecs.encode(w);
  EXPECT_EQ(w.size(), 4u);
}

TEST(ClientSubnetTest, DecodeMasksStrayTrailingBits) {
  // /20 with nonzero bits past bit 20 in the third byte: liberal decode
  // masks them rather than rejecting.
  const std::uint8_t wire[] = {0x00, 0x01, 20, 0, 0xC6, 0x33, 0xFF};
  net::ByteReader r(wire);
  const auto ecs = ClientSubnet::decode(r, sizeof(wire));
  EXPECT_EQ(ecs.source_prefix_length, 20);
  EXPECT_EQ(ecs.address, net::Ipv4Addr(0xC6, 0x33, 0xF0, 0));
}

TEST(ClientSubnetTest, DecodeRejectsShortOption) {
  const std::uint8_t wire[] = {0x00, 0x01, 24};
  net::ByteReader r(wire);
  EXPECT_THROW(ClientSubnet::decode(r, 3), net::ParseError);
}

TEST(ClientSubnetTest, DecodeRejectsWrongAddressByteCount) {
  // /24 requires exactly 3 address bytes; 4 supplied.
  const std::uint8_t wire[] = {0x00, 0x01, 24, 0, 1, 2, 3, 4};
  net::ByteReader r(wire);
  EXPECT_THROW(ClientSubnet::decode(r, sizeof(wire)), net::ParseError);
}

TEST(ClientSubnetTest, DecodeRejectsOverlongPrefix) {
  const std::uint8_t wire[] = {0x00, 0x01, 33, 0, 1, 2, 3, 4, 5};
  net::ByteReader r(wire);
  EXPECT_THROW(ClientSubnet::decode(r, sizeof(wire)), net::ParseError);
}

TEST(ClientSubnetTest, Family2DecodesIntoAddress) {
  // Regression: family 2 used to decode with a zeroed address, making
  // source_prefix() throw InvalidArgument on attacker-suppliable bytes.
  const std::uint8_t wire[] = {0x00, 0x02, 16, 0, 0x20, 0x01};
  net::ByteReader r(wire);
  const auto ecs = ClientSubnet::decode(r, sizeof(wire));
  EXPECT_EQ(ecs.family, 2);
  EXPECT_EQ(ecs.source_prefix_length, 16);
  EXPECT_TRUE(ecs.is_representable());
  EXPECT_FALSE(ecs.address.is_unspecified());
  EXPECT_EQ(ecs.source_prefix().to_string(), "2001::/16");
  EXPECT_EQ(r.remaining(), 0u);
}

class EcsV6PrefixLengths : public ::testing::TestWithParam<int> {};

TEST_P(EcsV6PrefixLengths, Family2RoundTripsAtEveryLength) {
  const int length = GetParam();
  const net::IpAddr addr = net::IpAddr::must_parse("2001:db8:cafe:f00d:8000::1");
  ClientSubnet ecs = ClientSubnet::for_subnet(net::IpPrefix(addr, length));
  EXPECT_EQ(ecs.family, 2);
  const auto back = round_trip(ecs);
  EXPECT_EQ(back, ecs);
  EXPECT_EQ(back.source_prefix(), net::IpPrefix(addr, length));
}

INSTANTIATE_TEST_SUITE_P(Lengths, EcsV6PrefixLengths,
                         ::testing::Values(0, 1, 7, 8, 9, 32, 48, 55, 56, 57, 63, 64,
                                           65, 96, 120, 127, 128));

TEST(ClientSubnetTest, V4MappedV6RoundTrips) {
  const auto subnet = net::IpPrefix::must_parse("::ffff:192.0.2.0/120");
  const auto ecs = ClientSubnet::for_subnet(subnet);
  EXPECT_EQ(ecs.family, 2);
  const auto back = round_trip(ecs);
  EXPECT_EQ(back.source_prefix(), subnet);
}

TEST(ClientSubnetTest, Family2DecodeMasksStrayTrailingBits) {
  // /52 needs 7 address bytes; bits past bit 52 are masked, not rejected.
  const std::uint8_t wire[] = {0x00, 0x02, 52,   0,    0x20, 0x01,
                               0x0d, 0xb8, 0xca, 0xff, 0xff};
  net::ByteReader r(wire);
  const auto ecs = ClientSubnet::decode(r, sizeof(wire));
  EXPECT_EQ(ecs.source_prefix().to_string(), "2001:db8:caff:f000::/52");
}

TEST(ClientSubnetTest, Family2DecodeRejectsMalformed) {
  // Source prefix longer than 128 bits.
  const std::uint8_t overlong_source[] = {0x00, 0x02, 129, 0};
  net::ByteReader r1(overlong_source);
  EXPECT_THROW(ClientSubnet::decode(r1, sizeof(overlong_source)), net::ParseError);
  // Scope longer than 128 bits.
  const std::uint8_t overlong_scope[] = {0x00, 0x02, 16, 129, 0x20, 0x01};
  net::ByteReader r2(overlong_scope);
  EXPECT_THROW(ClientSubnet::decode(r2, sizeof(overlong_scope)), net::ParseError);
  // /56 requires exactly 7 address bytes; 8 supplied.
  const std::uint8_t overlong_addr[] = {0x00, 0x02, 56, 0, 1, 2, 3, 4, 5, 6, 7, 8};
  net::ByteReader r3(overlong_addr);
  EXPECT_THROW(ClientSubnet::decode(r3, sizeof(overlong_addr)), net::ParseError);
}

TEST(ClientSubnetTest, Family1RejectsV6SizedPrefix) {
  // A family-1 option claiming 56 source bits is malformed wire, not a
  // programming error: ParseError, never InvalidArgument.
  const std::uint8_t wire[] = {0x00, 0x01, 56, 0, 1, 2, 3, 4, 5, 6, 7};
  net::ByteReader r(wire);
  try {
    ClientSubnet::decode(r, sizeof(wire));
    FAIL() << "overlong family-1 prefix must not decode";
  } catch (const net::ParseError&) {
  } catch (const net::InvalidArgument& e) {
    FAIL() << "wire data surfaced InvalidArgument: " << e.what();
  }
}

TEST(ClientSubnetTest, UnknownFamilyRoundTripsOpaquely) {
  // Family 3 is foreign: raw bytes are preserved so encode() reproduces the
  // wire, but the option is flagged unrepresentable and every interpreting
  // accessor throws ParseError (wire data — never InvalidArgument).
  const std::uint8_t wire[] = {0x00, 0x03, 16, 0, 0x20, 0x01};
  net::ByteReader r(wire);
  const auto ecs = ClientSubnet::decode(r, sizeof(wire));
  EXPECT_EQ(ecs.family, 3);
  EXPECT_EQ(ecs.source_prefix_length, 16);
  EXPECT_FALSE(ecs.is_representable());
  EXPECT_TRUE(ecs.address.is_unspecified());
  EXPECT_EQ(ecs.opaque_address, (std::vector<std::uint8_t>{0x20, 0x01}));
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_THROW((void)ecs.source_prefix(), net::ParseError);
  EXPECT_THROW((void)ecs.scope_prefix(), net::ParseError);
  EXPECT_EQ(ecs.to_string(), "family3/16/scope0");

  net::ByteWriter w;
  ecs.encode(w);
  EXPECT_EQ(std::vector<std::uint8_t>(wire, wire + sizeof(wire)), w.take());
}

TEST(ClientSubnetTest, UnknownFamilyStillBoundByMinimalEncoding) {
  // ceil(source/8) binds every family, interpretable or not.
  const std::uint8_t wire[] = {0x00, 0x03, 16, 0, 0x20, 0x01, 0xFF};
  net::ByteReader r(wire);
  EXPECT_THROW(ClientSubnet::decode(r, sizeof(wire)), net::ParseError);
}

TEST(ClientSubnetTest, MalformedWireNeverSurfacesInvalidArgument) {
  // The satellite regression pin: a hostile resolver controls every byte of
  // this option, so whatever happens must stay inside the wire-error branch
  // of the failure taxonomy. Silent scope-zero v4 decodes are equally
  // forbidden — family 2 must stay family 2.
  const std::vector<std::vector<std::uint8_t>> corpus = {
      {},                                  // empty option
      {0x00},                              // truncated family
      {0x00, 0x02},                        // no prefix lengths
      {0x00, 0x02, 64},                    // missing scope byte
      {0x00, 0x01, 33, 0, 1, 2, 3, 4, 5},  // v4 source > 32
      {0x00, 0x01, 24, 40, 1, 2, 3},       // v4 scope > 32
      {0x00, 0x02, 129, 0},                // v6 source > 128
      {0x00, 0x02, 24, 0, 1, 2},           // one address byte short
      {0x00, 0x02, 24, 0, 1, 2, 3, 4},     // one address byte long
      {0x00, 0xFF, 8, 0},                  // foreign family, short address
  };
  for (const auto& wire : corpus) {
    net::ByteReader r(wire);
    try {
      const auto ecs = ClientSubnet::decode(r, wire.size());
      // A successful decode must preserve the family: the old code folded
      // family 2 into an unusable zero v4 address.
      EXPECT_EQ(ecs.family, wire.size() >= 2
                                ? (std::uint16_t{wire[0]} << 8 | wire[1])
                                : ecs.family);
      if (ecs.is_representable()) {
        EXPECT_NO_THROW((void)ecs.source_prefix());
      }
    } catch (const net::ParseError&) {
      // The only acceptable failure for wire-supplied bytes.
    } catch (const net::InvalidArgument& e) {
      FAIL() << "wire data surfaced InvalidArgument: " << e.what();
    }
  }
}

TEST(ClientSubnetTest, ScopePrefixReflectsResponse) {
  ClientSubnet ecs = ClientSubnet::for_subnet(net::Prefix::must_parse("20.1.36.0/24"));
  ecs.scope_prefix_length = 16;
  EXPECT_EQ(ecs.scope_prefix().to_string(), "20.1.0.0/16");
  EXPECT_EQ(round_trip(ecs).scope_prefix_length, 16);
}

}  // namespace
}  // namespace drongo::dns
