#include "dns/message.hpp"

#include <gtest/gtest.h>

#include "net/error.hpp"

namespace drongo::dns {
namespace {

TEST(MessageTest, QueryBuilderSetsEcs) {
  const auto query = Message::make_query(0x1234, DnsName::must_parse("img.cdn.sim"),
                                         net::Prefix::must_parse("20.1.36.0/24"));
  EXPECT_EQ(query.header.id, 0x1234);
  EXPECT_FALSE(query.header.qr);
  EXPECT_TRUE(query.header.rd);
  ASSERT_EQ(query.questions.size(), 1u);
  EXPECT_EQ(query.questions[0].type, RrType::kA);
  ASSERT_TRUE(query.client_subnet().has_value());
  EXPECT_EQ(query.client_subnet()->source_prefix().to_string(), "20.1.36.0/24");
}

TEST(MessageTest, QueryWithoutEcsHasEdnsButNoOption) {
  const auto query = Message::make_query(7, DnsName::must_parse("a.b"));
  ASSERT_TRUE(query.edns.has_value());
  EXPECT_FALSE(query.client_subnet().has_value());
}

TEST(MessageTest, WireRoundTripFullMessage) {
  auto query = Message::make_query(42, DnsName::must_parse("img.cdn.sim"),
                                   net::Prefix::must_parse("198.51.100.0/24"));
  auto response = Message::make_response(query, Rcode::kNoError, /*ecs_scope=*/20);
  response.answers.push_back(
      ResourceRecord::a(query.questions[0].name, net::Ipv4Addr(21, 8, 84, 10), 30));
  response.answers.push_back(
      ResourceRecord::a(query.questions[0].name, net::Ipv4Addr(21, 8, 85, 10), 30));
  response.authority.push_back(ResourceRecord::ns(DnsName::must_parse("cdn.sim"),
                                                  DnsName::must_parse("ns1.cdn.sim")));

  const auto wire = response.encode();
  const auto decoded = Message::decode(wire);

  EXPECT_EQ(decoded.header.id, 42);
  EXPECT_TRUE(decoded.header.qr);
  EXPECT_TRUE(decoded.header.aa);
  EXPECT_EQ(decoded.header.rcode, Rcode::kNoError);
  ASSERT_EQ(decoded.questions.size(), 1u);
  ASSERT_EQ(decoded.answers.size(), 2u);
  ASSERT_EQ(decoded.authority.size(), 1u);
  ASSERT_TRUE(decoded.edns.has_value());
  ASSERT_TRUE(decoded.client_subnet().has_value());
  EXPECT_EQ(decoded.client_subnet()->scope_prefix_length, 20);
  EXPECT_EQ(decoded.client_subnet()->source_prefix_length, 24);
}

TEST(MessageTest, OptRecordIsLiftedNotListed) {
  const auto query = Message::make_query(1, DnsName::must_parse("x.y"),
                                         net::Prefix::must_parse("10.0.0.0/24"));
  const auto wire = query.encode();
  // Wire carries ARCOUNT = 1 (the OPT record)...
  EXPECT_EQ(wire[11], 1);
  // ...but the decoded message exposes it as `edns`, not `additional`.
  const auto decoded = Message::decode(wire);
  EXPECT_TRUE(decoded.additional.empty());
  EXPECT_TRUE(decoded.edns.has_value());
}

TEST(MessageTest, AnswerAddressesPreservesServerOrder) {
  Message m;
  const auto name = DnsName::must_parse("a.b");
  m.answers.push_back(ResourceRecord::a(name, net::Ipv4Addr(1, 1, 1, 3)));
  m.answers.push_back(ResourceRecord::a(name, net::Ipv4Addr(1, 1, 1, 1)));
  m.answers.push_back(ResourceRecord::cname(name, DnsName::must_parse("c.d")));
  m.answers.push_back(ResourceRecord::a(name, net::Ipv4Addr(1, 1, 1, 2)));
  const auto addrs = m.answer_addresses();
  ASSERT_EQ(addrs.size(), 3u);
  EXPECT_EQ(addrs[0], net::Ipv4Addr(1, 1, 1, 3));  // order kept, CNAME skipped
  EXPECT_EQ(addrs[1], net::Ipv4Addr(1, 1, 1, 1));
  EXPECT_EQ(addrs[2], net::Ipv4Addr(1, 1, 1, 2));
}

TEST(MessageTest, ResponseEchoesQuestionAndEcsWithScope) {
  const auto query = Message::make_query(9, DnsName::must_parse("q.r"),
                                         net::Prefix::must_parse("20.5.40.0/24"));
  const auto response = Message::make_response(query, Rcode::kNxDomain, 24);
  EXPECT_TRUE(response.header.qr);
  EXPECT_EQ(response.header.rcode, Rcode::kNxDomain);
  EXPECT_EQ(response.questions, query.questions);
  ASSERT_TRUE(response.client_subnet().has_value());
  EXPECT_EQ(response.client_subnet()->scope_prefix_length, 24);
}

TEST(MessageTest, SetAndClearClientSubnet) {
  Message m;
  EXPECT_FALSE(m.client_subnet().has_value());
  m.set_client_subnet(ClientSubnet::for_subnet(net::Prefix::must_parse("20.0.36.0/24")));
  ASSERT_TRUE(m.client_subnet().has_value());
  m.clear_client_subnet();
  EXPECT_FALSE(m.client_subnet().has_value());
  EXPECT_TRUE(m.edns.has_value());  // EDNS block survives
}

TEST(MessageTest, DecodeRejectsTwoOptRecords) {
  auto query = Message::make_query(1, DnsName::must_parse("x.y"),
                                   net::Prefix::must_parse("10.0.0.0/24"));
  auto wire = query.encode();
  // Duplicate the OPT record bytes by re-encoding with an extra additional
  // OPT: craft by patching ARCOUNT and appending a minimal OPT record.
  wire[11] = 2;
  const std::uint8_t opt[] = {0x00, 0x00, 0x29, 0x04, 0xD0, 0, 0, 0, 0, 0x00, 0x00};
  wire.insert(wire.end(), std::begin(opt), std::end(opt));
  EXPECT_THROW(Message::decode(wire), net::ParseError);
}

TEST(MessageTest, DecodeRejectsNonRootOpt) {
  auto query = Message::make_query(1, DnsName::must_parse("x.y"));
  auto wire = query.encode();
  // The OPT owner is the root (one zero byte) right after the question.
  // Find the OPT: last 11 bytes of our encoding (root + fixed OPT header).
  const std::size_t opt_at = wire.size() - 11;
  ASSERT_EQ(wire[opt_at], 0x00);
  ASSERT_EQ(wire[opt_at + 1], 0x00);
  ASSERT_EQ(wire[opt_at + 2], 0x29);
  // Rewrite owner as a pointer to the question name (offset 12) instead of
  // root: replace 1 byte with 2 — rebuild the tail.
  std::vector<std::uint8_t> patched(wire.begin(), wire.begin() + static_cast<std::ptrdiff_t>(opt_at));
  patched.push_back(0xC0);
  patched.push_back(12);
  patched.insert(patched.end(), wire.begin() + static_cast<std::ptrdiff_t>(opt_at) + 1, wire.end());
  EXPECT_THROW(Message::decode(patched), net::ParseError);
}

TEST(MessageTest, DecodeRejectsTruncatedHeader) {
  const std::uint8_t tiny[] = {0x00, 0x01, 0x00};
  EXPECT_THROW(Message::decode(tiny), net::Error);
}

TEST(MessageTest, EmptyMessageRoundTrips) {
  Message m;
  const auto decoded = Message::decode(m.encode());
  EXPECT_EQ(decoded.questions.size(), 0u);
  EXPECT_EQ(decoded.answers.size(), 0u);
  EXPECT_FALSE(decoded.edns.has_value());
}

TEST(MessageTest, SeveralQuestionsRoundTripInOrder) {
  // One question is stored inline; a second moves every question into the
  // overflow vector, including one copied from the list itself.
  Message m = Message::make_query(9, DnsName::must_parse("a.cdn.sim"));
  m.questions.push_back(m.questions[0]);
  m.questions.push_back({DnsName::must_parse("b.cdn.sim"), RrType::kPtr, RrClass::kIn});
  ASSERT_EQ(m.questions.size(), 3u);
  EXPECT_EQ(m.questions[1], m.questions[0]);

  const auto wire = m.encode();
  EXPECT_EQ(wire[5], 3);  // QDCOUNT
  const auto decoded = Message::decode(wire);
  ASSERT_EQ(decoded.questions.size(), 3u);
  EXPECT_EQ(decoded.questions, m.questions);
  EXPECT_EQ(decoded.questions[2].name, DnsName::must_parse("b.cdn.sim"));
  EXPECT_EQ(decoded.questions[2].type, RrType::kPtr);
  const Message single = Message::make_query(9, DnsName::must_parse("a.cdn.sim"));
  EXPECT_FALSE(decoded.questions == single.questions);
}

TEST(MessageTest, OtherEdnsOptionsSurviveRoundTrip) {
  Message m = Message::make_query(5, DnsName::must_parse("x.y"),
                                  net::Prefix::must_parse("10.0.0.0/24"));
  m.edns->other_options.push_back({10 /* COOKIE */, {1, 2, 3, 4, 5, 6, 7, 8}});
  const auto decoded = Message::decode(m.encode());
  ASSERT_TRUE(decoded.edns.has_value());
  ASSERT_EQ(decoded.edns->other_options.size(), 1u);
  EXPECT_EQ(decoded.edns->other_options[0].code, 10);
  EXPECT_EQ(decoded.edns->other_options[0].payload.size(), 8u);
  EXPECT_TRUE(decoded.client_subnet().has_value());
}

TEST(MessageTest, FlagsRoundTripExactly) {
  Message m;
  m.header.id = 0xBEEF;
  m.header.qr = true;
  m.header.aa = true;
  m.header.tc = true;
  m.header.rd = false;
  m.header.ra = true;
  m.header.rcode = Rcode::kRefused;
  const auto decoded = Message::decode(m.encode());
  EXPECT_EQ(decoded.header, m.header);
}

}  // namespace
}  // namespace drongo::dns
