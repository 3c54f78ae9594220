// Truncated and looping wires: every strict prefix of the messages the
// simulated DNS path really exchanges (an A+ECS query, a tailored A reply,
// a PTR reply, a CNAME-chain reply) must fail to decode with a typed
// net::Error, never read past its buffer or escape as another exception;
// and a compression-pointer loop must be refused. The wire primitives'
// bounds checks are inlined into the codec, so this pins every one of them
// on real message shapes, in the sanitizer slice (label `codec`).
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <variant>
#include <vector>

#include "dns/message.hpp"
#include "dns/reverse.hpp"
#include "measure/testbed.hpp"
#include "net/error.hpp"

namespace drongo::dns {
namespace {

template <typename Rdata>
bool has_answer(const Message& m) {
  for (const auto& rr : m.answers) {
    if (std::holds_alternative<Rdata>(rr.rdata)) return true;
  }
  return false;
}

/// Wires captured from a small testbed's public resolver.
class CodecTruncationTest : public ::testing::Test {
 protected:
  CodecTruncationTest() : testbed_(config()) {}

  static measure::TestbedConfig config() {
    measure::TestbedConfig config;
    config.as_config.tier1_count = 4;
    config.as_config.tier2_count = 8;
    config.as_config.stub_count = 20;
    config.client_count = 2;
    config.site_count = 2;
    config.seed = 5;
    return config;
  }

  Message ask(const Message& query) {
    return testbed_.resolver().handle(query, testbed_.clients()[0]);
  }

  [[nodiscard]] net::Prefix client_subnet() const {
    return net::Prefix(testbed_.clients()[0], 24);
  }

  measure::Testbed testbed_;
};

/// Decodes the whole wire, then every strict prefix of it.
void expect_prefixes_fail(const std::vector<std::uint8_t>& wire, const char* what) {
  const Message whole = Message::decode(wire);
  EXPECT_EQ(whole.encode(), wire) << what;
  for (std::size_t length = 0; length < wire.size(); ++length) {
    const std::span<const std::uint8_t> prefix(wire.data(), length);
    EXPECT_THROW((void)Message::decode(prefix), net::Error)
        << what << ": prefix of " << length << " of " << wire.size() << " bytes";
  }
}

TEST_F(CodecTruncationTest, EcsQueryPrefixesAreTypedErrors) {
  const Message query =
      Message::make_query(0x1234, testbed_.content_names(0).front(), client_subnet());
  ASSERT_TRUE(query.client_subnet().has_value());
  expect_prefixes_fail(query.encode(), "A+ECS query");
}

TEST_F(CodecTruncationTest, TailoredAReplyPrefixesAreTypedErrors) {
  const Message query =
      Message::make_query(0x2345, testbed_.content_names(0).front(), client_subnet());
  const Message reply = ask(query);
  ASSERT_EQ(reply.header.rcode, Rcode::kNoError);
  ASSERT_FALSE(reply.answer_addresses().empty());
  ASSERT_TRUE(reply.client_subnet().has_value());
  expect_prefixes_fail(reply.encode(), "tailored A reply");
}

TEST_F(CodecTruncationTest, PtrReplyPrefixesAreTypedErrors) {
  const net::Ipv4Addr router(testbed_.world().block_of(0).network().to_uint() | 1u);
  const Message query =
      Message::make_query(0x3456, reverse_pointer_name(router), std::nullopt, RrType::kPtr);
  const Message reply = ask(query);
  ASSERT_TRUE(has_answer<PtrRdata>(reply));
  expect_prefixes_fail(reply.encode(), "PTR reply");
}

TEST_F(CodecTruncationTest, CnameChainReplyPrefixesAreTypedErrors) {
  const Message query = Message::make_query(0x4567, testbed_.sites().front().host,
                                            client_subnet());
  const Message reply = ask(query);
  ASSERT_TRUE(has_answer<CnameRdata>(reply));
  ASSERT_FALSE(reply.answer_addresses().empty());
  expect_prefixes_fail(reply.encode(), "CNAME-chain reply");
}

TEST_F(CodecTruncationTest, CompressionPointerLoopsAreRefused) {
  // One question whose name is label "a" followed by a pointer back to it:
  // every pointer points backward, yet the name never ends.
  const std::vector<std::uint8_t> loop = {
      0x00, 0x01, 0x01, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // header
      0x01, 'a', 0xC0, 0x0C,                                                   // a, ptr 12
      0x00, 0x01, 0x00, 0x01};                                                 // A, IN
  EXPECT_THROW((void)Message::decode(loop), net::ParseError);
  // A pointer to itself.
  const std::vector<std::uint8_t> self = {
      0x00, 0x01, 0x01, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0xC0, 0x0C, 0x00, 0x01, 0x00, 0x01};
  EXPECT_THROW((void)Message::decode(self), net::ParseError);
}

}  // namespace
}  // namespace drongo::dns
