// DNS over TCP and the truncation rules: TcpDnsClient against a
// DaemonServer's TCP listener. The UDP->TCP fallback path itself is
// DaemonServerTest.TruncationFallsBackToTcp.
#include <gtest/gtest.h>

#include "dns/daemon_server.hpp"
#include "dns/tcp.hpp"
#include "net/error.hpp"

namespace drongo::dns {
namespace {

/// Answers A queries normally and "big" queries with a response far larger
/// than any UDP advertisement.
class BigAnswerServer : public DnsServer {
 public:
  Message handle(const Message& query, net::Ipv4Addr /*source*/) override {
    Message response = Message::make_response(query, Rcode::kNoError, 24);
    const auto& name = query.questions[0].name;
    response.answers.push_back(ResourceRecord::a(name, net::Ipv4Addr(21, 1, 1, 1), 30));
    if (name.labels().front() == "big") {
      for (int i = 0; i < 40; ++i) {
        response.answers.push_back(
            ResourceRecord::txt(name, {std::string(120, static_cast<char>('a' + i % 26))}));
      }
    }
    return response;
  }
};

TEST(TruncationTest, MaxPayloadRules) {
  Message no_edns;
  EXPECT_EQ(max_udp_payload(no_edns), 512u);
  Message with_edns;
  with_edns.edns.emplace();
  with_edns.edns->udp_payload_size = 4096;
  EXPECT_EQ(max_udp_payload(with_edns), 4096u);
  // Sub-512 advertisements are clamped up per RFC 6891.
  with_edns.edns->udp_payload_size = 100;
  EXPECT_EQ(max_udp_payload(with_edns), 512u);
}

TEST(TruncationTest, SmallMessagesUntouched) {
  auto query = Message::make_query(1, DnsName::must_parse("a.b"));
  auto response = Message::make_response(query, Rcode::kNoError);
  response.answers.push_back(
      ResourceRecord::a(DnsName::must_parse("a.b"), net::Ipv4Addr(1, 1, 1, 1)));
  EXPECT_FALSE(truncate_to_fit(response, 512));
  EXPECT_FALSE(response.header.tc);
  EXPECT_EQ(response.answers.size(), 1u);
}

TEST(TruncationTest, OversizeMessagesTruncatedWithTc) {
  auto query = Message::make_query(1, DnsName::must_parse("a.b"));
  auto response = Message::make_response(query, Rcode::kNoError);
  for (int i = 0; i < 40; ++i) {
    response.answers.push_back(
        ResourceRecord::txt(DnsName::must_parse("a.b"), {std::string(100, 'x')}));
  }
  EXPECT_TRUE(truncate_to_fit(response, 512));
  EXPECT_TRUE(response.header.tc);
  EXPECT_TRUE(response.answers.empty());
  EXPECT_LE(response.encode().size(), 512u);
}

TEST(TcpDnsTest, QueryOverTcp) {
  BigAnswerServer handler;
  DaemonServer server(&handler);
  ASSERT_NE(server.tcp_port(), 0);

  TcpDnsClient client(2000);
  const net::Ipv4Addr virtual_server(9, 9, 9, 9);
  client.register_endpoint(virtual_server, server.tcp_port());

  const auto query = Message::make_query(0x42, DnsName::must_parse("img.cdn.sim"));
  const auto reply = Message::decode(
      client.exchange(net::Ipv4Addr(10, 0, 0, 1), virtual_server, query.encode()));
  EXPECT_EQ(reply.header.id, 0x42);
  ASSERT_EQ(reply.answer_addresses().size(), 1u);
  server.stop();
  EXPECT_EQ(server.stats().tcp_responses, 1u);
}

TEST(TcpDnsTest, LargeAnswerIntactOverTcp) {
  BigAnswerServer handler;
  DaemonServer server(&handler);
  TcpDnsClient client(2000);
  const net::Ipv4Addr virtual_server(9, 9, 9, 9);
  client.register_endpoint(virtual_server, server.tcp_port());

  // max_datagram_bytes (4096 by default) caps UDP answers only.
  const auto query = Message::make_query(7, DnsName::must_parse("big.cdn.sim"));
  const auto reply = Message::decode(
      client.exchange(net::Ipv4Addr(10, 0, 0, 1), virtual_server, query.encode()));
  EXPECT_FALSE(reply.header.tc);
  EXPECT_EQ(reply.answers.size(), 41u);  // A + 40 TXT
  EXPECT_GT(reply.encode().size(), DaemonServerConfig{}.max_datagram_bytes);
  server.stop();
  EXPECT_EQ(server.stats().truncated, 0u);
}

TEST(TcpDnsTest, UnknownEndpointThrows) {
  TcpDnsClient client(100);
  const auto query = Message::make_query(1, DnsName::must_parse("x.y"));
  EXPECT_THROW(client.exchange(net::Ipv4Addr(1, 1, 1, 1), net::Ipv4Addr(2, 2, 2, 2),
                               query.encode()),
               net::Error);
}

TEST(TcpDnsTest, GarbageConnectionDoesNotKillServer) {
  BigAnswerServer handler;
  DaemonServer server(&handler);
  const net::Ipv4Addr virtual_server(9, 9, 9, 9);
  // A well-framed but undecodable message: the daemon drops that
  // connection, so the exchange ends without a reply.
  TcpDnsClient garbage(2000);
  garbage.register_endpoint(virtual_server, server.tcp_port());
  const std::uint8_t junk[] = {0xFF, 0xFE, 0xFD};
  EXPECT_THROW(garbage.exchange(net::Ipv4Addr(1, 1, 1, 1), virtual_server, junk),
               net::Error);

  // A valid query on a new connection is still answered.
  TcpDnsClient client(2000);
  client.register_endpoint(virtual_server, server.tcp_port());
  const auto query = Message::make_query(3, DnsName::must_parse("img.cdn.sim"));
  const auto reply = Message::decode(
      client.exchange(net::Ipv4Addr(10, 0, 0, 1), virtual_server, query.encode()));
  EXPECT_EQ(reply.header.id, 3);

  server.stop();
  const auto stats = server.stats();
  EXPECT_EQ(stats.tcp_connections, 2u);
  EXPECT_EQ(stats.malformed, 1u);
  EXPECT_EQ(stats.tcp_responses, 1u);
}

}  // namespace
}  // namespace drongo::dns
