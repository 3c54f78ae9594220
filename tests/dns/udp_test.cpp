// Real-socket loopback tests for the UDP transport: the socket wrapper and
// UdpDnsClient, the latter against a DaemonServer.
#include <gtest/gtest.h>

#include "dns/daemon_server.hpp"
#include "dns/udp.hpp"
#include "net/error.hpp"

namespace drongo::dns {
namespace {

class StaticServer : public DnsServer {
 public:
  Message handle(const Message& query, net::Ipv4Addr /*source*/) override {
    Message response = Message::make_response(query, Rcode::kNoError, 24);
    response.answers.push_back(
        ResourceRecord::a(query.questions[0].name, net::Ipv4Addr(21, 7, 7, 7), 30));
    return response;
  }
};

TEST(UdpSocketTest, EphemeralBindPicksPort) {
  UdpSocket a(0);
  UdpSocket b(0);
  EXPECT_NE(a.port(), 0);
  EXPECT_NE(b.port(), 0);
  EXPECT_NE(a.port(), b.port());
}

TEST(UdpSocketTest, MoveTransfersOwnership) {
  UdpSocket a(0);
  const auto port = a.port();
  UdpSocket b(std::move(a));
  EXPECT_EQ(b.port(), port);
  EXPECT_EQ(a.port(), 0);
  EXPECT_LT(a.fd(), 0);
}

TEST(UdpSocketTest, SendReceiveRoundTrip) {
  UdpSocket sender(0);
  UdpSocket receiver(0);
  receiver.set_receive_timeout(1000);
  const std::uint8_t payload[] = {1, 2, 3, 4};
  sender.send_to(receiver.port(), payload);
  std::uint16_t from = 0;
  const auto got = receiver.receive_from(from);
  ASSERT_EQ(got.size(), 4u);
  EXPECT_EQ(from, sender.port());
}

TEST(UdpSocketTest, ReceiveTimesOutEmpty) {
  UdpSocket s(0);
  s.set_receive_timeout(50);
  std::uint16_t from = 0;
  EXPECT_TRUE(s.receive_from(from).empty());
}

TEST(UdpDnsTest, QueryOverRealSockets) {
  StaticServer handler;
  DaemonServerConfig config;
  config.enable_tcp = false;
  DaemonServer server(&handler, config);
  ASSERT_NE(server.udp_port(), 0);

  UdpDnsClient client(2000);
  const net::Ipv4Addr virtual_server(9, 9, 9, 9);
  client.register_endpoint(virtual_server, server.udp_port());

  const auto query = Message::make_query(0x77, DnsName::must_parse("img.cdn.sim"),
                                         net::Prefix::must_parse("20.1.2.0/24"));
  const auto reply_wire =
      client.exchange(net::Ipv4Addr(10, 0, 0, 1), virtual_server, query.encode());
  const auto reply = Message::decode(reply_wire);
  EXPECT_EQ(reply.header.id, 0x77);
  ASSERT_EQ(reply.answer_addresses().size(), 1u);
  EXPECT_EQ(reply.answer_addresses()[0], net::Ipv4Addr(21, 7, 7, 7));
  server.stop();  // served() is exact once stopped
  EXPECT_GE(server.served(), 1u);  // a retransmitted query is answered twice
}

TEST(UdpDnsTest, UnregisteredEndpointThrows) {
  UdpDnsClient client(100);
  const auto query = Message::make_query(1, DnsName::must_parse("x.y"));
  EXPECT_THROW(client.exchange(net::Ipv4Addr(1, 1, 1, 1), net::Ipv4Addr(2, 2, 2, 2),
                               query.encode()),
               net::Error);
}

TEST(UdpDnsTest, StopIsIdempotent) {
  StaticServer handler;
  DaemonServer server(&handler);  // UDP and TCP listeners both up
  server.stop();
  server.stop();  // second stop is a no-op
  server.begin_drain();  // and so is a drain after the join
  EXPECT_EQ(server.served(), 0u);
}

}  // namespace
}  // namespace drongo::dns
