// net::ThreadCounters: per-thread slots summed on read must count exactly,
// alone and inside the DNS fabric that every campaign worker shares.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "cdn/resolver.hpp"
#include "dns/faults.hpp"
#include "dns/inmemory.hpp"
#include "dns/stub_resolver.hpp"
#include "net/thread_counters.hpp"

namespace drongo {
namespace {

constexpr int kThreads = 4;

/// Runs `body(t)` on kThreads threads at once and joins them.
template <typename Body>
void on_threads(Body body) {
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) threads.emplace_back(body, t);
  for (auto& thread : threads) thread.join();
}

TEST(ThreadCountersTest, ConcurrentBumpsSumExactly) {
  constexpr std::uint64_t kBumps = 20000;
  net::ThreadCounter counter;
  on_threads([&](int) {
    for (std::uint64_t i = 0; i < kBumps; ++i) counter.add();
  });
  EXPECT_EQ(counter.sum(), kThreads * kBumps);
}

TEST(ThreadCountersTest, IndexesCountIndependently) {
  constexpr std::uint64_t kBumps = 5000;
  net::ThreadCounters<3> counters;
  on_threads([&](int t) {
    for (std::uint64_t i = 0; i < kBumps; ++i) {
      counters.add(0);
      for (int k = 0; k < t; ++k) counters.add(2);
    }
  });
  EXPECT_EQ(counters.sum(0), kThreads * kBumps);
  EXPECT_EQ(counters.sum(1), 0u);
  EXPECT_EQ(counters.sum(2), (0 + 1 + 2 + 3) * kBumps);
}

TEST(ThreadCountersTest, MoreThreadsThanSlotsStillCountExactly) {
  // Threads past kSlots share slots; sharing may contend but never loses a
  // bump. Started in two waves so no more than kThreads run at once.
  constexpr std::uint64_t kBumps = 1000;
  net::ThreadCounter counter;
  const std::size_t waves = net::ThreadCounter::kSlots / kThreads + 1;
  for (std::size_t wave = 0; wave < waves; ++wave) {
    on_threads([&](int) {
      for (std::uint64_t i = 0; i < kBumps; ++i) counter.add();
    });
  }
  EXPECT_EQ(counter.sum(), waves * kThreads * kBumps);
}

/// Answers every A query with one address; stateless, so any number of
/// threads may call it.
class FixedAnswerServer : public dns::DnsServer {
 public:
  dns::Message handle(const dns::Message& query, net::Ipv4Addr /*source*/) override {
    dns::Message response = dns::Message::make_response(query, dns::Rcode::kNoError, 24);
    response.answers.push_back(
        dns::ResourceRecord::a(query.questions[0].name, net::Ipv4Addr(21, 0, 0, 1), 30));
    return response;
  }
};

TEST(ThreadCountersTest, SharedDnsFabricCountsEveryExchange) {
  // Four stubs share one fault fabric (profile none: every exchange is
  // clean), one network and one public resolver, as campaign workers do.
  constexpr int kResolutions = 300;
  const net::Ipv4Addr resolver_addr(8, 8, 8, 8);
  const net::Ipv4Addr authoritative_addr(9, 9, 9, 9);
  dns::InMemoryDnsNetwork network;
  FixedAnswerServer authoritative;
  cdn::PublicResolver resolver(&network, resolver_addr);
  resolver.register_zone(dns::DnsName::must_parse("cdn.sim"), authoritative_addr);
  network.register_server(authoritative_addr, &authoritative);
  network.register_server(resolver_addr, &resolver);
  dns::FaultyTransport faults(&network, 5, dns::FaultProfile::none());

  on_threads([&](int t) {
    dns::StubResolver stub(&faults, net::Ipv4Addr(20, 1, static_cast<std::uint8_t>(32 + t), 10),
                           resolver_addr, static_cast<std::uint64_t>(t) + 1);
    const dns::DnsName name = dns::DnsName::must_parse("img.cdn.sim");
    for (int i = 0; i < kResolutions; ++i) EXPECT_TRUE(stub.resolve_with_own_subnet(name).ok());
  });

  constexpr std::uint64_t kTotal = std::uint64_t{kThreads} * kResolutions;
  EXPECT_EQ(faults.clean_exchanges(), kTotal);
  EXPECT_EQ(faults.losses() + faults.timeouts() + faults.servfails(), 0u);
  EXPECT_EQ(resolver.upstream_queries(), kTotal);
  EXPECT_EQ(resolver.upstream_failures(), 0u);
  // Each resolution is two exchanges: stub to resolver, resolver upstream.
  EXPECT_EQ(network.exchange_count(), 2 * kTotal);
}

}  // namespace
}  // namespace drongo
