// Allocation budget for the simulated DNS path. The binary replaces the
// global operator new/delete with counting versions, so each test can
// assert how many heap allocations one operation makes on this thread:
// names within DnsName's inline capacity never allocate, an encode
// allocates exactly its wire, a resolution through a Testbed stays within
// a pinned budget, a warm traceroute allocates only its hop vector, a warm
// trial stays within a pinned budget, a warm RTT toward an anycast VIP
// allocates nothing, a training window's add() never allocates, and neither
// does a decision among tied subnets. A CDN ranking a cold mapping key, the
// routed delay it measures, and a query from unallocated space stay within
// a few allocations. On the serving path, a scoped resolver-cache hit
// (decode, answer, encode) allocates only what it sends and copies out, and
// a warm packet cache stores, probes and flushes without allocating.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/decision.hpp"
#include "core/window.hpp"
#include "cdn/resolver.hpp"
#include "dns/message.hpp"
#include "dns/packet_cache.hpp"
#include "measure/testbed.hpp"
#include "measure/trial.hpp"

namespace {
thread_local std::uint64_t t_allocations = 0;

void* counted_alloc(std::size_t size) {
  ++t_allocations;
  return std::malloc(size == 0 ? 1 : size);
}

void* counted_alloc_or_throw(std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  ++t_allocations;
  void* p = nullptr;
  const std::size_t alignment = std::max(static_cast<std::size_t>(align), sizeof(void*));
  if (posix_memalign(&p, alignment, size == 0 ? 1 : size) != 0) return nullptr;
  return p;
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc_or_throw(size); }
void* operator new[](std::size_t size) { return counted_alloc_or_throw(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  if (void* p = counted_aligned_alloc(size, align)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  if (void* p = counted_aligned_alloc(size, align)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace drongo {
namespace {

/// Heap allocations this thread makes while running `body`.
template <typename Body>
std::uint64_t allocations_in(Body&& body) {
  const std::uint64_t before = t_allocations;
  body();
  return t_allocations - before;
}

/// A presentation name whose wire form is exactly `wire_length` bytes:
/// 63-byte labels, the last one shorter.
std::string name_text(std::size_t wire_length) {
  std::string text;
  std::size_t left = wire_length - 1;  // minus the root byte
  char fill = 'a';
  while (left > 0) {
    std::size_t label = std::min<std::size_t>(dns::DnsName::kMaxLabelLength, left - 1);
    if (left - (label + 1) == 1) --label;  // never leave room for just a length byte
    if (!text.empty()) text.push_back('.');
    text.append(label, fill++);
    left -= label + 1;
  }
  return text;
}

TEST(AllocBudgetTest, CounterSeesHeapAllocations) {
  std::vector<int> v;
  EXPECT_EQ(allocations_in([&] { v.resize(100); }), 1u);
  EXPECT_EQ(allocations_in([&] { v.resize(50); }), 0u);
}

TEST(AllocBudgetTest, NamesWithinInlineCapacityDoNotAllocate) {
  for (const std::size_t length : {std::size_t{3}, std::size_t{20},
                                   dns::DnsName::kInlineCapacity - 1,
                                   dns::DnsName::kInlineCapacity}) {
    const std::string text = name_text(length);
    net::ByteWriter w;
    dns::DnsName::must_parse(text).encode(w);
    const std::vector<std::uint8_t> wire = w.take();
    const std::string upper = [&] {
      std::string s = text;
      for (char& c : s) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
      return s;
    }();

    const std::uint64_t n = allocations_in([&] {
      const auto parsed = dns::DnsName::parse(text);
      const auto shouted = dns::DnsName::parse(upper);
      net::ByteReader r(wire);
      const dns::DnsName decoded = dns::DnsName::decode(r);
      dns::DnsName copy = decoded;
      dns::DnsName moved = std::move(copy);
      copy = moved;
      EXPECT_EQ(decoded, *parsed);
      EXPECT_EQ(*shouted, decoded);
      EXPECT_EQ(*shouted <=> decoded, std::strong_ordering::equal);
      EXPECT_EQ(std::hash<dns::DnsName>{}(*shouted), std::hash<dns::DnsName>{}(decoded));
      EXPECT_TRUE(decoded.is_subdomain_of(decoded.parent()));
      EXPECT_EQ(decoded.wire_length(), length);
    });
    EXPECT_EQ(n, 0u) << "wire length " << length;
  }
}

TEST(AllocBudgetTest, NamesPastInlineCapacityTakeOneBlock) {
  const auto name = dns::DnsName::must_parse(name_text(dns::DnsName::kInlineCapacity + 1));
  EXPECT_EQ(allocations_in([&] { const dns::DnsName copy = name; }), 1u);
  EXPECT_EQ(allocations_in([&] {
              dns::DnsName source = name;
              const dns::DnsName moved = std::move(source);  // steals the block
            }),
            1u);
}

TEST(AllocBudgetTest, EncodeAllocatesOnceAndExactly) {
  const auto name = dns::DnsName::must_parse("img.googlecdn.sim");
  const dns::Message query =
      dns::Message::make_query(7, name, net::Prefix::must_parse("20.1.36.0/24"));
  dns::Message response = dns::Message::make_response(query, dns::Rcode::kNoError, 24);
  for (int i = 0; i < 4; ++i) {
    response.answers.push_back(dns::ResourceRecord::a(name, net::Ipv4Addr(21, 8, 84, 10 + i)));
  }
  for (const dns::Message* m : {&query, const_cast<const dns::Message*>(&response)}) {
    (void)m->encode();  // the thread's scratch buffer grows on first use
    std::vector<std::uint8_t> wire;
    EXPECT_EQ(allocations_in([&] { wire = m->encode(); }), 1u);
    EXPECT_EQ(wire.capacity(), wire.size());
  }
}

measure::TestbedConfig small_testbed() {
  measure::TestbedConfig config;
  config.as_config.tier1_count = 4;
  config.as_config.tier2_count = 8;
  config.as_config.stub_count = 20;
  config.client_count = 2;
  config.seed = 121;
  return config;
}

TEST(AllocBudgetTest, ResolutionsThroughATestbedStayWithinBudget) {
  measure::Testbed testbed(small_testbed());
  const net::Ipv4Addr client = testbed.clients()[0];
  const dns::DnsName& name = testbed.content_names(0).front();
  const net::Ipv4Addr router(testbed.world().block_of(0).network().to_uint() | 1u);
  auto stub = testbed.make_stub(client, 1);
  // Warm the per-key memos (mapping table, RTTs) and the encode scratch,
  // and intern the router's name as a traceroute through it does.
  ASSERT_TRUE(stub.resolve_with_own_subnet(name).ok());
  (void)testbed.world().rdns_view(router);
  ASSERT_FALSE(stub.resolve_ptr(router).empty());

  // Pinned from the measured counts. Both hops (stub -> resolver ->
  // authoritative) build, encode and decode a message each way: four
  // encodes (one exact-size wire each), the answer sections that hold
  // records (the resolver relays the authoritative's section by moving
  // it), and the result (A: the replica list and the address vectors;
  // PTR: the name strings). The eight messages' single questions live
  // inline and cost nothing. The PTR answer reads the interned name; an
  // address nobody interned is named on the spot, which costs the string
  // building, and stays out of the name table. A regression in any
  // layer's heap traffic trips this.
  constexpr std::uint64_t kResolveBudget = 9;
  constexpr std::uint64_t kPtrBudget = 8;
  constexpr std::uint64_t kUninternedPtrBudget = 9;
  const std::uint64_t resolve = allocations_in([&] {
    EXPECT_TRUE(stub.resolve_with_own_subnet(name).ok());
  });
  const std::uint64_t ptr = allocations_in([&] { EXPECT_FALSE(stub.resolve_ptr(router).empty()); });
  const net::Ipv4Addr other_router(router.to_uint() + 1);
  ASSERT_EQ(testbed.world().interned_rdns(other_router), nullptr);
  ASSERT_FALSE(stub.resolve_ptr(other_router).empty());
  const std::uint64_t uninterned_ptr =
      allocations_in([&] { EXPECT_FALSE(stub.resolve_ptr(other_router).empty()); });
  EXPECT_EQ(testbed.world().interned_rdns(other_router), nullptr);
  EXPECT_LE(resolve, kResolveBudget);
  EXPECT_LE(ptr, kPtrBudget);
  EXPECT_LE(uninterned_ptr, kUninternedPtrBudget);
  std::cout << "allocations: A resolution " << resolve << ", PTR resolution " << ptr
            << " (uninterned name " << uninterned_ptr << ")\n";
}

TEST(AllocBudgetTest, WarmTracerouteAllocatesOnlyItsHops) {
  measure::Testbed testbed(small_testbed());
  topology::World& world = testbed.world();
  const net::Ipv4Addr client = testbed.clients()[0];
  std::vector<net::Ipv4Addr> targets;
  for (std::size_t p = 0; p < testbed.provider_count(); ++p) {
    targets.push_back(testbed.provider(p).clusters().front().replicas.front());
    const auto& vips = testbed.provider(p).vips();
    if (!vips.empty()) targets.push_back(vips.front());
  }
  ASSERT_GT(targets.size(), testbed.provider_count()) << "no anycast VIP to trace toward";
  for (const net::Ipv4Addr target : targets) {
    net::Rng rng(3);
    (void)world.traceroute(client, target, rng);  // fills the skeleton memo
    std::vector<topology::TracerouteHop> hops;
    EXPECT_EQ(allocations_in([&] { hops = world.traceroute(client, target, rng); }), 1u)
        << "toward " << target.to_string();
    EXPECT_GE(hops.size(), 3u);
  }
}

TEST(AllocBudgetTest, WarmAnycastRttAllocatesNothing) {
  measure::Testbed testbed(small_testbed());
  topology::World& world = testbed.world();
  const net::Ipv4Addr client = testbed.clients()[0];
  std::size_t vips = 0;
  for (std::size_t p = 0; p < testbed.provider_count(); ++p) {
    for (const net::Ipv4Addr vip : testbed.provider(p).vips()) {
      ASSERT_TRUE(world.is_anycast(vip));
      const double cold = world.rtt_base_ms(client, vip);  // fills the memos
      double warm = 0.0;
      EXPECT_EQ(allocations_in([&] { warm = world.rtt_base_ms(client, vip); }), 0u)
          << "toward " << vip.to_string();
      EXPECT_EQ(warm, cold);
      ++vips;
    }
  }
  ASSERT_GT(vips, 0u) << "no anycast VIP to ping";
}

TEST(AllocBudgetTest, WarmTrialStaysWithinBudget) {
  measure::Testbed testbed(small_testbed());
  const measure::TrialRunner runner(&testbed, 11);
  const measure::CampaignTask task{0, 0, 0, 1.0, std::nullopt};
  // The first run fills the world's and the CDNs' memos; the second is the
  // same trial, draw for draw, on warm state.
  const measure::TrialRecord cold = runner.run_task(task);
  ASSERT_EQ(cold.outcome, measure::TrialOutcome::kOk);
  ASSERT_FALSE(cold.hops.empty());
  measure::TrialRecord warm;
  const std::uint64_t n = allocations_in([&] { warm = runner.run_task(task); });
  EXPECT_EQ(warm.hops.size(), cold.hops.size());
  EXPECT_EQ(warm.health, cold.health);

  // Pinned from the measured count: the trial's own resolutions (about the
  // budgets above, times health.queries), its traceroutes' hop vectors,
  // the record's strings and vectors, and one reserved vector each for the
  // seen subnets, the PTR names and the measured replicas. Bookkeeping in
  // node-based maps and sets would add a node per entry.
  constexpr std::uint64_t kTrialBudget = 247;
  EXPECT_LE(n, kTrialBudget);
  std::cout << "allocations: warm trial " << n << " (" << warm.health.queries
            << " queries, " << warm.hops.size() << " hops)\n";
}

/// Providers sharing `testbed`'s deployments but with empty mapping
/// tables, the anycast one (which never consults its mapping) left out.
std::vector<std::unique_ptr<cdn::CdnProvider>> fresh_unicast_providers(
    measure::Testbed& testbed) {
  std::vector<std::unique_ptr<cdn::CdnProvider>> out;
  for (std::size_t p = 0; p < testbed.provider_count(); ++p) {
    const cdn::CdnProvider& deployed = testbed.provider(p);
    if (deployed.profile().anycast) continue;
    out.push_back(std::make_unique<cdn::CdnProvider>(deployed.profile(), &testbed.world(),
                                                     deployed.as_index(),
                                                     deployed.clusters(), deployed.vips()));
  }
  return out;
}

/// Computes every destination's BGP table, so a test counts only what a
/// mapping adds on top of routing state a campaign builds anyway.
void warm_routing(topology::World& world) {
  for (std::size_t v = 0; v < world.graph().node_count(); ++v) {
    (void)world.routing().table_for(v);
  }
}

TEST(AllocBudgetTest, ColdMappingKeyStaysWithinBudget) {
  measure::Testbed testbed(small_testbed());
  topology::World& world = testbed.world();
  warm_routing(world);
  std::vector<net::Prefix> plan;
  for (std::size_t v = 0; v < world.graph().node_count(); ++v) {
    const std::uint32_t block = world.block_of(v).network().to_uint();
    for (std::uint32_t third = 0; third < 256; ++third) {
      const net::Prefix subnet(net::Ipv4Addr(block | (third << 8)), 24);
      if (world.is_allocated(subnet)) plan.push_back(subnet);
    }
  }
  // Pinned from the measured count: the ranking's one score vector, the
  // mapping-table node (plus a bucket array when a shard rehashes) and the
  // returned replica set. The routed RTT per cluster allocates nothing.
  constexpr std::uint64_t kColdKeyBudget = 5;
  std::uint64_t worst = 0;
  std::uint64_t total = 0;
  std::size_t keys = 0;
  for (const auto& provider : fresh_unicast_providers(testbed)) {
    for (const net::Prefix& subnet : plan) {
      const std::uint64_t n =
          allocations_in([&] { (void)provider->select_replicas(subnet, 1); });
      worst = std::max(worst, n);
      total += n;
      ++keys;
    }
    EXPECT_GT(provider->mapping_table_size(), 0u);
  }
  ASSERT_GT(keys, 100u);
  EXPECT_LE(worst, kColdKeyBudget);
  std::cout << "allocations: cold mapping key " << static_cast<double>(total) / keys
            << " mean, " << worst << " worst over " << keys << " keys\n";
}

TEST(AllocBudgetTest, MemoFreeRoutedDelayAllocatesNothing) {
  measure::Testbed testbed(small_testbed());
  topology::World& world = testbed.world();
  const auto client = world.endpoint_of(testbed.clients()[0]);
  ASSERT_TRUE(client.has_value());
  std::size_t pairs = 0;
  for (std::size_t p = 0; p < testbed.provider_count(); ++p) {
    for (const cdn::CdnCluster& cluster : testbed.provider(p).clusters()) {
      const auto replica = world.endpoint_of(cluster.replicas.front());
      ASSERT_TRUE(replica.has_value());
      (void)world.routing().table_for(client->as_index);
      double ms = 0.0;
      EXPECT_EQ(allocations_in([&] { ms = world.path_one_way_ms(*replica, *client); }), 0u)
          << "from " << replica->address.to_string();
      EXPECT_GT(ms, 0.0);
      ++pairs;
    }
  }
  ASSERT_GT(pairs, 0u);
}

TEST(AllocBudgetTest, UnallocatedSubnetQueryStaysWithinBudget) {
  measure::Testbed testbed(small_testbed());
  topology::World& world = testbed.world();
  warm_routing(world);
  // The last host /24 of each AS block: inside the plan, so it geolocates
  // and is often mapped, but no host lives there to ping.
  std::vector<net::Prefix> unallocated;
  for (std::size_t v = 0; v < world.graph().node_count(); ++v) {
    const net::Prefix subnet(
        net::Ipv4Addr(world.block_of(v).network().to_uint() | (255u << 8)), 24);
    ASSERT_FALSE(world.is_allocated(subnet));
    unallocated.push_back(subnet);
  }
  // Pinned from the measured count: the ranking's score vector and the
  // returned replica set; such keys are never stored, so every query ranks.
  constexpr std::uint64_t kUnallocatedBudget = 5;
  std::uint64_t worst = 0;
  std::size_t mapped = 0;
  for (const auto& provider : fresh_unicast_providers(testbed)) {
    for (const net::Prefix& subnet : unallocated) {
      if (provider->is_mapped(subnet)) ++mapped;
      for (const std::uint64_t nonce : {1u, 2u}) {
        worst = std::max(worst, allocations_in([&] {
                           (void)provider->select_replicas(subnet, nonce);
                         }));
      }
    }
    EXPECT_EQ(provider->mapping_table_size(), 0u);
  }
  ASSERT_GT(mapped, 10u) << "too few mapped keys to exercise the ranking";
  EXPECT_LE(worst, kUnallocatedBudget);
  std::cout << "allocations: unallocated /24 query " << worst << " worst (" << mapped
            << " mapped keys)\n";
}

TEST(AllocBudgetTest, ChoosingAmongTiedSubnetsDoesNotAllocate) {
  core::DrongoParams params;
  params.min_valley_frequency = 1.0;
  params.valley_threshold = 0.95;
  core::DecisionEngine engine(params, 5);
  measure::TrialRecord trial;
  trial.domain = "img.googlecdn.sim";
  trial.cr.push_back({net::Ipv4Addr(21, 0, 0, 1), 100.0});
  for (const char* subnet : {"20.1.0.0/24", "20.2.0.0/24", "20.3.0.0/24"}) {
    measure::HopRecord hop;
    hop.subnet = net::Prefix::must_parse(subnet);
    hop.usable = true;
    hop.hr.push_back({net::Ipv4Addr(22, 0, 0, 1), 50.0});  // ratio 0.5 on every trial
    trial.hops.push_back(std::move(hop));
  }
  for (std::size_t i = 0; i < params.window_size; ++i) engine.observe(trial);
  ASSERT_EQ(engine.candidates(trial.domain).size(), 3u);

  net::Rng rng(7);
  std::optional<net::Prefix> chosen;
  std::optional<net::Prefix> rescored;
  const std::uint64_t n = allocations_in([&] {
    chosen = engine.choose(trial.domain);
    rescored = std::as_const(engine).choose(trial.domain, 0.6, 0.8, rng);
  });
  EXPECT_EQ(n, 0u);
  EXPECT_TRUE(chosen.has_value());
  EXPECT_TRUE(rescored.has_value());
}

TEST(AllocBudgetTest, TrainingWindowAddDoesNotAllocate) {
  for (const std::size_t capacity : {std::size_t{1}, std::size_t{5},
                                     core::TrainingWindow::kInlineCapacity,
                                     core::TrainingWindow::kInlineCapacity + 12}) {
    core::TrainingWindow window(capacity);
    const std::uint64_t n = allocations_in([&] {
      for (int i = 0; i < 40; ++i) window.add(0.5 + 0.01 * i);
    });
    EXPECT_EQ(n, 0u) << "capacity " << capacity;
    EXPECT_EQ(window.size(), capacity);
    EXPECT_DOUBLE_EQ(window.ratios().back(), 0.5 + 0.01 * 39);
  }
}

TEST(AllocBudgetTest, ScopedCacheHitStaysWithinBudget) {
  // The daemon's miss path on a warm resolver: decode the datagram, answer
  // from the scoped cache, encode into the listener's reused buffer.
  measure::TestbedConfig config = small_testbed();
  config.serving.enable_cache = true;
  config.serving.shards = 8;
  config.serving.coalesce = true;
  measure::Testbed testbed(config);
  cdn::PublicResolver& resolver = testbed.resolver();
  resolver.set_time_ms(0);
  const net::Ipv4Addr client = testbed.clients()[0];
  std::vector<std::vector<std::uint8_t>> wires;
  for (std::size_t p = 0; p < testbed.provider_count(); ++p) {
    for (const auto& name : testbed.content_names(p)) {
      for (const std::uint32_t octet : {0u, 1u, 2u}) {
        const net::Prefix subnet(net::Ipv4Addr(client.to_uint() + (octet << 8)), 24);
        wires.push_back(dns::Message::make_query(9, name, net::IpPrefix(subnet)).encode());
      }
    }
  }
  std::vector<std::uint8_t> out;
  for (const auto& wire : wires) {  // fill the scopes, then warm the buffer
    (void)resolver.handle(dns::Message::decode(wire), client);
    resolver.handle(dns::Message::decode(wire), client).encode_to(out);
  }
  const auto upstream = resolver.upstream_queries();
  // Pinned from the measured count: the answer section sent, and the
  // cached entry's address list copied out of the shard under its lock.
  constexpr std::uint64_t kHitBudget = 2;
  std::uint64_t worst = 0;
  std::uint64_t total = 0;
  for (const auto& wire : wires) {
    const std::uint64_t n = allocations_in([&] {
      resolver.handle(dns::Message::decode(wire), client).encode_to(out);
    });
    worst = std::max(worst, n);
    total += n;
  }
  EXPECT_EQ(resolver.upstream_queries(), upstream) << "every query must hit";
  EXPECT_LE(worst, kHitBudget);
  std::cout << "allocations: scoped cache hit " << static_cast<double>(total) / wires.size()
            << " mean, " << worst << " worst (" << wires.size() << " queries)\n";
}

TEST(AllocBudgetTest, WarmPacketCacheAllocatesNothing) {
  constexpr std::size_t kCapacity = 256;
  dns::PacketCache cache(kCapacity, 1'000);
  std::vector<std::vector<std::uint8_t>> wires;
  for (std::size_t i = 0; i < 2 * kCapacity; ++i) {
    std::vector<std::uint8_t> wire(40 + i % 20, static_cast<std::uint8_t>(i));
    wire[12] = static_cast<std::uint8_t>(i >> 8);
    wires.push_back(std::move(wire));
  }
  const std::vector<std::uint8_t> reply(180, 3);
  std::vector<std::uint8_t> key;
  for (std::size_t i = 0; i < kCapacity; ++i) {  // one full generation
    dns::PacketCache::make_key(wires[i], true, key);
    cache.store(key, reply, 0);
  }
  // The arena is a mapping of its own, which operator new does not see:
  // its capacity must hold still too.
  const std::size_t arena = cache.arena_capacity();
  std::size_t hits = 0;
  const std::uint64_t n = allocations_in([&] {
    // The next generation: its first store flushes, then every probe of it
    // hits and every probe of the last one misses; then an explicit flush.
    for (std::size_t i = kCapacity; i < 2 * kCapacity; ++i) {
      dns::PacketCache::make_key(wires[i], true, key);
      cache.store(key, reply, 1);
    }
    for (std::size_t i = 0; i < 2 * kCapacity; ++i) {
      dns::PacketCache::make_key(wires[i], true, key);
      if (!cache.find(key, 2).empty()) ++hits;
    }
    cache.flush();
  });
  EXPECT_EQ(n, 0u);
  EXPECT_EQ(cache.arena_capacity(), arena);
  EXPECT_EQ(hits, kCapacity);
  EXPECT_EQ(cache.size(), 0u);
}

}  // namespace
}  // namespace drongo
