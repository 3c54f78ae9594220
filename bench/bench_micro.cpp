// Micro-benchmarks (google-benchmark): the hot paths of every layer.
//
// These quantify the per-query costs a deployed Drongo adds: DNS wire
// codec (A-record and PTR messages), ECS rewriting, resolution through the
// full chain (an A lookup and a PTR lookup), decision-engine
// updates and choices, and the simulator's own primitives (routing, RTT).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <optional>
#include <vector>

#include "core/decision.hpp"
#include "core/drongo.hpp"
#include "dns/message.hpp"
#include "dns/reverse.hpp"
#include "measure/testbed.hpp"
#include "measure/trial.hpp"
#include "topology/as_gen.hpp"

using namespace drongo;

// Every operator new on this thread is counted, so the codec benchmarks can
// report heap allocations per iteration next to their time.
namespace {
thread_local std::uint64_t t_allocations = 0;

void* counted_malloc(std::size_t size) {
  ++t_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_malloc(size); }
void* operator new[](std::size_t size) { return counted_malloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

/// Reports the heap allocations made while it lives as the benchmark's
/// `allocs_per_iter` counter (averaged over iterations).
class AllocationCounter {
 public:
  explicit AllocationCounter(benchmark::State& state)
      : state_(state), start_(t_allocations) {}
  ~AllocationCounter() {
    state_.counters["allocs_per_iter"] = benchmark::Counter(
        static_cast<double>(t_allocations - start_), benchmark::Counter::kAvgIterations);
  }
  AllocationCounter(const AllocationCounter&) = delete;
  AllocationCounter& operator=(const AllocationCounter&) = delete;

 private:
  benchmark::State& state_;
  std::uint64_t start_;
};

dns::Message sample_response() {
  auto query = dns::Message::make_query(42, dns::DnsName::must_parse("img.googlecdn.sim"),
                                        net::Prefix::must_parse("198.51.100.0/24"));
  auto response = dns::Message::make_response(query, dns::Rcode::kNoError, 24);
  for (int i = 0; i < 3; ++i) {
    response.answers.push_back(dns::ResourceRecord::a(
        query.questions[0].name, net::Ipv4Addr(21, 8, static_cast<std::uint8_t>(84 + i), 10), 30));
  }
  return response;
}

void BM_DnsEncodeQuery(benchmark::State& state) {
  const auto query = dns::Message::make_query(
      42, dns::DnsName::must_parse("img.googlecdn.sim"),
      net::Prefix::must_parse("198.51.100.0/24"));
  for (auto _ : state) {
    benchmark::DoNotOptimize(query.encode());
  }
}
BENCHMARK(BM_DnsEncodeQuery);

void BM_DnsDecodeResponse(benchmark::State& state) {
  const auto wire = sample_response().encode();
  for (auto _ : state) {
    benchmark::DoNotOptimize(dns::Message::decode(wire));
  }
}
BENCHMARK(BM_DnsDecodeResponse);

void BM_EcsRewrite(benchmark::State& state) {
  // The proxy's core operation: decode, swap the ECS subnet, re-encode.
  auto query = dns::Message::make_query(7, dns::DnsName::must_parse("img.googlecdn.sim"),
                                        net::Prefix::must_parse("198.51.100.0/24"));
  const auto wire = query.encode();
  const auto subnet = net::Prefix::must_parse("20.7.2.0/24");
  for (auto _ : state) {
    auto m = dns::Message::decode(wire);
    m.set_client_subnet(dns::ClientSubnet::for_subnet(subnet));
    benchmark::DoNotOptimize(m.encode());
  }
}
BENCHMARK(BM_EcsRewrite);

void BM_NameCompressionEncode(benchmark::State& state) {
  auto response = sample_response();
  response.authority.push_back(dns::ResourceRecord::ns(
      dns::DnsName::must_parse("googlecdn.sim"), dns::DnsName::must_parse("ns1.googlecdn.sim")));
  for (auto _ : state) {
    benchmark::DoNotOptimize(response.encode());
  }
}
BENCHMARK(BM_NameCompressionEncode);

void BM_DnsNameDecode(benchmark::State& state) {
  net::ByteWriter w;
  dns::DnsName::must_parse("img.googlecdn.sim").encode(w);
  const auto wire = w.take();
  AllocationCounter allocs(state);
  for (auto _ : state) {
    net::ByteReader r(wire);
    benchmark::DoNotOptimize(dns::DnsName::decode(r));
  }
}
BENCHMARK(BM_DnsNameDecode);

void BM_DnsNameCopy(benchmark::State& state) {
  const auto name = dns::DnsName::must_parse("3.84.8.21.in-addr.arpa");
  AllocationCounter allocs(state);
  for (auto _ : state) {
    dns::DnsName copy = name;
    benchmark::DoNotOptimize(copy);
  }
}
BENCHMARK(BM_DnsNameCopy);

void BM_DnsMessageRoundTrip(benchmark::State& state) {
  // One hop of a simulated resolution: encode a reply, decode it again.
  const auto response = sample_response();
  AllocationCounter allocs(state);
  for (auto _ : state) {
    const auto wire = response.encode();
    benchmark::DoNotOptimize(dns::Message::decode(wire));
  }
}
BENCHMARK(BM_DnsMessageRoundTrip);

void BM_BgpRouteComputation(benchmark::State& state) {
  topology::AsGenConfig config;
  config.stub_count = static_cast<int>(state.range(0));
  const auto graph = topology::generate_as_graph(config);
  std::size_t dst = 0;
  for (auto _ : state) {
    // Fresh router each time: measures full destination-tree computation.
    topology::BgpRouting routing(&graph);
    benchmark::DoNotOptimize(routing.table_for(dst % graph.node_count()));
    ++dst;
  }
  state.SetLabel(std::to_string(graph.node_count()) + " ASes");
}
BENCHMARK(BM_BgpRouteComputation)->Arg(100)->Arg(240)->Arg(480);

struct MicroWorld {
  MicroWorld() {
    measure::TestbedConfig config = measure::TestbedConfig::planetlab();
    config.client_count = 8;
    testbed = std::make_unique<measure::Testbed>(config);
  }
  std::unique_ptr<measure::Testbed> testbed;
};

MicroWorld& micro_world() {
  static MicroWorld world;
  return world;
}

/// A router's PTR query, as a stub naming a traceroute hop sends it, and
/// the resolver's reply to it (the campaign's commonest exchange).
struct PtrExchange {
  net::Ipv4Addr router;
  dns::Message query;
  dns::Message reply;
};

const PtrExchange& ptr_exchange() {
  static const PtrExchange exchange = [] {
    auto& testbed = *micro_world().testbed;
    const net::Ipv4Addr router(testbed.world().block_of(0).network().to_uint() | 1u);
    auto query = dns::Message::make_query(0x3456, dns::reverse_pointer_name(router),
                                          std::nullopt, dns::RrType::kPtr);
    auto reply = testbed.resolver().handle(query, testbed.clients()[0]);
    return PtrExchange{router, std::move(query), std::move(reply)};
  }();
  return exchange;
}

void BM_PtrQueryBuildEncode(benchmark::State& state) {
  const net::Ipv4Addr router = ptr_exchange().router;
  std::vector<std::uint8_t> wire;
  AllocationCounter allocs(state);
  for (auto _ : state) {
    const auto query = dns::Message::make_query(0x3456, dns::reverse_pointer_name(router),
                                                std::nullopt, dns::RrType::kPtr);
    query.encode_to(wire);
    benchmark::DoNotOptimize(wire.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_PtrQueryBuildEncode);

void BM_PtrReplyEncode(benchmark::State& state) {
  const dns::Message& reply = ptr_exchange().reply;
  if (reply.answers.empty()) state.SkipWithError("the router has no PTR name");
  std::vector<std::uint8_t> wire;
  AllocationCounter allocs(state);
  for (auto _ : state) {
    reply.encode_to(wire);
    benchmark::DoNotOptimize(wire.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_PtrReplyEncode);

void BM_PtrReplyDecode(benchmark::State& state) {
  const auto wire = ptr_exchange().reply.encode();
  AllocationCounter allocs(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dns::Message::decode(wire));
  }
}
BENCHMARK(BM_PtrReplyDecode);

void BM_PtrResolutionChain(benchmark::State& state) {
  // Stub -> resolver -> reverse-DNS authoritative and back: four encodes
  // and four decodes, as for every traceroute hop a trial names.
  auto& testbed = *micro_world().testbed;
  auto stub = testbed.make_stub(testbed.clients()[0], 1);
  const net::Ipv4Addr router = ptr_exchange().router;
  if (stub.resolve_ptr(router).empty()) state.SkipWithError("the router has no PTR name");
  AllocationCounter allocs(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(stub.resolve_ptr(router));
  }
}
BENCHMARK(BM_PtrResolutionChain);

void BM_RttColdCache(benchmark::State& state) {
  auto& testbed = *micro_world().testbed;
  auto& world = testbed.world();
  const auto clients = testbed.clients();
  const auto& clusters = testbed.provider(0).clusters();
  std::size_t i = 0;
  for (auto _ : state) {
    // Rotating pairs: mostly cache misses across the cross product.
    const auto client = clients[i % clients.size()];
    const auto replica = clusters[i % clusters.size()].replicas[i % 3];
    benchmark::DoNotOptimize(world.rtt_base_ms(client, replica));
    ++i;
  }
}
BENCHMARK(BM_RttColdCache);

void BM_FullResolutionChain(benchmark::State& state) {
  auto& testbed = *micro_world().testbed;
  auto stub = testbed.make_stub(testbed.clients()[0], 1);
  const auto domain = testbed.content_names(0)[0];
  for (auto _ : state) {
    benchmark::DoNotOptimize(stub.resolve_with_own_subnet(domain));
  }
}
BENCHMARK(BM_FullResolutionChain);

void BM_TrialExecution(benchmark::State& state) {
  auto& testbed = *micro_world().testbed;
  measure::TrialRunner runner(&testbed, 0xB33F);
  double t = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(runner.run(0, 0, t));
    t += 1.0;
  }
}
BENCHMARK(BM_TrialExecution);

void BM_DecisionObserve(benchmark::State& state) {
  auto& testbed = *micro_world().testbed;
  measure::TrialRunner runner(&testbed, 0xB340);
  const auto trial = runner.run(0, 0, 0.0);
  core::DecisionEngine engine;
  for (auto _ : state) {
    engine.observe(trial);
  }
}
BENCHMARK(BM_DecisionObserve);

void BM_DecisionChoose(benchmark::State& state) {
  auto& testbed = *micro_world().testbed;
  measure::TrialRunner runner(&testbed, 0xB341);
  core::DrongoParams params;
  params.min_valley_frequency = 0.2;
  params.valley_threshold = 1.0;
  core::DecisionEngine engine(params);
  std::string domain;
  for (int t = 0; t < 5; ++t) {
    const auto trial = runner.run(0, 0, t * 1.0, 0);
    domain = trial.domain;
    engine.observe(trial);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.choose(domain));
  }
}
BENCHMARK(BM_DecisionChoose);

// A warm key: after the first iteration the mapping comes from the table.
void BM_ProviderSelectReplicas(benchmark::State& state) {
  auto& testbed = *micro_world().testbed;
  auto& provider = testbed.provider(0);
  const net::Prefix subnet(testbed.clients()[0], 24);
  for (auto _ : state) {
    benchmark::DoNotOptimize(provider.select_replicas(subnet));
  }
}
BENCHMARK(BM_ProviderSelectReplicas);

/// Every allocated /24 of `world`, in address order.
std::vector<net::Prefix> plan_subnets(const topology::World& world) {
  std::vector<net::Prefix> plan;
  for (std::size_t v = 0; v < world.graph().node_count(); ++v) {
    const std::uint32_t block = world.block_of(v).network().to_uint();
    for (std::uint32_t third = 0; third < 256; ++third) {
      const net::Prefix subnet(net::Ipv4Addr(block | (third << 8)), 24);
      if (world.is_allocated(subnet)) plan.push_back(subnet);
    }
  }
  return plan;
}

// Cold keys on a warm World: every iteration selects for a plan /24 the
// provider has not seen, walking every allocated /24 and starting over on an
// empty table after each pass. After the first pass the World's BGP tables
// are all built, so this times re-ranking a key: per cluster a haversine,
// a memo-free routed walk and a lognormal draw, then a sort.
void BM_ProviderSelectReplicasColdKey(benchmark::State& state) {
  auto& testbed = *micro_world().testbed;
  auto& world = testbed.world();
  const auto& warm = testbed.provider(0);
  const std::vector<net::Prefix> plan = plan_subnets(world);
  std::unique_ptr<cdn::CdnProvider> provider;
  std::size_t i = 0;
  AllocationCounter allocations(state);
  for (auto _ : state) {
    if (i % plan.size() == 0) {
      state.PauseTiming();
      provider = std::make_unique<cdn::CdnProvider>(warm.profile(), &world, warm.as_index(),
                                                    warm.clusters(), warm.vips());
      state.ResumeTiming();
    }
    benchmark::DoNotOptimize(provider->select_replicas(plan[i % plan.size()]));
    ++i;
  }
  state.SetLabel(std::to_string(plan.size()) + " plan /24s");
}
BENCHMARK(BM_ProviderSelectReplicasColdKey);

// Cold keys on a cold World: each pass builds a fresh PlanetLab testbed
// (untimed), then maps every plan /24 once, so the BGP tables the walks need
// are computed inside the timed region as a first query for each
// destination would. The regime of a freshly set-up daemon or campaign.
void BM_ProviderSelectReplicasColdWorld(benchmark::State& state) {
  std::unique_ptr<measure::Testbed> testbed;
  std::vector<net::Prefix> plan;
  std::size_t i = 0;
  for (auto _ : state) {
    if (i == plan.size()) {
      state.PauseTiming();
      testbed.reset();
      measure::TestbedConfig config = measure::TestbedConfig::planetlab();
      config.client_count = 8;
      testbed = std::make_unique<measure::Testbed>(config);
      plan = plan_subnets(testbed->world());
      i = 0;
      state.ResumeTiming();
    }
    benchmark::DoNotOptimize(testbed->provider(0).select_replicas(plan[i], i));
    ++i;
  }
  state.SetLabel(std::to_string(plan.size()) + " plan /24s per world");
}
BENCHMARK(BM_ProviderSelectReplicasColdWorld);

}  // namespace

BENCHMARK_MAIN();
