// The serve workloads: a RIPE-style measure::Testbed whose PublicResolver
// sits behind one dns::DaemonServer listener on loopback, driven by a
// closed-loop generator thread that keeps a fixed window of queries
// outstanding on one socket.
//
//   serve_hot     a few hundred distinct (CDN name, client /24) queries:
//                 nearly every query is a packet-cache hit, so the front end
//                 (batching, pcache probe and id patch, syscalls) does the
//                 work and the resolver idles.
//   serve_scoped  every content name of the six CDNs x every fourth client
//                 and router /24 of the world x four EDNS payload sizes: too
//                 many distinct wires for the 8192-entry packet cache, while
//                 the resolver's scoped cache holds every scope, so the path
//                 is decode -> handle -> sharded cache / LPM hit -> encode
//                 with no upstream work.
#include <arpa/inet.h>
#include <malloc.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <optional>
#include <set>
#include <span>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "cdn/authoritative.hpp"
#include "cdn/resolver.hpp"
#include "dns/daemon_server.hpp"
#include "measure/testbed.hpp"
#include "net/rng.hpp"

namespace perfbench {
namespace {

using namespace drongo;

constexpr std::size_t kOutstanding = 64;  // queries in flight; <= 256 (slot in the id's low byte)
constexpr long kGeneratorThreads = 1;
constexpr long kGeneratorSockets = 1;
constexpr std::size_t kIoBatch = 64;    // generator datagrams per recvmmsg/sendmmsg
constexpr std::size_t kDatagram = 1232;
constexpr int kSetupsHot = 15;          // set-ups per run; setup_s is their median
constexpr int kSetupsScoped = 5;        // (each serve_scoped set-up resolves ~17k scopes upstream)
constexpr int kServeClients = 2048;     // client /24s in the world (plus its router /24s)
constexpr std::size_t kHotClients = 16; // serve_hot: 16 client /24s x 18 names
constexpr std::size_t kShards = 8;
// Capacity divided evenly over the shards: 131072 scopes per shard, more
// than the ~17k scopes serve_scoped creates in total, so even a shard that
// drew every qname never evicts.
constexpr std::size_t kCacheEntries = std::size_t{1} << 20;
constexpr std::size_t kReferenceSample = 256;
constexpr std::uint64_t kTimeoutNs = 1'000'000'000;
constexpr std::uint64_t kDrainNs = 1'000'000'000;
// Latency percentiles are taken per 12 ms window of the timed region and
// averaged over the middle 80% of the windows. On a shared virtualised host
// the vCPUs are preempted for 2-4 ms every few tens of milliseconds; such a
// stall delays the 64 queries in flight, more than 1% of a window's replies,
// so it sets the p99 of the window it lands in, and a run-wide p99 measured
// how often that happened. Dropping the top decile of windows drops them.
// The host's speed also swings every second or so (serve_scoped between
// ~100k and ~180k q/s within one run); a mean over windows follows the share
// of time spent at each speed, while a median over windows takes the speed
// that held longest and so jumps between speeds from run to run.
// 12 ms holds a whole number of scheduler ticks at 250 Hz and at 1000 Hz:
// windows sized by reply count instead straddled a varying number of 4 ms
// tick hiccups, and their p99 followed that count. At the serve rates
// (>= ~90k/s) a window holds over 1000 replies, enough for a p99 with ten
// samples beyond it. Throughput and CPU per query are whole-run totals.
constexpr std::uint64_t kWindowNs = 12'000'000;
constexpr double kTrimLow = 0.10;   // windows dropped from the bottom ...
constexpr double kTrimHigh = 0.90;  // ... and kept up to this quantile
constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

measure::TestbedConfig serve_config() {
  measure::TestbedConfig config = measure::TestbedConfig::ripe_atlas();
  config.client_count = kServeClients;
  config.serving.enable_cache = true;
  config.serving.shards = kShards;
  config.serving.max_entries = kCacheEntries;
  config.serving.coalesce = true;
  return config;
}

dns::DaemonServerConfig daemon_config() {
  dns::DaemonServerConfig config;
  config.listeners = 1;  // several SO_REUSEPORT listeners would split load by port hash
  config.enable_tcp = false;
  return config;
}

// ---- Workload inputs ---------------------------------------------------------------

// serve_scoped advertises four EDNS payload sizes. They model no measured
// traffic mix: they are there to separate the packet-cache key from the
// resolver's scope. Each size is a distinct wire to the packet cache but the
// same (name, scope) to the resolver's cache. With four sizes over every
// fourth client and router /24 the packet cache still sees ~67k distinct
// wires, while the resolver's scoped cache holds a quarter of the scopes.
// With one scope per wire over every /24, that working set made the
// run-to-run spread of serve_scoped twice that of serve_hot on a host whose
// caches are shared.
const std::vector<std::uint16_t> kPayloadSizes = {1232, 1400, 1452, 4096};
constexpr std::size_t kSubnetStride = 4;

struct Query {
  std::size_t name = 0;
  std::size_t subnet = 0;
  std::size_t payload = 0;  ///< index into kPayloadSizes
  std::size_t filler = 0;   ///< the query of this (name, subnet) that fills its cache scope
};

struct Population {
  std::vector<dns::DnsName> names;
  std::vector<net::Prefix> subnets;
  std::vector<Query> queries;                     // the distinct queries
  std::vector<std::vector<std::uint8_t>> wires;  // their encodings, id 0

  [[nodiscard]] dns::Message message(std::size_t d, std::uint16_t id) const {
    const Query& q = queries[d];
    auto m = dns::Message::make_query(id, names[q.name], net::IpPrefix(subnets[q.subnet]));
    m.edns->udp_payload_size = kPayloadSizes[q.payload];
    return m;
  }

  /// The DNS id a query is resolved with in-process (warm-up and reference):
  /// its scope filler's index, so both resolvers see the same upstream query.
  [[nodiscard]] std::uint16_t resolve_id(std::size_t d) const {
    return static_cast<std::uint16_t>(queries[d].filler);
  }
};

Population make_population(measure::Testbed& testbed, bool hot, std::uint64_t seed) {
  Population pop;
  for (std::size_t p = 0; p < testbed.provider_count(); ++p) {
    for (const auto& name : testbed.content_names(p)) pop.names.push_back(name);
  }
  std::vector<net::Prefix> clients;
  for (net::Ipv4Addr client : testbed.clients()) clients.emplace_back(client, 24);
  if (hot) {
    net::Rng rng(seed ^ 0x407);
    rng.shuffle(clients);
    clients.resize(std::min(kHotClients, clients.size()));
    pop.subnets = clients;
  } else {
    // Every fourth of the client /24s and router /24s of the world: the
    // subnets Drongo clients announce directly or by assimilating a
    // traceroute hop.
    std::set<net::Prefix> subnets(clients.begin(), clients.end());
    auto& world = testbed.world();
    for (std::size_t as = 0; as < world.graph().node_count(); ++as) {
      const std::uint32_t block = world.block_of(as).network().to_uint();
      for (std::uint32_t octet = 0; octet < 32; ++octet) {
        const net::Prefix candidate(net::Ipv4Addr(block + (octet << 8)), 24);
        if (world.subnet_kind(candidate) == topology::SubnetKind::kRouter) {
          subnets.insert(candidate);
        }
      }
    }
    std::size_t i = 0;
    for (const auto& subnet : subnets) {
      if (i++ % kSubnetStride == 0) pop.subnets.push_back(subnet);
    }
  }
  const std::size_t payloads = hot ? 1 : kPayloadSizes.size();
  for (std::size_t s = 0; s < pop.subnets.size(); ++s) {
    for (std::size_t n = 0; n < pop.names.size(); ++n) {
      const std::size_t filler = pop.queries.size();
      for (std::size_t p = 0; p < payloads; ++p) pop.queries.push_back({n, s, p, filler});
    }
  }
  pop.wires.reserve(pop.queries.size());
  for (std::size_t d = 0; d < pop.queries.size(); ++d) pop.wires.push_back(pop.message(d, 0).encode());
  return pop;
}

/// The full answer check: id, NOERROR, at least one A record, and the
/// queried ECS source prefix echoed with scope <= source length.
std::optional<std::string> check_answer(const dns::Message& m, std::uint16_t id,
                                        const Population& pop, std::size_t d) {
  const Query& q = pop.queries[d];
  if (m.header.id != id || !m.header.qr) return "reply id/qr mismatch";
  if (m.header.rcode != dns::Rcode::kNoError) return "rcode " + dns::to_string(m.header.rcode);
  if (m.questions.size() != 1 || !(m.questions[0].name == pop.names[q.name])) {
    return "question not echoed";
  }
  if (m.answer_addresses().empty()) return "no A record";
  const auto& ecs = m.client_subnet();
  if (!ecs || !ecs->is_representable()) return "ECS not echoed";
  if (!(ecs->source_prefix() == net::IpPrefix(pop.subnets[q.subnet]))) return "ECS source changed";
  if (ecs->scope_prefix_length > ecs->source_prefix_length) return "ECS scope beyond source";
  return std::nullopt;
}

// ---- Loopback client ---------------------------------------------------------------

/// One blocking UDP socket connected to the daemon, with preallocated
/// sendmmsg/recvmmsg batches (the generator's own syscall cost must stay
/// well below the server's).
class UdpClient {
 public:
  explicit UdpClient(std::uint16_t port)
      : send_arena_(kIoBatch * kDatagram),
        recv_arena_(kIoBatch * kDatagram),
        send_iov_(kIoBatch),
        recv_iov_(kIoBatch),
        send_msgs_(kIoBatch),
        recv_msgs_(kIoBatch) {
    fd_ = socket(AF_INET, SOCK_DGRAM, 0);
    if (fd_ < 0) throw std::runtime_error("socket() failed");
    sockaddr_in dest{};
    dest.sin_family = AF_INET;
    dest.sin_port = htons(port);
    dest.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    const int buffer = 1 << 20;
    setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &buffer, sizeof(buffer));
    if (connect(fd_, reinterpret_cast<const sockaddr*>(&dest), sizeof(dest)) != 0) {
      close(fd_);
      throw std::runtime_error("connect() to the daemon failed");
    }
    for (std::size_t i = 0; i < kIoBatch; ++i) {
      recv_iov_[i] = {recv_arena_.data() + i * kDatagram, kDatagram};
      recv_msgs_[i].msg_hdr.msg_iov = &recv_iov_[i];
      recv_msgs_[i].msg_hdr.msg_iovlen = 1;
      send_msgs_[i].msg_hdr.msg_iov = &send_iov_[i];
      send_msgs_[i].msg_hdr.msg_iovlen = 1;
    }
  }
  ~UdpClient() { close(fd_); }
  UdpClient(const UdpClient&) = delete;
  UdpClient& operator=(const UdpClient&) = delete;

  /// Queues `wire` with its id set to `id`; flushes when the batch is full.
  void stage(const std::vector<std::uint8_t>& wire, std::uint16_t id) {
    if (staged_ == kIoBatch) flush();
    std::uint8_t* slot = send_arena_.data() + staged_ * kDatagram;
    std::memcpy(slot, wire.data(), wire.size());
    slot[0] = static_cast<std::uint8_t>(id >> 8);
    slot[1] = static_cast<std::uint8_t>(id & 0xFF);
    send_iov_[staged_] = {slot, wire.size()};
    ++staged_;
  }

  void flush() {
    std::size_t done = 0;
    while (done < staged_) {
      const int sent = sendmmsg(fd_, send_msgs_.data() + done,
                                static_cast<unsigned>(staged_ - done), 0);
      if (sent <= 0) break;  // a dropped query surfaces as a timeout
      done += static_cast<std::size_t>(sent);
    }
    staged_ = 0;
  }

  /// Takes whatever replies are queued without blocking. The generator
  /// polls instead of sleeping: on a virtualised host (a 4-vCPU KVM guest)
  /// a thread woken on a halted vCPU sometimes waited for the next timer
  /// tick, a 3-4 ms stall of the whole closed loop. With the generator
  /// turning replies around at once, the listener's socket never runs dry
  /// either, so neither side sleeps.
  std::size_t receive() {
    const int got = recvmmsg(fd_, recv_msgs_.data(), kIoBatch, MSG_DONTWAIT, nullptr);
    return got > 0 ? static_cast<std::size_t>(got) : 0;
  }

  [[nodiscard]] std::span<const std::uint8_t> reply(std::size_t i) const {
    return {recv_arena_.data() + i * kDatagram, recv_msgs_[i].msg_len};
  }

 private:
  int fd_ = -1;
  std::vector<std::uint8_t> send_arena_;
  std::vector<std::uint8_t> recv_arena_;
  std::vector<iovec> send_iov_;
  std::vector<iovec> recv_iov_;
  std::vector<mmsghdr> send_msgs_;
  std::vector<mmsghdr> recv_msgs_;
  std::size_t staged_ = 0;
};

/// One measurement window of the timed region.
struct Window {
  std::uint64_t ok = 0;
  double p50_us = 0.0;
  double p99_us = 0.0;
};

struct LoadStats {
  std::uint64_t sent = 0;
  std::uint64_t wrong = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t unanswered = 0;  ///< still outstanding when the drain gave up
  std::uint64_t late = 0;        ///< replies for a slot that had already timed out
  std::vector<Window> windows;   ///< complete windows before the deadline
  LatencyHistogram pooled;       ///< every correct reply before the deadline
  double server_cpu_s = 0.0;     ///< the listener's CPU from start to deadline
  double stall_seconds = 0.0;    ///< time in gaps of over 1 ms without a reply
  double generator_busy_s = 0.0; ///< generator time handling replies and sends (not empty polls)
  double seconds = 0.0;          ///< start to deadline

  [[nodiscard]] std::uint64_t failed() const { return wrong + timeouts + unanswered; }
};

/// Closed loop: each of kOutstanding slots holds one outstanding query; a reply
/// frees its slot, which immediately sends the next query from `next`
/// (kNone ends the sequence). The DNS id is (generation << 8 | slot), so a
/// reply maps to its slot without decoding and a late reply for a timed-out
/// query is never taken for its successor. New queries stop at `deadline`;
/// outstanding ones then get kDrainNs to arrive.
template <class Next, class Check>
LoadStats drive(UdpClient& client, const Population& pop, std::uint64_t deadline, Next next,
                Check check, Tracer* tracer, const ThreadClocks& server) {
  struct Slot {
    std::size_t query = kNone;
    std::uint64_t sent_ns = 0;
    std::uint8_t generation = 0;
    bool busy = false;
  };
  std::vector<Slot> slots(kOutstanding);
  LoadStats stats;
  std::size_t busy = 0;
  bool draining = false;
  const std::uint64_t start = now_ns();
  auto send = [&](std::size_t s, std::uint64_t now) {
    const std::size_t d = draining ? kNone : next();
    if (d == kNone) return;
    Slot& slot = slots[s];
    slot.query = d;
    slot.sent_ns = now;
    ++slot.generation;
    slot.busy = true;
    ++busy;
    ++stats.sent;
    client.stage(pop.wires[d], static_cast<std::uint16_t>((slot.generation << 8) | s));
  };
  for (std::size_t s = 0; s < kOutstanding; ++s) send(s, now_ns());
  client.flush();
  std::uint64_t last_scan = start;
  std::uint64_t stall_ns = 0;
  Window window;
  LatencyHistogram latency;
  std::uint64_t window_start = start;
  const double server_cpu_start = server.cpu_s();
  // The partial window at the deadline is dropped.
  auto close_window = [&](std::uint64_t now, bool keep) {
    if (keep) {
      window.p50_us = latency.percentile_us(0.50);
      window.p99_us = latency.percentile_us(0.99);
      stats.windows.push_back(window);
    }
    window = Window{};
    latency.clear();
    window_start = now;
  };
  std::uint64_t last_reply = start;
  while (busy > 0) {
    const std::size_t count = client.receive();
    const std::uint64_t now = now_ns();
    if (count > 0 && !draining) {
      if (now - last_reply > 1'000'000) stall_ns += now - last_reply;
      last_reply = now;
    }
    if (!draining && now >= deadline) {
      draining = true;
      stats.server_cpu_s = server.cpu_s() - server_cpu_start;
      close_window(now, false);
    }
    for (std::size_t i = 0; i < count; ++i) {
      const auto reply = client.reply(i);
      if (reply.size() < 12) {
        ++stats.late;
        continue;
      }
      const std::size_t s = reply[1];
      const std::uint8_t generation = reply[0];
      if (s >= kOutstanding || !slots[s].busy || slots[s].generation != generation) {
        ++stats.late;
        continue;
      }
      Slot& slot = slots[s];
      slot.busy = false;
      --busy;
      if (check(slot.query, reply)) {
        if (!draining) {
          ++window.ok;
          latency.add(static_cast<double>(now - slot.sent_ns) / 1e3);
          stats.pooled.add(static_cast<double>(now - slot.sent_ns) / 1e3);
          if (tracer != nullptr && tracer->enabled()) {
            tracer->record(SpanName::kLoadgenQuery, slot.sent_ns, now,
                           static_cast<std::uint32_t>((generation << 8) | s));
          }
        }
      } else {
        ++stats.wrong;
      }
      send(s, now);
    }
    if (now - last_scan > 50'000'000) {
      last_scan = now;
      for (std::size_t s = 0; s < kOutstanding; ++s) {
        if (slots[s].busy && now - slots[s].sent_ns > kTimeoutNs) {
          slots[s].busy = false;
          --busy;
          ++stats.timeouts;
          send(s, now);
        }
      }
    }
    client.flush();
    if (count > 0) stats.generator_busy_s += static_cast<double>(now_ns() - now) / 1e9;
    if (!draining && now - window_start >= kWindowNs) close_window(now, true);
    if (draining && now >= deadline + kDrainNs) break;
  }
  stats.unanswered = busy;
  stats.stall_seconds = static_cast<double>(stall_ns) / 1e9;
  stats.seconds = static_cast<double>(std::min(deadline, now_ns()) - start) / 1e9;
  return stats;
}

// ---- One set-up of the serving world -----------------------------------------------

struct Instance {
  std::unique_ptr<measure::Testbed> testbed;
  std::vector<std::unique_ptr<cdn::CdnAuthoritative>> auths;
  std::vector<std::unique_ptr<TimedServer>> auth_timers;
  std::unique_ptr<TimedServer> resolver_timer;
  std::unique_ptr<dns::DaemonServer> daemon;  // last: stops before what it serves
  std::vector<long> listener_tids;
  ThreadClocks listener_cpu;  // the server's CPU: the listener does all of its work
  std::vector<std::vector<std::uint8_t>> expected;  // reply wire per distinct query, id 0
};

/// Testbed build, daemon start, and the warm-up: every distinct query once
/// in-process (fills the resolver's cache, split by name over a few threads
/// so each scope is first filled by the same query on every run), then once
/// through the daemon, recording and fully checking each reply.
std::unique_ptr<Instance> set_up(const Population& pop, Tracer& tracer,
                                 const Placement& placement, Outcome& outcome) {
  auto inst = std::make_unique<Instance>();
  inst->testbed = std::make_unique<measure::Testbed>(serve_config());
  measure::Testbed& tb = *inst->testbed;
  for (std::size_t i = 0; i < tb.provider_count(); ++i) {
    inst->auths.push_back(std::make_unique<cdn::CdnAuthoritative>(&tb.provider(i)));
    inst->auth_timers.push_back(std::make_unique<TimedServer>(
        inst->auths.back().get(), &tracer, SpanName::kAuthoritativeHandle));
    tb.dns_network().register_server(tb.authoritative_addresses()[i],
                                     inst->auth_timers.back().get());
  }
  inst->resolver_timer =
      std::make_unique<TimedServer>(&tb.resolver(), &tracer, SpanName::kResolverHandle);
  tb.resolver().set_time_ms(0);  // frozen serving clock: no TTL expiry during a run

  // The listener thread inherits the creating thread's affinity.
  const auto before = thread_placements();
  pin_calling_thread(placement.listener);
  inst->daemon = std::make_unique<dns::DaemonServer>(inst->resolver_timer.get(), daemon_config());
  pin_calling_thread(placement.original);
  for (const auto& [tid, where] : thread_placements()) {
    if (before.count(tid) == 0) inst->listener_tids.push_back(tid);
  }
  inst->listener_cpu = ThreadClocks(inst->listener_tids);

  const std::size_t workers =
      std::max<std::size_t>(1, std::min<std::size_t>(3, placement.original.size()));
  std::vector<std::thread> threads;
  for (std::size_t w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      for (std::size_t d = 0; d < pop.queries.size(); ++d) {
        if (pop.queries[d].name % workers != w) continue;
        const auto& subnet = pop.subnets[pop.queries[d].subnet];
        (void)inst->resolver_timer->handle(pop.message(d, pop.resolve_id(d)),
                                           subnet.network());
      }
    });
  }
  for (auto& t : threads) t.join();

  pin_calling_thread(placement.generator);
  inst->expected.assign(pop.queries.size(), {});
  UdpClient client(inst->daemon->udp_port());
  std::size_t cursor = 0;
  std::uint64_t bad = 0;
  const LoadStats warm = drive(
      client, pop, std::numeric_limits<std::uint64_t>::max(),
      [&] { return cursor < pop.queries.size() ? cursor++ : kNone; },
      [&](std::size_t d, std::span<const std::uint8_t> reply) {
        const auto id = static_cast<std::uint16_t>((reply[0] << 8) | reply[1]);
        std::optional<std::string> why;
        try {
          why = check_answer(dns::Message::decode(reply), id, pop, d);
        } catch (const std::exception& e) {
          why = std::string("undecodable reply: ") + e.what();
        }
        if (why) {
          if (bad++ == 0) outcome.fail("warm-up reply for query " + std::to_string(d) + ": " + *why);
          return false;
        }
        inst->expected[d].assign(reply.begin(), reply.end());
        inst->expected[d][0] = inst->expected[d][1] = 0;
        return true;
      },
      nullptr, inst->listener_cpu);
  if (warm.failed() > 0) {
    outcome.fail("warm-up through the daemon: " + std::to_string(warm.failed()) + " of " +
                 std::to_string(warm.sent) + " queries failed");
  }
  return inst;
}

/// Addresses for a seeded sample of queries must equal an in-process
/// resolution on an identically configured resolver. Only answers tailored
/// to exactly the queried /24 are sampled: a coarser scope was filled by
/// whichever /24 of it came first, so its rotation belongs to that query.
std::uint64_t check_against_reference(const Population& pop, const Instance& inst,
                                      std::uint64_t seed, Outcome& outcome) {
  std::vector<std::size_t> tailored;
  for (std::size_t d = 0; d < pop.queries.size(); ++d) {
    if (inst.expected[d].empty()) continue;
    const auto m = dns::Message::decode(inst.expected[d]);
    if (m.client_subnet() && m.client_subnet()->scope_prefix_length == 24) tailored.push_back(d);
  }
  net::Rng rng(seed ^ 0x5EF);
  rng.shuffle(tailored);
  tailored.resize(std::min(kReferenceSample, tailored.size()));
  if (tailored.empty()) {
    outcome.fail("no /24-tailored answer to check against the reference resolver");
    return 1;
  }
  measure::Testbed reference(serve_config());
  std::uint64_t mismatches = 0;
  for (std::size_t d : tailored) {
    const auto& subnet = pop.subnets[pop.queries[d].subnet];
    const auto want = reference.resolver()
                          .handle(pop.message(d, pop.resolve_id(d)), subnet.network())
                          .answer_addresses();
    const auto got = dns::Message::decode(inst.expected[d]).answer_addresses();
    if (got != want) {
      if (mismatches++ == 0) {
        outcome.fail("query " + std::to_string(d) + " answered differently from the reference resolver");
      }
    }
  }
  outcome.info["reference_sample"] = std::to_string(tailored.size());
  return mismatches;
}

struct Counters {
  dns::DaemonStats daemon;
  dns::CacheStats cache;
  std::uint64_t upstream = 0;

  static Counters read(Instance& inst) {
    Counters c;
    c.daemon = inst.daemon->stats();
    c.cache = inst.testbed->resolver().cache_stats();
    c.upstream = inst.testbed->resolver().upstream_queries();
    return c;
  }
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct Phase {
  LoadStats load;
  Counters before;
  Counters after;

  /// Mean over the middle windows of a per-window figure.
  template <class F>
  [[nodiscard]] double across_windows(F f) const {
    std::vector<double> values;
    for (const Window& w : load.windows) values.push_back(f(w));
    return trimmed_mean(values, kTrimLow, kTrimHigh);
  }
  /// Correct replies before the deadline.
  [[nodiscard]] double answered() const { return static_cast<double>(load.pooled.count()); }
  [[nodiscard]] double throughput() const { return ratio(answered(), load.seconds); }
  [[nodiscard]] double server_us_per_query() const { return ratio(load.server_cpu_s * 1e6, answered()); }
  [[nodiscard]] double upstream() const { return static_cast<double>(after.upstream - before.upstream); }
  [[nodiscard]] double daemon_d(std::uint64_t dns::DaemonStats::*field) const {
    return static_cast<double>(after.daemon.*field - before.daemon.*field);
  }
  [[nodiscard]] double cache_d(std::uint64_t dns::CacheStats::*field) const {
    return static_cast<double>(after.cache.*field - before.cache.*field);
  }
};

}  // namespace

Outcome run_serve(const Options& options, bool hot) {
  Outcome outcome;
  Tracer tracer;
  const Placement placement = choose_placement();
  Population pop;
  {
    measure::Testbed world(serve_config());
    pop = make_population(world, hot, options.seed);
  }

  std::vector<double> setup_seconds;
  std::unique_ptr<Instance> inst;
  const int setups = hot ? kSetupsHot : kSetupsScoped;
  for (int i = 0; i < setups; ++i) {
    pin_calling_thread(placement.original);
    inst.reset();  // the previous set-up is torn down outside the timed set-up
    // Hand the torn-down set-up's free pages back, so the peak RSS is that
    // of one set-up and not of the arenas earlier set-ups left behind.
    malloc_trim(0);
    const std::uint64_t start = now_ns();
    inst = set_up(pop, tracer, placement, outcome);
    setup_seconds.push_back(static_cast<double>(now_ns() - start) / 1e9);
  }
  Instance& live = *inst;

  // The generator runs on this (pinned) thread from here on.
  net::Rng rng(options.seed);
  auto next = [&] { return static_cast<std::size_t>(rng.index(pop.queries.size())); };
  std::uint64_t first_wrong = kNone;
  auto check = [&](std::size_t d, std::span<const std::uint8_t> reply) {
    const auto& want = live.expected[d];
    const bool same = reply.size() == want.size() && !want.empty() &&
                      std::memcmp(reply.data() + 2, want.data() + 2, want.size() - 2) == 0;
    if (!same && first_wrong == kNone) first_wrong = d;
    return same;
  };
  if (options.corrupt) live.resolver_timer->corrupt_every(97);
  UdpClient client(live.daemon->udp_port());
  auto run_phase = [&](double seconds, bool traced) {
    tracer.set_enabled(traced);
    Phase phase;
    phase.before = Counters::read(live);
    const std::uint64_t deadline = now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
    phase.load = drive(client, pop, deadline, next, check, &tracer, live.listener_cpu);
    phase.after = Counters::read(live);
    tracer.set_enabled(false);
    return phase;
  };

  std::vector<Phase> phases;
  if (options.trace) {
    phases.push_back(run_phase(options.seconds / 2, false));
    phases.push_back(run_phase(options.seconds / 2, true));
  } else {
    phases.push_back(run_phase(options.seconds, false));
  }
  const Phase& measured = phases.back();
  const auto placements = thread_placements();  // read while still pinned
  pin_calling_thread(placement.original);
  // Joining the listener orders its spans before the tracer is read below.
  live.daemon->stop();

  // ---- Output checks ----
  std::uint64_t wrong = 0;
  std::uint64_t timeouts = 0;
  for (const Phase& p : phases) {
    outcome.attempted += p.load.sent;
    outcome.failed += p.load.failed();
    wrong += p.load.wrong;
    timeouts += p.load.timeouts + p.load.unanswered;
  }
  if (wrong > 0) {
    outcome.fail(std::to_string(wrong) + " replies differ from the checked warm-up answer (first: query " +
                 std::to_string(first_wrong) + ")");
  }
  if (timeouts > 0) outcome.fail(std::to_string(timeouts) + " queries timed out");
  const std::uint64_t mismatches = check_against_reference(pop, live, options.seed, outcome);
  outcome.failed += mismatches;
  outcome.attempted += std::min<std::uint64_t>(kReferenceSample, pop.queries.size());

  // ---- Regime: which layer answered ----
  const double queries = measured.daemon_d(&dns::DaemonStats::udp_queries);
  const double pcache_hits = measured.daemon_d(&dns::DaemonStats::pcache_hits);
  const double pcache_lookups = pcache_hits + measured.daemon_d(&dns::DaemonStats::pcache_misses);
  const double cache_hits = measured.cache_d(&dns::CacheStats::hits);
  const double cache_lookups = cache_hits + measured.cache_d(&dns::CacheStats::misses);
  const double upstream = measured.upstream();
  outcome.regime["pcache_hit_share"] = ratio(pcache_hits, pcache_lookups);
  outcome.regime["resolver_cache_hit_share"] = ratio(cache_hits, cache_lookups);
  outcome.regime["upstream_per_query"] = ratio(upstream, queries);
  outcome.regime["resolver_cache_evictions"] = static_cast<double>(live.testbed->resolver().cache_stats().evictions);
  outcome.regime["distinct_queries"] = static_cast<double>(pop.queries.size());

  // ---- Metadata ----
  outcome.info["pin.listener.requested"] = cpu_list(placement.listener);
  outcome.info["pin.generator.requested"] = cpu_list(placement.generator);
  std::string listener_achieved;
  for (long tid : live.listener_tids) {
    const auto it = placements.find(tid);
    if (it != placements.end()) listener_achieved += (listener_achieved.empty() ? "" : "; ") + it->second;
  }
  outcome.info["pin.listener.achieved"] = listener_achieved.empty() ? "?" : listener_achieved;
  const auto self = placements.find(static_cast<long>(gettid()));
  outcome.info["pin.generator.achieved"] = self == placements.end() ? "?" : self->second;
  // One generator thread on one socket; the run is void if the machine
  // cannot even give it a CPU of its own next to the listener.
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  if (kGeneratorThreads > nproc || kGeneratorSockets > nproc) {
    outcome.fail("load generator uses more threads or sockets than CPUs");
  }
  outcome.info["generator.threads"] = std::to_string(kGeneratorThreads);
  outcome.info["generator.sockets"] = std::to_string(kGeneratorSockets);
  outcome.info["generator.outstanding"] = std::to_string(kOutstanding);
  outcome.info["listeners"] = "1";
  std::uint64_t samples = 0;
  for (const Window& w : measured.load.windows) samples += w.ok;
  outcome.info["latency_samples"] = std::to_string(samples);
  outcome.info["latency"] = "per-window percentile, mean over the windows ranked " +
                            std::to_string(std::lround(kTrimLow * 100)) + "%-" +
                            std::to_string(std::lround(kTrimHigh * 100)) + "%";
  outcome.info["windows"] = std::to_string(measured.load.windows.size());
  outcome.info["window_ms"] = std::to_string(static_cast<double>(kWindowNs) / 1e6);
  std::vector<double> per_window;
  for (const Window& w : measured.load.windows) per_window.push_back(static_cast<double>(w.ok));
  std::sort(per_window.begin(), per_window.end());
  outcome.info["window_replies_p10"] = std::to_string(percentile(per_window, 0.10));
  // The whole-run p99 (host stalls included) and the share of the run spent
  // in gaps of over 1 ms with no reply at all; a traced run also reports
  // them as loadgen.run_p99_ms and loadgen.stall_share.
  outcome.info["pooled_p99_ms"] = std::to_string(measured.load.pooled.percentile_us(0.99) / 1e3);
  outcome.info["stall_share"] = std::to_string(ratio(measured.load.stall_seconds, measured.load.seconds));
  outcome.info["setups"] = std::to_string(setups);
  std::uint64_t late = 0;
  for (const Phase& p : phases) late += p.load.late;
  outcome.info["late_replies"] = std::to_string(late);

  const double ok = measured.answered();
  if (!options.trace) {
    outcome.set("throughput_per_s", measured.throughput(), "1/s");
    outcome.set("p50_ms", measured.across_windows([](const Window& w) { return w.p50_us; }) / 1e3,
                "ms");
    outcome.set("p99_ms", measured.across_windows([](const Window& w) { return w.p99_us; }) / 1e3,
                "ms");
    outcome.set("cpu_us_per_op", measured.server_us_per_query(), "us");
    outcome.set("setup_s", median(setup_seconds), "s");
    outcome.set("rss_mb", peak_rss_mb(), "MB");
    return outcome;
  }

  // ---- Per-layer figures from the traced phase ----
  const SpanTotals resolver = tracer.totals(SpanName::kResolverHandle);
  const SpanTotals authoritative = tracer.totals(SpanName::kAuthoritativeHandle);
  std::vector<double> resolver_self = tracer.self_samples_ns(SpanName::kResolverHandle);
  std::sort(resolver_self.begin(), resolver_self.end());
  const double server_cpu_us = measured.server_us_per_query();
  const double resolver_us = ratio(static_cast<double>(resolver.total_ns) / 1e3, ok);
  const double calls_per_query = ratio(static_cast<double>(resolver.count), ok);

  // The codec, timed on this workload's own query and reply wires.
  std::vector<std::vector<std::uint8_t>> query_wires;
  std::vector<dns::Message> replies;
  for (std::size_t d = 0; d < pop.queries.size() && query_wires.size() < 4096;
       d += std::max<std::size_t>(1, pop.queries.size() / 4096)) {
    query_wires.push_back(pop.wires[d]);
    replies.push_back(dns::Message::decode(live.expected[d]));
  }
  const CodecCost codec = time_codec(query_wires, replies, 0.05);
  const double codec_us = (codec.decode_us + codec.encode_us) * calls_per_query;
  const double self_us = codec_us + ratio(static_cast<double>(resolver.self_ns + authoritative.self_ns) / 1e3, ok);

  outcome.set("netio.batch_fill",
              ratio(measured.daemon_d(&dns::DaemonStats::udp_queries),
                    measured.daemon_d(&dns::DaemonStats::udp_batches)),
              "queries/batch");
  outcome.set("dns.daemon.pcache_hit_ratio", ratio(pcache_hits, pcache_lookups), "ratio");
  outcome.set("dns.daemon.server_cpu_us", server_cpu_us, "us");
  outcome.set("dns.daemon.front_cpu_us", server_cpu_us - resolver_us, "us");
  // The generator polls, so its CPU clock is its wall clock; its work is the
  // time it spends on non-empty batches.
  outcome.set("loadgen.cpu_us_per_query", ratio(measured.load.generator_busy_s * 1e6, ok), "us");
  double all_timeouts = 0.0;
  for (const Phase& p : phases) all_timeouts += static_cast<double>(p.load.timeouts + p.load.unanswered);
  outcome.set("loadgen.timeouts", all_timeouts, "count");
  // The end-to-end p99_ms averages the window p99s without the top decile,
  // so a tail the program causes in under a tenth of the windows does not
  // move it. These two cover the whole untraced phase, host stalls included.
  const LoadStats& untraced = phases.front().load;
  outcome.set("loadgen.run_p99_ms", untraced.pooled.percentile_us(0.99) / 1e3, "ms");
  outcome.set("loadgen.stall_share", ratio(untraced.stall_seconds, untraced.seconds), "ratio");
  outcome.set("dns.codec.decode_us", codec.decode_us, "us");
  outcome.set("dns.codec.encode_us", codec.encode_us, "us");
  outcome.set("cdn.resolver.handle_us", ratio(static_cast<double>(resolver.self_ns) / 1e3,
                                              static_cast<double>(resolver.count)),
              "us");
  outcome.set("cdn.resolver.handle_p99_us", percentile(resolver_self, 0.99) / 1e3, "us");
  outcome.set("cdn.resolver.calls_per_query", calls_per_query, "ratio");
  outcome.set("dns.cache.hit_ratio", ratio(cache_hits, cache_lookups), "ratio");
  outcome.set("dns.lpm.visits_per_lookup",
              ratio(static_cast<double>(measured.after.cache.lpm.node_visits - measured.before.cache.lpm.node_visits),
                    static_cast<double>(measured.after.cache.lpm.lookups - measured.before.cache.lpm.lookups)),
              "count");
  outcome.set("cdn.resolver.upstream_per_op", ratio(upstream, ok), "ratio");
  outcome.set("cdn.authoritative.handle_us", ratio(static_cast<double>(authoritative.self_ns) / 1e3,
                                                   static_cast<double>(authoritative.count)),
              "us");
  outcome.set("trace.overhead_share", 1.0 - ratio(phases[1].throughput(), phases[0].throughput()), "ratio");
  outcome.set("trace.remainder_us", server_cpu_us - self_us, "us");
  outcome.set("trace.remainder_share", ratio(server_cpu_us - self_us, server_cpu_us), "ratio");
  outcome.info["trace.root"] = "dns.daemon.server_cpu_us";
  outcome.info["trace.resolver_spans"] = std::to_string(resolver.count);

  if (!options.trace_dir.empty()) {
    const std::string path = options.trace_dir + "/" + (hot ? "serve_hot" : "serve_scoped") + "-seed" +
                             std::to_string(options.seed) + ".jsonl";
    outcome.info["trace.spans_written"] = std::to_string(tracer.write_jsonl(path));
    outcome.info["trace.file"] = path;
  }
  return outcome;
}

}  // namespace perfbench
