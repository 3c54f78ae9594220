#include <dirent.h>
#include <sys/resource.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <sstream>
#include <variant>

#include "bench.hpp"
#include "dns/types.hpp"

namespace perfbench {

using drongo::dns::Message;

std::uint64_t now_ns() {
  // drongo-lint: allow(nondeterminism) — the benchmark's span clock needs ns; it is never simulated time
  const auto now = std::chrono::steady_clock::now().time_since_epoch();
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(now).count());
}

double process_cpu_s() {
  timespec ts{};
  // drongo-lint: allow(nondeterminism) — process CPU time, a measurement only
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

ThreadClocks::ThreadClocks(const std::vector<long>& tids) {
  // Linux's CPU-clock id for a thread (MAKE_THREAD_CPUCLOCK(tid,
  // CPUCLOCK_SCHED)): its exact runtime, updated even while it runs on
  // another CPU.
  for (long tid : tids) {
    clocks_.push_back(static_cast<clockid_t>((~static_cast<unsigned>(tid) << 3) | 6u));
  }
}

double ThreadClocks::cpu_s() const {
  double total = 0.0;
  for (clockid_t clock : clocks_) {
    timespec ts{};
    // drongo-lint: allow(nondeterminism) — another thread's CPU time, a measurement only
    clock_gettime(clock, &ts);
    total += static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
  }
  return total;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return percentile(values, 0.5);
}

double trimmed_mean(std::vector<double> values, double lo, double hi) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto n = static_cast<double>(values.size());
  const auto first = static_cast<std::size_t>(lo * n);
  const auto last = std::max(first + 1, static_cast<std::size_t>(hi * n));
  double sum = 0.0;
  for (std::size_t i = first; i < last && i < values.size(); ++i) sum += values[i];
  return sum / static_cast<double>(std::min(last, values.size()) - first);
}

double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

namespace {
constexpr double kBucketGrowth = 1.005;
}  // namespace

void LatencyHistogram::add(double us) {
  std::size_t bucket = 0;
  if (us > 1.0) {
    bucket = static_cast<std::size_t>(std::log(us) / std::log(kBucketGrowth));
    bucket = std::min(bucket, kBuckets - 1);
  }
  ++buckets_[bucket];
  ++count_;
}

void LatencyHistogram::clear() {
  std::fill(buckets_.begin(), buckets_.end(), 0u);
  count_ = 0;
}

double LatencyHistogram::percentile_us(double q) const {
  if (count_ == 0) return 0.0;
  const double rank = q * static_cast<double>(count_ - 1);
  double seen = 0.0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    const auto n = static_cast<double>(buckets_[b]);
    if (n > 0.0 && seen + n > rank) {
      const double lo = b == 0 ? 0.0 : std::pow(kBucketGrowth, static_cast<double>(b));
      const double hi = std::pow(kBucketGrowth, static_cast<double>(b + 1));
      return lo + (hi - lo) * std::min(1.0, (rank - seen + 0.5) / n);
    }
    seen += n;
  }
  return std::pow(kBucketGrowth, static_cast<double>(kBuckets));
}

// ---- Pinning --------------------------------------------------------------------

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  }
  return cpus;
}

bool pin_calling_thread(const std::vector<int>& cpus) {
  if (cpus.empty()) return false;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus) CPU_SET(cpu, &set);
  // pid 0 = the calling thread (sched_setaffinity is per-thread on Linux).
  return sched_setaffinity(0, sizeof(set), &set) == 0;
}

Placement choose_placement() {
  Placement p;
  p.original = allowed_cpus();
  // Two CPUs, both off CPU 0 when possible: CPU 0 takes most device
  // interrupts, and a listener there showed 2 ms p99 stalls.
  std::vector<int> spare;
  for (int cpu : p.original) {
    if (cpu != 0) spare.push_back(cpu);
  }
  if (spare.size() < 2) spare = p.original;
  if (spare.size() >= 2) {
    p.listener = {spare[spare.size() - 2]};
    p.generator = {spare.back()};
  } else {
    p.listener = spare;
    p.generator = spare;
  }
  return p;
}

std::string cpu_list(const std::vector<int>& cpus) {
  std::string out;
  for (std::size_t i = 0; i < cpus.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(cpus[i]);
  }
  return out.empty() ? "-" : out;
}

std::map<long, std::string> thread_placements() {
  std::map<long, std::string> out;
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return out;
  while (const dirent* entry = readdir(dir)) {
    if (entry->d_name[0] == '.') continue;
    const long tid = std::strtol(entry->d_name, nullptr, 10);
    cpu_set_t set;
    CPU_ZERO(&set);
    std::vector<int> cpus;
    if (sched_getaffinity(static_cast<pid_t>(tid), sizeof(set), &set) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
      }
    }
    // Field 39 of /proc/<pid>/task/<tid>/stat is the CPU the thread last ran
    // on; fields are counted after the parenthesised command name.
    std::ifstream stat("/proc/self/task/" + std::string(entry->d_name) + "/stat");
    std::string text((std::istreambuf_iterator<char>(stat)), std::istreambuf_iterator<char>());
    std::string last = "?";
    const auto close = text.rfind(')');
    if (close != std::string::npos) {
      std::istringstream fields(text.substr(close + 2));
      std::string field;
      for (int i = 3; i <= 39 && (fields >> field); ++i) {
        if (i == 39) last = field;
      }
    }
    out[tid] = "cpus=" + cpu_list(cpus) + " last=" + last;
  }
  closedir(dir);
  return out;
}

// ---- Tracer ---------------------------------------------------------------------

const char* span_name(SpanName name) {
  switch (name) {
    case SpanName::kLoadgenQuery: return "loadgen.query";
    case SpanName::kResolverHandle: return "cdn.resolver.handle";
    case SpanName::kAuthoritativeHandle: return "cdn.authoritative.handle";
    case SpanName::kCampaignRun: return "measure.campaign.run";
    case SpanName::kSweepEvaluate: return "core.sweep.evaluate";
    case SpanName::kCount: break;
  }
  return "?";
}

const char* kind_name(QueryKind kind) {
  switch (kind) {
    case QueryKind::kResolveCr: return "resolve_cr";
    case QueryKind::kTraceroute: return "traceroute";
    case QueryKind::kAssimilate: return "assimilate";
    default: return "other";
  }
}

QueryKind classify(const Message& query, drongo::net::Ipv4Addr source) {
  if (query.questions.empty()) return QueryKind::kOther;
  if (query.questions[0].type == drongo::dns::RrType::kPtr) return QueryKind::kTraceroute;
  const auto& ecs = query.client_subnet();
  if (!ecs || !ecs->is_representable()) return QueryKind::kOther;
  const drongo::net::IpPrefix own(drongo::net::Prefix(source, 24));
  return ecs->source_prefix() == own ? QueryKind::kResolveCr : QueryKind::kAssimilate;
}

std::uint64_t Tracer::next_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1);
}

Tracer::ThreadLog& Tracer::log() {
  struct Cache {
    std::uint64_t owner = 0;
    ThreadLog* log = nullptr;
  };
  thread_local Cache cache;
  if (cache.owner != id_) {
    auto fresh = std::make_unique<ThreadLog>();
    fresh->records.reserve(1024);
    const std::lock_guard<std::mutex> lock(mutex_);
    logs_.push_back(std::move(fresh));
    cache = {id_, logs_.back().get()};
  }
  return *cache.log;
}

Tracer::Scope::Scope(Tracer* tracer, SpanName name, std::uint32_t dns_id, QueryKind kind)
    : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr) {
  if (tracer_ != nullptr) tracer_->open(name, dns_id, kind);
}

Tracer::Scope::~Scope() {
  if (tracer_ != nullptr) tracer_->close();
}

void Tracer::open(SpanName name, std::uint32_t dns_id, QueryKind kind) {
  ThreadLog& l = log();
  std::int64_t index = -1;
  if (l.records.size() < kKeptPerThread) {
    Record r;
    r.parent = l.open.empty() ? -1 : l.open.back().index;
    r.dns_id = dns_id;
    r.name = name;
    r.kind = kind;
    l.records.push_back(r);
    index = static_cast<std::int64_t>(l.records.size() - 1);
  } else {
    ++l.dropped;
  }
  l.open.push_back(Frame{now_ns(), 0, index, dns_id, name, kind});
  if (index >= 0) l.records[static_cast<std::size_t>(index)].start_ns = l.open.back().start_ns;
}

void Tracer::close() {
  const std::uint64_t end = now_ns();
  ThreadLog& l = log();
  const Frame frame = l.open.back();
  l.open.pop_back();
  if (!l.open.empty()) l.open.back().child_ns += end - frame.start_ns;
  finish(l, frame, end);
}

void Tracer::finish(ThreadLog& l, const Frame& frame, std::uint64_t end_ns) {
  const std::uint64_t duration = end_ns - frame.start_ns;
  const std::uint64_t self = duration - std::min(duration, frame.child_ns);
  auto& t = l.totals[static_cast<std::size_t>(frame.name)][static_cast<std::size_t>(frame.kind)];
  ++t.count;
  t.total_ns += duration;
  t.self_ns += self;
  auto& samples = l.self_ns[static_cast<std::size_t>(frame.name)];
  if (samples.size() < kSamplesPerThread) samples.push_back(static_cast<float>(self));
  if (frame.index >= 0) l.records[static_cast<std::size_t>(frame.index)].end_ns = end_ns;
}

void Tracer::record(SpanName name, std::uint64_t start_ns, std::uint64_t end_ns,
                    std::uint32_t dns_id) {
  ThreadLog& l = log();
  Frame frame{start_ns, 0, -1, dns_id, name, QueryKind::kOther};
  if (l.records.size() < kKeptPerThread) {
    Record r;
    r.start_ns = start_ns;
    r.dns_id = dns_id;
    r.name = name;
    l.records.push_back(r);
    frame.index = static_cast<std::int64_t>(l.records.size() - 1);
  } else {
    ++l.dropped;
  }
  finish(l, frame, end_ns);
}

SpanTotals Tracer::totals(SpanName name) const {
  SpanTotals sum;
  for (std::size_t k = 0; k < static_cast<std::size_t>(QueryKind::kCount); ++k) {
    const SpanTotals t = totals(name, static_cast<QueryKind>(k));
    sum.count += t.count;
    sum.total_ns += t.total_ns;
    sum.self_ns += t.self_ns;
  }
  return sum;
}

SpanTotals Tracer::totals(SpanName name, QueryKind kind) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  SpanTotals sum;
  for (const auto& l : logs_) {
    const auto& t = l->totals[static_cast<std::size_t>(name)][static_cast<std::size_t>(kind)];
    sum.count += t.count;
    sum.total_ns += t.total_ns;
    sum.self_ns += t.self_ns;
  }
  return sum;
}

std::vector<double> Tracer::self_samples_ns(SpanName name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> out;
  for (const auto& l : logs_) {
    for (float v : l->self_ns[static_cast<std::size_t>(name)]) out.push_back(v);
  }
  return out;
}

void Tracer::reset() {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (auto& l : logs_) {
    l->records.clear();
    l->open.clear();
    l->totals = {};
    for (auto& samples : l->self_ns) samples.clear();
    l->dropped = 0;
  }
}

std::size_t Tracer::write_jsonl(const std::string& path) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path);
  if (!out) return 0;
  std::size_t written = 0;
  std::uint64_t dropped = 0;
  for (const auto& l : logs_) dropped += l->dropped;
  out << "{\"spans_dropped_over_cap\":" << dropped << "}\n";
  for (std::size_t thread = 0; thread < logs_.size(); ++thread) {
    for (const Record& r : logs_[thread]->records) {
      out << "{\"name\":\"" << span_name(r.name) << "\",\"thread\":" << thread
          << ",\"start_ns\":" << r.start_ns << ",\"end_ns\":" << r.end_ns
          << ",\"parent\":" << r.parent << ",\"dns_id\":" << r.dns_id
          << ",\"phase\":\"" << kind_name(r.kind) << "\"}\n";
      ++written;
    }
  }
  return written;
}

// ---- Timing decorator ------------------------------------------------------------

TimedServer::TimedServer(drongo::dns::DnsServer* inner, Tracer* tracer, SpanName name)
    : inner_(inner), tracer_(tracer), name_(name) {}

Message TimedServer::handle(const Message& query, drongo::net::Ipv4Addr source) {
  Message reply;
  if (!tracer_->enabled()) {
    reply = inner_->handle(query, source);
  } else {
    {
      const Tracer::Scope span(tracer_, name_, query.header.id, classify(query, source));
      reply = inner_->handle(query, source);
    }
    if (sample_count_.load(std::memory_order_relaxed) < sample_limit_) {
      const std::lock_guard<std::mutex> lock(sample_mutex_);
      if (samples_.size() < sample_limit_) {
        samples_.emplace_back(query, reply);
        sample_count_.store(samples_.size(), std::memory_order_relaxed);
      }
    }
  }
  // The corruption keeps every address valid (it swaps the first two A
  // records, so the client is sent to the wrong replica first); an answer
  // with fewer than two passes the corruption on to the next call.
  const std::uint64_t every = corrupt_every_.load(std::memory_order_relaxed);
  if (every != 0 && (calls_.fetch_add(1, std::memory_order_relaxed) % every == 0 ||
                     corrupt_pending_.load(std::memory_order_relaxed))) {
    std::vector<drongo::dns::ARdata*> addresses;
    for (auto& rr : reply.answers) {
      if (auto* a = std::get_if<drongo::dns::ARdata>(&rr.rdata)) addresses.push_back(a);
    }
    const bool swap = addresses.size() >= 2 && addresses[0]->address != addresses[1]->address;
    if (swap) std::swap(addresses[0]->address, addresses[1]->address);
    corrupt_pending_.store(!swap, std::memory_order_relaxed);
  }
  return reply;
}

std::vector<std::pair<Message, Message>> TimedServer::samples() const {
  const std::lock_guard<std::mutex> lock(sample_mutex_);
  return samples_;
}

// ---- Codec timing ----------------------------------------------------------------

namespace {
/// Keeps a result alive so the timed loop cannot be optimised away.
void keep(std::size_t value) {
  static std::atomic<std::size_t> sink{0};
  sink.store(value, std::memory_order_relaxed);
}
}  // namespace

CodecCost time_codec(const std::vector<std::vector<std::uint8_t>>& query_wires,
                     const std::vector<Message>& replies, double min_seconds) {
  CodecCost cost;
  const auto min_ns = static_cast<std::uint64_t>(min_seconds * 1e9);
  if (!query_wires.empty()) {
    std::uint64_t calls = 0;
    std::size_t questions = 0;
    const std::uint64_t start = now_ns();
    while (now_ns() - start < min_ns) {
      for (const auto& wire : query_wires) {
        questions += Message::decode(wire).questions.size();
        ++calls;
      }
    }
    cost.decode_us = static_cast<double>(now_ns() - start) / 1e3 / static_cast<double>(calls);
    keep(questions);
  }
  if (!replies.empty()) {
    std::vector<std::uint8_t> out;
    std::uint64_t calls = 0;
    std::size_t bytes = 0;
    const std::uint64_t start = now_ns();
    while (now_ns() - start < min_ns) {
      for (const auto& reply : replies) {
        reply.encode_to(out);
        bytes += out.size();
        ++calls;
      }
    }
    cost.encode_us = static_cast<double>(now_ns() - start) / 1e3 / static_cast<double>(calls);
    keep(bytes);
  }
  return cost;
}

}  // namespace perfbench
