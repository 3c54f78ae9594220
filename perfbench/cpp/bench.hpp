// Shared pieces of the repository benchmark: run options, the outcome every
// workload reports, process/thread clocks, CPU pinning, and the outside-in
// tracer with its DnsServer timing decorators.
//
// Everything here observes the program from outside: the decorators wrap
// the public DnsServer interface, the generator talks to the daemon over a
// real loopback socket, and layer counters come from public stats() calls.
#pragma once

#include <sched.h>
#include <time.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "dns/server.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Self-test only: corrupt every 97th resolver answer once warm-up is over,
  /// so the output checks must fail the run.
  bool corrupt = false;
  std::string trace_dir;
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one run reports. `metrics` holds the end-to-end set when tracing is
/// off and the per-layer set when it is on; `info` and `regime` are printed
/// on their own lines before the result.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;  ///< failed checks; any entry fails the run
  std::map<std::string, Metric> metrics;
  std::map<std::string, double> regime;
  std::map<std::string, std::string> info;

  void fail(std::string what) { problems.push_back(std::move(what)); }
  void set(const std::string& name, double value, const char* unit) {
    metrics[name] = Metric{value, unit};
  }
};

Outcome run_serve(const Options& options, bool hot);
Outcome run_campaign(const Options& options);

// ---- Clocks and process figures ---------------------------------------------

std::uint64_t now_ns();          ///< steady clock
double process_cpu_s();          ///< user + sys of the whole process
double peak_rss_mb();            ///< ru_maxrss of the process

/// Summed CPU clocks of other threads, read by thread id. The process CPU
/// clock is no substitute: it adds the time of threads running on other
/// CPUs only at scheduler ticks (4 ms at 250 Hz), as coarse as a window.
class ThreadClocks {
 public:
  ThreadClocks() = default;
  explicit ThreadClocks(const std::vector<long>& tids);
  [[nodiscard]] double cpu_s() const;

 private:
  std::vector<clockid_t> clocks_;
};
double median(std::vector<double> values);
/// Mean of the values ranked from quantile `lo` up to quantile `hi`.
double trimmed_mean(std::vector<double> values, double lo, double hi);
/// Percentile by linear interpolation at rank q * (n - 1); `sorted` ascending.
double percentile(const std::vector<double>& sorted, double q);

/// Log-bucketed latency histogram: buckets 0.5% wide from 1 µs to ~1 s, so
/// its memory is fixed whatever the throughput, and a percentile read from
/// it is within half a percent of the exact one.
class LatencyHistogram {
 public:
  void add(double us);
  void clear();
  [[nodiscard]] std::uint64_t count() const { return count_; }
  /// Percentile at rank q * (count - 1), interpolated within its bucket.
  [[nodiscard]] double percentile_us(double q) const;

 private:
  static constexpr std::size_t kBuckets = 2800;
  std::vector<std::uint32_t> buckets_ = std::vector<std::uint32_t>(kBuckets);
  std::uint64_t count_ = 0;
};

// ---- CPU pinning --------------------------------------------------------------

/// CPUs this process may run on, ascending.
std::vector<int> allowed_cpus();
/// Restricts the calling thread to `cpus` (threads it creates inherit it).
bool pin_calling_thread(const std::vector<int>& cpus);
/// "cpus=<affinity list> last=<cpu last run on>" for every thread of the
/// process, keyed by thread id.
std::map<long, std::string> thread_placements();
std::string cpu_list(const std::vector<int>& cpus);

/// Where the benchmark's threads run: the process's CPUs, and two of them
/// for the daemon's listener and the load generator (serve) or for the two
/// campaign workers.
struct Placement {
  std::vector<int> original;
  std::vector<int> listener;
  std::vector<int> generator;
};
Placement choose_placement();

// ---- Tracer -------------------------------------------------------------------

/// Span names the benchmark records, each at a layer boundary it can see.
enum class SpanName : std::uint8_t {
  kLoadgenQuery,         ///< generator: send -> matching reply (root of a query)
  kResolverHandle,       ///< DnsServer::handle on the public resolver
  kAuthoritativeHandle,  ///< DnsServer::handle on a CDN authoritative
  kCampaignRun,          ///< one Evaluation (campaign on the worker pool)
  kSweepEvaluate,        ///< one Evaluation::evaluate at one (vf, vt)
  kCount,
};
const char* span_name(SpanName name);

/// Which trial phase a resolver call belongs to, told from the query alone:
/// the client's own /24 is the CR resolution, a PTR is a traceroute hop
/// name, any other ECS subnet is a hop assimilation.
enum class QueryKind : std::uint8_t { kOther, kResolveCr, kTraceroute, kAssimilate, kCount };
QueryKind classify(const drongo::dns::Message& query, drongo::net::Ipv4Addr source);
const char* kind_name(QueryKind kind);

struct SpanTotals {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;
};

/// In-memory span recorder. Each span has a name, start, end, parent (the
/// enclosing span on the same thread) and the DNS id of its query; spans of
/// one query share that id across threads. Records stay in memory (capped
/// per thread) and are written out by write_jsonl() when the run ends; the
/// per-name totals always cover every span.
class Tracer {
 public:
  struct Record {
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::int64_t parent = -1;  ///< index in the same thread's records, -1 = root
    std::uint32_t dns_id = 0;
    SpanName name = SpanName::kLoadgenQuery;
    QueryKind kind = QueryKind::kOther;
  };

  /// RAII span on the calling thread; a disabled tracer makes it a no-op.
  class Scope {
   public:
    Scope(Tracer* tracer, SpanName name, std::uint32_t dns_id,
          QueryKind kind = QueryKind::kOther);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
  };

  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Records a finished root span measured elsewhere (the generator's query).
  void record(SpanName name, std::uint64_t start_ns, std::uint64_t end_ns,
              std::uint32_t dns_id);

  /// Totals over every thread, per name and per (name, kind). Quiescent
  /// callers only.
  [[nodiscard]] SpanTotals totals(SpanName name) const;
  [[nodiscard]] SpanTotals totals(SpanName name, QueryKind kind) const;
  /// Self times (ns) of every span of `name`, all threads.
  [[nodiscard]] std::vector<double> self_samples_ns(SpanName name) const;
  /// Clears all spans and totals. Quiescent callers only.
  void reset();
  /// Writes every kept span as one JSON object per line; returns the count.
  std::size_t write_jsonl(const std::string& path) const;

 private:
  static constexpr std::size_t kKeptPerThread = 1u << 18;
  static constexpr std::size_t kSamplesPerThread = 1u << 20;

  struct Frame {
    std::uint64_t start_ns;
    std::uint64_t child_ns;
    std::int64_t index;
    std::uint32_t dns_id;
    SpanName name;
    QueryKind kind;
  };
  struct ThreadLog {
    std::vector<Record> records;
    std::vector<Frame> open;
    std::array<std::array<SpanTotals, static_cast<std::size_t>(QueryKind::kCount)>,
               static_cast<std::size_t>(SpanName::kCount)>
        totals{};
    std::array<std::vector<float>, static_cast<std::size_t>(SpanName::kCount)> self_ns;
    std::uint64_t dropped = 0;
  };

  ThreadLog& log();
  void open(SpanName name, std::uint32_t dns_id, QueryKind kind);
  void close();
  void finish(ThreadLog& log, const Frame& frame, std::uint64_t end_ns);

  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;  // guards logs_ (registration and quiescent reads)
  std::vector<std::unique_ptr<ThreadLog>> logs_;
  const std::uint64_t id_ = next_id();  // keys the per-thread log caches

  static std::uint64_t next_id();
};

/// DnsServer decorator that times every handle() call as one span while the
/// tracer is on, and otherwise only forwards. The resolver's decorator can
/// also keep a sample of (query, reply) pairs for the codec timing and, in
/// the self-test, corrupt answers.
class TimedServer : public drongo::dns::DnsServer {
 public:
  TimedServer(drongo::dns::DnsServer* inner, Tracer* tracer, SpanName name);

  drongo::dns::Message handle(const drongo::dns::Message& query,
                              drongo::net::Ipv4Addr source) override;

  /// Corrupts the answer of every `every`-th call from now on (0 = off).
  void corrupt_every(std::uint64_t every) { corrupt_every_.store(every); }
  /// Keeps up to `limit` (query, reply) pairs while the tracer is on.
  void keep_samples(std::size_t limit) { sample_limit_ = limit; }
  [[nodiscard]] std::vector<std::pair<drongo::dns::Message, drongo::dns::Message>>
  samples() const;

 private:
  drongo::dns::DnsServer* inner_;
  Tracer* tracer_;
  SpanName name_;
  std::atomic<std::uint64_t> corrupt_every_{0};
  std::atomic<std::uint64_t> calls_{0};
  std::atomic<bool> corrupt_pending_{false};
  std::size_t sample_limit_ = 0;
  std::atomic<std::size_t> sample_count_{0};
  mutable std::mutex sample_mutex_;  // guards samples_
  std::vector<std::pair<drongo::dns::Message, drongo::dns::Message>> samples_;
};

/// Mean encode_to / decode cost (µs) of the given wires and messages,
/// repeated until each measurement covers at least `min_seconds`.
struct CodecCost {
  double decode_us = 0.0;
  double encode_us = 0.0;
};
CodecCost time_codec(const std::vector<std::vector<std::uint8_t>>& query_wires,
                     const std::vector<drongo::dns::Message>& replies, double min_seconds);

}  // namespace perfbench
