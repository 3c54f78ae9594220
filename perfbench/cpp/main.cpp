// drongo_perfbench: one workload, one run, one JSON result line.
//
//   drongo_perfbench --workload <serve_hot|serve_scoped|campaign> --seed <n>
//                    --seconds <s> --trace <0|1> [--trace-dir <dir>]
//                    [--commit <id>] [--source-digest <sha>] [--corrupt]
//
// Prints an "info" line (run metadata), a "regime" line (serve workloads),
// and last the result: {"correct", "attempted", "failed", "metrics"}, where
// metrics are the end-to-end set with --trace 0 and the per-layer set with
// --trace 1. Exits 1 when any output check failed, 2 on bad arguments.
#include <sys/utsname.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <algorithm>
#include <exception>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "bench.hpp"

namespace {

using perfbench::Metric;
using perfbench::Options;
using perfbench::Outcome;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json; run.py checks the printed names and units
// against it.
const std::vector<MetricSpec> kEndToEnd = {
    {"throughput_per_s", "1/s"}, {"p50_ms", "ms"},  {"p99_ms", "ms"},       {"cpu_us_per_op", "us"},
    {"setup_s", "s"},            {"rss_mb", "MB"},  {"ok_share", "ratio"},
};

const std::vector<MetricSpec> kPerLayer = {
    {"netio.batch_fill", "queries/batch"},
    {"dns.daemon.pcache_hit_ratio", "ratio"},
    {"dns.daemon.server_cpu_us", "us"},
    {"dns.daemon.front_cpu_us", "us"},
    {"loadgen.cpu_us_per_query", "us"},
    {"loadgen.timeouts", "count"},
    {"loadgen.run_p99_ms", "ms"},
    {"loadgen.stall_share", "ratio"},
    {"dns.codec.decode_us", "us"},
    {"dns.codec.encode_us", "us"},
    {"cdn.resolver.handle_us", "us"},
    {"cdn.resolver.handle_p99_us", "us"},
    {"cdn.resolver.calls_per_query", "ratio"},
    {"dns.cache.hit_ratio", "ratio"},
    {"dns.lpm.visits_per_lookup", "count"},
    {"cdn.resolver.upstream_per_op", "ratio"},
    {"cdn.authoritative.handle_us", "us"},
    {"measure.trial_us", "us"},
    {"measure.trial.self_us", "us"},
    {"measure.trial.resolve_cr_us", "us"},
    {"measure.trial.traceroute_us", "us"},
    {"measure.trial.assimilate_us", "us"},
    {"measure.trial.measure_us", "us"},
    {"dns.stub.queries_per_trial", "count"},
    {"measure.campaign.worker_busy_share", "ratio"},
    {"core.sweep.evaluate_ms", "ms"},
    {"trace.overhead_share", "ratio"},
    {"trace.remainder_us", "us"},
    {"trace.remainder_share", "ratio"},
};

std::string escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// `{"<key>": {"<field>": <value>, ...}}` from values already rendered as JSON.
std::string json_line(const std::string& key, const std::map<std::string, std::string>& fields) {
  std::string line = "{\"" + key + "\": {";
  bool first = true;
  for (const auto& [name, value] : fields) {
    line += (first ? "\"" : ", \"") + escape(name) + "\": " + value;
    first = false;
  }
  return line + "}}";
}

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "drongo_perfbench: " << why
            << "\nusage: drongo_perfbench --workload <serve_hot|serve_scoped|campaign> --seed <n>"
               " --seconds <s> --trace <0|1> [--trace-dir <dir>] [--commit <id>]"
               " [--source-digest <sha>] [--corrupt]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--corrupt") {
      o.corrupt = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      o.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') usage("--seed must be a non-negative integer");
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(o.seconds > 0.0) || o.seconds > 120.0) {
        usage("--seconds must be in (0, 120]");
      }
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") usage("--trace must be 0 or 1");
      o.trace = value == "1";
    } else if (arg == "--trace-dir") {
      o.trace_dir = value;
    } else if (arg == "--commit") {
      o.commit = value;
    } else if (arg == "--source-digest") {
      o.source_digest = value;
    } else {
      usage("unknown argument " + arg);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (o.workload != "serve_hot" && o.workload != "serve_scoped" && o.workload != "campaign") {
    usage("unknown workload " + o.workload);
  }
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  Outcome outcome;
  try {
    if (options.workload == "campaign") {
      outcome = perfbench::run_campaign(options);
    } else {
      outcome = perfbench::run_serve(options, options.workload == "serve_hot");
    }
  } catch (const std::exception& e) {
    std::cerr << "drongo_perfbench: " << options.workload << " aborted: " << e.what() << "\n";
    return 1;
  }

  if (!options.trace && outcome.attempted > 0) {
    const auto ok = outcome.attempted - std::min(outcome.failed, outcome.attempted);
    outcome.set("ok_share", static_cast<double>(ok) / static_cast<double>(outcome.attempted), "ratio");
  }

  // Every metric of the selected set is printed; one a workload does not
  // exercise reads 0.
  const auto& specs = options.trace ? kPerLayer : kEndToEnd;
  std::vector<std::pair<std::string, Metric>> metrics;
  for (const auto& spec : specs) {
    Metric m{0.0, spec.unit};
    const auto it = outcome.metrics.find(spec.name);
    if (it != outcome.metrics.end()) {
      if (it->second.unit != spec.unit) outcome.fail(std::string("unit drift on ") + spec.name);
      m.value = it->second.value;
    }
    if (!std::isfinite(m.value)) {
      outcome.fail(std::string("non-finite ") + spec.name);
      m.value = 0.0;
    }
    metrics.emplace_back(spec.name, m);
    outcome.metrics.erase(spec.name);
  }
  for (const auto& [name, m] : outcome.metrics) outcome.fail("unlisted metric " + name);

  utsname uts{};
  uname(&uts);
  outcome.info["workload"] = options.workload;
  outcome.info["seed"] = std::to_string(options.seed);
  outcome.info["seconds"] = number(options.seconds);
  outcome.info["trace"] = options.trace ? "1" : "0";
  outcome.info["nproc"] = std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  outcome.info["allowed_cpus"] = perfbench::cpu_list(perfbench::allowed_cpus());
  outcome.info["kernel"] = std::string(uts.sysname) + " " + uts.release + " " + uts.machine;
  outcome.info["build_type"] = DRONGO_PERFBENCH_BUILD_TYPE;
  outcome.info["commit"] = options.commit;
  outcome.info["source_digest"] = options.source_digest;

  std::map<std::string, std::string> info;
  for (const auto& [k, v] : outcome.info) info[k] = "\"" + escape(v) + "\"";
  std::cout << json_line("info", info) << "\n";
  if (!outcome.regime.empty()) {
    std::map<std::string, std::string> regime;
    for (const auto& [k, v] : outcome.regime) regime[k] = number(v);
    std::cout << json_line("regime", regime) << "\n";
  }
  if (outcome.attempted == 0) outcome.fail("no operation was attempted");
  for (const auto& problem : outcome.problems) std::cerr << "check failed: " << problem << "\n";
  const bool correct = outcome.problems.empty() && outcome.failed == 0;

  std::string line = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(std::max<std::uint64_t>(outcome.attempted, 1)) +
                     ", \"failed\": " + std::to_string(outcome.failed) + ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    line += (first ? "" : ", ") + std::string("\"") + name + "\": {\"value\": " + number(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  std::cout << line << "}}" << std::endl;
  return correct ? 0 : 1;
}
