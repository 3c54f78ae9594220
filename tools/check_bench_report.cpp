// check_bench_report: validates BENCH_*.json report files.
//
//   check_bench_report <file> [<file> ...]
//
// Each file must be a flat, schema-versioned bench report as written by
// obs::BenchReport (see docs/OBSERVABILITY.md). Exit 0 when every file
// validates; prints one line per failure and exits 1 otherwise. CI runs
// this after bench_headline_results so a schema drift fails the build
// instead of silently producing unparseable trend data.
//
// Beyond structural validation, benches listed in kRequiredFields have
// their key set enforced: a BENCH_daemon.json that lost its `qps` field is
// exactly the kind of silent trend-data rot this tool exists to catch.
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "obs/bench_report.hpp"

namespace {

/// Per-bench required keys, keyed by the report's "bench" field. Benches
/// absent from this table validate structurally only.
const std::map<std::string, std::vector<std::string>>& required_fields() {
  static const std::map<std::string, std::vector<std::string>> kRequiredFields = {
      {"daemon",
       {"qps", "qps_naive", "speedup", "p50_ms", "p99_ms", "listeners",
        "batch", "queries", "duration_seconds"}},
  };
  return kRequiredFields;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: check_bench_report <BENCH_*.json> [...]\n";
    return 2;
  }
  int failures = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string path = argv[i];
    const std::string error =
        drongo::obs::validate_bench_report_file(path, required_fields());
    if (error.empty()) {
      std::cout << path << ": ok\n";
    } else {
      std::cerr << path << ": " << error << "\n";
      ++failures;
    }
  }
  return failures == 0 ? 0 : 1;
}
