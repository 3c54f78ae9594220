// Regenerates Figure 4: CDFs of hop-client pairs by valley frequency under
// three subnet-response measurements — ping (4a), first-attempt download
// time (4b), post-caching download time (4c) (§3.2.1).
//
// Paper checks: roughly 5%-20% of hop-client pairs are valleys 100% of the
// time; the download-based CDFs closely track the ping-based one. The run
// ends with each claim beside the measured quantity and a PASS/FAIL
// verdict (informational: the exit status stays 0).
#include <algorithm>
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/prevalence.hpp"
#include "analysis/render.hpp"
#include "bench_common.hpp"

using namespace drongo;

namespace {

constexpr double kCdfPoints[] = {0.0, 0.25, 0.5, 0.75, 0.99};

/// The CDF's fraction at each of kCdfPoints.
std::vector<double> cdf_at_points(const analysis::Figure4Series& series) {
  std::vector<double> fractions;
  for (const double vf : kCdfPoints) {
    double fraction = 0.0;
    for (const auto& point : series.cdf) {
      if (point.value <= vf) fraction = point.fraction;
    }
    fractions.push_back(fraction);
  }
  return fractions;
}

std::vector<analysis::Figure4Series> print_mode(const std::vector<measure::TrialRecord>& records,
                                                analysis::MeasureMode mode,
                                                const std::string& label) {
  std::cout << "== Figure 4" << label << " ==\n";
  auto series = analysis::figure4(records, mode);
  std::vector<std::vector<std::string>> cells;
  for (const auto& s : series) {
    // Summarize the CDF at fixed valley-frequency points.
    const std::vector<double> fractions = cdf_at_points(s);
    cells.push_back({s.provider, analysis::fmt(fractions[0]), analysis::fmt(fractions[1]),
                     analysis::fmt(fractions[2]), analysis::fmt(fractions[3]),
                     analysis::fmt(s.fraction_always_valley)});
  }
  std::cout << analysis::render_table(
      "CDF of hop-client pairs by valley frequency",
      {"Provider", "P(vf=0)", "P(vf<=.25)", "P(vf<=.5)", "P(vf<=.75)", "P(vf=1)"}, cells);
  std::cout << "\n";
  return series;
}

const char* verdict(bool pass) { return pass ? "PASS" : "FAIL"; }

// "Closely tracks": no CDF point of a download table more than this far
// from the ping table's. The paper gives no number; 0.1 is a tenth of the
// pairs.
constexpr double kTrackTolerance = 0.1;

/// The paper's two claims, each against the measured tables. Prints a
/// verdict per claim; never fails the bench.
void paper_check(const std::vector<analysis::Figure4Series>& ping,
                 const std::vector<std::vector<analysis::Figure4Series>>& downloads) {
  std::cout << "Paper check (a verdict per claim; the bench does not fail on them):\n";
  std::cout << "  claim 1: 5-20% of hop-client pairs are valleys in every trial (P(vf=1), "
               "ping)\n";
  for (const auto& s : ping) {
    const double always = s.fraction_always_valley;
    std::cout << "    " << s.provider << ": " << analysis::fmt(always * 100.0, 1)
              << "% vs paper 5-20%: " << verdict(always >= 0.05 && always <= 0.20) << "\n";
  }
  double widest = 0.0;
  for (const auto& mode : downloads) {
    for (std::size_t p = 0; p < mode.size() && p < ping.size(); ++p) {
      const std::vector<double> a = cdf_at_points(ping[p]);
      const std::vector<double> b = cdf_at_points(mode[p]);
      for (std::size_t i = 0; i < a.size(); ++i) widest = std::max(widest, std::abs(a[i] - b[i]));
      widest = std::max(widest, std::abs(ping[p].fraction_always_valley -
                                         mode[p].fraction_always_valley));
    }
  }
  std::cout << "  claim 2: the download-based CDFs (4b, 4c) closely track the ping-based one "
               "(4a)\n"
            << "    largest gap at any table point: " << analysis::fmt(widest, 3)
            << " vs tolerance " << analysis::fmt(kTrackTolerance, 2) << ": "
            << verdict(widest <= kTrackTolerance) << "\n";
}

}  // namespace

int main() {
  const int trials = bench::scaled(45, 10);
  const int clients = bench::scaled(95, 32);
  std::cout << "Running PlanetLab-style campaign with download measurements: " << clients
            << " clients, " << trials << " trials per pair...\n\n";
  auto dataset = bench::planetlab_campaign(trials, /*measure_downloads=*/true, 42, clients);

  const auto ping =
      print_mode(dataset.records, analysis::MeasureMode::kPing, "a: ping (3-burst average)");
  const auto first = print_mode(dataset.records, analysis::MeasureMode::kDownloadFirst,
                                "b: total download time (first attempt)");
  const auto primed = print_mode(dataset.records, analysis::MeasureMode::kDownloadCached,
                                 "c: total download time (cache primed)");
  paper_check(ping, {first, primed});
  return 0;
}
