// Drongo's decision engine (§4.3).
#pragma once

#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/valley.hpp"
#include "core/window.hpp"
#include "net/prefix.hpp"
#include "net/rng.hpp"
#include "obs/metrics.hpp"

namespace drongo::core {

/// The two tunables the paper sweeps in §5.1 plus the window size of §4.1.
/// Defaults are the experimentally optimal values (vf = 1.0, vt = 0.95,
/// window 5) under which Drongo reaches its peak aggregate gain.
struct DrongoParams {
  double valley_threshold = 0.95;     ///< vt: ratio must be below this to count
  double min_valley_frequency = 1.0;  ///< vf: required fraction of window trials
  std::size_t window_size = 5;
  RatioConvention convention = RatioConvention::deployment();
};

/// Throws net::InvalidArgument unless vt is in (0, 1] and vf in [0, 1],
/// the ranges the §5.1 sweep covers.
void validate_thresholds(double valley_threshold, double min_valley_frequency);

/// Decides, per domain, whether — and with which hop subnet — to perform
/// subnet assimilation.
///
/// Feed it trial records (collected during idle time); ask it for a subnet
/// at resolution time. Rules, per §4.3:
///  - only subnets with a FULL training window qualify ("sufficient data");
///  - a subnet qualifies when its window valley frequency (at vt) is at
///    least the vf parameter;
///  - among qualified subnets the highest valley frequency wins; ties are
///    broken uniformly at random;
///  - no qualified subnet -> resolve with the client's own subnet.
class DecisionEngine {
 public:
  explicit DecisionEngine(DrongoParams params = {}, std::uint64_t seed = 99);

  [[nodiscard]] const DrongoParams& params() const { return params_; }

  /// Ingests one trial: updates the (domain, hop-subnet) windows with the
  /// trial's latency ratios under the configured convention.
  void observe(const measure::TrialRecord& trial);

  /// The assimilation choice for `domain` right now, or nullopt for "use
  /// the client's own subnet". Uses the engine's parameters and tie-break
  /// stream and tallies the verdict.
  std::optional<net::Prefix> choose(const std::string& domain);

  /// The same rule at any (vt, vf) over the current windows, ties broken
  /// with `rng` (one draw when some subnet qualifies, none otherwise):
  /// pick(shortlist(domain, vt, vf), rng). It neither allocates (for a
  /// lowercase domain) nor changes the engine, so one trained engine can
  /// score a whole parameter sweep, from several threads at once, each with
  /// its own `rng`. Thresholds are not checked here; see
  /// validate_thresholds.
  [[nodiscard]] std::optional<net::Prefix> choose(std::string_view domain, double vt,
                                                  double vf, net::Rng& rng) const;

  /// The subnets tied to win `domain` at (vt, vf): those qualified at the
  /// highest valley frequency. It points into the engine, so it is valid
  /// until the next observe() or load(). Deciding several queries for one
  /// domain at one (vt, vf) takes one shortlist and a pick() per query.
  struct Shortlist {
    const std::map<net::Prefix, TrainingWindow>* windows = nullptr;
    double vt = 0.0;
    double vf = 0.0;
    double best = -1.0;                  ///< the tied subnets' valley frequency
    std::size_t ties = 0;                ///< how many there are; 0 = none qualifies
    const net::Prefix* first = nullptr;  ///< the first of them in subnet order
  };
  [[nodiscard]] Shortlist shortlist(std::string_view domain, double vt, double vf) const;

  /// The tie-break (§4.3: uniformly at random): one of the shortlist's
  /// subnets, drawn with one `rng` draw, or nullopt, without a draw, when
  /// the shortlist is empty.
  [[nodiscard]] static std::optional<net::Prefix> pick(const Shortlist& shortlist,
                                                       net::Rng& rng);

  /// A qualified or candidate subnet's state, for introspection.
  struct Candidate {
    net::Prefix subnet;
    double valley_frequency = 0.0;
    std::size_t observations = 0;
    bool qualified = false;
  };

  /// All tracked subnets for a domain with their current standing.
  [[nodiscard]] std::vector<Candidate> candidates(const std::string& domain) const;

  /// Number of (domain, subnet) windows currently tracked.
  [[nodiscard]] std::size_t tracked_windows() const;

  /// Failed trials fed to observe() and ignored (no measurements to learn
  /// from). Nonzero here with healthy windows is graceful degradation
  /// working as intended.
  [[nodiscard]] std::uint64_t skipped_trials() const { return skipped_trials_; }

  /// Persists the training state (all windows) in a line-oriented text
  /// format. A deployed Drongo survives restarts without re-measuring: the
  /// paper's 5-trial windows span days, far longer than a process lifetime.
  void save(std::ostream& out) const;

  /// Restores state written by save(), REPLACING current windows. Ratios
  /// beyond the configured window size are truncated to the most recent.
  /// Throws net::ParseError on malformed input.
  void load(std::istream& in);

  /// Attaches an obs registry (borrowed; nullptr detaches). observe() then
  /// tallies `core.engine.*`: trials observed/skipped, ratios ingested,
  /// valleys observed (ratio below vt), window misses; choose() tallies its
  /// verdicts and updates the `core.engine.tracked_windows` gauge.
  void set_registry(obs::Registry* registry) { registry_ = registry; }

 private:
  DrongoParams params_;
  net::Rng rng_;
  std::uint64_t skipped_trials_ = 0;
  obs::Registry* registry_ = nullptr;  // borrowed; optional telemetry
  /// domain (canonical) -> subnet -> window. Transparent, so a lookup
  /// by an already-lowercase domain needs no key copy.
  std::map<std::string, std::map<net::Prefix, TrainingWindow>, std::less<>> windows_;
};

}  // namespace drongo::core
