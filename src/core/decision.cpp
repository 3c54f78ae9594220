#include "core/decision.hpp"

#include <istream>
#include <ostream>

#include "net/error.hpp"
#include "net/strings.hpp"

namespace drongo::core {

namespace {

/// `domain` in canonical (lowercase) spelling: `domain` itself when it is
/// already lowercase, else a lowered copy held in `scratch`.
std::string_view canonical(std::string_view domain, std::string& scratch) {
  if (!net::has_upper(domain)) return domain;
  scratch = net::to_lower(domain);
  return scratch;
}

/// A window's valley frequency at vt when the window qualifies under vf
/// (§4.3: full, at least vf, and nonzero), else a negative value.
double qualified_frequency(const TrainingWindow& window, double vt, double vf) {
  if (!window.full()) return -1.0;
  const double frequency = window.valley_frequency(vt);
  return frequency >= vf && frequency > 0.0 ? frequency : -1.0;
}

}  // namespace

void validate_thresholds(double valley_threshold, double min_valley_frequency) {
  if (valley_threshold <= 0.0 || valley_threshold > 1.0) {
    throw net::InvalidArgument("valley threshold must be in (0, 1]");
  }
  if (min_valley_frequency < 0.0 || min_valley_frequency > 1.0) {
    throw net::InvalidArgument("valley frequency must be in [0, 1]");
  }
}

DecisionEngine::DecisionEngine(DrongoParams params, std::uint64_t seed)
    : params_(params), rng_(seed) {
  validate_thresholds(params_.valley_threshold, params_.min_valley_frequency);
}

void DecisionEngine::observe(const measure::TrialRecord& trial) {
  const auto note = [this](const char* name) {
    if (registry_ != nullptr) registry_->add(name);
  };
  if (trial.failed()) {
    // A failed trial carries no measurements: nothing to learn, and it must
    // not perturb existing windows. Counted so operators can see how much
    // training signal a lossy campaign lost.
    ++skipped_trials_;
    note("core.engine.trials_skipped");
    return;
  }
  note("core.engine.trials_observed");
  std::string scratch;
  const std::string_view key = canonical(trial.domain, scratch);
  auto slot = windows_.lower_bound(key);
  if (slot == windows_.end() || slot->first != key) {
    slot = windows_.try_emplace(slot, std::string(key));
  }
  auto& domain_windows = slot->second;
  for (const auto& hop : trial.hops) {
    if (!hop.usable) continue;
    const auto ratio = latency_ratio(trial, hop, params_.convention);
    if (!ratio) {
      // Degraded trial for this hop (its HR resolution or measurement is
      // missing): an existing window records the miss but keeps its ratio
      // history intact — stale evidence beats fabricated evidence.
      auto it = domain_windows.find(hop.subnet);
      if (it != domain_windows.end()) {
        it->second.add_miss();
        note("core.engine.window_misses");
      }
      continue;
    }
    note("core.engine.ratios_observed");
    // A ratio below vt is the paper's "valley": the hop subnet beat the
    // client's own resolution on this trial.
    if (*ratio < params_.valley_threshold) note("core.engine.valleys_observed");
    // try_emplace builds a window only when the subnet is new.
    domain_windows.try_emplace(hop.subnet, params_.window_size).first->second.add(*ratio);
  }
  if (registry_ != nullptr) {
    registry_->gauge("core.engine.tracked_windows",
                     static_cast<std::int64_t>(tracked_windows()));
  }
}

std::optional<net::Prefix> DecisionEngine::choose(const std::string& domain) {
  const auto chosen =
      choose(domain, params_.valley_threshold, params_.min_valley_frequency, rng_);
  if (registry_ != nullptr) {
    registry_->add(chosen ? "core.engine.choices.assimilate" : "core.engine.choices.own_subnet");
  }
  return chosen;
}

std::optional<net::Prefix> DecisionEngine::choose(std::string_view domain, double vt, double vf,
                                                  net::Rng& rng) const {
  return pick(shortlist(domain, vt, vf), rng);
}

DecisionEngine::Shortlist DecisionEngine::shortlist(std::string_view domain, double vt,
                                                    double vf) const {
  Shortlist out;
  std::string scratch;
  const auto it = windows_.find(canonical(domain, scratch));
  if (it == windows_.end()) return out;
  out.windows = &it->second;
  out.vt = vt;
  out.vf = vf;
  // Highest valley frequency wins (§4.3).
  for (const auto& [subnet, window] : it->second) {
    const double frequency = qualified_frequency(window, vt, vf);
    if (frequency < 0.0) continue;
    if (frequency > out.best) {
      out.best = frequency;
      out.ties = 0;
      out.first = &subnet;
    }
    if (frequency == out.best) ++out.ties;
  }
  return out;
}

std::optional<net::Prefix> DecisionEngine::pick(const Shortlist& shortlist, net::Rng& rng) {
  if (shortlist.ties == 0) return std::nullopt;
  std::size_t drawn = rng.index(shortlist.ties);
  if (drawn == 0) return *shortlist.first;
  // The drawn tie, in subnet order: a second pass over the same windows.
  for (const auto& [subnet, window] : *shortlist.windows) {
    if (qualified_frequency(window, shortlist.vt, shortlist.vf) == shortlist.best &&
        drawn-- == 0) {
      return subnet;
    }
  }
  return std::nullopt;  // unreachable: the pass sees the same `ties` subnets
}

std::vector<DecisionEngine::Candidate> DecisionEngine::candidates(
    const std::string& domain) const {
  std::vector<Candidate> out;
  std::string scratch;
  auto it = windows_.find(canonical(domain, scratch));
  if (it == windows_.end()) return out;
  for (const auto& [subnet, window] : it->second) {
    Candidate c;
    c.subnet = subnet;
    c.valley_frequency = window.valley_frequency(params_.valley_threshold);
    c.observations = window.size();
    c.qualified =
        qualified_frequency(window, params_.valley_threshold, params_.min_valley_frequency) >=
        0.0;
    out.push_back(c);
  }
  return out;
}

std::size_t DecisionEngine::tracked_windows() const {
  std::size_t n = 0;
  for (const auto& [domain, subnets] : windows_) n += subnets.size();
  return n;
}

namespace {
constexpr const char* kStateMagic = "drongo-engine-v1";
}

void DecisionEngine::save(std::ostream& out) const {
  out.precision(17);
  out << kStateMagic << "\n";
  for (const auto& [domain, subnets] : windows_) {
    for (const auto& [subnet, window] : subnets) {
      out << "w|" << domain << "|" << subnet.to_string();
      for (double ratio : window.ratios()) {
        out << "|" << ratio;
      }
      out << "\n";
    }
  }
}

void DecisionEngine::load(std::istream& in) {
  std::string line;
  if (!std::getline(in, line) || line != kStateMagic) {
    throw net::ParseError("engine state missing magic header");
  }
  decltype(windows_) restored;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const auto fields = net::split(line, '|');
    if (fields.size() < 3 || fields[0] != "w") {
      throw net::ParseError("bad engine state line: " + line);
    }
    const std::string& domain = fields[1];
    const net::Prefix subnet = net::Prefix::must_parse(fields[2]);
    auto [it, inserted] = restored[domain].try_emplace(subnet, params_.window_size);
    for (std::size_t i = 3; i < fields.size(); ++i) {
      try {
        std::size_t used = 0;
        const double ratio = std::stod(fields[i], &used);
        if (used != fields[i].size()) throw std::invalid_argument(fields[i]);
        it->second.add(ratio);  // window truncates to capacity by itself
      } catch (const std::exception&) {
        throw net::ParseError("bad ratio '" + fields[i] + "' in engine state");
      }
    }
  }
  windows_ = std::move(restored);
}

}  // namespace drongo::core
