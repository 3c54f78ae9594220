#include "core/decision.hpp"

#include <istream>
#include <ostream>

#include "net/error.hpp"
#include "net/strings.hpp"

namespace drongo::core {

namespace {

/// `domain` in canonical (lowercase) spelling: `domain` itself when it is
/// already lowercase, else a lowered copy held in `scratch`.
std::string_view canonical(const std::string& domain, std::string& scratch) {
  if (!net::has_upper(domain)) return domain;
  scratch = net::to_lower(domain);
  return scratch;
}

}  // namespace

DecisionEngine::DecisionEngine(DrongoParams params, std::uint64_t seed)
    : params_(params), rng_(seed) {
  if (params_.valley_threshold <= 0.0 || params_.valley_threshold > 1.0) {
    throw net::InvalidArgument("valley threshold must be in (0, 1]");
  }
  if (params_.min_valley_frequency < 0.0 || params_.min_valley_frequency > 1.0) {
    throw net::InvalidArgument("valley frequency must be in [0, 1]");
  }
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
  std::string scratch;
  auto it = windows_.find(canonical(domain, scratch));
  if (it == windows_.end()) {
    if (registry_ != nullptr) registry_->add("core.engine.choices.own_subnet");
    return std::nullopt;
  }

  double best_vf = -1.0;
  std::vector<net::Prefix> best;
  for (const auto& [subnet, window] : it->second) {
    if (!window.full()) continue;
    const double vf = window.valley_frequency(params_.valley_threshold);
    if (vf < params_.min_valley_frequency || vf <= 0.0) continue;
    if (vf > best_vf) {
      best_vf = vf;
      best.clear();
    }
    if (vf == best_vf) best.push_back(subnet);
  }
  if (best.empty()) {
    if (registry_ != nullptr) registry_->add("core.engine.choices.own_subnet");
    return std::nullopt;
  }
  // Highest valley frequency wins; ties are broken randomly (§4.3).
  if (registry_ != nullptr) registry_->add("core.engine.choices.assimilate");
  return best[rng_.index(best.size())];
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
    c.qualified = window.full() && c.valley_frequency >= params_.min_valley_frequency &&
                  c.valley_frequency > 0.0;
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
