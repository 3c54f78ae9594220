#include "dns/faults.hpp"

#include <cmath>
#include <cstdlib>
#include <limits>

#include "dns/message.hpp"
#include "net/error.hpp"

namespace drongo::dns {

namespace {

/// FNV-1a over the whole exchange identity. Query bytes include the id and
/// the 0x20-randomized name, so every attempt — even of the same logical
/// question — selects its own fault stream.
std::uint64_t exchange_hash(net::Ipv4Addr source, net::Ipv4Addr destination,
                            std::span<const std::uint8_t> query) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  auto mix = [&h](std::uint8_t byte) {
    h ^= byte;
    h *= 0x100000001B3ULL;
  };
  for (int shift = 24; shift >= 0; shift -= 8) {
    mix(static_cast<std::uint8_t>(source.to_uint() >> shift));
    mix(static_cast<std::uint8_t>(destination.to_uint() >> shift));
  }
  for (std::uint8_t byte : query) mix(byte);
  return h;
}

thread_local double g_fault_time_hours = std::numeric_limits<double>::quiet_NaN();

}  // namespace

bool FaultProfile::active() const {
  return loss_prob > 0.0 || timeout_prob > 0.0 || servfail_prob > 0.0 ||
         refused_prob > 0.0 || truncate_prob > 0.0 || ecs_strip_prob > 0.0 ||
         scope_zero_prob > 0.0 || !outages.empty();
}

FaultProfile FaultProfile::lossy() {
  FaultProfile p;
  p.loss_prob = 0.10;
  p.truncate_prob = 0.05;
  return p;
}

FaultProfile FaultProfile::flaky() {
  FaultProfile p;
  p.servfail_prob = 0.10;
  p.refused_prob = 0.03;
  p.loss_prob = 0.02;
  return p;
}

FaultProfile FaultProfile::ecs_hostile() {
  FaultProfile p;
  p.ecs_strip_prob = 0.25;
  p.scope_zero_prob = 0.25;
  return p;
}

FaultProfile FaultProfile::chaos() {
  FaultProfile p;
  p.loss_prob = 0.08;
  p.timeout_prob = 0.03;
  p.servfail_prob = 0.05;
  p.refused_prob = 0.02;
  p.truncate_prob = 0.05;
  p.ecs_strip_prob = 0.15;
  p.scope_zero_prob = 0.10;
  return p;
}

FaultProfile parse_fault_profile(const std::string& name) {
  if (name.empty() || name == "none") return FaultProfile::none();
  if (name == "lossy") return FaultProfile::lossy();
  if (name == "flaky") return FaultProfile::flaky();
  if (name == "ecs-hostile") return FaultProfile::ecs_hostile();
  if (name == "chaos") return FaultProfile::chaos();
  throw net::InvalidArgument(
      "unknown fault profile \"" + name +
      "\" (expected none | lossy | flaky | ecs-hostile | chaos)");
}

double parse_fault_prob(const char* value, double fallback, const std::string& knob) {
  if (value == nullptr || value[0] == '\0') return fallback;
  const std::string v(value);
  std::size_t consumed = 0;
  double parsed = 0.0;
  try {
    parsed = std::stod(v, &consumed);
  } catch (const std::exception&) {
    throw net::InvalidArgument(knob + " must be a probability in [0, 1], got \"" + v +
                               "\"");
  }
  if (consumed != v.size() || !(parsed >= 0.0 && parsed <= 1.0)) {
    throw net::InvalidArgument(knob + " must be a probability in [0, 1], got \"" + v +
                               "\"");
  }
  return parsed;
}

FaultProfile fault_profile_from_env(FaultProfile base) {
  base.loss_prob = parse_fault_prob(std::getenv("DRONGO_FAULT_LOSS"), base.loss_prob,
                                    "DRONGO_FAULT_LOSS");
  base.timeout_prob = parse_fault_prob(std::getenv("DRONGO_FAULT_TIMEOUT"),
                                       base.timeout_prob, "DRONGO_FAULT_TIMEOUT");
  base.servfail_prob = parse_fault_prob(std::getenv("DRONGO_FAULT_SERVFAIL"),
                                        base.servfail_prob, "DRONGO_FAULT_SERVFAIL");
  base.refused_prob = parse_fault_prob(std::getenv("DRONGO_FAULT_REFUSED"),
                                       base.refused_prob, "DRONGO_FAULT_REFUSED");
  base.truncate_prob = parse_fault_prob(std::getenv("DRONGO_FAULT_TRUNCATE"),
                                        base.truncate_prob, "DRONGO_FAULT_TRUNCATE");
  base.ecs_strip_prob = parse_fault_prob(std::getenv("DRONGO_FAULT_ECS_STRIP"),
                                         base.ecs_strip_prob, "DRONGO_FAULT_ECS_STRIP");
  base.scope_zero_prob = parse_fault_prob(std::getenv("DRONGO_FAULT_SCOPE_ZERO"),
                                          base.scope_zero_prob,
                                          "DRONGO_FAULT_SCOPE_ZERO");
  return base;
}

ScopedFaultTime::ScopedFaultTime(double time_hours) : previous_(g_fault_time_hours) {
  g_fault_time_hours = time_hours;
}

ScopedFaultTime::~ScopedFaultTime() { g_fault_time_hours = previous_; }

double ScopedFaultTime::current() { return g_fault_time_hours; }

FaultyTransport::FaultyTransport(DnsTransport* inner, std::uint64_t seed,
                                 FaultProfile profile, Channel channel)
    : inner_(inner), seed_(seed), profile_(std::move(profile)), channel_(channel) {
  if (inner_ == nullptr) throw net::InvalidArgument("null inner DnsTransport");
}

void FaultyTransport::set_registry(obs::Registry* registry, std::string_view scope) {
  registry_ = registry;
  const std::string prefix = "dns.fault." + std::string(scope) + ".";
  for (std::size_t k = 0; k < kKinds; ++k) metric_names_[k] = prefix + kKindNames[k];
}

void FaultyTransport::tally(Kind kind) {
  const auto k = static_cast<std::size_t>(kind);
  counts_.add(k);
  if (registry_ != nullptr) registry_->add(metric_names_[k]);
}

std::vector<std::uint8_t> FaultyTransport::exchange(net::Ipv4Addr source,
                                                    net::Ipv4Addr destination,
                                                    std::span<const std::uint8_t> query) {
  if (!profile_.active()) {
    // No fault can fire: skip the hash, the stream and the draws.
    std::vector<std::uint8_t> reply = inner_->exchange(source, destination, query);
    tally(Kind::kClean);
    return reply;
  }

  // One derived stream per exchange: every decision below is a pure
  // function of (seed, channel, exchange bytes). The rng is local, so
  // short-circuiting after an early fault cannot perturb any other
  // exchange's draws.
  net::Rng rng = net::Rng::derive(seed_, exchange_hash(source, destination, query),
                                  static_cast<std::uint64_t>(channel_));

  const double now = ScopedFaultTime::current();
  if (!std::isnan(now)) {
    for (const auto& outage : profile_.outages) {
      if (destination == outage.server && now >= outage.start_hours &&
          now < outage.end_hours) {
        tally(Kind::kOutage);
        throw net::UnreachableError("injected outage at " + destination.to_string());
      }
    }
  }

  if (rng.chance(profile_.loss_prob)) {
    tally(Kind::kLoss);
    throw net::TimeoutError("injected loss toward " + destination.to_string());
  }

  bool touched = false;
  std::vector<std::uint8_t> forwarded_wire;
  std::span<const std::uint8_t> to_send = query;
  std::optional<Message> decoded_query;
  if (profile_.servfail_prob > 0.0 || profile_.refused_prob > 0.0 ||
      profile_.ecs_strip_prob > 0.0) {
    decoded_query = Message::decode(query);
  }

  if (decoded_query) {
    if (rng.chance(profile_.servfail_prob)) {
      tally(Kind::kServfail);
      return Message::make_response(*decoded_query, Rcode::kServFail).encode();
    }
    if (rng.chance(profile_.refused_prob)) {
      tally(Kind::kRefused);
      return Message::make_response(*decoded_query, Rcode::kRefused).encode();
    }
    if (decoded_query->edns && decoded_query->edns->client_subnet &&
        rng.chance(profile_.ecs_strip_prob)) {
      // The recursive drops ECS before resolving: the answer will be
      // tailored to the transport source address instead — assimilation
      // silently neutralized, exactly the measured real-world pathology.
      tally(Kind::kEcsStrip);
      Message stripped = *decoded_query;
      stripped.clear_client_subnet();
      forwarded_wire = stripped.encode();
      to_send = forwarded_wire;
      touched = true;
    }
  }

  std::vector<std::uint8_t> reply = inner_->exchange(source, destination, to_send);

  if (rng.chance(profile_.timeout_prob)) {
    tally(Kind::kTimeout);
    throw net::TimeoutError("injected reply loss from " + destination.to_string());
  }

  const bool truncate =
      channel_ == Channel::kUdp && rng.chance(profile_.truncate_prob);
  const bool scope_zero = rng.chance(profile_.scope_zero_prob);
  if (truncate || scope_zero) {
    Message response = Message::decode(reply);
    if (truncate) {
      tally(Kind::kTruncate);
      response.header.tc = true;
      response.answers.clear();
      response.authority.clear();
      response.additional.clear();
    }
    if (scope_zero && response.edns && response.edns->client_subnet) {
      tally(Kind::kScopeZero);
      response.edns->client_subnet->scope_prefix_length = 0;
    }
    reply = response.encode();
    touched = true;
  }

  if (!touched) tally(Kind::kClean);
  return reply;
}

}  // namespace drongo::dns
