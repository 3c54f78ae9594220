// Deterministic fault injection for DNS transports.
//
// The real Internet that Drongo must survive is lossy and flaky: recursives
// time out, return SERVFAIL in bursts, strip or ignore ECS, truncate over
// UDP; authoritatives go dark mid-campaign. `FaultyTransport` decorates any
// `DnsTransport` with exactly those pathologies, driven by a seeded RNG so a
// faulty campaign is as reproducible as a clean one: every fault decision is
// a pure function of (fault seed, channel, exchange bytes) — no shared
// mutable state — which keeps parallel campaign runs byte-identical to
// serial ones even while faults fire.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "dns/server.hpp"
#include "net/rng.hpp"
#include "net/thread_counters.hpp"
#include "obs/metrics.hpp"

namespace drongo::dns {

/// Fault policy: per-exchange probabilities plus timed outage windows.
/// All probabilities are independent draws in [0, 1].
struct FaultProfile {
  /// Query or response dropped in flight; the client observes a timeout.
  double loss_prob = 0.0;
  /// Server accepted the query but the reply never made it back in time.
  /// Observably identical to loss, counted separately (server-side fault).
  double timeout_prob = 0.0;
  /// The recursive answers SERVFAIL (overload, upstream trouble).
  double servfail_prob = 0.0;
  /// The recursive answers REFUSED (policy, lame delegation).
  double refused_prob = 0.0;
  /// UDP response comes back truncated (TC=1, answers dropped), forcing the
  /// client to retry over TCP. Never applied on the TCP channel.
  double truncate_prob = 0.0;
  /// The recursive strips the ECS option from the query before resolving —
  /// the "resolver ignores ECS" pathology that silently disables subnet
  /// assimilation (the answer falls back to the transport source address).
  double ecs_strip_prob = 0.0;
  /// The response's ECS scope is forced to /0 ("I did not tailor this"), as
  /// scope-zero recursives do.
  double scope_zero_prob = 0.0;

  /// A server that is dark for a window of simulated campaign time
  /// (mid-run authoritative or recursive outages). Matched against the
  /// exchange destination and the ScopedFaultTime clock; exchanges outside
  /// any trial (no clock set) never hit outage windows.
  struct Outage {
    net::Ipv4Addr server;
    double start_hours = 0.0;
    double end_hours = 0.0;
  };
  std::vector<Outage> outages;

  /// True when any fault can ever fire.
  [[nodiscard]] bool active() const;

  /// Named profiles for the CLI/env knobs.
  static FaultProfile none() { return {}; }
  /// 10% loss + occasional truncation: a congested last mile.
  static FaultProfile lossy();
  /// SERVFAIL/REFUSED bursts with light loss: an overloaded recursive.
  static FaultProfile flaky();
  /// ECS stripped or de-scoped: the resolver/CDN interplay pathologies.
  static FaultProfile ecs_hostile();
  /// Everything at once.
  static FaultProfile chaos();
};

/// Parses a profile name: none | lossy | flaky | ecs-hostile | chaos.
/// Throws net::InvalidArgument for anything else.
FaultProfile parse_fault_profile(const std::string& name);

/// Parses one probability knob value: "" keeps `fallback`, otherwise a
/// double in [0, 1]. Malformed values throw net::InvalidArgument loudly —
/// a typo in a batch-job environment must not silently run fault-free.
double parse_fault_prob(const char* value, double fallback, const std::string& knob);

/// Builds a profile from the environment on top of `base`:
/// DRONGO_FAULT_LOSS / _TIMEOUT / _SERVFAIL / _REFUSED / _TRUNCATE /
/// _ECS_STRIP / _SCOPE_ZERO override individual probabilities. No variable
/// replaces `base` itself: the caller picks it (drongo_sim: --fault-profile).
FaultProfile fault_profile_from_env(FaultProfile base = {});

/// RAII simulated-clock context for outage windows. The trial runner sets
/// the executing task's simulated time around its queries; FaultyTransport
/// reads it. Thread-local, so concurrent workers see their own trial's
/// clock — the time an exchange observes is a property of the task, never
/// of scheduling.
class ScopedFaultTime {
 public:
  explicit ScopedFaultTime(double time_hours);
  ~ScopedFaultTime();
  ScopedFaultTime(const ScopedFaultTime&) = delete;
  ScopedFaultTime& operator=(const ScopedFaultTime&) = delete;

  /// The current simulated time, or NaN when no trial is executing.
  static double current();

 private:
  double previous_;
};

/// Decorates a DnsTransport with the fault profile.
///
/// Determinism: each exchange hashes (source, destination, query bytes)
/// into a stream selector and derives a fresh `net::Rng` from it — the same
/// counter-based scheme trials use. Retries re-encode with a fresh query id
/// (and 0x20 casing), so their bytes differ and they get independent fault
/// draws, exactly like real retransmissions taking fresh network chances.
/// The decorator keeps no per-exchange mutable state; observability
/// counters are per-thread slots (net::ThreadCounters) whose totals are
/// order-independent sums of per-exchange deterministic outcomes.
class FaultyTransport : public DnsTransport {
 public:
  /// Which personality this channel models: truncation only fires on kUdp.
  enum class Channel : std::uint8_t { kUdp, kTcp };

  /// `inner` is borrowed and must outlive this object.
  FaultyTransport(DnsTransport* inner, std::uint64_t seed, FaultProfile profile,
                  Channel channel = Channel::kUdp);

  std::vector<std::uint8_t> exchange(net::Ipv4Addr source, net::Ipv4Addr destination,
                                     std::span<const std::uint8_t> query) override;

  [[nodiscard]] const FaultProfile& profile() const { return profile_; }

  // Injected-fault tallies (what the fabric DID, as opposed to the client
  // health counters, which record what the client SAW and how it coped).
  [[nodiscard]] std::uint64_t losses() const { return count(Kind::kLoss); }
  [[nodiscard]] std::uint64_t timeouts() const { return count(Kind::kTimeout); }
  [[nodiscard]] std::uint64_t servfails() const { return count(Kind::kServfail); }
  [[nodiscard]] std::uint64_t refusals() const { return count(Kind::kRefused); }
  [[nodiscard]] std::uint64_t truncations() const { return count(Kind::kTruncate); }
  [[nodiscard]] std::uint64_t ecs_strips() const { return count(Kind::kEcsStrip); }
  [[nodiscard]] std::uint64_t scope_zeros() const { return count(Kind::kScopeZero); }
  [[nodiscard]] std::uint64_t outage_hits() const { return count(Kind::kOutage); }
  /// Exchanges that passed through entirely clean.
  [[nodiscard]] std::uint64_t clean_exchanges() const { return count(Kind::kClean); }

  /// Attaches an obs registry (borrowed; nullptr detaches). Every injected
  /// fault is mirrored as `dns.fault.<scope>.<kind>` — `scope` names the
  /// channel this decorator sits on (e.g. "client_udp", "resolver") so one
  /// registry can tell several fault fabrics apart. The per-instance
  /// accessors above keep working either way.
  void set_registry(obs::Registry* registry, std::string_view scope);

 private:
  /// What one exchange can be tallied as; indexes counts_ and
  /// metric_names_, in the order of kKindNames.
  enum class Kind : std::uint8_t {
    kOutage, kLoss, kTimeout, kServfail, kRefused, kTruncate, kEcsStrip, kScopeZero, kClean,
  };
  static constexpr std::size_t kKinds = 9;
  static constexpr std::array<const char*, kKinds> kKindNames = {
      "outage", "loss", "timeout", "servfail", "refused",
      "truncate", "ecs_strip", "scope_zero", "clean"};

  [[nodiscard]] std::uint64_t count(Kind kind) const {
    return counts_.sum(static_cast<std::size_t>(kind));
  }
  /// Bumps a per-instance counter and mirrors it into the registry.
  void tally(Kind kind);

  DnsTransport* inner_;
  std::uint64_t seed_;
  FaultProfile profile_;
  Channel channel_;

  // One tally per Kind; kClean fires on every clean exchange, so every
  // worker bumps these and each gets its own slot.
  net::ThreadCounters<kKinds> counts_;

  obs::Registry* registry_ = nullptr;  // borrowed; optional telemetry mirror
  // "dns.fault.<scope>.<kind>" per kind, built once by set_registry.
  std::array<std::string, kKinds> metric_names_;
};

}  // namespace drongo::dns
