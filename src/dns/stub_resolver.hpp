// Stub resolver: the client-side query API used by Drongo and the examples.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "dns/message.hpp"
#include "dns/server.hpp"
#include "net/ipaddr.hpp"
#include "net/prefix.hpp"
#include "net/rng.hpp"
#include "obs/metrics.hpp"
#include "obs/schema.hpp"

namespace drongo::dns {

/// Outcome of a resolution.
///
/// A non-throwing resolve always returns a typed result; callers must
/// distinguish the failure classes instead of collapsing them into !ok():
/// NXDOMAIN means the name does not exist (retrying or falling back to a
/// different subnet cannot help), SERVFAIL/REFUSED mean the server could
/// not or would not answer right now (a different server, subnet, or a
/// later retry may succeed), and NOERROR with no addresses is NODATA — a
/// healthy answer that simply carries no A records.
struct ResolutionResult {
  Rcode rcode = Rcode::kNoError;
  /// A-record addresses in server-given order. Callers that respect CDN load
  /// balancing (as Drongo does) must use addresses.front().
  std::vector<net::Ipv4Addr> addresses;
  /// Minimum TTL across answer records (0 when there are none).
  std::uint32_t ttl = 0;
  /// ECS scope returned by the server, when it echoed the option. Carries
  /// the reply's address family (a v6 announce comes back as a v6 scope).
  std::optional<net::IpPrefix> ecs_scope;
  /// How many attempts this resolution took (1 = first try succeeded).
  int attempts = 1;
  /// Whether the final answer came over the TCP fallback path.
  bool used_tcp = false;

  /// A usable positive answer: NOERROR with at least one address.
  [[nodiscard]] bool ok() const { return rcode == Rcode::kNoError && !addresses.empty(); }
  /// NOERROR with an empty answer section (NODATA): the name exists but has
  /// no A records. NOT a server failure.
  [[nodiscard]] bool nodata() const {
    return rcode == Rcode::kNoError && addresses.empty();
  }
  /// The name does not exist. Permanent for this name; never retried.
  [[nodiscard]] bool name_error() const { return rcode == Rcode::kNxDomain; }
  /// The server could not (SERVFAIL) or would not (REFUSED) answer —
  /// transient from the client's perspective.
  [[nodiscard]] bool server_failure() const {
    return rcode == Rcode::kServFail || rcode == Rcode::kRefused;
  }
};

/// Which address family a stub announces its ECS subnets in.
///
/// The dual-stack campaign flips this to family 2: every v4 subnet handed
/// to resolve() (the client's own /24 or an assimilation target) is first
/// mapped to its v6 face via the sim embedding and truncated to
/// `v6_source_length` — /56 reproduces the v4 /24 exactly, while the
/// coarser real-world /48 collapses to a v4 /16, which is the granularity
/// loss the paper's valley question must survive.
struct EcsFamilyPolicy {
  /// 1 = announce subnets as given (IPv4). 2 = announce the v6 embedding.
  std::uint16_t family = 1;
  /// Source prefix length cap for family-2 announcements (RFC 7871
  /// recommends /56 or shorter; real resolvers commonly use /48).
  int v6_source_length = net::default_ecs_scope(net::IpFamily::kV6);
};

/// Retry/deadline policy for a StubResolver.
///
/// There is no wall clock in the simulation, so the deadline is enforced
/// against *simulated* elapsed milliseconds: each retry's backoff is added
/// to a per-query budget, mirroring how a real stub's SIGALRM-style query
/// deadline interacts with its retransmission schedule.
struct ResolverConfig {
  /// Total send attempts per query (1 = no retries).
  int max_attempts = 3;
  /// First backoff before the second attempt, in simulated ms.
  double base_backoff_ms = 50.0;
  /// Exponential growth factor per retry.
  double backoff_factor = 2.0;
  /// Backoff ceiling in simulated ms.
  double max_backoff_ms = 2000.0;
  /// Uniform jitter fraction applied to each backoff: the actual wait is
  /// backoff * (1 + U[0, jitter_fraction)). Decorrelates retry storms.
  double jitter_fraction = 0.5;
  /// Per-query simulated deadline; once cumulative backoff strictly
  /// exceeds it the query gives up even if attempts remain. A retry whose
  /// backoff lands exactly on the deadline still runs — spending the whole
  /// budget is not overspending (pinned by retry_deadline_test.cpp).
  double query_deadline_ms = 5000.0;
  /// Retry on SERVFAIL/REFUSED answers (real stubs rotate/retry on these).
  bool retry_server_failure = true;
};

/// What the resolver endured: per-instance tallies of retries, fault kinds
/// seen, and fallbacks. Campaign layers fold these into per-trial health.
///
/// Fields come from the shared obs counter schema so that this struct, the
/// trial-level HealthCounters, their aggregation, and the dataset format can
/// never drift apart. Field semantics, in schema order:
///   queries              attempts actually sent
///   retries              attempts after the first
///   timeouts             attempts lost to timeouts
///   unreachable          attempts that found nobody home
///   validation_failures  mismatched id/question/0x20 replies
///   server_failures      SERVFAIL/REFUSED answers seen
///   tcp_fallbacks        TC=1 answers retried over TCP
///   deadline_exceeded    queries that ran out of budget
///   failed_queries       queries that exhausted all attempts
struct ResolverStats {
  DRONGO_OBS_RESOLVER_COUNTERS(DRONGO_OBS_DECLARE_FIELD)

  /// Element-wise accumulation, generated from the schema.
  ResolverStats& operator+=(const ResolverStats& other) {
#define DRONGO_OBS_FOLD(field) field += other.field;
    DRONGO_OBS_RESOLVER_COUNTERS(DRONGO_OBS_FOLD)
#undef DRONGO_OBS_FOLD
    return *this;
  }
};

/// A minimal client resolver that speaks to one recursive/authoritative
/// server address over a DnsTransport.
///
/// The distinguishing feature is first-class ECS control: `resolve` takes an
/// optional subnet to announce. Passing the client's own /24 models ordinary
/// ECS resolution; passing a hop's /24 is subnet assimilation.
///
/// Resilience: transient transport failures (timeouts, unreachable servers,
/// spoof-suspect replies) are retried with exponential backoff and jitter
/// under a simulated per-query deadline; truncated UDP answers retry over
/// the TCP fallback transport when one is set. Only after the retry budget
/// is exhausted does the last transient error propagate. Permanent errors
/// (bad configuration, malformed local input) propagate immediately.
class StubResolver {
 public:
  /// `transport` is borrowed and must outlive the resolver.
  StubResolver(DnsTransport* transport, net::Ipv4Addr client_address,
               net::Ipv4Addr server_address, std::uint64_t seed = 1,
               ResolverConfig config = {});

  /// Enables/disables DNS 0x20 case randomization (on by default): query
  /// names are sent with random letter casing and the response's echoed
  /// question must match byte-for-byte, hardening against off-path
  /// spoofing (draft-vixie-dnsext-dns0x20).
  void set_case_randomization(bool enabled) { randomize_case_ = enabled; }

  /// Sets the wire family policy for announced subnets (default: family 1,
  /// announce as given). See EcsFamilyPolicy.
  void set_ecs_family(EcsFamilyPolicy policy) { ecs_policy_ = policy; }

  [[nodiscard]] const EcsFamilyPolicy& ecs_family() const { return ecs_policy_; }

  /// Sets the transport used to retry truncated (TC=1) UDP answers, per
  /// RFC 1035 §4.2.2. Borrowed; nullptr disables the fallback (a truncated
  /// answer is then returned as-is, addresses empty).
  void set_fallback_transport(DnsTransport* tcp) { fallback_ = tcp; }

  /// Resolves `name` to A records. `ecs_subnet` is announced verbatim when
  /// present; otherwise no ECS option is attached (the server then falls back
  /// to the transport source address).
  ResolutionResult resolve(const DnsName& name,
                           std::optional<net::IpPrefix> ecs_subnet = std::nullopt);

  /// Convenience overload for string names.
  ResolutionResult resolve(const std::string& name,
                           std::optional<net::IpPrefix> ecs_subnet = std::nullopt);

  /// Resolves announcing the client's own subnet truncated to /24, the
  /// default privacy-preserving behaviour of ECS (RFC 7871 §11.1).
  ResolutionResult resolve_with_own_subnet(const DnsName& name);

  /// Reverse lookup: the PTR name of `address`, or empty when no PTR
  /// record exists (private or unknown space) — or when the lookup kept
  /// failing transiently; PTR data is best-effort by contract. Replies are
  /// validated like A lookups (id, QR bit, echoed question); a failed check
  /// counts as a validation failure and is retried within max_attempts.
  std::string resolve_ptr(net::Ipv4Addr address);

  [[nodiscard]] net::Ipv4Addr client_address() const { return client_; }
  [[nodiscard]] net::Ipv4Addr server_address() const { return server_; }
  [[nodiscard]] const ResolverConfig& config() const { return config_; }

  /// Number of queries issued (measurement-overhead accounting); counts
  /// every attempt, including retries and TCP fallbacks.
  [[nodiscard]] std::uint64_t query_count() const { return stats_.queries; }

  /// Everything this resolver endured so far.
  [[nodiscard]] const ResolverStats& stats() const { return stats_; }

  /// Attaches an obs registry (borrowed; nullptr detaches). Every stats_
  /// increment is mirrored as a `dns.resolver.*` counter, rcode outcomes
  /// are tallied under `dns.resolver.outcome.*`, and retry backoff waits
  /// feed the `dns.resolver.backoff_ms` histogram. All mirrored values are
  /// simulated quantities, so they stay deterministic under parallelism.
  void set_registry(obs::Registry* registry) { registry_ = registry; }

 private:
  /// One send/validate round; throws net::TransientError subclasses on
  /// transport trouble or suspect replies.
  ResolutionResult attempt(const DnsName& name,
                           const std::optional<net::IpPrefix>& ecs_subnet);

  /// Applies the ECS family policy to a subnet about to go on the wire.
  [[nodiscard]] std::optional<net::IpPrefix> wire_announce(
      std::optional<net::IpPrefix> ecs_subnet) const;

  DnsTransport* transport_;
  DnsTransport* fallback_ = nullptr;
  net::Ipv4Addr client_;
  net::Ipv4Addr server_;
  net::Rng rng_;
  ResolverConfig config_;
  EcsFamilyPolicy ecs_policy_;
  bool randomize_case_ = true;
  ResolverStats stats_;
  obs::Registry* registry_ = nullptr;  // borrowed; optional telemetry mirror
};

}  // namespace drongo::dns
