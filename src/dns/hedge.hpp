// Hedged DNS exchanges: a second request once the first looks slow.
//
// The tail-latency playbook ("The Tail at Scale") for a resolver talking to
// flaky upstreams: once a query has been in flight longer than a pinned
// threshold, issue one duplicate, keep whichever answer lands first, and
// abandon the loser. HedgedTransport decorates any DnsTransport with
// exactly that policy. The simulation's transports complete synchronously,
// so "in flight longer than" is judged against a modelled per-exchange
// upstream latency drawn from a derived RNG stream — the same trick the
// fault fabric uses, which keeps every hedging decision a pure function of
// (exchange bytes) and campaigns byte-identical at any thread count.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "dns/server.hpp"
#include "obs/metrics.hpp"

namespace drongo::dns {

/// Decorates a DnsTransport with hedged exchanges.
///
/// Each exchange models a primary latency from a stream derived from a
/// hash of the exchange bytes: a few ms of base plus jitter, with a small
/// chance of a 120 ms stall; a transport failure (timeout/unreachable)
/// costs the 250 ms the caller would have waited. If that latency exceeds
/// the threshold, a duplicate query is sent with a rewritten id — so the
/// inner fault fabric, which hashes the bytes, gives the hedge an
/// independent fate — and the faster of the two answers wins. The losing
/// exchange is abandoned (its answer discarded, its error swallowed when
/// the winner succeeded), and a winning hedge's response id is patched back
/// so the caller's id validation still matches what it sent.
///
/// Thread-safety: exchange() may be called concurrently. All tallies are
/// relaxed atomics and every decision is a pure per-exchange function, so
/// results and telemetry are interleaving-independent.
class HedgedTransport : public DnsTransport {
 public:
  /// `inner` is borrowed and must outlive this object. `threshold_ms` is
  /// the simulated in-flight time past which the hedge fires; it must be
  /// > 0 (net::InvalidArgument otherwise, NaN included).
  HedgedTransport(DnsTransport* inner, double threshold_ms);

  std::vector<std::uint8_t> exchange(net::Ipv4Addr source, net::Ipv4Addr destination,
                                     std::span<const std::uint8_t> query) override;

  // What the hedging layer did, as order-independent sums.
  [[nodiscard]] std::uint64_t exchanges() const { return exchanges_.load(); }
  [[nodiscard]] std::uint64_t hedges_fired() const { return fired_.load(); }
  /// Hedges whose answer beat the (successful) primary.
  [[nodiscard]] std::uint64_t hedge_wins() const { return wins_.load(); }
  /// Hedges the primary beat anyway (wasted duplicate).
  [[nodiscard]] std::uint64_t hedge_losses() const { return losses_.load(); }
  /// Hedges that turned a failed primary into an answer.
  [[nodiscard]] std::uint64_t rescued() const { return rescued_.load(); }
  /// Exchanges where primary and hedge both failed.
  [[nodiscard]] std::uint64_t both_failed() const { return both_failed_.load(); }

  /// Attaches an obs registry (borrowed; nullptr detaches): tallies mirror
  /// as `dns.resolver.hedge.*` and effective latencies feed the
  /// `dns.resolver.hedge.latency_ms` histogram.
  void set_registry(obs::Registry* registry) { registry_ = registry; }

 private:
  void tally(std::atomic<std::uint64_t>& counter, const char* name);

  DnsTransport* inner_;
  double threshold_ms_;

  std::atomic<std::uint64_t> exchanges_{0};
  std::atomic<std::uint64_t> fired_{0};
  std::atomic<std::uint64_t> wins_{0};
  std::atomic<std::uint64_t> losses_{0};
  std::atomic<std::uint64_t> rescued_{0};
  std::atomic<std::uint64_t> both_failed_{0};

  obs::Registry* registry_ = nullptr;  // borrowed; optional telemetry mirror
};

}  // namespace drongo::dns
