#include "dns/hedge.hpp"

#include <algorithm>
#include <exception>

#include "net/error.hpp"
#include "net/rng.hpp"

namespace drongo::dns {

namespace {

/// FNV-1a over (source, destination, query bytes): the same per-exchange
/// stream selector scheme FaultyTransport uses, under a different seed, so
/// a hedge decision is a pure function of what was sent — never of which
/// thread sent it or when.
std::uint64_t exchange_hash(net::Ipv4Addr source, net::Ipv4Addr destination,
                            std::span<const std::uint8_t> query) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::uint8_t byte) {
    h ^= byte;
    h *= 1099511628211ULL;
  };
  for (int shift = 24; shift >= 0; shift -= 8) {
    mix(static_cast<std::uint8_t>(source.to_uint() >> shift));
    mix(static_cast<std::uint8_t>(destination.to_uint() >> shift));
  }
  for (std::uint8_t byte : query) mix(byte);
  return h;
}

// The modelled upstream latency: base + U[0, jitter), with a kSlowProb
// chance of an extra kSlowMs stall (the tail hedging exists to cut). A
// transport-level failure (timeout/unreachable) costs kTimeoutPenaltyMs —
// what the caller would have waited before giving up — and is exactly what
// a hedge can rescue. kSeed selects the latency streams, independent of
// the fault fabric's seeds.
constexpr double kBaseMs = 4.0;
constexpr double kJitterMs = 2.0;
constexpr double kSlowProb = 0.03;
constexpr double kSlowMs = 120.0;
constexpr double kTimeoutPenaltyMs = 250.0;
constexpr std::uint64_t kSeed = 0x4ED6E;

/// One modelled upstream latency draw: base + jitter, with a tail stall.
double draw_latency_ms(net::Rng& rng) {
  double ms = kBaseMs + rng.uniform_real(0.0, kJitterMs);
  if (rng.chance(kSlowProb)) ms += kSlowMs;
  return ms;
}

}  // namespace

HedgedTransport::HedgedTransport(DnsTransport* inner, double threshold_ms)
    : inner_(inner), threshold_ms_(threshold_ms) {
  if (inner_ == nullptr) throw net::InvalidArgument("null inner DnsTransport");
  if (!(threshold_ms_ > 0.0)) {
    throw net::InvalidArgument("hedge threshold_ms must be > 0");
  }
}

void HedgedTransport::tally(std::atomic<std::uint64_t>& counter, const char* name) {
  counter.fetch_add(1, std::memory_order_relaxed);
  if (registry_ != nullptr) registry_->add(name);
}

std::vector<std::uint8_t> HedgedTransport::exchange(net::Ipv4Addr source,
                                                    net::Ipv4Addr destination,
                                                    std::span<const std::uint8_t> query) {
  tally(exchanges_, "dns.resolver.hedge.exchanges");

  const std::uint64_t selector = exchange_hash(source, destination, query);
  net::Rng primary_rng = net::Rng::derive(kSeed, selector, 0);
  double primary_ms = draw_latency_ms(primary_rng);

  std::vector<std::uint8_t> primary_reply;
  std::exception_ptr primary_error;
  try {
    primary_reply = inner_->exchange(source, destination, query);
  } catch (const net::TransientError&) {
    // The caller would have sat out its full timeout on this attempt —
    // exactly the latency a hedge exists to cut short.
    primary_error = std::current_exception();
    primary_ms = kTimeoutPenaltyMs;
  }

  const auto settle = [this](double effective_ms) {
    if (registry_ != nullptr) {
      registry_->observe_ms("dns.resolver.hedge.latency_ms", effective_ms);
    }
  };

  if (primary_ms <= threshold_ms_ || query.size() < 2) {
    settle(primary_ms);
    if (primary_error) std::rethrow_exception(primary_error);
    return primary_reply;
  }

  // The primary is past the threshold: launch the hedge at exactly the
  // threshold mark with a fresh query id, so the inner fabric — which
  // hashes the bytes — gives it an independent fate, like a real duplicate
  // datagram taking fresh network chances.
  tally(fired_, "dns.resolver.hedge.fired");
  std::vector<std::uint8_t> hedged_query(query.begin(), query.end());
  hedged_query[0] ^= 0xA5;
  hedged_query[1] ^= 0x3C;
  net::Rng hedge_rng = net::Rng::derive(kSeed, selector, 1);
  double hedge_ms = threshold_ms_ + draw_latency_ms(hedge_rng);

  std::vector<std::uint8_t> hedge_reply;
  bool hedge_failed = false;
  try {
    hedge_reply = inner_->exchange(source, destination, hedged_query);
  } catch (const net::TransientError&) {
    hedge_failed = true;
    hedge_ms = threshold_ms_ + kTimeoutPenaltyMs;
  }

  const bool primary_failed = primary_error != nullptr;
  if (primary_failed && hedge_failed) {
    tally(both_failed_, "dns.resolver.hedge.both_failed");
    settle(std::min(primary_ms, hedge_ms));
    std::rethrow_exception(primary_error);
  }

  const bool hedge_won = !hedge_failed && (primary_failed || hedge_ms < primary_ms);
  settle(hedge_won ? hedge_ms : primary_ms);
  if (!hedge_won) {
    // The primary answered first after all; the duplicate is abandoned
    // (its answer discarded, its failure — if any — swallowed).
    tally(losses_, "dns.resolver.hedge.losses");
    return primary_reply;
  }
  tally(primary_failed ? rescued_ : wins_,
        primary_failed ? "dns.resolver.hedge.rescued" : "dns.resolver.hedge.wins");
  // The winning hedge carries the rewritten id; patch it back to what the
  // caller sent so its id/0x20 validation sees the transaction it started.
  if (hedge_reply.size() >= 2) {
    hedge_reply[0] = query[0];
    hedge_reply[1] = query[1];
  }
  return hedge_reply;
}

}  // namespace drongo::dns
