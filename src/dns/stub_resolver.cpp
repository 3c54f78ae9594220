#include "dns/stub_resolver.hpp"

#include "dns/reverse.hpp"

#include <algorithm>
#include <exception>

#include "net/error.hpp"

namespace drongo::dns {

StubResolver::StubResolver(DnsTransport* transport, net::Ipv4Addr client_address,
                           net::Ipv4Addr server_address, std::uint64_t seed,
                           ResolverConfig config)
    : transport_(transport),
      client_(client_address),
      server_(server_address),
      rng_(seed),
      config_(config) {
  if (transport_ == nullptr) throw net::InvalidArgument("null DnsTransport");
  if (config_.max_attempts < 1) {
    throw net::InvalidArgument("max_attempts must be >= 1, got " +
                               std::to_string(config_.max_attempts));
  }
}

namespace {

/// DNS 0x20: randomize the case of every letter in the name. Servers echo
/// the question byte-for-byte, so an off-path spoofer must guess the casing
/// along with the id.
DnsName randomize_name_case(const DnsName& name, net::Rng& rng) {
  return name.with_swapped_case([&rng] { return rng.chance(0.5); });
}

/// Byte-exact name comparison (DnsName::operator== is case-insensitive).
bool same_bytes(const DnsName& a, const DnsName& b) {
  return std::ranges::equal(a.wire(), b.wire());
}

/// The checks every reply must pass before its answer is used. A reply that
/// fails them is what a late, duplicated, or spoofed datagram looks like:
/// a real stub would discard it and keep listening, and the caller's retry
/// (with a fresh id) is the closest synchronous equivalent, so failures are
/// classified transient.
void validate_reply(const Message& reply, std::uint16_t id, const DnsName& name) {
  if (reply.header.id != id) {
    throw net::TransientError("DNS response id mismatch: sent " + std::to_string(id) +
                              ", got " + std::to_string(reply.header.id));
  }
  if (!reply.header.qr) {
    throw net::TransientError("DNS response QR bit not set");
  }
  if (reply.questions.size() != 1 || !(reply.questions[0].name == name)) {
    throw net::TransientError("DNS response question does not echo query");
  }
}

/// Metric name for the rcode class a finished resolution ended in.
const char* outcome_metric(const ResolutionResult& result) {
  if (result.ok()) return "dns.resolver.outcome.ok";
  if (result.nodata()) return "dns.resolver.outcome.nodata";
  if (result.name_error()) return "dns.resolver.outcome.nxdomain";
  return "dns.resolver.outcome.server_failure";
}

}  // namespace

/// Bumps a ResolverStats field and mirrors it into the attached registry
/// under the matching `dns.resolver.<field>` name — the token is used for
/// both, so the struct and the metric catalog cannot drift apart.
#define DRONGO_RESOLVER_TALLY(field)                                  \
  do {                                                                \
    ++stats_.field;                                                   \
    if (registry_ != nullptr) registry_->add("dns.resolver." #field); \
  } while (0)

std::optional<net::IpPrefix> StubResolver::wire_announce(
    std::optional<net::IpPrefix> ecs_subnet) const {
  if (!ecs_subnet || ecs_policy_.family != 2 ||
      ecs_subnet->family() != net::IpFamily::kV4) {
    return ecs_subnet;
  }
  // Family-2 policy over a v4 subnet: announce its v6 embedding, capped at
  // the configured source length (a /24 becomes a /56; a /48 cap keeps only
  // the top 16 v4 bits).
  const net::IpPrefix embedded = net::embed_v4_prefix(*ecs_subnet->to_v4());
  return embedded.truncated(
      std::min(embedded.length(), ecs_policy_.v6_source_length));
}

ResolutionResult StubResolver::attempt(const DnsName& name,
                                       const std::optional<net::IpPrefix>& ecs_subnet) {
  const auto id = static_cast<std::uint16_t>(rng_.uniform(0x10000));
  const DnsName sent_name =
      randomize_case_ ? randomize_name_case(name, rng_) : name;
  const Message query = Message::make_query(id, sent_name, ecs_subnet);
  DRONGO_RESOLVER_TALLY(queries);

  const std::vector<std::uint8_t> wire = query.encode();
  std::vector<std::uint8_t> reply_wire = transport_->exchange(client_, server_, wire);
  Message reply = Message::decode(reply_wire);
  bool used_tcp = false;

  if (reply.header.tc && fallback_ != nullptr) {
    // RFC 1035 §4.2.2: a truncated UDP answer is retried over TCP with the
    // same query (same id, same casing — the transaction continues).
    DRONGO_RESOLVER_TALLY(tcp_fallbacks);
    DRONGO_RESOLVER_TALLY(queries);
    reply_wire = fallback_->exchange(client_, server_, wire);
    reply = Message::decode(reply_wire);
    used_tcp = true;
  }

  validate_reply(reply, id, name);
  if (randomize_case_ && !same_bytes(reply.questions[0].name, sent_name)) {
    throw net::TransientError("DNS response failed 0x20 case check (possible spoofing)");
  }

  ResolutionResult result;
  result.rcode = reply.header.rcode;
  result.addresses = reply.answer_addresses();
  result.used_tcp = used_tcp;
  std::uint32_t min_ttl = UINT32_MAX;
  for (const auto& rr : reply.answers) min_ttl = std::min(min_ttl, rr.ttl);
  result.ttl = reply.answers.empty() ? 0 : min_ttl;
  if (reply.edns && reply.edns->client_subnet) {
    result.ecs_scope = reply.edns->client_subnet->scope_prefix();
  }
  return result;
}

ResolutionResult StubResolver::resolve(const DnsName& name,
                                       std::optional<net::IpPrefix> ecs_subnet) {
  ecs_subnet = wire_announce(std::move(ecs_subnet));
  double elapsed_ms = 0.0;
  std::exception_ptr last_error;
  std::optional<ResolutionResult> last_failure;

  for (int attempt_no = 0; attempt_no < config_.max_attempts; ++attempt_no) {
    if (attempt_no > 0) {
      // Exponential backoff with jitter, charged against the simulated
      // per-query deadline. The jitter draw happens only on retries, so the
      // fault-free path consumes exactly the draws it always did.
      double backoff = config_.base_backoff_ms;
      for (int i = 1; i < attempt_no; ++i) backoff *= config_.backoff_factor;
      backoff = std::min(backoff, config_.max_backoff_ms);
      backoff *= 1.0 + rng_.uniform_real(0.0, config_.jitter_fraction);
      elapsed_ms += backoff;
      if (elapsed_ms > config_.query_deadline_ms) {
        DRONGO_RESOLVER_TALLY(deadline_exceeded);
        break;
      }
      DRONGO_RESOLVER_TALLY(retries);
      if (registry_ != nullptr) {
        registry_->observe_ms("dns.resolver.backoff_ms", backoff);
      }
    }
    try {
      ResolutionResult result = attempt(name, ecs_subnet);
      result.attempts = attempt_no + 1;
      if (result.server_failure()) {
        DRONGO_RESOLVER_TALLY(server_failures);
        if (config_.retry_server_failure && attempt_no + 1 < config_.max_attempts) {
          last_failure = std::move(result);
          continue;
        }
        DRONGO_RESOLVER_TALLY(failed_queries);  // no usable answer came out of this query
        if (registry_ != nullptr) registry_->add(outcome_metric(result));
        return result;  // typed failure: the caller decides
      }
      if (registry_ != nullptr) registry_->add(outcome_metric(result));
      return result;  // ok, NODATA, or NXDOMAIN — all final
    } catch (const net::TimeoutError&) {
      DRONGO_RESOLVER_TALLY(timeouts);
      last_error = std::current_exception();
    } catch (const net::UnreachableError&) {
      DRONGO_RESOLVER_TALLY(unreachable);
      last_error = std::current_exception();
    } catch (const net::TransientError&) {
      DRONGO_RESOLVER_TALLY(validation_failures);
      last_error = std::current_exception();
    }
    // net::PermanentError (and anything else) propagates immediately:
    // retrying a contract violation only hides bugs.
  }

  DRONGO_RESOLVER_TALLY(failed_queries);
  if (last_failure) {
    if (registry_ != nullptr) registry_->add(outcome_metric(*last_failure));
    return *last_failure;  // budget ended on a SERVFAIL/REFUSED
  }
  if (registry_ != nullptr) registry_->add("dns.resolver.outcome.transport_error");
  if (last_error) std::rethrow_exception(last_error);
  throw net::TimeoutError("query deadline exceeded before any attempt completed");
}

ResolutionResult StubResolver::resolve(const std::string& name,
                                       std::optional<net::IpPrefix> ecs_subnet) {
  return resolve(DnsName::must_parse(name), ecs_subnet);
}

ResolutionResult StubResolver::resolve_with_own_subnet(const DnsName& name) {
  return resolve(name, net::Prefix(client_, 24));
}

std::string StubResolver::resolve_ptr(net::Ipv4Addr address) {
  // PTR data is best-effort (real traceroutes show plenty of hops without
  // names): retry transient failures within the same budget, then degrade
  // to "no name" rather than failing the trial that asked.
  // Replies pass the same validation as A lookups: a late or spoofed
  // datagram must not get to name a traceroute hop.
  const DnsName ptr_name = reverse_pointer_name(address);
  for (int attempt_no = 0; attempt_no < config_.max_attempts; ++attempt_no) {
    if (attempt_no > 0) DRONGO_RESOLVER_TALLY(retries);
    const auto id = static_cast<std::uint16_t>(rng_.uniform(0x10000));
    const Message query = Message::make_query(id, ptr_name, std::nullopt, RrType::kPtr);
    DRONGO_RESOLVER_TALLY(queries);
    try {
      const auto reply_wire = transport_->exchange(client_, server_, query.encode());
      const Message reply = Message::decode(reply_wire);
      validate_reply(reply, id, ptr_name);
      for (const auto& rr : reply.answers) {
        if (const auto* ptr = std::get_if<PtrRdata>(&rr.rdata)) {
          return ptr->name.to_string();
        }
      }
      return "";
    } catch (const net::TimeoutError&) {
      DRONGO_RESOLVER_TALLY(timeouts);
    } catch (const net::UnreachableError&) {
      DRONGO_RESOLVER_TALLY(unreachable);
    } catch (const net::TransientError&) {
      DRONGO_RESOLVER_TALLY(validation_failures);
    }
  }
  DRONGO_RESOLVER_TALLY(failed_queries);
  return "";
}

#undef DRONGO_RESOLVER_TALLY

}  // namespace drongo::dns
