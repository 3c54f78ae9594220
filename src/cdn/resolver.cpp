#include "cdn/resolver.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>

#include "dns/faults.hpp"
#include "net/error.hpp"

namespace drongo::cdn {

namespace {

/// Writes `name`'s wire form with ASCII letters lowercased (RFC 1035
/// §2.3.3 folding; length bytes are never letters) to `out`, which holds
/// DnsName::kMaxWireLength bytes; returns the bytes written.
std::size_t fold_wire(const dns::DnsName& name, char* out) {
  const auto wire = name.wire();
  for (std::size_t i = 0; i < wire.size(); ++i) {
    const std::uint8_t c = wire[i];
    out[i] = static_cast<char>(c >= 'A' && c <= 'Z' ? c + ('a' - 'A') : c);
  }
  return wire.size();
}

/// Whether the message answers with at least one address (A record).
bool has_address(const dns::Message& message) {
  return std::ranges::any_of(message.answers, [](const dns::ResourceRecord& rr) {
    return std::holds_alternative<dns::ARdata>(rr.rdata);
  });
}

}  // namespace

PublicResolver::PublicResolver(dns::DnsTransport* transport, net::Ipv4Addr own_address,
                               const ServingConfig& serving)
    : transport_(transport),
      address_(own_address),
      serving_(serving),
      cache_(serving.shards, serving.max_entries),
      admission_(serving.overload) {
  if (transport_ == nullptr) throw net::InvalidArgument("null transport");
}

void PublicResolver::register_zone(const dns::DnsName& zone, net::Ipv4Addr authoritative) {
  char folded[dns::DnsName::kMaxWireLength];
  zones_.insert_or_assign(std::string(folded, fold_wire(zone, folded)), authoritative);
  zone_label_counts_.set(zone.label_count());
}

std::optional<net::Ipv4Addr> PublicResolver::authoritative_for(
    const dns::DnsName& name) const {
  // Longest-suffix match: probe the name itself, then each parent down to
  // the root, in the folded wire form the zones are keyed by, skipping
  // suffixes no zone is as long as.
  char folded[dns::DnsName::kMaxWireLength];
  const std::size_t size = fold_wire(name, folded);
  std::size_t labels = name.label_count();
  for (std::size_t at = 0;; at += 1 + static_cast<std::uint8_t>(folded[at]), --labels) {
    if (zone_label_counts_.test(labels)) {
      const auto it = zones_.find(std::string_view(folded + at, size - at));
      if (it != zones_.end()) return it->second;
    }
    if (labels == 0) return std::nullopt;
  }
}

dns::Message PublicResolver::answer_from(const dns::Message& query,
                                         const dns::Question& q, dns::Rcode rcode,
                                         const std::vector<net::Ipv4Addr>& addresses,
                                         int scope_length, std::uint32_t ttl_seconds,
                                         bool client_sent_ecs) const {
  dns::Message response = dns::Message::make_response(query, rcode, scope_length);
  response.header.ra = true;
  response.answers.reserve(addresses.size());
  for (net::Ipv4Addr addr : addresses) {
    response.answers.push_back(dns::ResourceRecord::a(q.name, addr, ttl_seconds));
  }
  if (!client_sent_ecs) response.clear_client_subnet();
  return response;
}

dns::Message PublicResolver::handle(const dns::Message& query, net::Ipv4Addr source) {
  if (query.questions.size() != 1) {
    return dns::Message::make_response(query, dns::Rcode::kFormErr);
  }
  if (serving_.overload.enabled) {
    // Admission happens before any real work: a shed query costs the
    // resolver nothing, which is the whole point of shedding. The arrival
    // clock is the trial's simulated time when one is executing (the same
    // clock outage windows run on), else the caller-advanced cache clock.
    const double trial_hours = dns::ScopedFaultTime::current();
    const double arrival_ms = std::isnan(trial_hours)
                                  ? static_cast<double>(now_ms_)
                                  : trial_hours * 3'600'000.0;
    if (!admission_.offer(arrival_ms)) {
      return dns::Message::make_response(query, dns::Rcode::kServFail);
    }
  }
  const dns::Question& q = query.questions[0];

  // Determine the ECS subnet to forward: the client's option if present
  // (either family), else the client's /24 (Google Public DNS behaviour).
  net::IpPrefix ecs = net::Prefix(source, 24);
  bool client_sent_ecs = false;
  bool foreign_family = false;
  if (query.edns && query.edns->client_subnet) {
    const dns::ClientSubnet& cs = *query.edns->client_subnet;
    if (cs.is_representable()) {
      ecs = cs.source_prefix();
      client_sent_ecs = true;
    } else {
      // A family the cache cannot represent. The answer is still served
      // (tailored to the transport source /24), but it must never be
      // cached — under the old v4-only decode these queries collapsed to
      // the generic 0.0.0.0 scope and poisoned every uncovered client. The
      // client still sent ECS, so the option is echoed back (§7.1.2, with
      // scope forced to 0) rather than stripped.
      foreign_family = true;
      client_sent_ecs = true;
    }
  }

  const bool serving =
      serving_.enable_cache && q.type == dns::RrType::kA && !foreign_family;
  if (foreign_family && serving_.enable_cache && q.type == dns::RrType::kA) {
    cache_.note_foreign_family_drop(q.name);
  }
  if (!serving) {
    return resolve_upstream(query, q, ecs, client_sent_ecs, foreign_family,
                            /*flight=*/nullptr);
  }

  if (const auto hit = cache_.lookup(q.name, ecs, now_ms_)) {
    // The entry's remaining lifetime, rounded up: a live entry
    // (expiry_ms > now_ms_) never answers with TTL 0.
    const auto ttl = static_cast<std::uint32_t>((hit->expiry_ms - now_ms_ + 999) / 1000);
    return answer_from(query, q, hit->rcode, hit->addresses, hit->scope.length(), ttl,
                       client_sent_ecs);
  }

  if (!serving_.coalesce) {
    return resolve_upstream(query, q, ecs, client_sent_ecs, foreign_family,
                            /*flight=*/nullptr);
  }

  auto flight = cache_.join(q.name, ecs);
  if (flight.leader()) {
    return resolve_upstream(query, q, ecs, client_sent_ecs, foreign_family, &flight);
  }
  const auto outcome = flight.wait();
  if (outcome.usable) {
    return answer_from(query, q, outcome.rcode, outcome.addresses,
                       outcome.scope_length, outcome.ttl_seconds, client_sent_ecs);
  }
  // The leader died before producing a shareable answer; resolve alone
  // rather than re-queueing (one failed flight must not cascade).
  return resolve_upstream(query, q, ecs, client_sent_ecs, foreign_family,
                          /*flight=*/nullptr);
}

dns::Message PublicResolver::resolve_upstream(const dns::Message& query,
                                              const dns::Question& q,
                                              const net::IpPrefix& ecs,
                                              bool client_sent_ecs,
                                              bool foreign_family,
                                              dns::ShardedDnsCache::Flight* flight) {
  // Shares the final answer with coalesced followers on every exit path.
  const auto publish = [&](dns::Rcode rcode, std::vector<net::Ipv4Addr> addresses,
                           int scope_length, std::uint32_t ttl_seconds) {
    if (flight == nullptr) return;
    dns::ShardedDnsCache::FlightOutcome outcome;
    outcome.rcode = rcode;
    outcome.addresses = std::move(addresses);
    outcome.scope_length = scope_length;
    outcome.ttl_seconds = ttl_seconds;
    outcome.usable = true;
    flight->publish(std::move(outcome));
  };

  // Iterative resolution with CNAME chasing (bounded depth, as real
  // recursives do): each step queries the authoritative for the current
  // name; a CNAME without accompanying A records restarts at the target.
  dns::DnsName current = q.name;
  std::vector<dns::ResourceRecord> chain;
  dns::Message upstream_reply;
  bool resolved = false;
  for (int depth = 0; depth < 8; ++depth) {
    const auto authoritative = authoritative_for(current);
    if (!authoritative) {
      // A dangling chain (or unknown name) is SERVFAIL when mid-chase,
      // REFUSED when we never had anywhere to go.
      const auto rcode = depth == 0 ? dns::Rcode::kRefused : dns::Rcode::kServFail;
      publish(rcode, {}, 0, 0);
      return dns::Message::make_response(query, rcode);
    }
    dns::Message upstream = dns::Message::make_query(query.header.id, current, ecs, q.type);
    upstream_.add(kUpstreamQueries);
    if (registry_ != nullptr) registry_->add("cdn.resolver.upstream_queries");
    try {
      upstream_reply = dns::Message::decode(
          transport_->exchange(address_, *authoritative, upstream.encode()));
    } catch (const net::TransientError&) {
      // The authoritative is down or the path is lossy: a recursive answers
      // SERVFAIL rather than leaving the client hanging, and the client's
      // retry policy takes it from there. Followers share the SERVFAIL
      // (classic singleflight) instead of stampeding a failing server.
      upstream_.add(kUpstreamFailures);
      if (registry_ != nullptr) registry_->add("cdn.resolver.upstream_failures");
      publish(dns::Rcode::kServFail, {}, 0, 0);
      return dns::Message::make_response(query, dns::Rcode::kServFail);
    }
    if (upstream_reply.header.rcode != dns::Rcode::kNoError) break;

    std::optional<dns::DnsName> target;
    for (const auto& rr : upstream_reply.answers) {
      if (rr.name == current) {
        if (const auto* cname = std::get_if<dns::CnameRdata>(&rr.rdata)) {
          target = cname->target;
        }
      }
    }
    if (!target || has_address(upstream_reply)) {
      resolved = true;
      break;
    }
    // Chase: keep the chain for the client, restart at the target.
    chain.insert(chain.end(), std::make_move_iterator(upstream_reply.answers.begin()),
                 std::make_move_iterator(upstream_reply.answers.end()));
    upstream_reply.answers.clear();  // the checks below must not see moved-from records
    current = *std::move(target);
  }
  if (!resolved && upstream_reply.header.rcode == dns::Rcode::kNoError &&
      !has_address(upstream_reply) && !chain.empty()) {
    // Chase depth exhausted: a CNAME loop.
    publish(dns::Rcode::kServFail, {}, 0, 0);
    return dns::Message::make_response(query, dns::Rcode::kServFail);
  }

  std::optional<int> scope;
  if (upstream_reply.edns && upstream_reply.edns->client_subnet) {
    // Only adopt the upstream scope when it speaks the family we asked in:
    // a mismatched-family scope length is meaningless for our ecs prefix
    // (decode already bounds it to its own family's bit width).
    const dns::ClientSubnet& upstream_ecs = *upstream_reply.edns->client_subnet;
    const std::uint16_t asked_family =
        ecs.family() == net::IpFamily::kV4 ? 1 : 2;
    if (upstream_ecs.family == asked_family &&
        upstream_ecs.scope_prefix_length <= net::family_bits(ecs.family())) {
      scope = upstream_ecs.scope_prefix_length;
    }
  }
  // RFC 7871 §7.1.2: an option in a family we did not use for tailoring is
  // echoed with scope 0, never with a scope derived from another family.
  dns::Message response = dns::Message::make_response(
      query, upstream_reply.header.rcode,
      foreign_family ? std::optional<int>(0) : scope);
  response.header.ra = true;
  if (chain.empty()) {
    response.answers = std::move(upstream_reply.answers);
  } else {
    response.answers = std::move(chain);
    response.answers.insert(response.answers.end(),
                            std::make_move_iterator(upstream_reply.answers.begin()),
                            std::make_move_iterator(upstream_reply.answers.end()));
  }

  // The address list is only kept by the cache and coalesced followers.
  const bool caching = serving_.enable_cache && q.type == dns::RrType::kA && !foreign_family;
  const std::vector<net::Ipv4Addr> addresses =
      caching || flight != nullptr ? response.answer_addresses()
                                   : std::vector<net::Ipv4Addr>();
  // The answer lives as long as its shortest record, in the cache and for
  // the followers alike.
  std::uint32_t ttl = UINT32_MAX;
  for (const auto& rr : response.answers) ttl = std::min(ttl, rr.ttl);
  if (caching) {
    const net::IpPrefix cache_scope =
        scope ? net::IpPrefix(ecs.network(), *scope) : ecs;
    if (response.header.rcode == dns::Rcode::kNoError && !addresses.empty()) {
      cache_.insert(q.name, cache_scope, addresses, ttl, now_ms_);
    } else if (serving_.negative_cache &&
               (response.header.rcode == dns::Rcode::kNxDomain ||
                (response.header.rcode == dns::Rcode::kNoError && addresses.empty()))) {
      // NXDOMAIN / NODATA: cached scope-zero in the asking family (a name
      // that does not exist does not exist for anyone, RFC 2308-style), so
      // the longest-match lookup still prefers any tailored positive entry.
      cache_.insert_negative(q.name, net::IpPrefix::zero(ecs.family()),
                             response.header.rcode, serving_.negative_ttl_seconds,
                             now_ms_);
    }
  }
  publish(response.header.rcode, addresses,
          foreign_family ? 0 : scope.value_or(ecs.length()), ttl);

  // When the client sent no ECS, strip the option we added on its behalf
  // (the client never asked to see it).
  if (!client_sent_ecs) {
    response.clear_client_subnet();
  }
  return response;
}

}  // namespace drongo::cdn
