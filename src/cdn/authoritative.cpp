#include "cdn/authoritative.hpp"

#include <algorithm>

#include "net/error.hpp"
#include "net/ipaddr.hpp"

namespace drongo::cdn {

CdnAuthoritative::CdnAuthoritative(CdnProvider* provider, std::uint32_t ttl_seconds)
    : provider_(provider), ttl_(ttl_seconds) {
  if (provider_ == nullptr) throw net::InvalidArgument("null CdnProvider");
  const CdnProfile& profile = provider_->profile();
  zone_ = dns::DnsName::must_parse(profile.zone);
  for (const auto& label : profile.content_labels) {
    content_names_.push_back(dns::DnsName::must_parse(label + "." + profile.zone));
  }
}

dns::Message CdnAuthoritative::handle(const dns::Message& query, net::Ipv4Addr source) {
  if (query.questions.size() != 1) {
    return dns::Message::make_response(query, dns::Rcode::kFormErr);
  }
  const dns::Question& q = query.questions[0];
  if (!q.name.is_subdomain_of(zone_)) {
    return dns::Message::make_response(query, dns::Rcode::kRefused);
  }

  const auto& profile = provider_->profile();
  if (std::find(content_names_.begin(), content_names_.end(), q.name) ==
      content_names_.end()) {
    return dns::Message::make_response(query, dns::Rcode::kNxDomain);
  }
  if (q.type != dns::RrType::kA) {
    // Valid name, no records of this type: NOERROR with empty answer.
    return dns::Message::make_response(query, dns::Rcode::kNoError,
                                       profile.mapping_granularity);
  }

  // Tailoring subnet: the ECS option, unless this provider restricts ECS
  // (Akamai-like, §2.2), in which case the resolver's own address is used —
  // which is exactly why such providers are unusable for assimilation.
  // Family-2 options tailor through the sim's v4-in-v6 embedding: the
  // effective v4 subnet drives replica selection and the reply scope is the
  // v4 mapping granularity re-expressed at the option's bit offset, so a
  // /56 announcement earns exactly the coverage a /24 one would.
  net::Prefix subnet(source, 24);
  int reply_scope = profile.mapping_granularity;
  if (!profile.ecs_restricted && query.edns && query.edns->client_subnet &&
      query.edns->client_subnet->is_representable()) {
    const net::IpPrefix announced = query.edns->client_subnet->source_prefix();
    if (const auto v4 = net::effective_v4_subnet(announced)) {
      subnet = *v4;
      if (announced.family() == net::IpFamily::kV6) {
        // Capped at the announced source length: a /48 announcement only
        // carries 48 bits of signal, so the answer must not claim /56
        // specificity — and a scope longer than the source could never be
        // served back to this client under the §7.3.1 containment rule.
        const int offset =
            net::is_embedded_v4(announced.network().v6()) ? 32 : 96;
        reply_scope = std::min(profile.mapping_granularity + offset,
                               announced.length());
      }
    } else if (announced.family() == net::IpFamily::kV6) {
      // A v6 subnet outside the sim's embedding carries no tailoring
      // signal: serve the resolver-source mapping but admit scope 0 so
      // caches never generalize it across unrelated v6 clients.
      reply_scope = 0;
    }
  }

  dns::Message response =
      dns::Message::make_response(query, dns::Rcode::kNoError, reply_scope);
  // The query id seeds the load-balancing rotation: per-query variation
  // without cross-query shared state, so concurrent campaigns stay
  // deterministic (ids come from each stub's own derived RNG stream).
  const auto replicas = provider_->select_replicas(subnet, query.header.id);
  response.answers.reserve(replicas.size());
  for (net::Ipv4Addr replica : replicas) {
    response.answers.push_back(dns::ResourceRecord::a(q.name, replica, ttl_));
  }
  return response;
}

}  // namespace drongo::cdn
