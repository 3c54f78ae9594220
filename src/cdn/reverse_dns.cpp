#include "cdn/reverse_dns.hpp"

#include "dns/reverse.hpp"
#include "net/error.hpp"

namespace drongo::cdn {

ReverseDnsAuthoritative::ReverseDnsAuthoritative(const topology::World* world)
    : world_(world) {
  if (world_ == nullptr) throw net::InvalidArgument("null World");
}

dns::Message ReverseDnsAuthoritative::handle(const dns::Message& query,
                                             net::Ipv4Addr /*source*/) {
  if (query.questions.size() != 1) {
    return dns::Message::make_response(query, dns::Rcode::kFormErr);
  }
  const dns::Question& q = query.questions[0];
  if (!q.name.is_subdomain_of(dns::reverse_zone())) {
    return dns::Message::make_response(query, dns::Rcode::kRefused);
  }
  const auto address = dns::parse_reverse_pointer(q.name);
  if (!address) {
    return dns::Message::make_response(query, dns::Rcode::kNxDomain);
  }
  // Traceroute hops already have their names interned in the world; any
  // other address is named on the spot and left out of the table.
  std::string built;
  const std::string* interned = world_->interned_rdns(*address);
  if (interned == nullptr) built = world_->rdns_of(*address);
  const std::string_view rdns = interned != nullptr ? *interned : built;
  if (rdns.empty()) {
    // Unknown or private space: no PTR record exists.
    return dns::Message::make_response(query, dns::Rcode::kNxDomain);
  }
  dns::Message response = dns::Message::make_response(query, dns::Rcode::kNoError);
  if (q.type == dns::RrType::kPtr) {
    response.answers.push_back(
        dns::ResourceRecord::ptr(q.name, dns::DnsName::must_parse(rdns), 3600));
  }
  return response;
}

}  // namespace drongo::cdn
