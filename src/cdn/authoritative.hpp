// Authoritative DNS server fronting a CdnProvider.
#pragma once

#include "cdn/provider.hpp"
#include "dns/server.hpp"

namespace drongo::cdn {

/// Serves A records for the provider's content hostnames, tailoring answers
/// to the ECS subnet in the query (or, without ECS — and always, for
/// ECS-restricted profiles — to the /24 of the querying resolver).
///
/// Responses carry the provider's mapping granularity as the ECS SCOPE and
/// a short TTL, like real CDN authoritatives.
class CdnAuthoritative : public dns::DnsServer {
 public:
  /// `provider` is borrowed and must outlive the server.
  explicit CdnAuthoritative(CdnProvider* provider, std::uint32_t ttl_seconds = 30);

  dns::Message handle(const dns::Message& query, net::Ipv4Addr source) override;

  /// The zone this server is authoritative for.
  [[nodiscard]] const dns::DnsName& zone() const { return zone_; }

  /// Fully qualified content names served (label + zone).
  [[nodiscard]] const std::vector<dns::DnsName>& content_names() const {
    return content_names_;
  }

 private:
  CdnProvider* provider_;
  std::uint32_t ttl_;
  /// Parsed from the provider's profile once, at construction.
  dns::DnsName zone_;
  std::vector<dns::DnsName> content_names_;
};

}  // namespace drongo::cdn
