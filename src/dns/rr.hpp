// Resource records with typed RDATA.
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "dns/name.hpp"
#include "dns/types.hpp"
#include "net/ip.hpp"

namespace drongo::dns {

/// A record: one IPv4 address.
struct ARdata {
  net::Ipv4Addr address;
  friend bool operator==(const ARdata&, const ARdata&) = default;
};

/// CNAME record: canonical name target.
struct CnameRdata {
  DnsName target;
  friend bool operator==(const CnameRdata&, const CnameRdata&) = default;
};

/// NS record: authoritative name server for the owner.
struct NsRdata {
  DnsName nameserver;
  friend bool operator==(const NsRdata&, const NsRdata&) = default;
};

/// PTR record: reverse-DNS name (used by the simulated traceroute hop names).
struct PtrRdata {
  DnsName name;
  friend bool operator==(const PtrRdata&, const PtrRdata&) = default;
};

/// TXT record: one or more character strings.
struct TxtRdata {
  std::vector<std::string> strings;
  friend bool operator==(const TxtRdata&, const TxtRdata&) = default;
};

/// SOA record (minimal: enough to serve negative responses correctly).
struct SoaRdata {
  DnsName mname;
  DnsName rname;
  std::uint32_t serial = 1;
  std::uint32_t refresh = 3600;
  std::uint32_t retry = 600;
  std::uint32_t expire = 86400;
  std::uint32_t minimum = 60;
  friend bool operator==(const SoaRdata&, const SoaRdata&) = default;
};

/// Uninterpreted RDATA for types drongo does not model (round-trips intact).
struct RawRdata {
  std::vector<std::uint8_t> bytes;
  friend bool operator==(const RawRdata&, const RawRdata&) = default;
};

using Rdata = std::variant<ARdata, CnameRdata, NsRdata, PtrRdata, TxtRdata, SoaRdata, RawRdata>;

/// A resource record. The OPT pseudo-record is NOT represented here — the
/// message codec lifts it into `Message::edns` so application code never sees
/// it as a record.
struct ResourceRecord {
  DnsName name;
  RrType type = RrType::kA;
  RrClass klass = RrClass::kIn;
  std::uint32_t ttl = 60;
  Rdata rdata = ARdata{};

  /// Convenience builders for the records drongo serves.
  static ResourceRecord a(DnsName name, net::Ipv4Addr address, std::uint32_t ttl = 60);
  static ResourceRecord cname(DnsName name, DnsName target, std::uint32_t ttl = 60);
  static ResourceRecord ns(DnsName zone, DnsName nameserver, std::uint32_t ttl = 3600);
  static ResourceRecord ptr(DnsName name, DnsName target, std::uint32_t ttl = 3600);
  static ResourceRecord txt(DnsName name, std::vector<std::string> strings,
                            std::uint32_t ttl = 60);
  static ResourceRecord soa(DnsName zone, SoaRdata soa, std::uint32_t ttl = 3600);

  /// Encodes name, type, class, TTL, RDLENGTH, and RDATA. Names inside RDATA
  /// participate in compression via `offsets` (nullptr disables).
  void encode(net::ByteWriter& writer, NameOffsets* offsets) const;

  /// encode() through a cursor with room for max_wire_length() more bytes.
  void encode(net::ByteCursor& out, NameOffsets* offsets) const;

  /// The record's wire length without compression: the most encode()
  /// writes.
  [[nodiscard]] std::size_t max_wire_length() const;

  /// Decodes one record. For unknown types the RDATA is kept raw.
  static ResourceRecord decode(net::ByteReader& reader);

  /// decode() as a new last record of `section`, built there in place:
  /// the message codec decodes each record straight into its section.
  static ResourceRecord& decode_into(net::ByteReader& reader,
                                     std::vector<ResourceRecord>& section);

  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const ResourceRecord&, const ResourceRecord&) = default;
};

}  // namespace drongo::dns
