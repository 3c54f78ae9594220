// EDNS0 (RFC 6891) and the Client Subnet option (RFC 7871).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "net/bytes.hpp"
#include "net/ipaddr.hpp"
#include "net/prefix.hpp"

namespace drongo::dns {

/// EDNS0 Client Subnet option payload (RFC 7871 §6).
///
/// In a query, `source_prefix_length` announces how many leading bits of
/// the address are meaningful and `scope_prefix_length` must be 0. In a
/// response, the server echoes source and sets scope to the prefix length it
/// actually used for tailoring.
///
/// Families 1 (IPv4) and 2 (IPv6) decode into `address` with strict
/// family-specific length validation; any other family round-trips opaquely
/// through `opaque_address` and is flagged unrepresentable. Wire violations
/// always throw net::ParseError — never InvalidArgument, which the failure
/// taxonomy reserves for programming errors.
///
/// Subnet assimilation — the paper's core mechanism — is nothing more than
/// constructing this option with a prefix that is NOT the client's own.
struct ClientSubnet {
  /// Address family per the IANA registry; 1 = IPv4, 2 = IPv6.
  std::uint16_t family = 1;
  std::uint8_t source_prefix_length = 24;
  std::uint8_t scope_prefix_length = 0;
  /// The announced network, canonicalized to `source_prefix_length` bits.
  /// Meaningful only when is_representable(); unspecified otherwise.
  net::IpAddr address{};
  /// Raw address bytes of a foreign-family option, preserved verbatim so
  /// the option still round-trips through encode().
  std::vector<std::uint8_t> opaque_address;

  /// Builds a query-side option from a subnet (scope 0), e.g. from
  /// `Prefix::must_parse("203.0.113.0/24")` or an IpPrefix of either family.
  static ClientSubnet for_subnet(const net::IpPrefix& subnet);

  /// True when `address` carries the announced network (family 1 or 2).
  [[nodiscard]] bool is_representable() const {
    return family == 1 || family == 2;
  }

  /// The announced network as a dual-stack prefix. Throws net::ParseError
  /// for an unrepresentable family: the caller is looking at wire-supplied
  /// data it must not interpret, not at a programming error.
  [[nodiscard]] net::IpPrefix source_prefix() const;

  /// The scope network from a response (how broadly the answer may be
  /// cached/used). Throws net::ParseError for an unrepresentable family.
  [[nodiscard]] net::IpPrefix scope_prefix() const;

  /// Encodes the option payload (not including option code/length).
  /// Address bytes are truncated to ceil(source_prefix_length / 8) and the
  /// trailing partial byte is masked, as the RFC requires.
  void encode(net::ByteWriter& writer) const;

  /// encode() through a cursor with room for wire_length() more bytes.
  void encode(net::ByteCursor& out) const;

  /// The most bytes encode() writes: the fixed header and the address
  /// bytes.
  [[nodiscard]] std::size_t wire_length() const;

  /// Decodes an option payload of exactly `length` bytes from the reader.
  /// Validates family-specific prefix-length bounds (<=32 for family 1,
  /// <=128 for family 2) and the ceil(source/8) address-byte count (all
  /// families), throwing ParseError on violations; unmasked trailing bits
  /// are tolerated but masked.
  static ClientSubnet decode(net::ByteReader& reader, std::size_t length);

  /// Text form; never throws (foreign families print as "familyN/len").
  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const ClientSubnet&, const ClientSubnet&) = default;
};

/// A raw EDNS option (code + payload) for options drongo does not interpret.
struct EdnsOption {
  std::uint16_t code = 0;
  std::vector<std::uint8_t> payload;

  friend bool operator==(const EdnsOption&, const EdnsOption&) = default;
};

/// Parsed form of the OPT pseudo-record (RFC 6891 §6.1).
struct Edns {
  /// Advertised maximum UDP payload size (the OPT record's CLASS field).
  std::uint16_t udp_payload_size = 1232;
  /// Extended RCODE high bits (TTL byte 0). Zero for all drongo traffic.
  std::uint8_t extended_rcode = 0;
  std::uint8_t version = 0;
  /// DO bit and flags (TTL bytes 2-3).
  std::uint16_t flags = 0;
  /// The client-subnet option, when present.
  std::optional<ClientSubnet> client_subnet;
  /// Options other than client-subnet, preserved for round-tripping.
  std::vector<EdnsOption> other_options;

  friend bool operator==(const Edns&, const Edns&) = default;
};

/// ECS option code in the EDNS option registry.
inline constexpr std::uint16_t kOptionCodeClientSubnet = 8;

}  // namespace drongo::dns
