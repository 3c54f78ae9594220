#include "dns/edns.hpp"

#include <array>

#include "net/error.hpp"

namespace drongo::dns {

namespace {

/// ceil(bits / 8): the RFC 7871 §6 address byte count, family-independent.
constexpr std::size_t address_bytes_for(int bits) {
  return (static_cast<std::size_t>(bits) + 7u) / 8u;
}

constexpr int family_max_bits(std::uint16_t family) {
  return family == 1 ? 32 : 128;
}

}  // namespace

ClientSubnet ClientSubnet::for_subnet(const net::IpPrefix& subnet) {
  ClientSubnet ecs;
  ecs.family = subnet.family() == net::IpFamily::kV4 ? 1 : 2;
  ecs.source_prefix_length = static_cast<std::uint8_t>(subnet.length());
  ecs.scope_prefix_length = 0;
  ecs.address = subnet.network();
  return ecs;
}

net::IpPrefix ClientSubnet::source_prefix() const {
  if (!is_representable()) {
    throw net::ParseError("ECS family " + std::to_string(family) +
                          " has no representable source prefix");
  }
  return net::IpPrefix(address, source_prefix_length);
}

net::IpPrefix ClientSubnet::scope_prefix() const {
  if (!is_representable()) {
    throw net::ParseError("ECS family " + std::to_string(family) +
                          " has no representable scope prefix");
  }
  return net::IpPrefix(address, scope_prefix_length);
}

void ClientSubnet::encode(net::ByteWriter& writer) const {
  net::ByteCursor out = writer.extend(wire_length());
  encode(out);
  writer.finish(out);
}

std::size_t ClientSubnet::wire_length() const {
  return 4 + (is_representable() ? address_bytes_for(source_prefix_length)
                                  : opaque_address.size());
}

void ClientSubnet::encode(net::ByteCursor& out) const {
  out.write_u16(family);
  out.write_u8(source_prefix_length);
  out.write_u8(scope_prefix_length);
  if (!is_representable()) {
    // Foreign family: replay the bytes we decoded, verbatim.
    out.write_bytes(opaque_address);
    return;
  }
  // RFC 7871 §6: address is truncated to the minimum bytes covering
  // source_prefix_length bits, with trailing bits zeroed. Constructing the
  // prefix re-canonicalizes, so a hand-built unmasked option encodes clean.
  const std::size_t bytes = address_bytes_for(source_prefix_length);
  const net::IpPrefix canonical = source_prefix();
  if (family == 1) {
    const std::uint32_t masked = canonical.network().v4().to_uint();
    for (std::size_t i = 0; i < bytes; ++i) {
      out.write_u8(static_cast<std::uint8_t>(masked >> (8 * (3 - i))));
    }
  } else {
    const net::Ipv6Addr masked = canonical.network().v6();
    for (std::size_t i = 0; i < bytes; ++i) {
      out.write_u8(masked.octet(static_cast<int>(i)));
    }
  }
}

ClientSubnet ClientSubnet::decode(net::ByteReader& reader, std::size_t length) {
  if (length < 4) throw net::ParseError("ECS option shorter than fixed header");
  ClientSubnet ecs;
  ecs.family = reader.read_u16();
  ecs.source_prefix_length = reader.read_u8();
  ecs.scope_prefix_length = reader.read_u8();
  const std::size_t addr_bytes = length - 4;
  // The minimal-encoding rule binds every family (RFC 7871 §6): an option
  // whose address bytes disagree with ceil(source/8) is malformed even when
  // we cannot interpret the family.
  const std::size_t expected = address_bytes_for(ecs.source_prefix_length);
  if (ecs.is_representable()) {
    const int max_bits = family_max_bits(ecs.family);
    if (ecs.source_prefix_length > max_bits) {
      throw net::ParseError("ECS family " + std::to_string(ecs.family) +
                            " source prefix length " +
                            std::to_string(ecs.source_prefix_length) + " > " +
                            std::to_string(max_bits));
    }
    if (ecs.scope_prefix_length > max_bits) {
      throw net::ParseError("ECS family " + std::to_string(ecs.family) +
                            " scope prefix length " +
                            std::to_string(ecs.scope_prefix_length) + " > " +
                            std::to_string(max_bits));
    }
    if (addr_bytes != expected) {
      throw net::ParseError("ECS address has " + std::to_string(addr_bytes) +
                            " bytes, expected " + std::to_string(expected));
    }
    if (ecs.family == 1) {
      std::uint32_t bits = 0;
      for (std::size_t i = 0; i < addr_bytes; ++i) {
        bits |= std::uint32_t{reader.read_u8()} << (8 * (3 - i));
      }
      // Mask any non-zero trailing bits rather than rejecting: be liberal in
      // what we accept (the prefix semantics are unchanged).
      ecs.address = net::IpAddr(
          net::Prefix(net::Ipv4Addr(bits), ecs.source_prefix_length).network());
    } else {
      std::array<std::uint8_t, 16> bytes{};
      for (std::size_t i = 0; i < addr_bytes; ++i) bytes[i] = reader.read_u8();
      ecs.address =
          net::IpAddr(net::IpPrefix(net::IpAddr(net::Ipv6Addr::from_bytes(bytes)),
                                    ecs.source_prefix_length)
                          .network());
    }
  } else {
    if (addr_bytes != expected) {
      throw net::ParseError("ECS address has " + std::to_string(addr_bytes) +
                            " bytes, expected " + std::to_string(expected));
    }
    // Unknown family: keep the raw bytes so the option round-trips; the
    // address stays unspecified and callers must check is_representable()
    // before interpreting it (the cache path treats these as uncacheable).
    ecs.opaque_address.reserve(addr_bytes);
    for (std::size_t i = 0; i < addr_bytes; ++i) {
      ecs.opaque_address.push_back(reader.read_u8());
    }
  }
  return ecs;
}

std::string ClientSubnet::to_string() const {
  if (!is_representable()) {
    return "family" + std::to_string(family) + "/" +
           std::to_string(source_prefix_length) + "/scope" +
           std::to_string(scope_prefix_length);
  }
  return source_prefix().to_string() + "/scope" +
         std::to_string(scope_prefix_length);
}

}  // namespace drongo::dns
