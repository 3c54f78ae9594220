#include "dns/reverse.hpp"

#include <charconv>
#include <cstring>
#include <span>
#include <string_view>

#include "net/bytes.hpp"

namespace drongo::dns {

DnsName reverse_pointer_name(net::Ipv4Addr address) {
  // The wire form of "d.c.b.a.in-addr.arpa": four decimal labels of at
  // most 3 digits, then the zone's labels and the root byte.
  constexpr std::string_view kZoneWire("\7in-addr\4arpa", 13);
  std::uint8_t wire[4 * 4 + kZoneWire.size() + 1];
  std::size_t size = 0;
  for (int i = 3; i >= 0; --i) {
    char* digits = reinterpret_cast<char*>(wire + size + 1);
    const char* end = std::to_chars(digits, digits + 3, unsigned{address.octet(i)}).ptr;
    wire[size] = static_cast<std::uint8_t>(end - digits);
    size += 1 + wire[size];
  }
  std::memcpy(wire + size, kZoneWire.data(), kZoneWire.size());
  size += kZoneWire.size();
  wire[size++] = 0;  // the root
  net::ByteReader reader(std::span<const std::uint8_t>(wire, size));
  return DnsName::decode(reader);
}

std::optional<net::Ipv4Addr> parse_reverse_pointer(const DnsName& name) {
  if (name.label_count() != 6 || !name.is_subdomain_of(reverse_zone())) {
    return std::nullopt;
  }
  std::uint32_t bits = 0;
  auto label = name.labels().begin();
  for (int i = 0; i < 4; ++i, ++label) {
    const std::string_view text = *label;
    unsigned octet = 0;
    auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), octet);
    if (ec != std::errc{} || ptr != text.data() + text.size() || octet > 255) {
      return std::nullopt;
    }
    // Labels are least-significant octet first.
    bits |= octet << (8 * i);
  }
  return net::Ipv4Addr(bits);
}

const DnsName& reverse_zone() {
  static const DnsName zone = DnsName::must_parse("in-addr.arpa");
  return zone;
}

}  // namespace drongo::dns
