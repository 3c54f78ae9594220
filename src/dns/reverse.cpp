#include "dns/reverse.hpp"

#include <algorithm>
#include <charconv>
#include <string_view>

namespace drongo::dns {

DnsName reverse_pointer_name(net::Ipv4Addr address) {
  // "d.c.b.a.in-addr.arpa": at most 4 * 4 + 12 characters.
  char text[32];
  char* end = text;
  for (int i = 3; i >= 0; --i) {
    end = std::to_chars(end, text + sizeof text, unsigned{address.octet(i)}).ptr;
    *end++ = '.';
  }
  constexpr std::string_view kZone = "in-addr.arpa";
  end = std::copy(kZone.begin(), kZone.end(), end);
  return DnsName::must_parse(std::string_view(text, static_cast<std::size_t>(end - text)));
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
