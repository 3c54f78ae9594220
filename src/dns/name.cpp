#include "dns/name.hpp"

#include <algorithm>
#include <span>
#include <string_view>

#include "net/error.hpp"
#include "net/strings.hpp"

namespace drongo::dns {

namespace {
constexpr std::size_t kMaxLabel = 63;
constexpr std::size_t kMaxName = 255;
constexpr std::uint8_t kPointerTag = 0xC0;
constexpr int kMaxPointerHops = 64;

/// RFC 1035 §2.3.3 case folding: ASCII letters only, in place.
constexpr unsigned char fold(unsigned char c) {
  return c >= 'A' && c <= 'Z' ? static_cast<unsigned char>(c + ('a' - 'A')) : c;
}

/// Case-insensitive three-way label comparison, ordered like comparing the
/// lowercased strings (unsigned bytes, then length).
int compare_folded(std::string_view a, std::string_view b) {
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    const unsigned char x = fold(static_cast<unsigned char>(a[i]));
    const unsigned char y = fold(static_cast<unsigned char>(b[i]));
    if (x != y) return x < y ? -1 : 1;
  }
  if (a.size() == b.size()) return 0;
  return a.size() < b.size() ? -1 : 1;
}

/// Whether the name written at `at` in `wire` equals `labels[from..]`,
/// case-insensitively, following compression pointers. False when the walk
/// leaves the buffer, as it does from a name still being written.
bool suffix_written_at(std::span<const std::uint8_t> wire, std::size_t at,
                       const std::vector<std::string>& labels, std::size_t from) {
  int hops = 0;
  for (std::size_t k = from;;) {
    if (at >= wire.size()) return false;
    const std::uint8_t len = wire[at];
    if ((len & kPointerTag) == kPointerTag) {
      if (at + 1 >= wire.size() || ++hops > kMaxPointerHops) return false;
      at = (static_cast<std::size_t>(len & 0x3F) << 8) | wire[at + 1];
      continue;
    }
    if (k == labels.size()) return len == 0;
    const std::string& label = labels[k];
    if (len != label.size() || at + 1 + len > wire.size()) return false;
    for (std::size_t j = 0; j < len; ++j) {
      if (fold(wire[at + 1 + j]) != fold(static_cast<unsigned char>(label[j]))) {
        return false;
      }
    }
    at += 1 + len;
    ++k;
  }
}
}  // namespace

DnsName::DnsName(std::vector<std::string> labels) : labels_(std::move(labels)) {
  check_invariants();
}

void DnsName::check_invariants() const {
  std::size_t total = 1;  // terminating root byte
  for (const auto& label : labels_) {
    if (label.empty() || label.size() > kMaxLabel) {
      throw net::ParseError("DNS label '" + label + "' has bad length " +
                            std::to_string(label.size()));
    }
    total += 1 + label.size();
  }
  if (total > kMaxName) {
    throw net::ParseError("DNS name exceeds 255 bytes");
  }
}

std::optional<DnsName> DnsName::parse(std::string_view text) {
  if (text.empty()) return std::nullopt;
  if (text == ".") return DnsName();
  if (text.back() == '.') text.remove_suffix(1);
  std::vector<std::string> labels = net::split(text, '.');
  std::size_t total = 1;
  for (const auto& label : labels) {
    if (label.empty() || label.size() > kMaxLabel) return std::nullopt;
    total += 1 + label.size();
  }
  if (total > kMaxName) return std::nullopt;
  return DnsName(std::move(labels));
}

DnsName DnsName::must_parse(std::string_view text) {
  auto name = parse(text);
  if (!name) throw net::ParseError("bad DNS name '" + std::string(text) + "'");
  return *name;
}

DnsName DnsName::decode(net::ByteReader& reader) {
  std::vector<std::string> labels;
  std::size_t total = 1;
  // After the first pointer the cursor must not move; we continue decoding at
  // the pointer target via a secondary reader over the same buffer.
  bool jumped = false;
  net::ByteReader indirect(reader.buffer());
  net::ByteReader* r = &reader;
  int pointer_hops = 0;

  for (;;) {
    const std::uint8_t len = r->read_u8();
    if ((len & kPointerTag) == kPointerTag) {
      const std::uint8_t low = r->read_u8();
      const std::size_t target =
          (static_cast<std::size_t>(len & 0x3F) << 8) | low;
      // A pointer must reference earlier bytes; forward or self pointers can
      // only loop. Also cap total hops against crafted ping-pong chains.
      const std::size_t here = (r == &reader) ? reader.position() : indirect.position();
      if (target >= here) {
        throw net::ParseError("DNS compression pointer does not point backward");
      }
      if (++pointer_hops > kMaxPointerHops) {
        throw net::ParseError("DNS compression pointer chain too long");
      }
      if (!jumped) {
        jumped = true;
        r = &indirect;
      }
      r->seek(target);
      continue;
    }
    if ((len & kPointerTag) != 0) {
      throw net::ParseError("reserved DNS label type");
    }
    if (len == 0) break;
    total += 1 + len;
    if (total > kMaxName) throw net::ParseError("decoded DNS name exceeds 255 bytes");
    labels.push_back(r->read_string(len));
  }
  return DnsName(std::move(labels));
}

void DnsName::encode(net::ByteWriter& writer, NameOffsets* offsets) const {
  if (offsets == nullptr) {
    for (const auto& label : labels_) {
      writer.write_u8(static_cast<std::uint8_t>(label.size()));
      writer.write_string(label);
    }
    writer.write_u8(0);
    return;
  }
  // Offsets are recorded as labels are written, so a probe may start at a
  // suffix of this very name; its walk then runs into the end of the buffer
  // (the name is unfinished) and fails, which is why the walk is
  // bounds-checked. No suffix of a name equals a longer suffix of the same
  // name, so nothing is lost.
  for (std::size_t i = 0; i < labels_.size(); ++i) {
    const std::span<const std::uint8_t> wire(writer.bytes());
    for (const std::uint16_t at : *offsets) {
      if (suffix_written_at(wire, at, labels_, i)) {
        writer.write_u16(static_cast<std::uint16_t>(0xC000 | at));
        return;
      }
    }
    if (writer.size() < 0x4000) offsets->push_back(static_cast<std::uint16_t>(writer.size()));
    writer.write_u8(static_cast<std::uint8_t>(labels_[i].size()));
    writer.write_string(labels_[i]);
  }
  writer.write_u8(0);
}

std::size_t DnsName::wire_length() const {
  std::size_t total = 1;
  for (const auto& label : labels_) total += 1 + label.size();
  return total;
}

std::string DnsName::to_string() const {
  if (labels_.empty()) return ".";
  std::string out;
  for (const auto& label : labels_) {
    if (!out.empty()) out.push_back('.');
    out += label;
  }
  return out;
}

std::string DnsName::canonical() const {
  return net::to_lower(to_string());
}

bool DnsName::is_subdomain_of(const DnsName& other) const {
  if (other.labels_.size() > labels_.size()) return false;
  auto mine = labels_.rbegin();
  for (auto theirs = other.labels_.rbegin(); theirs != other.labels_.rend();
       ++theirs, ++mine) {
    if (compare_folded(*mine, *theirs) != 0) return false;
  }
  return true;
}

DnsName DnsName::parent() const {
  if (labels_.empty()) {
    throw net::InvalidArgument("root name has no parent");
  }
  return DnsName(std::vector<std::string>(labels_.begin() + 1, labels_.end()));
}

bool operator==(const DnsName& a, const DnsName& b) {
  return (a <=> b) == std::strong_ordering::equal;
}

std::strong_ordering operator<=>(const DnsName& a, const DnsName& b) {
  const auto n = std::min(a.labels_.size(), b.labels_.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (const int cmp = compare_folded(a.labels_[i], b.labels_[i]); cmp != 0) {
      return cmp < 0 ? std::strong_ordering::less : std::strong_ordering::greater;
    }
  }
  return a.labels_.size() <=> b.labels_.size();
}

}  // namespace drongo::dns
