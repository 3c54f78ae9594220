#include "dns/name.hpp"

#include <functional>

#include "net/error.hpp"

namespace drongo::dns {

namespace {
constexpr std::uint8_t kPointerTag = 0xC0;
constexpr int kMaxPointerHops = 64;

/// RFC 1035 §2.3.3 case folding: ASCII letters only.
constexpr std::uint8_t fold(std::uint8_t c) {
  return c >= 'A' && c <= 'Z' ? static_cast<std::uint8_t>(c + ('a' - 'A')) : c;
}

bool folded_equal(const std::uint8_t* a, const std::uint8_t* b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if (a[i] != b[i] && fold(a[i]) != fold(b[i])) return false;
  }
  return true;
}

/// Case-insensitive three-way comparison of the labels at `a` and `b`
/// (length-prefixed), ordered like comparing the lowercased strings
/// (unsigned bytes, then length).
int compare_label(const std::uint8_t* a, const std::uint8_t* b) {
  const std::size_t n = std::min(a[0], b[0]);
  for (std::size_t i = 1; i <= n; ++i) {
    const std::uint8_t x = fold(a[i]);
    const std::uint8_t y = fold(b[i]);
    if (x != y) return x < y ? -1 : 1;
  }
  if (a[0] == b[0]) return 0;
  return a[0] < b[0] ? -1 : 1;
}

/// Writes the lowercased dotted form of `wire` (a non-root name) to `out`,
/// which must hold wire length - 2 bytes; returns the characters written.
std::size_t write_canonical(std::span<const std::uint8_t> wire, char* out) {
  std::size_t n = 0;
  for (std::size_t at = 0; wire[at] != 0; at += 1 + wire[at]) {
    if (at != 0) out[n++] = '.';
    for (std::size_t j = 1; j <= wire[at]; ++j) out[n++] = static_cast<char>(fold(wire[at + j]));
  }
  return n;
}

/// Appends a presentation label to a wire form under construction in
/// `wire`, which holds `total` bytes counting the root byte still to come. False, with
/// nothing written, when the label is empty or over 63 bytes or the name
/// would pass 255 bytes.
bool append_label(std::uint8_t* wire, std::size_t& total, std::string_view label) {
  if (label.empty() || label.size() > DnsName::kMaxLabelLength ||
      total + 1 + label.size() > DnsName::kMaxWireLength) {
    return false;
  }
  wire[total - 1] = static_cast<std::uint8_t>(label.size());
  std::memcpy(wire + total, label.data(), label.size());
  total += 1 + label.size();
  return true;
}

/// Whether the name written at `at` in `wire` equals the name suffix
/// `suffix` (length-prefixed labels ending in the root byte),
/// case-insensitively, following compression pointers. False when the walk
/// leaves the buffer, as it does from a name still being written.
bool suffix_written_at(std::span<const std::uint8_t> wire, std::size_t at,
                       const std::uint8_t* suffix) {
  int hops = 0;
  for (;;) {
    if (at >= wire.size()) return false;
    const std::uint8_t len = wire[at];
    if ((len & kPointerTag) == kPointerTag) {
      if (at + 1 >= wire.size() || ++hops > kMaxPointerHops) return false;
      at = (static_cast<std::size_t>(len & 0x3F) << 8) | wire[at + 1];
      continue;
    }
    if (*suffix == 0) return len == 0;
    if (len != *suffix || at + 1 + len > wire.size()) return false;
    if (!folded_equal(wire.data() + at + 1, suffix + 1, len)) return false;
    at += 1 + len;
    suffix += 1 + len;
  }
}
}  // namespace

DnsName::DnsName(const std::vector<std::string>& labels) {
  std::uint8_t wire[kMaxWireLength] = {};
  std::size_t total = 1;  // terminating root byte
  for (const auto& label : labels) {
    if (label.empty() || label.size() > kMaxLabelLength) {
      throw net::ParseError("DNS label '" + label + "' has bad length " +
                            std::to_string(label.size()));
    }
    if (!append_label(wire, total, label)) throw net::ParseError("DNS name exceeds 255 bytes");
  }
  wire[total - 1] = 0;
  assign(wire, total, labels.size());
}

DnsName::DnsName(DnsName&& other) noexcept { steal(other); }

DnsName& DnsName::operator=(const DnsName& other) {
  if (this == &other) return *this;
  if (on_heap() && size_ == other.size_) {
    std::memcpy(heap(), other.data(), size_);  // same-size heap block: reuse it
    label_count_ = other.label_count_;
    return *this;
  }
  release();
  size_ = 1;
  assign(other.data(), other.size_, other.label_count_);
  return *this;
}

DnsName& DnsName::operator=(DnsName&& other) noexcept {
  if (this == &other) return *this;
  release();
  steal(other);
  return *this;
}

void DnsName::steal(DnsName& other) noexcept {
  size_ = other.size_;
  label_count_ = other.label_count_;
  // Either the heap pointer or the inline bytes; both live in inline_bytes_.
  std::memcpy(inline_bytes_, other.inline_bytes_, on_heap() ? sizeof(std::uint8_t*) : size_);
  if (other.on_heap()) {  // the block is ours now: leave `other` the root
    other.size_ = 1;
    other.label_count_ = 0;
    other.inline_bytes_[0] = 0;
  }
}

void DnsName::assign(const std::uint8_t* wire, std::size_t size, std::size_t label_count) {
  if (size <= kInlineCapacity) {
    std::memcpy(inline_bytes_, wire, size);
  } else {
    auto* block = new std::uint8_t[size];
    std::memcpy(block, wire, size);
    std::memcpy(inline_bytes_, &block, sizeof block);
  }
  // Set last: if the allocation throws, the object still reads as inline.
  size_ = static_cast<std::uint8_t>(size);
  label_count_ = static_cast<std::uint8_t>(label_count);
}

std::optional<DnsName> DnsName::parse(std::string_view text) {
  if (text.empty()) return std::nullopt;
  if (text == ".") return DnsName();
  if (text.back() == '.') text.remove_suffix(1);
  // Scratch is written front to back and read only up to `total`, so it is
  // left uninitialized (as in decode).
  std::uint8_t wire[kMaxWireLength];
  std::size_t total = 1;
  std::size_t count = 0;
  for (;;) {
    const std::size_t dot = text.find('.');
    if (!append_label(wire, total, text.substr(0, dot))) return std::nullopt;
    ++count;
    if (dot == std::string_view::npos) break;
    text.remove_prefix(dot + 1);
  }
  wire[total - 1] = 0;
  return DnsName(wire, total, count);
}

DnsName DnsName::must_parse(std::string_view text) {
  auto name = parse(text);
  if (!name) throw net::ParseError("bad DNS name '" + std::string(text) + "'");
  return *name;
}

DnsName DnsName::decode(net::ByteReader& reader) {
  // Scratch is written front to back and read only up to `total`: zeroing
  // all 255 bytes would cost more than decoding a typical name.
  std::uint8_t wire[kMaxWireLength];
  std::size_t total = 1;
  std::size_t count = 0;
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
    if (total + 1 + len > kMaxWireLength) {
      throw net::ParseError("decoded DNS name exceeds 255 bytes");
    }
    const auto label = r->read_span(len);
    wire[total - 1] = len;
    std::memcpy(wire + total, label.data(), len);
    total += 1 + len;
    ++count;
  }
  wire[total - 1] = 0;
  return DnsName(wire, total, count);
}

void DnsName::encode(net::ByteWriter& writer, NameOffsets* offsets) const {
  const std::uint8_t* bytes = data();
  if (offsets == nullptr) {
    writer.write_bytes({bytes, size_});
    return;
  }
  // Offsets are recorded as labels are written, so a probe may start at a
  // suffix of this very name; its walk then runs into the end of the buffer
  // (the name is unfinished) and fails, which is why the walk is
  // bounds-checked. No suffix of a name equals a longer suffix of the same
  // name, so nothing is lost.
  for (std::size_t at = 0; bytes[at] != 0; at += 1 + bytes[at]) {
    const std::span<const std::uint8_t> wire(writer.bytes());
    for (const std::uint16_t written : *offsets) {
      if (suffix_written_at(wire, written, bytes + at)) {
        writer.write_u16(static_cast<std::uint16_t>(0xC000 | written));
        return;
      }
    }
    if (writer.size() < 0x4000) offsets->push_back(static_cast<std::uint16_t>(writer.size()));
    writer.write_bytes({bytes + at, std::size_t{1} + bytes[at]});
  }
  writer.write_u8(0);
}

std::string DnsName::to_string() const {
  if (is_root()) return ".";
  const std::uint8_t* bytes = data();
  std::string out;
  out.reserve(size_ - 2u);  // labels plus the dots between them
  for (std::size_t at = 0; bytes[at] != 0; at += 1 + bytes[at]) {
    if (at != 0) out.push_back('.');
    out.append(reinterpret_cast<const char*>(bytes + at + 1), bytes[at]);
  }
  return out;
}

std::string DnsName::canonical() const {
  if (is_root()) return ".";
  std::string out(size_ - 2u, '\0');
  write_canonical(wire(), out.data());
  return out;
}

std::size_t DnsName::hash() const noexcept {
  if (is_root()) return std::hash<std::string_view>{}(".");
  char text[kMaxWireLength] = {};
  return std::hash<std::string_view>{}(std::string_view(text, write_canonical(wire(), text)));
}

bool DnsName::is_subdomain_of(const DnsName& other) const {
  if (other.label_count_ > label_count_ || other.size_ > size_) return false;
  const std::uint8_t* bytes = data();
  std::size_t at = 0;
  for (std::size_t skip = label_count_ - other.label_count_; skip > 0; --skip) {
    at += 1 + bytes[at];
  }
  // Equal label counts and equal labels imply equal byte lengths; the
  // folded comparison then settles the labels (length bytes are never
  // letters, so folding leaves them alone).
  return size_ - at == other.size_ && folded_equal(bytes + at, other.data(), other.size_);
}

DnsName DnsName::parent() const {
  if (is_root()) {
    throw net::InvalidArgument("root name has no parent");
  }
  const std::uint8_t* bytes = data();
  const std::size_t first = 1u + bytes[0];
  return DnsName(bytes + first, size_ - first, label_count_ - 1u);
}

bool operator==(const DnsName& a, const DnsName& b) {
  // Both buffers parse from a length byte at offset 0, so equal folded
  // bytes mean equal label boundaries too.
  return a.size_ == b.size_ && folded_equal(a.data(), b.data(), a.size_);
}

std::strong_ordering operator<=>(const DnsName& a, const DnsName& b) {
  const std::uint8_t* x = a.data();
  const std::uint8_t* y = b.data();
  for (; *x != 0 && *y != 0; x += 1 + *x, y += 1 + *y) {
    if (const int cmp = compare_label(x, y); cmp != 0) {
      return cmp < 0 ? std::strong_ordering::less : std::strong_ordering::greater;
    }
  }
  return a.label_count_ <=> b.label_count_;
}

}  // namespace drongo::dns
