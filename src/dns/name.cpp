#include "dns/name.hpp"

#include <functional>

#include "net/bytes.hpp"
#include "net/error.hpp"

namespace drongo::dns {

namespace {
constexpr std::uint8_t kPointerTag = 0xC0;
constexpr int kMaxPointerHops = 64;

/// RFC 1035 §2.3.3 case folding: ASCII letters only.
constexpr std::uint8_t fold(std::uint8_t c) {
  return c >= 'A' && c <= 'Z' ? static_cast<std::uint8_t>(c + ('a' - 'A')) : c;
}

/// Each byte of `x` with RFC 1035 case folding applied, eight at a time:
/// 0x20 is set in the bytes holding 'A'..'Z' and in no other.
constexpr std::uint64_t fold8(std::uint64_t x) {
  constexpr std::uint64_t kOnes = 0x0101010101010101;
  constexpr std::uint64_t kHigh = 0x8080808080808080;
  const std::uint64_t low7 = x & ~kHigh;
  // The high bit of each byte of `from_a` says "low 7 bits >= 'A'", of
  // `past_z` "> 'Z'"; neither sum carries into the next byte.
  const std::uint64_t from_a = low7 + (0x80 - 'A') * kOnes;
  const std::uint64_t past_z = low7 + (0x80 - 'Z' - 1) * kOnes;
  const std::uint64_t upper = (from_a & ~past_z) & ~x & kHigh;
  return x | (upper >> 2);
}

std::uint64_t load8(const std::uint8_t* p) {
  std::uint64_t v = 0;
  std::memcpy(&v, p, sizeof v);
  return v;
}

/// Whether `a` and `b` hold the same `n` bytes up to ASCII case. Compares
/// eight bytes at a time (the last word overlaps the one before it) and
/// reads nothing past the n bytes.
bool folded_equal(const std::uint8_t* a, const std::uint8_t* b, std::size_t n) {
  if (n < 8) {
    for (std::size_t i = 0; i < n; ++i) {
      if (a[i] != b[i] && fold(a[i]) != fold(b[i])) return false;
    }
    return true;
  }
  const auto same = [](std::uint64_t x, std::uint64_t y) {
    return x == y || fold8(x) == fold8(y);
  };
  for (std::size_t i = 0; i + 8 < n; i += 8) {
    if (!same(load8(a + i), load8(b + i))) return false;
  }
  return same(load8(a + n - 8), load8(b + n - 8));
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
  net::copy_bytes(wire + total, reinterpret_cast<const std::uint8_t*>(label.data()),
                  label.size());
  total += 1 + label.size();
  return true;
}

/// Whether the name written at `at` in `wire` equals the name suffix
/// `suffix` (length-prefixed labels ending in the root byte),
/// case-insensitively, following compression pointers. False when the walk
/// leaves the buffer: a NameOffsets built by hand may name any offset.
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
  std::uint8_t wire[kMaxWireLength];  // written front to back, read up to `total`
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

DnsName& DnsName::operator=(const DnsName& other) {
  if (this == &other) return *this;
  if (on_heap() && size_ == other.size_) {
    net::copy_bytes(heap(), other.data(), size_);  // same-size heap block: reuse it
    label_count_ = other.label_count_;
    return *this;
  }
  release();
  size_ = 1;
  assign(other.data(), other.size_, other.label_count_);
  return *this;
}

void DnsName::assign(const std::uint8_t* wire, std::size_t size, std::size_t label_count) {
  if (size <= kInlineCapacity) {
    net::copy_bytes(inline_bytes_, wire, size);
  } else {
    auto* block = new std::uint8_t[size];
    net::copy_bytes(block, wire, size);
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
  // The wire form is the text behind one length byte, each dot turned into
  // the length of the label after it, then the root byte: one copy, then
  // one pass over it. Scratch is written front to back and read only up to
  // the root byte, so it is left uninitialized (as in decode).
  const std::size_t n = text.size();
  if (n + 2 > kMaxWireLength) return std::nullopt;
  std::uint8_t wire[kMaxWireLength];
  net::copy_bytes(wire + 1, reinterpret_cast<const std::uint8_t*>(text.data()), n);
  wire[n + 1] = 0;
  std::size_t count = 0;
  std::size_t length_at = 0;  // the current label's length byte
  for (std::size_t at = 1; at <= n + 1; ++at) {
    if (at <= n && wire[at] != '.') continue;
    const std::size_t label = at - length_at - 1;
    if (label == 0 || label > kMaxLabelLength) return std::nullopt;
    wire[length_at] = static_cast<std::uint8_t>(label);
    length_at = at;
    ++count;
  }
  return DnsName(wire, n + 2, count);
}

DnsName DnsName::must_parse(std::string_view text) {
  auto name = parse(text);
  if (!name) throw net::ParseError("bad DNS name '" + std::string(text) + "'");
  return *name;
}

DnsName DnsName::decode(net::ByteReader& reader) {
  // Walks the buffer directly, making each check the reader would make, in
  // the same order and with the same error, but copying a run of in-place
  // labels only when the run ends (at a pointer or the root byte).
  const std::span<const std::uint8_t> buffer = reader.buffer();
  const std::uint8_t* bytes = buffer.data();
  const std::size_t size = buffer.size();
  const std::size_t start = reader.position();
  std::size_t at = start;
  std::size_t run = start;   // where the current run of in-place labels starts
  std::size_t length = 0;    // wire bytes of the labels so far, root byte not counted
  std::size_t copied = 0;    // of which already copied out
  std::size_t count = 0;
  std::size_t consumed = 0;  // the reader's bytes: set at the first pointer
  int pointer_hops = 0;
  // Scratch for a name spread over several runs; it is written front to
  // back and read only up to `length`, so it is left uninitialized.
  std::uint8_t wire[kMaxWireLength];

  for (;;) {
    if (at >= size) net::detail::throw_overrun(1, at, size);
    const std::uint8_t len = bytes[at];
    if ((len & kPointerTag) == kPointerTag) {
      if (at + 1 >= size) net::detail::throw_overrun(1, at + 1, size);
      const std::size_t target = (static_cast<std::size_t>(len & 0x3F) << 8) | bytes[at + 1];
      // A pointer must reference earlier bytes; forward or self pointers can
      // only loop. Also cap total hops against crafted ping-pong chains.
      if (target >= at + 2) {
        throw net::ParseError("DNS compression pointer does not point backward");
      }
      if (++pointer_hops > kMaxPointerHops) {
        throw net::ParseError("DNS compression pointer chain too long");
      }
      if (consumed == 0) consumed = at + 2 - start;
      net::copy_bytes(wire + copied, bytes + run, at - run);
      copied = length;
      at = run = target;
      continue;
    }
    if ((len & kPointerTag) != 0) {
      throw net::ParseError("reserved DNS label type");
    }
    if (len == 0) break;
    if (length + 2 + len > kMaxWireLength) {
      throw net::ParseError("decoded DNS name exceeds 255 bytes");
    }
    if (size - (at + 1) < len) net::detail::throw_overrun(len, at + 1, size);
    at += 1 + len;
    length += 1 + len;
    ++count;
  }
  if (consumed == 0) {
    // No pointer: the name, root byte included, sits in place in one run.
    reader.skip(at + 1 - start);
    return DnsName(bytes + start, length + 1, count);
  }
  reader.skip(consumed);
  net::copy_bytes(wire + copied, bytes + run, at - run);
  wire[length] = 0;
  return DnsName(wire, length + 1, count);
}

int NameOffsets::find(std::span<const std::uint8_t> wire, const std::uint8_t* suffix,
                      std::size_t length) const {
  if ((length_filter_ & filter_bit(length)) == 0) return -1;
  const std::span<const std::uint16_t> offsets = view();
  const std::span<const std::uint8_t> suffix_lengths = lengths();
  for (std::size_t i = 0; i < offsets.size(); ++i) {
    const std::uint8_t recorded = suffix_lengths[i];
    if ((recorded == length || recorded == kAnyLength) &&
        suffix_written_at(wire, offsets[i], suffix)) {
      return offsets[i];
    }
  }
  return -1;
}

void DnsName::encode(net::ByteWriter& writer, NameOffsets* offsets) const {
  net::ByteCursor out = writer.extend(size_);
  encode(out, offsets);
  writer.finish(out);
}

void DnsName::encode(net::ByteCursor& out, NameOffsets* offsets) const {
  const std::uint8_t* bytes = data();
  if (offsets == nullptr) {
    out.write_bytes({bytes, size_});
    return;
  }
  // Probe each suffix, longest first, before writing anything. A probe
  // never sees a suffix of this name (none is recorded yet), and none
  // could match: a name's suffixes all differ in length.
  std::size_t prefix = 0;  // bytes written in place
  int pointer = -1;
  for (; bytes[prefix] != 0; prefix += 1 + bytes[prefix]) {
    pointer = offsets->find(out.written(), bytes + prefix, size_ - prefix);
    if (pointer >= 0) break;
  }
  const std::size_t start = out.position();
  for (std::size_t at = 0; at < prefix && start + at < 0x4000; at += 1 + bytes[at]) {
    offsets->push_back(static_cast<std::uint16_t>(start + at),
                       static_cast<std::uint8_t>(size_ - at));
  }
  if (pointer < 0) {
    out.write_bytes({bytes, size_});  // every label, then the root byte
    return;
  }
  out.write_bytes({bytes, prefix});
  out.write_u16(static_cast<std::uint16_t>(0xC000 | pointer));
}

std::string DnsName::to_string() const {
  if (is_root()) return ".";
  std::string out(size_ - 2u, '.');  // the labels, with a dot between each two
  auto* at = reinterpret_cast<std::uint8_t*>(out.data());
  for (const std::uint8_t* label = data(); *label != 0; label += 1 + *label) {
    net::copy_bytes(at, label + 1, *label);
    at += 1 + *label;  // past the label and the dot after it
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
  char text[kMaxWireLength];  // written front to back, read up to the length returned
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
