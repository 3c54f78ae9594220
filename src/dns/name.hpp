// DNS domain names: presentation format, wire format, compression.
#pragma once

#include <algorithm>
#include <array>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <iterator>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "net/bytes.hpp"

namespace drongo::dns {

/// Compression state threaded through one message encode: the buffer
/// offsets where a name suffix was first written, in write order, each with
/// that suffix's uncompressed wire length. The table stores no names: a
/// probe compares the candidate suffix label by label, case-insensitively,
/// against the wire bytes already at an offset, following compression
/// pointers. Equal names have equal wire lengths, so a probe only visits
/// the offsets recorded with its suffix's length.
///
/// The first kInlineCapacity offsets live in the object itself, so a
/// message encode keeps its table on the stack; a larger message spills the
/// whole list into vectors once.
class NameOffsets {
 public:
  static constexpr std::size_t kInlineCapacity = 32;

  NameOffsets() = default;
  /// Offsets recorded without lengths (see push_back(std::uint16_t)).
  NameOffsets(std::initializer_list<std::uint16_t> offsets) {
    for (const std::uint16_t at : offsets) push_back(at);
  }

  /// Records that a suffix of `length` wire bytes (root byte included)
  /// starts at `at`.
  void push_back(std::uint16_t at, std::uint8_t length) {
    length_filter_ |= length == kAnyLength ? ~std::uint64_t{0} : filter_bit(length);
    if (spill_.empty() && size_ < kInlineCapacity) {
      inline_[size_] = at;
      inline_lengths_[size_++] = length;
      return;
    }
    if (spill_.empty()) {
      spill_.assign(inline_.begin(), inline_.begin() + size_);
      spill_lengths_.assign(inline_lengths_.begin(), inline_lengths_.begin() + size_);
    }
    spill_.push_back(at);
    spill_lengths_.push_back(length);
  }
  /// Records an offset whose suffix length is not known: every probe
  /// visits it.
  void push_back(std::uint16_t at) { push_back(at, kAnyLength); }

  /// The recorded offsets, in write order.
  [[nodiscard]] std::span<const std::uint16_t> view() const {
    return spill_.empty() ? std::span<const std::uint16_t>(inline_.data(), size_)
                          : std::span<const std::uint16_t>(spill_);
  }
  [[nodiscard]] auto begin() const { return view().begin(); }
  [[nodiscard]] auto end() const { return view().end(); }

  /// The first recorded offset at which `wire` holds the name suffix at
  /// `suffix` (length-prefixed labels ending in the root byte, `length`
  /// bytes), compared case-insensitively; -1 when none does.
  [[nodiscard]] int find(std::span<const std::uint8_t> wire, const std::uint8_t* suffix,
                         std::size_t length) const;

  /// Equal when the same offsets were recorded in the same order.
  friend bool operator==(const NameOffsets& a, const NameOffsets& b) {
    const auto x = a.view();
    const auto y = b.view();
    return std::equal(x.begin(), x.end(), y.begin(), y.end());
  }

 private:
  // No suffix is 0 bytes long: the root alone is 1.
  static constexpr std::uint8_t kAnyLength = 0;

  // A probe first tests its length's bit in length_filter_: a clear bit
  // means no offset was recorded with that length (modulo 64), so most
  // probes scan nothing.
  static constexpr std::uint64_t filter_bit(std::size_t length) {
    return std::uint64_t{1} << (length % 64);
  }

  [[nodiscard]] std::span<const std::uint8_t> lengths() const {
    return spill_.empty() ? std::span<const std::uint8_t>(inline_lengths_.data(), size_)
                          : std::span<const std::uint8_t>(spill_lengths_);
  }

  // Only the first size_ entries are written; the rest is never read, so
  // construction leaves it uninitialized.
  std::array<std::uint16_t, kInlineCapacity> inline_;
  std::array<std::uint8_t, kInlineCapacity> inline_lengths_;
  std::size_t size_ = 0;
  std::uint64_t length_filter_ = 0;
  std::vector<std::uint16_t> spill_;  // every offset, once inline_ overflowed
  std::vector<std::uint8_t> spill_lengths_;
};

/// A DNS domain name: an ordered sequence of labels.
///
/// Storage is the name's uncompressed wire form — length-prefixed labels
/// and the terminating root byte — in one flat buffer. Names whose wire
/// form fits kInlineCapacity bytes (every name the simulation builds) live
/// inside the object; longer ones, up to the 255-byte maximum, take one
/// heap block. Decode, copy, comparison, hashing and compression probes all
/// run on those bytes; no per-label strings exist.
///
/// Invariants (enforced at construction): each label is 1..63 bytes, total
/// encoded length <= 255 bytes. Comparison and hashing are case-insensitive
/// per RFC 1035 §2.3.3; the original case is preserved for display.
class DnsName {
 public:
  /// Wire bytes held without a heap allocation.
  static constexpr std::size_t kInlineCapacity = 62;
  /// RFC 1035 §2.3.4: labels 63 bytes, names 255 bytes (wire form).
  static constexpr std::size_t kMaxLabelLength = 63;
  static constexpr std::size_t kMaxWireLength = 255;

  /// Forward iterator over the labels, yielding views into the name.
  class LabelIterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = std::string_view;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = std::string_view;

    LabelIterator() = default;
    explicit LabelIterator(const std::uint8_t* at) : at_(at) {}

    std::string_view operator*() const {
      return {reinterpret_cast<const char*>(at_ + 1), *at_};
    }
    LabelIterator& operator++() {
      at_ += 1 + *at_;
      return *this;
    }
    LabelIterator operator++(int) {
      LabelIterator before = *this;
      ++*this;
      return before;
    }
    friend bool operator==(const LabelIterator&, const LabelIterator&) = default;

   private:
    const std::uint8_t* at_ = nullptr;
  };

  /// The labels of one name, first (leftmost) to last. A view: it must not
  /// outlive the name it came from.
  class Labels {
   public:
    Labels(LabelIterator first, LabelIterator last, std::size_t count)
        : first_(first), last_(last), count_(count) {}
    [[nodiscard]] LabelIterator begin() const { return first_; }
    [[nodiscard]] LabelIterator end() const { return last_; }
    [[nodiscard]] std::size_t size() const { return count_; }
    [[nodiscard]] bool empty() const { return count_ == 0; }
    [[nodiscard]] std::string_view front() const { return *first_; }

   private:
    LabelIterator first_;
    LabelIterator last_;
    std::size_t count_;
  };

  /// The root name (zero labels). Writes only the root byte: the rest of
  /// the buffer is never read before it is written.
  DnsName() noexcept { inline_bytes_[0] = 0; }

  /// Builds from explicit labels. Throws ParseError on invariant violations.
  explicit DnsName(const std::vector<std::string>& labels);

  DnsName(const DnsName& other) { assign(other.data(), other.size_, other.label_count_); }
  DnsName(DnsName&& other) noexcept { steal(other); }
  DnsName& operator=(const DnsName& other);
  DnsName& operator=(DnsName&& other) noexcept {
    if (this == &other) return *this;
    release();
    steal(other);
    return *this;
  }
  ~DnsName() { release(); }

  /// Parses presentation format ("www.example.com", trailing dot optional,
  /// "." is the root). Returns nullopt on malformed input (empty label,
  /// label > 63 bytes, name > 255 bytes).
  static std::optional<DnsName> parse(std::string_view text);

  /// Like parse() but throws ParseError.
  static DnsName must_parse(std::string_view text);

  /// Decodes a wire-format name starting at the reader's cursor, following
  /// compression pointers (RFC 1035 §4.1.4). The cursor advances past the
  /// in-place portion only. Throws ParseError on pointer loops, forward
  /// pointers, or truncation, and BoundsError on a label that runs off the
  /// buffer. Labels are validated one by one; each run of labels that sits
  /// in place is copied once.
  static DnsName decode(net::ByteReader& reader);

  /// Encodes in wire format, compressing against names already written:
  /// `offsets` lists where earlier suffixes start in `writer`'s buffer, and
  /// the longest suffix of this name found there (case-insensitively) is
  /// replaced by a pointer. Pass nullptr to disable compression. The
  /// suffixes this call writes in place at offsets < 0x4000 are appended to
  /// `offsets`.
  void encode(net::ByteWriter& writer, NameOffsets* offsets = nullptr) const;

  /// encode() through a cursor with room for wire_length() more bytes: the
  /// uncompressed prefix goes out in one copy, then at most one pointer.
  void encode(net::ByteCursor& out, NameOffsets* offsets) const;

  /// The labels, leftmost first, as views into this name.
  [[nodiscard]] Labels labels() const {
    return {LabelIterator(data()), LabelIterator(data() + size_ - 1), label_count_};
  }
  [[nodiscard]] bool is_root() const { return label_count_ == 0; }
  [[nodiscard]] std::size_t label_count() const { return label_count_; }

  /// The uncompressed wire form, root byte included: byte-exact (original
  /// case), so two names with equal wire() are identical, not just equal.
  [[nodiscard]] std::span<const std::uint8_t> wire() const { return {data(), size_}; }

  /// Encoded wire length in bytes (without compression).
  [[nodiscard]] std::size_t wire_length() const { return size_; }

  /// Presentation format; the root renders as ".".
  [[nodiscard]] std::string to_string() const;

  /// True when this name equals `other` or is a subdomain of it
  /// (case-insensitive). Every name is under the root.
  [[nodiscard]] bool is_subdomain_of(const DnsName& other) const;

  /// The name with the first label removed ("www.example.com" ->
  /// "example.com"). Throws InvalidArgument on the root.
  [[nodiscard]] DnsName parent() const;

  /// A copy with some letters' case swapped (DNS 0x20): `flip()` is called
  /// once per ASCII letter, in wire order, and that letter's case swaps
  /// when it returns true. The copy compares equal to this name.
  template <typename Flip>
  [[nodiscard]] DnsName with_swapped_case(Flip&& flip) const {
    DnsName out(*this);
    std::uint8_t* bytes = out.data();
    // Length bytes (<= 63) and the root byte are never letters, so the
    // whole buffer can be scanned without walking label boundaries.
    for (std::size_t i = 0; i < out.size_; ++i) {
      const std::uint8_t c = bytes[i];
      const bool letter = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
      if (letter && flip()) bytes[i] = static_cast<std::uint8_t>(c ^ 0x20);
    }
    return out;
  }

  /// Case-insensitive equality.
  friend bool operator==(const DnsName& a, const DnsName& b);
  friend std::strong_ordering operator<=>(const DnsName& a, const DnsName& b);

  /// Lowercased dotted form used as a canonical map key.
  [[nodiscard]] std::string canonical() const;

  /// canonical() written into `out` instead of a new string; the view is
  /// of `out`'s first bytes.
  [[nodiscard]] std::string_view canonical_into(std::span<char, kMaxWireLength> out) const;

  /// Case-insensitive hash: equal to std::hash<std::string> of canonical(),
  /// computed without building the string.
  [[nodiscard]] std::size_t hash() const noexcept;

 private:
  /// Adopts `size` wire bytes holding `label_count` labels; the bytes were
  /// validated by the caller.
  DnsName(const std::uint8_t* wire, std::size_t size, std::size_t label_count) {
    assign(wire, size, label_count);
  }

  [[nodiscard]] bool on_heap() const { return size_ > kInlineCapacity; }
  [[nodiscard]] std::uint8_t* heap() const {
    std::uint8_t* p = nullptr;
    std::memcpy(&p, inline_bytes_, sizeof p);
    return p;
  }
  [[nodiscard]] const std::uint8_t* data() const { return on_heap() ? heap() : inline_bytes_; }
  [[nodiscard]] std::uint8_t* data() { return on_heap() ? heap() : inline_bytes_; }

  /// Frees the heap block, if any; leaves the size fields stale.
  void release() noexcept {
    if (on_heap()) delete[] heap();
  }
  /// Copies `size` wire bytes in; the object must hold no heap block.
  void assign(const std::uint8_t* wire, std::size_t size, std::size_t label_count);
  /// Takes over `other`'s bytes or heap block; the object must hold no
  /// heap block. Inline: a message build or decode moves every name.
  void steal(DnsName& other) noexcept {
    size_ = other.size_;
    label_count_ = other.label_count_;
    // Either the heap pointer or the inline bytes; both live in inline_bytes_.
    net::copy_bytes(inline_bytes_, other.inline_bytes_,
                    on_heap() ? sizeof(std::uint8_t*) : size_);
    if (other.on_heap()) {  // the block is ours now: leave `other` the root
      other.size_ = 1;
      other.label_count_ = 0;
      other.inline_bytes_[0] = 0;
    }
  }

  // The wire bytes when size_ <= kInlineCapacity; otherwise the first
  // sizeof(pointer) bytes hold the heap block's address. Bytes past size_
  // are never read, so they are left uninitialized.
  std::uint8_t inline_bytes_[kInlineCapacity];
  std::uint8_t size_ = 1;
  std::uint8_t label_count_ = 0;
};

static_assert(sizeof(DnsName) <= 64, "DnsName must stay one cache line");

}  // namespace drongo::dns

template <>
struct std::hash<drongo::dns::DnsName> {
  std::size_t operator()(const drongo::dns::DnsName& n) const noexcept { return n.hash(); }
};
