// DNS domain names: presentation format, wire format, compression.
#pragma once

#include <compare>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "net/bytes.hpp"

namespace drongo::dns {

/// Compression state threaded through one message encode: the buffer
/// offsets where a name suffix was first written, in write order. The table
/// stores no names: a probe compares the candidate suffix label by label,
/// case-insensitively, against the wire bytes already at each offset,
/// following compression pointers.
using NameOffsets = std::vector<std::uint16_t>;

/// A DNS domain name: an ordered sequence of labels.
///
/// Invariants (enforced at construction): each label is 1..63 bytes, total
/// encoded length <= 255 bytes. Comparison and hashing are case-insensitive
/// per RFC 1035 §2.3.3; the original case is preserved for display.
class DnsName {
 public:
  /// The root name (zero labels).
  DnsName() = default;

  /// Builds from explicit labels. Throws ParseError on invariant violations.
  explicit DnsName(std::vector<std::string> labels);

  /// Parses presentation format ("www.example.com", trailing dot optional,
  /// "." is the root). Returns nullopt on malformed input (empty label,
  /// label > 63 bytes, name > 255 bytes).
  static std::optional<DnsName> parse(std::string_view text);

  /// Like parse() but throws ParseError.
  static DnsName must_parse(std::string_view text);

  /// Decodes a wire-format name starting at the reader's cursor, following
  /// compression pointers (RFC 1035 §4.1.4). The cursor advances past the
  /// in-place portion only. Throws ParseError on pointer loops, forward
  /// pointers, or truncation.
  static DnsName decode(net::ByteReader& reader);

  /// Encodes in wire format, compressing against names already written:
  /// `offsets` lists where earlier suffixes start in `writer`'s buffer, and
  /// the longest suffix of this name found there (case-insensitively) is
  /// replaced by a pointer. Pass nullptr to disable compression. The
  /// suffixes this call writes in place at offsets < 0x4000 are appended to
  /// `offsets`.
  void encode(net::ByteWriter& writer, NameOffsets* offsets = nullptr) const;

  [[nodiscard]] const std::vector<std::string>& labels() const { return labels_; }
  [[nodiscard]] bool is_root() const { return labels_.empty(); }
  [[nodiscard]] std::size_t label_count() const { return labels_.size(); }

  /// Encoded wire length in bytes (without compression).
  [[nodiscard]] std::size_t wire_length() const;

  /// Presentation format; the root renders as ".".
  [[nodiscard]] std::string to_string() const;

  /// True when this name equals `other` or is a subdomain of it
  /// (case-insensitive). Every name is under the root.
  [[nodiscard]] bool is_subdomain_of(const DnsName& other) const;

  /// The name with the first label removed ("www.example.com" ->
  /// "example.com"). Throws InvalidArgument on the root.
  [[nodiscard]] DnsName parent() const;

  /// Case-insensitive equality.
  friend bool operator==(const DnsName& a, const DnsName& b);
  friend std::strong_ordering operator<=>(const DnsName& a, const DnsName& b);

  /// Lowercased dotted form used as a canonical map key.
  [[nodiscard]] std::string canonical() const;

 private:
  void check_invariants() const;

  std::vector<std::string> labels_;
};

}  // namespace drongo::dns

template <>
struct std::hash<drongo::dns::DnsName> {
  std::size_t operator()(const drongo::dns::DnsName& n) const noexcept {
    return std::hash<std::string>{}(n.canonical());
  }
};
