// Bounds-checked big-endian byte buffer reader/writer.
//
// The fixed-width primitives are defined here, in the header: every DNS
// decode and encode runs through them dozens of times per message, so they
// inline into the codec. Each keeps its bounds check; only building the
// exception is out of line, in a cold function.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace drongo::net {

namespace detail {
/// Throws the BoundsError for a read of `wanted` bytes at `position` in a
/// buffer of `size` bytes. Out of line and cold: the check that calls it
/// stays a compare and a branch.
[[noreturn]] [[gnu::cold]] void throw_overrun(std::size_t wanted, std::size_t position,
                                              std::size_t size);
}  // namespace detail

/// Sequential bounds-checked reader over a byte span (network byte order).
///
/// All multi-byte reads are big-endian, matching DNS wire format. Reads past
/// the end throw `BoundsError` — malformed network input must never become
/// out-of-bounds memory access.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  /// Bytes remaining from the cursor to the end.
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }

  /// Current cursor position from the start of the buffer.
  [[nodiscard]] std::size_t position() const { return pos_; }

  /// Whole underlying buffer (used by DNS name decompression, which must
  /// follow pointers to earlier offsets).
  [[nodiscard]] std::span<const std::uint8_t> buffer() const { return data_; }

  /// Moves the cursor to an absolute offset. Throws BoundsError if outside
  /// the buffer.
  void seek(std::size_t offset);

  /// Skips `n` bytes.
  void skip(std::size_t n) {
    require(n);
    pos_ += n;
  }

  std::uint8_t read_u8() {
    require(1);
    return data_[pos_++];
  }

  std::uint16_t read_u16() {
    require(2);
    const auto v =
        static_cast<std::uint16_t>((std::uint16_t{data_[pos_]} << 8) | data_[pos_ + 1]);
    pos_ += 2;
    return v;
  }

  std::uint32_t read_u32() {
    require(4);
    const std::uint32_t v =
        (std::uint32_t{data_[pos_]} << 24) | (std::uint32_t{data_[pos_ + 1]} << 16) |
        (std::uint32_t{data_[pos_ + 2]} << 8) | std::uint32_t{data_[pos_ + 3]};
    pos_ += 4;
    return v;
  }

  /// Reads `n` raw bytes.
  std::vector<std::uint8_t> read_bytes(std::size_t n);

  /// Reads `n` raw bytes as a view into the underlying buffer (no copy).
  std::span<const std::uint8_t> read_span(std::size_t n) {
    require(n);
    const auto out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

  /// Reads `n` bytes as a string.
  std::string read_string(std::size_t n);

 private:
  void require(std::size_t n) const {
    if (remaining() < n) detail::throw_overrun(n, pos_, data_.size());
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

/// Append-only big-endian writer backed by a growable vector.
class ByteWriter {
 public:
  ByteWriter() = default;

  /// Adopts `reuse` as the backing store, clearing its contents but keeping
  /// its capacity — hot encode paths hand the same vector back and forth via
  /// take() so steady-state serving allocates nothing per message.
  explicit ByteWriter(std::vector<std::uint8_t> reuse) : out_(std::move(reuse)) {
    out_.clear();
  }

  [[nodiscard]] std::size_t size() const { return out_.size(); }
  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const { return out_; }
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(out_); }

  void write_u8(std::uint8_t v) { out_.push_back(v); }

  void write_u16(std::uint16_t v) {
    out_.push_back(static_cast<std::uint8_t>(v >> 8));
    out_.push_back(static_cast<std::uint8_t>(v));
  }

  void write_u32(std::uint32_t v) {
    out_.push_back(static_cast<std::uint8_t>(v >> 24));
    out_.push_back(static_cast<std::uint8_t>(v >> 16));
    out_.push_back(static_cast<std::uint8_t>(v >> 8));
    out_.push_back(static_cast<std::uint8_t>(v));
  }

  void write_bytes(std::span<const std::uint8_t> data) {
    out_.insert(out_.end(), data.begin(), data.end());
  }

  void write_string(std::string_view s) { out_.insert(out_.end(), s.begin(), s.end()); }

  /// Overwrites a previously written u16 at `offset` (e.g. to patch an RDATA
  /// length after writing the RDATA). Throws BoundsError if out of range.
  void patch_u16(std::size_t offset, std::uint16_t v);

 private:
  std::vector<std::uint8_t> out_;
};

}  // namespace drongo::net
