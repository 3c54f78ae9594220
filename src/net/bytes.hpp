// Bounds-checked big-endian byte buffer reader, cursor and writer.
//
// The fixed-width primitives are defined here, in the header: every DNS
// decode and encode runs through them dozens of times per message, so they
// inline into the codec. Each keeps its bounds check; only building the
// exception is out of line, in a cold function.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
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
/// Throws the BoundsError for a write of `wanted` bytes at `position` into
/// a buffer of `size` bytes.
[[noreturn]] [[gnu::cold]] void throw_full(std::size_t wanted, std::size_t position,
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

/// Copies `n` bytes between buffers that do not overlap, eight at a time
/// (the last word overlapping the one before it). Codec copies have sizes
/// the compiler can bound (a name's length is a byte), and GCC expands a
/// bounded memcpy of that kind into `rep movsq`, which costs 11-13 ns
/// whatever the size on some x86 hosts; this stays plain moves.
inline void copy_bytes(std::uint8_t* dst, const std::uint8_t* src, std::size_t n) {
  if (n < 8) {
    for (std::size_t i = 0; i < n; ++i) dst[i] = src[i];
    return;
  }
  std::uint64_t word = 0;
  const std::size_t last = n - 8;
  for (std::size_t i = 0; i < last; i += 8) {
    std::memcpy(&word, src + i, 8);
    std::memcpy(dst + i, &word, 8);
  }
  std::memcpy(&word, src + last, 8);
  std::memcpy(dst + last, &word, 8);
}

/// Big-endian write cursor over a buffer sized in advance for everything
/// written through it: the DNS encoder sizes a message's wire once, from
/// its uncompressed length, and then writes without growing anything. A
/// write past the end throws BoundsError, like a read past it.
class ByteCursor {
 public:
  /// Writes into `buffer` from offset `position` on; the bytes before it
  /// are the message written so far, which name compression reads back.
  ByteCursor(std::span<std::uint8_t> buffer, std::size_t position)
      : data_(buffer.data()), size_(buffer.size()), pos_(position) {}

  [[nodiscard]] std::size_t position() const { return pos_; }

  /// The bytes before the cursor.
  [[nodiscard]] std::span<const std::uint8_t> written() const { return {data_, pos_}; }

  // Each write assembles its bytes locally and stores them with one
  // memcpy: a byte store through data_ may alias this cursor's own fields,
  // so storing byte by byte would reload them after every byte.

  void write_u8(std::uint8_t v) {
    require(1);
    data_[pos_++] = v;
  }

  void write_u16(std::uint16_t v) {
    require(2);
    const std::uint8_t be[2] = {static_cast<std::uint8_t>(v >> 8), static_cast<std::uint8_t>(v)};
    std::memcpy(data_ + pos_, be, sizeof be);
    pos_ += sizeof be;
  }

  void write_u32(std::uint32_t v) {
    require(4);
    const std::uint8_t be[4] = {static_cast<std::uint8_t>(v >> 24),
                                static_cast<std::uint8_t>(v >> 16),
                                static_cast<std::uint8_t>(v >> 8), static_cast<std::uint8_t>(v)};
    std::memcpy(data_ + pos_, be, sizeof be);
    pos_ += sizeof be;
  }

  void write_bytes(std::span<const std::uint8_t> bytes) {
    require(bytes.size());
    copy_bytes(data_ + pos_, bytes.data(), bytes.size());
    pos_ += bytes.size();
  }

  void write_string(std::string_view s) {
    write_bytes({reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
  }

  /// Overwrites the u16 written at `offset` (an RDATA length, once the
  /// RDATA is written).
  void patch_u16(std::size_t offset, std::uint16_t v) {
    if (offset + 2 > pos_) detail::throw_full(2, offset, pos_);
    const std::uint8_t be[2] = {static_cast<std::uint8_t>(v >> 8), static_cast<std::uint8_t>(v)};
    std::memcpy(data_ + offset, be, sizeof be);
  }

 private:
  void require(std::size_t n) const {
    if (size_ - pos_ < n) detail::throw_full(n, pos_, size_);
  }

  std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_;
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

  /// Grows the buffer by `n` bytes and returns a cursor at the old end;
  /// finish() then trims the buffer to what the cursor wrote. Encoders that
  /// know their largest size write through the cursor.
  ByteCursor extend(std::size_t n) {
    const std::size_t at = out_.size();
    out_.resize(at + n);
    return ByteCursor(out_, at);
  }
  void finish(const ByteCursor& cursor) { out_.resize(cursor.position()); }

  /// Overwrites a previously written u16 at `offset` (e.g. to patch an RDATA
  /// length after writing the RDATA). Throws BoundsError if out of range.
  void patch_u16(std::size_t offset, std::uint16_t v);

 private:
  std::vector<std::uint8_t> out_;
};

}  // namespace drongo::net
