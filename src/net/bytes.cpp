#include "net/bytes.hpp"

#include "net/error.hpp"

namespace drongo::net {

void ByteReader::require(std::size_t n) const {
  if (remaining() < n) {
    throw BoundsError("read of " + std::to_string(n) + " bytes at offset " +
                      std::to_string(pos_) + " overruns buffer of " +
                      std::to_string(data_.size()));
  }
}

void ByteReader::seek(std::size_t offset) {
  if (offset > data_.size()) {
    throw BoundsError("seek to " + std::to_string(offset) + " outside buffer of " +
                      std::to_string(data_.size()));
  }
  pos_ = offset;
}

void ByteReader::skip(std::size_t n) {
  require(n);
  pos_ += n;
}

std::uint8_t ByteReader::read_u8() {
  require(1);
  return data_[pos_++];
}

std::uint16_t ByteReader::read_u16() {
  require(2);
  auto v = static_cast<std::uint16_t>((std::uint16_t{data_[pos_]} << 8) | data_[pos_ + 1]);
  pos_ += 2;
  return v;
}

std::uint32_t ByteReader::read_u32() {
  require(4);
  std::uint32_t v = (std::uint32_t{data_[pos_]} << 24) | (std::uint32_t{data_[pos_ + 1]} << 16) |
                    (std::uint32_t{data_[pos_ + 2]} << 8) | std::uint32_t{data_[pos_ + 3]};
  pos_ += 4;
  return v;
}

std::vector<std::uint8_t> ByteReader::read_bytes(std::size_t n) {
  require(n);
  std::vector<std::uint8_t> out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
                                data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return out;
}

std::span<const std::uint8_t> ByteReader::read_span(std::size_t n) {
  require(n);
  const auto out = data_.subspan(pos_, n);
  pos_ += n;
  return out;
}

std::string ByteReader::read_string(std::size_t n) {
  require(n);
  std::string out(reinterpret_cast<const char*>(data_.data() + pos_), n);
  pos_ += n;
  return out;
}

void ByteWriter::write_u8(std::uint8_t v) { out_.push_back(v); }

void ByteWriter::write_u16(std::uint16_t v) {
  out_.push_back(static_cast<std::uint8_t>(v >> 8));
  out_.push_back(static_cast<std::uint8_t>(v));
}

void ByteWriter::write_u32(std::uint32_t v) {
  out_.push_back(static_cast<std::uint8_t>(v >> 24));
  out_.push_back(static_cast<std::uint8_t>(v >> 16));
  out_.push_back(static_cast<std::uint8_t>(v >> 8));
  out_.push_back(static_cast<std::uint8_t>(v));
}

void ByteWriter::write_bytes(std::span<const std::uint8_t> data) {
  out_.insert(out_.end(), data.begin(), data.end());
}

void ByteWriter::write_string(std::string_view s) {
  out_.insert(out_.end(), s.begin(), s.end());
}

void ByteWriter::patch_u16(std::size_t offset, std::uint16_t v) {
  if (offset + 2 > out_.size()) {
    throw BoundsError("patch_u16 at " + std::to_string(offset) + " outside buffer of " +
                      std::to_string(out_.size()));
  }
  out_[offset] = static_cast<std::uint8_t>(v >> 8);
  out_[offset + 1] = static_cast<std::uint8_t>(v);
}

}  // namespace drongo::net
