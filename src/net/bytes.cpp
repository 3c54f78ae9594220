#include "net/bytes.hpp"

#include "net/error.hpp"

namespace drongo::net {

namespace detail {

void throw_overrun(std::size_t wanted, std::size_t position, std::size_t size) {
  throw BoundsError("read of " + std::to_string(wanted) + " bytes at offset " +
                    std::to_string(position) + " overruns buffer of " + std::to_string(size));
}

void throw_full(std::size_t wanted, std::size_t position, std::size_t size) {
  throw BoundsError("write of " + std::to_string(wanted) + " bytes at offset " +
                    std::to_string(position) + " overruns buffer of " + std::to_string(size));
}

}  // namespace detail

void ByteReader::seek(std::size_t offset) {
  if (offset > data_.size()) {
    throw BoundsError("seek to " + std::to_string(offset) + " outside buffer of " +
                      std::to_string(data_.size()));
  }
  pos_ = offset;
}

std::vector<std::uint8_t> ByteReader::read_bytes(std::size_t n) {
  require(n);
  std::vector<std::uint8_t> out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
                                data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return out;
}

std::string ByteReader::read_string(std::size_t n) {
  require(n);
  std::string out(reinterpret_cast<const char*>(data_.data() + pos_), n);
  pos_ += n;
  return out;
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
