#include "net/bytes.hpp"

#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "net/error.hpp"

namespace drongo::net {
namespace {

TEST(ByteWriterTest, WritesBigEndian) {
  ByteWriter w;
  w.write_u8(0x01);
  w.write_u16(0x0203);
  w.write_u32(0x04050607);
  const auto& bytes = w.bytes();
  ASSERT_EQ(bytes.size(), 7u);
  for (std::size_t i = 0; i < 7; ++i) {
    EXPECT_EQ(bytes[i], i + 1);
  }
}

TEST(ByteWriterTest, PatchOverwritesInPlace) {
  ByteWriter w;
  w.write_u16(0);
  w.write_u32(0xAABBCCDD);
  w.patch_u16(0, 0x1234);
  EXPECT_EQ(w.bytes()[0], 0x12);
  EXPECT_EQ(w.bytes()[1], 0x34);
  EXPECT_EQ(w.bytes()[2], 0xAA);
}

TEST(ByteWriterTest, PatchOutOfRangeThrows) {
  ByteWriter w;
  w.write_u8(1);
  EXPECT_THROW(w.patch_u16(0, 7), BoundsError);  // needs 2 bytes, only 1 present
  EXPECT_THROW(w.patch_u16(5, 7), BoundsError);
}

TEST(ByteWriterTest, StringAndBytesAppend) {
  ByteWriter w;
  w.write_string("abc");
  const std::uint8_t raw[] = {1, 2};
  w.write_bytes(raw);
  EXPECT_EQ(w.size(), 5u);
  auto taken = w.take();
  EXPECT_EQ(taken.size(), 5u);
  EXPECT_EQ(taken[0], 'a');
  EXPECT_EQ(taken[4], 2);
}

TEST(ByteCursorTest, WritesBigEndianAndRefusesToPassTheEnd) {
  std::vector<std::uint8_t> buffer(10, 0xEE);
  ByteCursor c{std::span(buffer).first(9), 1};  // byte 0 was written before
  c.write_u8(0x01);
  c.write_u16(0x0203);
  c.write_u32(0x04050607);
  EXPECT_EQ(c.position(), 8u);
  EXPECT_EQ(c.written().size(), 8u);
  EXPECT_THROW(c.write_u16(0x0809), BoundsError);  // one byte left
  const std::uint8_t two[] = {8, 9};
  EXPECT_THROW(c.write_bytes(two), BoundsError);
  EXPECT_EQ(c.position(), 8u);
  c.write_string("x");
  c.patch_u16(1, 0xAABB);
  EXPECT_THROW(c.patch_u16(8, 0), BoundsError);  // past what was written
  EXPECT_EQ(buffer, (std::vector<std::uint8_t>{0xEE, 0xAA, 0xBB, 3, 4, 5, 6, 7, 'x', 0xEE}));
}

TEST(ByteWriterTest, ExtendThenFinishKeepsWhatTheCursorWrote) {
  ByteWriter w;
  w.write_u8(1);
  ByteCursor c = w.extend(10);
  c.write_u16(0x0203);
  w.finish(c);
  EXPECT_EQ(w.bytes(), (std::vector<std::uint8_t>{1, 2, 3}));
}

TEST(CopyBytesTest, CopiesEveryLengthExactly) {
  std::vector<std::uint8_t> source(40);
  for (std::size_t i = 0; i < source.size(); ++i) source[i] = static_cast<std::uint8_t>(i + 1);
  for (std::size_t n = 0; n <= 32; ++n) {
    std::vector<std::uint8_t> target(40, 0);
    copy_bytes(target.data() + 1, source.data(), n);
    for (std::size_t i = 0; i < target.size(); ++i) {
      const std::uint8_t want = i >= 1 && i <= n ? source[i - 1] : 0;
      ASSERT_EQ(target[i], want) << "n " << n << " byte " << i;
    }
  }
}

TEST(ByteReaderTest, RoundTripsWriterOutput) {
  ByteWriter w;
  w.write_u8(0xFE);
  w.write_u16(0xBEEF);
  w.write_u32(0xDEADBEEF);
  w.write_string("hello");
  const auto bytes = w.take();

  ByteReader r(bytes);
  EXPECT_EQ(r.read_u8(), 0xFE);
  EXPECT_EQ(r.read_u16(), 0xBEEF);
  EXPECT_EQ(r.read_u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.read_string(5), "hello");
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(ByteReaderTest, OverrunThrowsNotCrashes) {
  const std::uint8_t bytes[] = {1, 2, 3};
  ByteReader r(bytes);
  EXPECT_EQ(r.read_u16(), 0x0102);
  EXPECT_THROW(r.read_u16(), BoundsError);
  // Cursor did not advance on the failed read.
  EXPECT_EQ(r.read_u8(), 3);
  EXPECT_THROW(r.read_u8(), BoundsError);
}

TEST(ByteReaderTest, SeekAndSkip) {
  const std::uint8_t bytes[] = {10, 20, 30, 40};
  ByteReader r(bytes);
  r.skip(2);
  EXPECT_EQ(r.read_u8(), 30);
  r.seek(0);
  EXPECT_EQ(r.read_u8(), 10);
  r.seek(4);  // end is a valid seek target
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_THROW(r.seek(5), BoundsError);
  EXPECT_THROW(r.skip(1), BoundsError);
}

TEST(ByteReaderTest, ReadBytesReturnsExactSlice) {
  const std::uint8_t bytes[] = {9, 8, 7, 6, 5};
  ByteReader r(bytes);
  r.skip(1);
  auto slice = r.read_bytes(3);
  ASSERT_EQ(slice.size(), 3u);
  EXPECT_EQ(slice[0], 8);
  EXPECT_EQ(slice[2], 6);
  EXPECT_EQ(r.remaining(), 1u);
}

TEST(ByteReaderTest, EmptyBufferBehaves) {
  ByteReader r({});
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_THROW(r.read_u8(), BoundsError);
  auto empty = r.read_bytes(0);
  EXPECT_TRUE(empty.empty());
}

}  // namespace
}  // namespace drongo::net
