#include "dns/name.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "net/error.hpp"

namespace drongo::dns {
namespace {

TEST(DnsNameTest, ParsePresentation) {
  auto name = DnsName::parse("www.example.com");
  ASSERT_TRUE(name.has_value());
  EXPECT_EQ(name->label_count(), 3u);
  EXPECT_EQ(name->to_string(), "www.example.com");
}

TEST(DnsNameTest, TrailingDotIsOptional) {
  EXPECT_EQ(DnsName::must_parse("example.com."), DnsName::must_parse("example.com"));
}

TEST(DnsNameTest, RootName) {
  auto root = DnsName::parse(".");
  ASSERT_TRUE(root.has_value());
  EXPECT_TRUE(root->is_root());
  EXPECT_EQ(root->to_string(), ".");
  EXPECT_EQ(root->wire_length(), 1u);
}

TEST(DnsNameTest, RejectsMalformed) {
  EXPECT_FALSE(DnsName::parse("").has_value());
  EXPECT_FALSE(DnsName::parse("a..b").has_value());
  EXPECT_FALSE(DnsName::parse(std::string(64, 'x') + ".com").has_value());  // label > 63
  // Total name > 255 bytes.
  std::string long_name;
  for (int i = 0; i < 50; ++i) long_name += "abcde.";
  long_name += "com";
  EXPECT_FALSE(DnsName::parse(long_name).has_value());
}

TEST(DnsNameTest, MaxLabelLengthAccepted) {
  const std::string label(63, 'a');
  EXPECT_TRUE(DnsName::parse(label + ".com").has_value());
}

TEST(DnsNameTest, CaseInsensitiveEqualityAndHash) {
  const DnsName a = DnsName::must_parse("WWW.Example.COM");
  const DnsName b = DnsName::must_parse("www.example.com");
  EXPECT_EQ(a, b);
  EXPECT_EQ(std::hash<DnsName>{}(a), std::hash<DnsName>{}(b));
  // Original case preserved for display.
  EXPECT_EQ(a.to_string(), "WWW.Example.COM");
}

TEST(DnsNameTest, EqualityFoldsOnlyAsciiLettersForEveryBytePair) {
  // Equality compares eight bytes at a time; a byte-wise fold of 'A'-'Z'
  // is the reference. Every pair of label bytes is placed at the first and
  // last byte of labels whose names are 7, 8, 9, 16 and 17 wire bytes long,
  // covering the byte-wise path, the overlapping last word and the words
  // before it.
  const auto fold = [](int c) { return c >= 'A' && c <= 'Z' ? c + ('a' - 'A') : c; };
  for (const std::size_t length : {5u, 6u, 7u, 14u, 15u}) {
    std::vector<std::string> x = {std::string(length, 'q')};
    std::vector<std::string> y = x;
    for (const std::size_t at : {std::size_t{0}, length - 1}) {
      for (int a = 0; a < 256; ++a) {
        for (int b = 0; b < 256; ++b) {
          x[0][at] = static_cast<char>(a);
          y[0][at] = static_cast<char>(b);
          ASSERT_EQ(DnsName(x) == DnsName(y), fold(a) == fold(b))
              << "bytes " << a << " and " << b << " at " << at << " of " << length;
        }
      }
      x[0][at] = y[0][at] = 'q';
    }
  }
}

TEST(DnsNameTest, WireRoundTripWithoutCompression) {
  const DnsName name = DnsName::must_parse("img.googlecdn.sim");
  net::ByteWriter w;
  name.encode(w, nullptr);
  EXPECT_EQ(w.size(), name.wire_length());

  const auto bytes = w.take();
  net::ByteReader r(bytes);
  EXPECT_EQ(DnsName::decode(r), name);
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(DnsNameTest, CompressionReusesSuffixes) {
  NameOffsets offsets;
  net::ByteWriter w;
  DnsName::must_parse("www.example.com").encode(w, &offsets);
  const std::size_t first = w.size();
  DnsName::must_parse("mail.example.com").encode(w, &offsets);
  // The second name writes "mail" (5 bytes) plus a 2-byte pointer.
  EXPECT_EQ(w.size() - first, 5u + 2u);

  // Both decode correctly from the shared buffer.
  const auto bytes = w.bytes();
  net::ByteReader r(bytes);
  EXPECT_EQ(DnsName::decode(r).to_string(), "www.example.com");
  EXPECT_EQ(DnsName::decode(r).to_string(), "mail.example.com");
}

TEST(DnsNameTest, CompressionIsCaseInsensitive) {
  NameOffsets offsets;
  net::ByteWriter w;
  DnsName::must_parse("a.EXAMPLE.com").encode(w, &offsets);
  const std::size_t first = w.size();
  DnsName::must_parse("b.example.COM").encode(w, &offsets);
  EXPECT_EQ(w.size() - first, 2u + 2u);  // "b" + pointer
}

TEST(DnsNameTest, DecodeRejectsForwardPointer) {
  // Pointer to offset 4 from offset 0 — forward, must be rejected.
  const std::uint8_t wire[] = {0xC0, 0x04, 0x00, 0x00, 0x01, 'x', 0x00};
  net::ByteReader r(wire);
  EXPECT_THROW(DnsName::decode(r), net::ParseError);
}

TEST(DnsNameTest, DecodeRejectsSelfPointerLoop) {
  // Name at offset 2 pointing to itself.
  const std::uint8_t wire[] = {0x00, 0x00, 0xC0, 0x02};
  net::ByteReader r(wire);
  r.seek(2);
  EXPECT_THROW(DnsName::decode(r), net::ParseError);
}

TEST(DnsNameTest, DecodeRejectsTruncatedLabel) {
  const std::uint8_t wire[] = {5, 'a', 'b'};  // label claims 5 bytes, has 2
  net::ByteReader r(wire);
  // Truncation surfaces as a bounds violation (both are net::Error).
  EXPECT_THROW(DnsName::decode(r), net::Error);
}

TEST(DnsNameTest, DecodeRejectsReservedLabelType) {
  const std::uint8_t wire[] = {0x80, 'a', 0x00};  // 10xxxxxx is reserved
  net::ByteReader r(wire);
  EXPECT_THROW(DnsName::decode(r), net::ParseError);
}

TEST(DnsNameTest, SubdomainRelation) {
  const DnsName zone = DnsName::must_parse("cdn.example");
  EXPECT_TRUE(DnsName::must_parse("img.cdn.example").is_subdomain_of(zone));
  EXPECT_TRUE(zone.is_subdomain_of(zone));
  EXPECT_TRUE(zone.is_subdomain_of(DnsName()));  // everything under root
  EXPECT_FALSE(DnsName::must_parse("cdn.other").is_subdomain_of(zone));
  EXPECT_FALSE(DnsName::must_parse("xcdn.example").is_subdomain_of(zone));
  EXPECT_TRUE(DnsName::must_parse("IMG.CDN.Example").is_subdomain_of(zone));
}

TEST(DnsNameTest, ParentStripsFirstLabel) {
  EXPECT_EQ(DnsName::must_parse("a.b.c").parent().to_string(), "b.c");
  EXPECT_THROW(DnsName().parent(), net::InvalidArgument);
}

TEST(DnsNameTest, OrderingIsCaseInsensitiveLexicographic) {
  EXPECT_LT(DnsName::must_parse("aaa.com"), DnsName::must_parse("bbb.com"));
  EXPECT_EQ(DnsName::must_parse("AAA.com") <=> DnsName::must_parse("aaa.COM"),
            std::strong_ordering::equal);
  EXPECT_LT(DnsName::must_parse("a.com"), DnsName::must_parse("a.com.extra"));
}

// ---- Inline/heap storage edges ----------------------------------------------

/// A presentation name whose wire form is exactly `wire_length` bytes, made
/// of 63-byte labels (the last one shorter).
std::string sized_name(std::size_t wire_length) {
  std::string text;
  std::size_t left = wire_length - 1;  // minus the root byte
  char fill = 'a';
  while (left > 0) {
    std::size_t label = std::min<std::size_t>(DnsName::kMaxLabelLength, left - 1);
    if (left - (label + 1) == 1) --label;  // never leave room for just a length byte
    if (!text.empty()) text.push_back('.');
    text.append(label, fill++);
    left -= label + 1;
  }
  return text;
}

class NameAtInlineEdge : public ::testing::TestWithParam<std::size_t> {};

TEST_P(NameAtInlineEdge, ParsesEncodesAndDecodesAtEveryLength) {
  const std::string text = sized_name(GetParam());
  const DnsName name = DnsName::must_parse(text);
  EXPECT_EQ(name.wire_length(), GetParam());
  EXPECT_EQ(name.wire().size(), GetParam());
  EXPECT_EQ(name.to_string(), text);
  net::ByteWriter w;
  name.encode(w);
  const auto bytes = w.take();
  EXPECT_TRUE(std::equal(bytes.begin(), bytes.end(), name.wire().begin(), name.wire().end()));
  net::ByteReader r(bytes);
  const DnsName back = DnsName::decode(r);
  EXPECT_EQ(back, name);
  EXPECT_EQ(back.to_string(), text);
  EXPECT_EQ(back.label_count(), name.label_count());
  const std::size_t dot = text.find('.');
  EXPECT_EQ(back.parent(),
            dot == std::string::npos ? DnsName() : DnsName::must_parse(text.substr(dot + 1)));
}

INSTANTIATE_TEST_SUITE_P(
    Lengths, NameAtInlineEdge,
    ::testing::Values(DnsName::kInlineCapacity - 1, DnsName::kInlineCapacity,
                      DnsName::kInlineCapacity + 1, DnsName::kMaxWireLength));

TEST(DnsNameTest, MaximumNameFromFullLabels) {
  // 3 x 63-byte labels + a 61-byte label: 3 * 64 + 62 + 1 = 255 bytes.
  const std::string text = sized_name(DnsName::kMaxWireLength);
  const DnsName name = DnsName::must_parse(text);
  std::vector<std::string> labels(name.labels().begin(), name.labels().end());
  EXPECT_EQ(labels.size(), 4u);
  EXPECT_EQ(labels.front().size(), 63u);
  EXPECT_EQ(labels.back().size(), 61u);
  EXPECT_FALSE(DnsName::parse("x" + text).has_value());  // 256 bytes
  EXPECT_EQ(DnsName(labels), name);
  labels.back().push_back('x');
  EXPECT_THROW(DnsName{labels}, net::ParseError);
}

TEST(DnsNameTest, MixedCaseAcrossTheInlineBoundary) {
  // One heap-sized name twice, the letters on either side of the inline
  // capacity in opposite cases.
  const std::string text = std::string(50, 'a') + ".bbbbbbbbbbbb.cdn.sim";
  std::string shouted = text;
  for (std::size_t i = DnsName::kInlineCapacity - 8; i < DnsName::kInlineCapacity + 8; ++i) {
    if (shouted[i] != '.') shouted[i] = static_cast<char>(shouted[i] - 'a' + 'A');
  }
  const auto lower = DnsName::must_parse(text);
  const auto mixed = DnsName::must_parse(shouted);
  ASSERT_GT(lower.wire_length(), DnsName::kInlineCapacity);
  EXPECT_NE(lower.to_string(), mixed.to_string());
  EXPECT_EQ(lower, mixed);
  EXPECT_EQ(lower <=> mixed, std::strong_ordering::equal);
  EXPECT_EQ(std::hash<DnsName>{}(lower), std::hash<DnsName>{}(mixed));
  EXPECT_EQ(lower.canonical(), text);
  EXPECT_EQ(mixed.canonical(), text);
  // Its parent is inline: the subdomain relation and compression both
  // cross storage kinds, case-insensitively.
  const DnsName suffix = mixed.parent();
  ASSERT_LE(suffix.wire_length(), DnsName::kInlineCapacity);
  EXPECT_TRUE(lower.is_subdomain_of(suffix));
  EXPECT_FALSE(suffix.is_subdomain_of(lower));
  NameOffsets offsets;
  net::ByteWriter w;
  suffix.encode(w, &offsets);
  const std::size_t first = w.size();
  lower.encode(w, &offsets);
  EXPECT_EQ(w.size() - first, 1u + 50u + 2u);  // the first label, then a pointer
}

TEST(DnsNameTest, CopyMoveAndSelfAssignmentAcrossStorage) {
  const DnsName small = DnsName::must_parse("img.cdn.sim");
  const DnsName big = DnsName::must_parse(sized_name(DnsName::kInlineCapacity + 1));
  const DnsName bigger = DnsName::must_parse(sized_name(DnsName::kMaxWireLength));

  DnsName a = small;
  a = big;  // inline <- heap
  EXPECT_EQ(a, big);
  a = bigger;  // heap <- larger heap
  EXPECT_EQ(a, bigger);
  a = bigger;  // heap <- same-size heap
  EXPECT_EQ(a, bigger);
  a = small;  // heap <- inline
  EXPECT_EQ(a, small);
  EXPECT_EQ(a.to_string(), "img.cdn.sim");

  DnsName b = big;
  DnsName c = std::move(b);  // heap move steals the block
  EXPECT_EQ(c, big);
  b = small;  // a moved-from name is assignable
  EXPECT_EQ(b, small);
  DnsName d = small;
  d = std::move(c);  // inline <- heap by move
  EXPECT_EQ(d, big);
  c = std::move(d);
  EXPECT_EQ(c, big);
  DnsName e = std::move(b);  // inline move
  EXPECT_EQ(e, small);

  DnsName& self = c;
  c = self;  // self copy-assignment
  EXPECT_EQ(c, big);
  c = std::move(self);  // self move-assignment
  EXPECT_EQ(c, big);
  DnsName& small_self = e;
  e = small_self;
  e = std::move(small_self);
  EXPECT_EQ(e, small);
}

TEST(DnsNameTest, LabelViews) {
  const DnsName name = DnsName::must_parse("www.Example.com");
  const std::vector<std::string_view> labels(name.labels().begin(), name.labels().end());
  EXPECT_EQ(labels, (std::vector<std::string_view>{"www", "Example", "com"}));
  EXPECT_EQ(name.labels().size(), 3u);
  EXPECT_EQ(name.labels().front(), "www");
  EXPECT_TRUE(DnsName().labels().empty());
}

/// The presentation parser as it was when it split the text at each dot:
/// the labels go through the label-vector constructor, which applies the
/// same 63- and 255-byte limits.
std::optional<DnsName> reference_parse(std::string_view text) {
  if (text.empty()) return std::nullopt;
  if (text == ".") return DnsName();
  if (text.back() == '.') text.remove_suffix(1);
  std::vector<std::string> labels;
  for (;;) {
    const std::size_t dot = text.find('.');
    labels.emplace_back(text.substr(0, dot));
    if (dot == std::string_view::npos) break;
    text.remove_prefix(dot + 1);
  }
  try {
    return DnsName(labels);
  } catch (const net::ParseError&) {
    return std::nullopt;
  }
}

TEST(DnsNameTest, ParseMatchesTheSplittingReference) {
  // One pass over one copy of the text replaced a split per dot: every
  // accept, reject and wire byte must agree, at the label and name limits.
  const std::string l63(63, 'a');
  const std::string l64(64, 'b');
  std::vector<std::string> texts = {
      "", ".", "..", "a", "a.", "a..", ".a", "a..b", "A.b.C.", "x-1.Cdn.sim", l63, l64,
      l63 + ".x", l64 + ".x", "x." + l63, "x." + l64 + ".", "1.2.3.4.in-addr.arpa."};
  for (std::size_t length = 250; length <= 256; ++length) {
    texts.push_back(sized_name(length));
    texts.push_back(sized_name(length) + ".");
  }
  for (const std::string& text : texts) {
    const auto got = DnsName::parse(text);
    const auto want = reference_parse(text);
    ASSERT_EQ(got.has_value(), want.has_value()) << "'" << text << "'";
    if (got) {
      EXPECT_TRUE(std::ranges::equal(got->wire(), want->wire())) << "'" << text << "'";
      EXPECT_EQ(got->label_count(), want->label_count()) << "'" << text << "'";
    }
  }
}

TEST(DnsNameTest, SwappedCaseKeepsEqualityAndFlipsOnlyLetters) {
  const DnsName name = DnsName::must_parse("a-1.B2.cdn");
  const DnsName swapped = name.with_swapped_case([] { return true; });
  EXPECT_EQ(swapped.to_string(), "A-1.b2.CDN");
  EXPECT_EQ(swapped, name);
  int letters = 0;
  (void)name.with_swapped_case([&letters] {
    ++letters;
    return false;
  });
  EXPECT_EQ(letters, 5);
}

class NameRoundTrip : public ::testing::TestWithParam<const char*> {};

TEST_P(NameRoundTrip, PresentationWireAndBack) {
  const DnsName name = DnsName::must_parse(GetParam());
  net::ByteWriter w;
  name.encode(w);
  const auto bytes = w.take();
  net::ByteReader r(bytes);
  EXPECT_EQ(DnsName::decode(r), name);
  EXPECT_EQ(DnsName::must_parse(name.to_string()), name);
}

INSTANTIATE_TEST_SUITE_P(Various, NameRoundTrip,
                         ::testing::Values("a", "a.b", "img.static.cdn.example.com",
                                           "xn--idn.example", "123.456.test",
                                           "UPPER.lower.MiXeD"));

}  // namespace
}  // namespace drongo::dns
