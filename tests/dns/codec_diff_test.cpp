// Differential suite for DNS name compression: the offset-list encoder
// (DnsName::encode with NameOffsets) against a reference copy of the
// earlier encoder, which kept a std::map from the lowercased dotted suffix
// to its offset. Over a seeded corpus of messages (mixed case, CNAME chains,
// PTR answers, NS/SOA rdata, repeated labels, names past offset 0x4000,
// suffixes of equal length but other bytes, more offsets than NameOffsets
// holds inline, 0x20 owners against lowercase RDATA) the two must produce
// byte-identical wires. The one intended difference is the
// dotted-key conflation the reference has, covered by its own regression
// test below.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "dns/message.hpp"
#include "net/bytes.hpp"
#include "net/rng.hpp"

namespace drongo::dns {
namespace {

// ---- Reference encoder ----------------------------------------------------

using ReferenceOffsets = std::map<std::string, std::uint16_t, std::less<>>;

void reference_encode_name(const DnsName& name, net::ByteWriter& writer,
                           ReferenceOffsets& offsets) {
  std::string canonical;
  for (const std::string_view label : name.labels()) {
    if (!canonical.empty()) canonical.push_back('.');
    for (const char c : label) {
      canonical.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
    }
  }
  std::size_t suffix_start = 0;
  for (const std::string_view label : name.labels()) {
    const std::string_view suffix = std::string_view(canonical).substr(suffix_start);
    if (auto it = offsets.find(suffix); it != offsets.end()) {
      writer.write_u16(static_cast<std::uint16_t>(0xC000 | it->second));
      return;
    }
    if (writer.size() < 0x4000) {
      offsets.emplace(std::string(suffix), static_cast<std::uint16_t>(writer.size()));
    }
    writer.write_u8(static_cast<std::uint8_t>(label.size()));
    writer.write_string(label);
    suffix_start += label.size() + 1;
  }
  writer.write_u8(0);
}

void reference_encode_rr(const ResourceRecord& rr, net::ByteWriter& writer,
                         ReferenceOffsets& offsets) {
  reference_encode_name(rr.name, writer, offsets);
  writer.write_u16(static_cast<std::uint16_t>(rr.type));
  writer.write_u16(static_cast<std::uint16_t>(rr.klass));
  writer.write_u32(rr.ttl);
  const std::size_t rdlength_at = writer.size();
  writer.write_u16(0);
  const std::size_t rdata_start = writer.size();
  std::visit(
      [&](const auto& data) {
        using T = std::decay_t<decltype(data)>;
        if constexpr (std::is_same_v<T, ARdata>) {
          writer.write_u32(data.address.to_uint());
        } else if constexpr (std::is_same_v<T, CnameRdata>) {
          reference_encode_name(data.target, writer, offsets);
        } else if constexpr (std::is_same_v<T, NsRdata>) {
          reference_encode_name(data.nameserver, writer, offsets);
        } else if constexpr (std::is_same_v<T, PtrRdata>) {
          reference_encode_name(data.name, writer, offsets);
        } else if constexpr (std::is_same_v<T, TxtRdata>) {
          for (const auto& s : data.strings) {
            writer.write_u8(static_cast<std::uint8_t>(s.size()));
            writer.write_string(s);
          }
        } else if constexpr (std::is_same_v<T, SoaRdata>) {
          reference_encode_name(data.mname, writer, offsets);
          reference_encode_name(data.rname, writer, offsets);
          writer.write_u32(data.serial);
          writer.write_u32(data.refresh);
          writer.write_u32(data.retry);
          writer.write_u32(data.expire);
          writer.write_u32(data.minimum);
        } else if constexpr (std::is_same_v<T, RawRdata>) {
          writer.write_bytes(data.bytes);
        }
      },
      rr.rdata);
  writer.patch_u16(rdlength_at, static_cast<std::uint16_t>(writer.size() - rdata_start));
}

/// The reference wire of `m`. The header and the OPT record carry no names,
/// so they are taken from the library encoder: the first 12 bytes of m's
/// wire, and the tail of the wire of a message holding only m's EDNS block.
std::vector<std::uint8_t> reference_encode(const Message& m) {
  const std::vector<std::uint8_t> wire = m.encode();
  net::ByteWriter w;
  w.write_bytes(std::span(wire).first(12));
  ReferenceOffsets offsets;
  for (const auto& q : m.questions) {
    reference_encode_name(q.name, w, offsets);
    w.write_u16(static_cast<std::uint16_t>(q.type));
    w.write_u16(static_cast<std::uint16_t>(q.klass));
  }
  for (const auto* section : {&m.answers, &m.authority, &m.additional}) {
    for (const auto& rr : *section) reference_encode_rr(rr, w, offsets);
  }
  if (m.edns) {
    Message opt_only;
    opt_only.edns = m.edns;
    const std::vector<std::uint8_t> opt_wire = opt_only.encode();
    w.write_bytes(std::span(opt_wire).subspan(12));
  }
  return w.take();
}

// ---- Corpus -----------------------------------------------------------------

/// Labels drawn from a small pool so suffixes repeat across (and within)
/// names, each in a random case mix.
class NameSource {
 public:
  explicit NameSource(net::Rng& rng) : rng_(rng) {}

  std::string label() {
    static const char* const kPool[] = {"a",   "b",    "cdn", "sim", "www", "img",
                                        "x-1", "edge", "in",  "com", "aa",  "z9"};
    std::string out = kPool[rng_.index(std::size(kPool))];
    for (char& c : out) {
      if (rng_.chance(0.3)) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    }
    return out;
  }

  DnsName name(std::size_t max_labels = 5) {
    std::vector<std::string> labels(1 + rng_.index(max_labels));
    for (auto& l : labels) l = label();
    return DnsName(std::move(labels));
  }

  /// A name under `zone`: 1-3 labels prepended.
  DnsName under(const DnsName& zone) {
    std::vector<std::string> labels(1 + rng_.index(3));
    for (auto& l : labels) l = label();
    const DnsName::Labels zone_labels = zone.labels();
    labels.insert(labels.end(), zone_labels.begin(), zone_labels.end());
    return DnsName(std::move(labels));
  }

  DnsName reverse() {
    std::vector<std::string> labels;
    for (int i = 0; i < 4; ++i) labels.push_back(std::to_string(rng_.uniform(256)));
    labels.emplace_back(rng_.chance(0.5) ? "in-addr" : "IN-ADDR");
    labels.emplace_back("arpa");
    return DnsName(std::move(labels));
  }

 private:
  net::Rng& rng_;
};

Message random_message(net::Rng& rng) {
  NameSource names(rng);
  const DnsName zone = names.name(3);
  Message m;
  m.header.id = static_cast<std::uint16_t>(rng.uniform(65536));
  m.header.qr = true;
  const bool reverse = rng.chance(0.25);
  const DnsName qname = reverse ? names.reverse() : names.under(zone);
  m.questions.push_back({qname, reverse ? RrType::kPtr : RrType::kA, RrClass::kIn});

  if (reverse) {
    m.answers.push_back(ResourceRecord::ptr(qname, names.under(zone)));
  } else {
    // A CNAME chain of 0-3 links ending in A records.
    DnsName owner = qname;
    for (std::size_t link = rng.index(4); link > 0; --link) {
      DnsName target = rng.chance(0.5) ? names.under(zone) : names.name();
      m.answers.push_back(ResourceRecord::cname(owner, target));
      owner = std::move(target);
    }
    for (std::size_t k = 1 + rng.index(4); k > 0; --k) {
      m.answers.push_back(ResourceRecord::a(
          owner, net::Ipv4Addr(static_cast<std::uint32_t>(rng.next_u64())), 30));
    }
  }
  // Oversized TXT padding pushes later names past offset 0x4000, where new
  // suffixes may no longer be recorded but pointers back still apply.
  if (rng.chance(0.2)) {
    TxtRdata txt;
    for (std::size_t k = 64 + rng.index(16); k > 0; --k) txt.strings.emplace_back(255, 't');
    m.answers.push_back({names.under(zone), RrType::kTxt, RrClass::kIn, 60, std::move(txt)});
  }
  for (std::size_t k = rng.index(3); k > 0; --k) {
    m.authority.push_back(ResourceRecord::ns(zone, names.under(zone)));
  }
  if (rng.chance(0.5)) {
    SoaRdata soa{names.under(zone), names.name(), 7, 3600, 600, 86400, 60};
    m.authority.push_back(ResourceRecord::soa(zone, std::move(soa)));
  }
  for (std::size_t k = rng.index(3); k > 0; --k) {
    m.additional.push_back(ResourceRecord::a(names.under(zone), net::Ipv4Addr(10, 0, 0, 1)));
  }
  if (rng.chance(0.5)) m.edns = Edns{};
  return m;
}

void expect_same(const Message& a, const Message& b) {
  EXPECT_EQ(a.header, b.header);
  EXPECT_EQ(a.questions, b.questions);
  EXPECT_EQ(a.answers, b.answers);
  EXPECT_EQ(a.authority, b.authority);
  EXPECT_EQ(a.additional, b.additional);
  EXPECT_EQ(a.edns, b.edns);
}

// ---- Tests --------------------------------------------------------------------

class CodecCorpus : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CodecCorpus, OffsetListEncoderMatchesReferenceByteForByte) {
  net::Rng rng(GetParam());
  int past_0x4000 = 0;
  for (int i = 0; i < 300; ++i) {
    const Message m = random_message(rng);
    const auto wire = m.encode();
    ASSERT_EQ(wire, reference_encode(m)) << "seed " << GetParam() << " message " << i;
    expect_same(Message::decode(wire), m);
    if (wire.size() > 0x4000) ++past_0x4000;
  }
  EXPECT_GT(past_0x4000, 0) << "corpus never exercised offsets past 0x4000";
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecCorpus, ::testing::Values(1, 2, 3, 5, 8, 13));

/// A name of exactly `wire_length` wire bytes under `zone`: 63-byte labels
/// (the last one shorter) with letters in a random case mix.
DnsName edge_name(std::size_t wire_length, const DnsName& zone, net::Rng& rng) {
  std::vector<std::string> labels;
  std::size_t left = wire_length - zone.wire_length();
  while (left > 0) {
    std::size_t size = std::min<std::size_t>(DnsName::kMaxLabelLength, left - 1);
    if (left - (size + 1) == 1) --size;  // never leave room for just a length byte
    std::string label(size, static_cast<char>('a' + labels.size()));
    for (char& c : label) {
      if (rng.chance(0.5)) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    }
    labels.push_back(std::move(label));
    left -= size + 1;
  }
  const DnsName::Labels zone_labels = zone.labels();
  labels.insert(labels.end(), zone_labels.begin(), zone_labels.end());
  return DnsName(labels);
}

TEST(CodecTest, NamesAtTheInlineEdgeMatchTheReference) {
  // Names one byte under, at and over DnsName's inline capacity, and the
  // 255-byte maximum, sharing suffixes in mixed case: compression probes
  // then compare inline names against heap names and back.
  constexpr std::size_t kEdge = DnsName::kInlineCapacity;
  const std::size_t sizes[] = {kEdge - 1, kEdge, kEdge + 1, DnsName::kMaxWireLength};
  net::Rng rng(21);
  const DnsName zone = DnsName::must_parse("Edge.CDN.sim");
  const auto any_size = [&] { return sizes[rng.index(std::size(sizes))]; };
  for (int i = 0; i < 200; ++i) {
    Message m;
    m.header.id = static_cast<std::uint16_t>(i);
    m.header.qr = true;
    const DnsName qname = edge_name(any_size(), zone, rng);
    m.questions.push_back({qname, RrType::kA, RrClass::kIn});
    const DnsName target = edge_name(any_size(), zone, rng);
    m.answers.push_back(ResourceRecord::cname(qname, target));
    m.answers.push_back(ResourceRecord::a(target, net::Ipv4Addr(21, 8, 84, 10)));
    m.answers.push_back(ResourceRecord::ptr(edge_name(any_size(), zone, rng), qname));
    m.authority.push_back(ResourceRecord::ns(zone, edge_name(any_size(), zone, rng)));
    if (rng.chance(0.5)) m.edns = Edns{};
    const auto wire = m.encode();
    ASSERT_EQ(wire, reference_encode(m)) << "message " << i;
    expect_same(Message::decode(wire), m);
  }
}

TEST(CodecTest, RepeatedLabelsCompressLikeTheReference) {
  // Every suffix of a.a.a starts with the label "a", so probes start at
  // suffixes of the name still being written: they must fail at the end of
  // the buffer, never read past it (ASan) or match.
  Message m;
  m.questions.push_back({DnsName::must_parse("a.a.a"), RrType::kA, RrClass::kIn});
  m.answers.push_back(ResourceRecord::cname(DnsName::must_parse("A.a.A"),
                                            DnsName::must_parse("a.a")));
  m.answers.push_back(ResourceRecord::a(DnsName::must_parse("a"), net::Ipv4Addr(1, 2, 3, 4)));
  const auto wire = m.encode();
  EXPECT_EQ(wire, reference_encode(m));
  expect_same(Message::decode(wire), m);
}

TEST(CodecTest, LabelContainingADotIsNotALabelBoundary) {
  // The question's first label is "a.b"; the answer's name is a.b.c, three
  // labels. A dotted-string compression key conflates the two, and the
  // answer then decodes with two labels.
  Message m;
  m.header.qr = true;
  const DnsName dotted(std::vector<std::string>{"a.b", "c"});
  const DnsName three = DnsName::must_parse("a.b.c");
  m.questions.push_back({dotted, RrType::kA, RrClass::kIn});
  m.answers.push_back(ResourceRecord::a(three, net::Ipv4Addr(1, 2, 3, 4)));

  const Message back = Message::decode(m.encode());
  ASSERT_EQ(back.answers.size(), 1u);
  EXPECT_EQ(back.answers[0].name.label_count(), 3u);
  EXPECT_EQ(back.questions[0].name.label_count(), 2u);
  // Only the shared suffix "c" may be compressed.
  EXPECT_NE(m.encode(), reference_encode(m));
}

TEST(CodecTest, EqualLengthSuffixesOfOtherBytesDoNotMatch) {
  // The probe visits only offsets recorded with the candidate suffix's
  // length; these names share lengths but not bytes (aa.cdn.sim and
  // bb.cdn.sim, b.cdn.sim and a.cdn.sim), or differ by a multiple of 64
  // bytes, which share a bit in the probe's length filter.
  const std::string long_label(63, 'q');
  const char* const texts[] = {"aa.cdn.sim", "bb.cdn.sim", "a.cdn.sim", "B.cdn.SIM",
                               "ab.cdm.sim", "ab.cdn.sin", "xy.zz",      "yx.zz"};
  net::Rng rng(34);
  for (int i = 0; i < 100; ++i) {
    Message m;
    m.header.qr = true;
    m.questions.push_back(
        {DnsName::must_parse(texts[rng.index(std::size(texts))]), RrType::kA, RrClass::kIn});
    for (int k = 0; k < 6; ++k) {
      const DnsName owner = DnsName::must_parse(texts[rng.index(std::size(texts))]);
      if (rng.chance(0.3)) {
        // Wire lengths 64 bytes apart: long_label.x.zz against x.zz.
        m.answers.push_back(ResourceRecord::cname(
            owner, DnsName::must_parse(long_label + "." + texts[rng.index(std::size(texts))])));
      } else {
        m.answers.push_back(ResourceRecord::a(owner, net::Ipv4Addr(10, 0, 0, 1)));
      }
    }
    const auto wire = m.encode();
    ASSERT_EQ(wire, reference_encode(m)) << "message " << i;
    expect_same(Message::decode(wire), m);
  }
}

TEST(CodecTest, MoreOffsetsThanInlineCapacitySpillLikeTheReference) {
  // Forty distinct two-label names record 80 offsets, past NameOffsets'
  // inline 32; later records point back to offsets on both sides of the
  // spill.
  Message m;
  m.header.qr = true;
  m.questions.push_back({DnsName::must_parse("q.zone"), RrType::kA, RrClass::kIn});
  std::vector<DnsName> owners;
  for (int i = 0; i < 40; ++i) {
    owners.push_back(DnsName::must_parse("n" + std::to_string(i) + ".z" + std::to_string(i)));
  }
  for (const DnsName& owner : owners) {
    m.answers.push_back(ResourceRecord::a(owner, net::Ipv4Addr(10, 0, 0, 2)));
  }
  for (const int i : {0, 5, 15, 16, 17, 31, 32, 33, 39}) {
    m.additional.push_back(ResourceRecord::cname(
        DnsName::must_parse("x.Z" + std::to_string(i)), owners[static_cast<std::size_t>(i)]));
  }
  const auto wire = m.encode();
  EXPECT_EQ(wire, reference_encode(m));
  expect_same(Message::decode(wire), m);

  NameOffsets offsets;
  net::ByteWriter w;
  for (const DnsName& owner : owners) owner.encode(w, &offsets);
  EXPECT_EQ(offsets.view().size(), 80u);
  const std::size_t before = w.size();
  owners[3].encode(w, &offsets);   // recorded inline
  owners[30].encode(w, &offsets);  // recorded after the spill
  EXPECT_EQ(w.size() - before, 4u);  // two pointers
}

TEST(CodecTest, MixedCaseOwnersCompressAgainstLowercaseRdata) {
  // A stub's DNS 0x20 query name comes back as the owner of every answer,
  // in its mixed case, while CNAME and PTR targets are lowercase names
  // sharing its suffixes: compression must match across case.
  net::Rng rng(20);
  const auto flip = [&] { return rng.chance(0.5); };
  for (int i = 0; i < 200; ++i) {
    NameSource names(rng);
    const DnsName zone = DnsName::must_parse("cdn.sim");
    const DnsName lower = DnsName::must_parse(names.under(zone).canonical());
    const DnsName owner = lower.with_swapped_case(flip);
    Message m;
    m.header.qr = true;
    m.questions.push_back({owner, i % 2 == 0 ? RrType::kA : RrType::kPtr, RrClass::kIn});
    const DnsName target = DnsName::must_parse(names.under(zone).canonical());
    if (i % 2 == 0) {
      m.answers.push_back(ResourceRecord::cname(owner, target));
      m.answers.push_back(ResourceRecord::a(target.with_swapped_case(flip),
                                            net::Ipv4Addr(21, 8, 84, 10)));
    } else {
      m.answers.push_back(ResourceRecord::ptr(owner, lower));
      m.answers.push_back(ResourceRecord::ptr(owner, target));
    }
    const auto wire = m.encode();
    ASSERT_EQ(wire, reference_encode(m)) << "message " << i;
    const Message back = Message::decode(wire);
    expect_same(back, m);
    // Owners keep the case they were sent in.
    EXPECT_TRUE(std::ranges::equal(back.answers[0].name.wire(), owner.wire()));
  }
}

TEST(CodecTest, NameOffsetsListsWhereSuffixesStart) {
  NameOffsets offsets;
  net::ByteWriter w;
  DnsName::must_parse("www.Example.com").encode(w, &offsets);
  EXPECT_EQ(offsets, (NameOffsets{0, 4, 12}));
  DnsName::must_parse("mail.example.COM").encode(w, &offsets);
  // "mail" is new; "example.com" is a pointer back to offset 4.
  EXPECT_EQ(offsets, (NameOffsets{0, 4, 12, 17}));
  EXPECT_EQ(w.size(), 17u + 5u + 2u);
}

}  // namespace
}  // namespace drongo::dns
