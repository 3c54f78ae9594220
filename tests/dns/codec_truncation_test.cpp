// Truncated, corrupted and looping wires: every strict prefix of the
// messages the simulated DNS path really exchanges (an A+ECS query, a
// tailored A reply, a PTR reply, a CNAME-chain reply) must fail to decode
// with a typed net::Error, never read past its buffer or escape as another
// exception; and a compression-pointer loop must be refused. The wire
// primitives' bounds checks are inlined into the codec, so this pins every
// one of them on real message shapes, in the sanitizer slice (label
// `codec`).
//
// The decoder walks names directly and copies runs of labels; a reference
// copy of the label-by-label decoder it replaced must agree with it on
// every strict prefix and every single-byte corruption of those wires: the
// same exception type and message, or the same decoded message.
#include <gtest/gtest.h>

#include <cstdint>
#include <exception>
#include <optional>
#include <span>
#include <string>
#include <typeinfo>
#include <variant>
#include <vector>

#include "dns/message.hpp"
#include "dns/reverse.hpp"
#include "measure/testbed.hpp"
#include "net/error.hpp"

namespace drongo::dns {
namespace {

template <typename Rdata>
bool has_answer(const Message& m) {
  for (const auto& rr : m.answers) {
    if (std::holds_alternative<Rdata>(rr.rdata)) return true;
  }
  return false;
}

// ---- Reference decoder ----------------------------------------------------

// The codec's decoder as it was when it read names label by label through
// ByteReader calls. Kept verbatim apart from building names from their
// label strings (DnsName's wire constructor is private).

DnsName reference_decode_name(net::ByteReader& reader) {
  std::vector<std::string> labels;
  std::size_t total = 1;
  bool jumped = false;
  net::ByteReader indirect(reader.buffer());
  net::ByteReader* r = &reader;
  int pointer_hops = 0;
  for (;;) {
    const std::uint8_t len = r->read_u8();
    if ((len & 0xC0) == 0xC0) {
      const std::uint8_t low = r->read_u8();
      const std::size_t target = (static_cast<std::size_t>(len & 0x3F) << 8) | low;
      const std::size_t here = (r == &reader) ? reader.position() : indirect.position();
      if (target >= here) {
        throw net::ParseError("DNS compression pointer does not point backward");
      }
      if (++pointer_hops > 64) throw net::ParseError("DNS compression pointer chain too long");
      if (!jumped) {
        jumped = true;
        r = &indirect;
      }
      r->seek(target);
      continue;
    }
    if ((len & 0xC0) != 0) throw net::ParseError("reserved DNS label type");
    if (len == 0) break;
    if (total + 1 + len > DnsName::kMaxWireLength) {
      throw net::ParseError("decoded DNS name exceeds 255 bytes");
    }
    labels.push_back(r->read_string(len));
    total += 1 + len;
  }
  return DnsName(labels);
}

ResourceRecord reference_decode_rr(net::ByteReader& reader) {
  ResourceRecord rr;
  rr.name = reference_decode_name(reader);
  rr.type = static_cast<RrType>(reader.read_u16());
  rr.klass = static_cast<RrClass>(reader.read_u16());
  rr.ttl = reader.read_u32();
  const std::uint16_t rdlength = reader.read_u16();
  const std::size_t rdata_end = reader.position() + rdlength;
  if (rdata_end > reader.buffer().size()) {
    throw net::ParseError("RDATA length overruns message");
  }
  switch (rr.type) {
    case RrType::kA: {
      if (rdlength != 4) throw net::ParseError("A RDATA must be 4 bytes");
      rr.rdata = ARdata{net::Ipv4Addr(reader.read_u32())};
      break;
    }
    case RrType::kCname:
      rr.rdata = CnameRdata{reference_decode_name(reader)};
      break;
    case RrType::kNs:
      rr.rdata = NsRdata{reference_decode_name(reader)};
      break;
    case RrType::kPtr:
      rr.rdata = PtrRdata{reference_decode_name(reader)};
      break;
    case RrType::kTxt: {
      TxtRdata txt;
      while (reader.position() < rdata_end) {
        const std::uint8_t len = reader.read_u8();
        txt.strings.push_back(reader.read_string(len));
      }
      rr.rdata = std::move(txt);
      break;
    }
    case RrType::kSoa: {
      SoaRdata soa;
      soa.mname = reference_decode_name(reader);
      soa.rname = reference_decode_name(reader);
      soa.serial = reader.read_u32();
      soa.refresh = reader.read_u32();
      soa.retry = reader.read_u32();
      soa.expire = reader.read_u32();
      soa.minimum = reader.read_u32();
      rr.rdata = std::move(soa);
      break;
    }
    default:
      rr.rdata = RawRdata{reader.read_bytes(rdlength)};
      break;
  }
  if (reader.position() != rdata_end) {
    throw net::ParseError("RDATA decode consumed " +
                          std::to_string(reader.position() - (rdata_end - rdlength)) +
                          " bytes, expected " + std::to_string(rdlength));
  }
  return rr;
}

Edns reference_parse_opt(net::ByteReader& r) {
  Edns edns;
  edns.udp_payload_size = r.read_u16();
  const std::uint32_t ttl = r.read_u32();
  edns.extended_rcode = static_cast<std::uint8_t>(ttl >> 24);
  edns.version = static_cast<std::uint8_t>(ttl >> 16);
  edns.flags = static_cast<std::uint16_t>(ttl);
  const std::uint16_t rdlength = r.read_u16();
  if (rdlength > r.remaining()) throw net::ParseError("RDATA length overruns message");
  net::ByteReader options(r.read_span(rdlength));
  while (options.remaining() > 0) {
    const std::uint16_t code = options.read_u16();
    const std::uint16_t len = options.read_u16();
    if (code == kOptionCodeClientSubnet) {
      edns.client_subnet = ClientSubnet::decode(options, len);
    } else {
      edns.other_options.push_back({code, options.read_bytes(len)});
    }
  }
  return edns;
}

Message reference_decode(std::span<const std::uint8_t> wire) {
  net::ByteReader r(wire);
  Message m;
  m.header.id = r.read_u16();
  const std::uint16_t flags = r.read_u16();
  m.header.qr = (flags & 0x8000) != 0;
  m.header.opcode = static_cast<Opcode>((flags >> 11) & 0xF);
  m.header.aa = (flags & 0x0400) != 0;
  m.header.tc = (flags & 0x0200) != 0;
  m.header.rd = (flags & 0x0100) != 0;
  m.header.ra = (flags & 0x0080) != 0;
  m.header.rcode = static_cast<Rcode>(flags & 0xF);
  const std::uint16_t qdcount = r.read_u16();
  const std::uint16_t ancount = r.read_u16();
  const std::uint16_t nscount = r.read_u16();
  const std::uint16_t arcount = r.read_u16();
  for (int i = 0; i < qdcount; ++i) {
    Question& q = m.questions.emplace_back();
    q.name = reference_decode_name(r);
    q.type = static_cast<RrType>(r.read_u16());
    q.klass = static_cast<RrClass>(r.read_u16());
  }
  for (int i = 0; i < ancount; ++i) m.answers.push_back(reference_decode_rr(r));
  for (int i = 0; i < nscount; ++i) m.authority.push_back(reference_decode_rr(r));
  for (int i = 0; i < arcount; ++i) {
    const auto rest = r.buffer().subspan(r.position());
    if (rest.size() >= 3 && rest[0] == 0 &&
        ((rest[1] << 8) | rest[2]) == static_cast<int>(RrType::kOpt)) {
      if (m.edns) throw net::ParseError("message carries more than one OPT record");
      r.skip(3);
      m.edns = reference_parse_opt(r);
      continue;
    }
    ResourceRecord rr = reference_decode_rr(r);
    if (rr.type == RrType::kOpt) throw net::ParseError("OPT record owner must be root");
    m.additional.push_back(std::move(rr));
  }
  return m;
}

/// What one decoder made of a wire: the message, or the exception's
/// dynamic type and message.
struct Outcome {
  std::optional<Message> message;
  std::string error;

  template <typename Decode>
  static Outcome of(Decode&& decode, std::span<const std::uint8_t> wire) {
    try {
      return {decode(wire), ""};
    } catch (const std::exception& e) {
      return {std::nullopt, std::string(typeid(e).name()) + ": " + e.what()};
    }
  }
};

/// Names compare case-insensitively; the dump shows their bytes.
bool same_message(const Message& a, const Message& b) {
  return a.header == b.header && a.questions == b.questions && a.answers == b.answers &&
         a.authority == b.authority && a.additional == b.additional && a.edns == b.edns &&
         a.to_string() == b.to_string();
}

/// Decodes every strict prefix and every single-byte corruption of `wire`
/// with both decoders; returns how many disagreed, reporting the first few.
int count_disagreements(const std::vector<std::uint8_t>& wire, const char* what) {
  int disagreements = 0;
  const auto check = [&](std::span<const std::uint8_t> input, const std::string& how) {
    const Outcome got = Outcome::of([](auto w) { return Message::decode(w); }, input);
    const Outcome want = Outcome::of([](auto w) { return reference_decode(w); }, input);
    const bool same = got.message && want.message ? same_message(*got.message, *want.message)
                                                  : !got.message && !want.message &&
                                                        got.error == want.error;
    if (!same && ++disagreements <= 3) {
      ADD_FAILURE() << what << ", " << how << ": decoder says '"
                    << (got.message ? got.message->to_string() : got.error) << "', reference says '"
                    << (want.message ? want.message->to_string() : want.error) << "'";
    }
  };
  for (std::size_t length = 0; length < wire.size(); ++length) {
    check(std::span(wire.data(), length), "prefix of " + std::to_string(length));
  }
  std::vector<std::uint8_t> corrupt = wire;
  for (std::size_t at = 0; at < wire.size(); ++at) {
    for (int value = 0; value < 256; ++value) {
      if (value == wire[at]) continue;
      corrupt[at] = static_cast<std::uint8_t>(value);
      check(corrupt, "byte " + std::to_string(at) + " set to " + std::to_string(value));
    }
    corrupt[at] = wire[at];
  }
  return disagreements;
}

/// Wires captured from a small testbed's public resolver.
class CodecTruncationTest : public ::testing::Test {
 protected:
  CodecTruncationTest() : testbed_(config()) {}

  static measure::TestbedConfig config() {
    measure::TestbedConfig config;
    config.as_config.tier1_count = 4;
    config.as_config.tier2_count = 8;
    config.as_config.stub_count = 20;
    config.client_count = 2;
    config.site_count = 2;
    config.seed = 5;
    return config;
  }

  Message ask(const Message& query) {
    return testbed_.resolver().handle(query, testbed_.clients()[0]);
  }

  [[nodiscard]] net::Prefix client_subnet() const {
    return net::Prefix(testbed_.clients()[0], 24);
  }

  measure::Testbed testbed_;
};

/// Decodes the whole wire, then every strict prefix of it.
void expect_prefixes_fail(const std::vector<std::uint8_t>& wire, const char* what) {
  const Message whole = Message::decode(wire);
  EXPECT_EQ(whole.encode(), wire) << what;
  for (std::size_t length = 0; length < wire.size(); ++length) {
    const std::span<const std::uint8_t> prefix(wire.data(), length);
    EXPECT_THROW((void)Message::decode(prefix), net::Error)
        << what << ": prefix of " << length << " of " << wire.size() << " bytes";
  }
}

TEST_F(CodecTruncationTest, EcsQueryPrefixesAreTypedErrors) {
  const Message query =
      Message::make_query(0x1234, testbed_.content_names(0).front(), client_subnet());
  ASSERT_TRUE(query.client_subnet().has_value());
  expect_prefixes_fail(query.encode(), "A+ECS query");
}

TEST_F(CodecTruncationTest, TailoredAReplyPrefixesAreTypedErrors) {
  const Message query =
      Message::make_query(0x2345, testbed_.content_names(0).front(), client_subnet());
  const Message reply = ask(query);
  ASSERT_EQ(reply.header.rcode, Rcode::kNoError);
  ASSERT_FALSE(reply.answer_addresses().empty());
  ASSERT_TRUE(reply.client_subnet().has_value());
  expect_prefixes_fail(reply.encode(), "tailored A reply");
}

TEST_F(CodecTruncationTest, PtrReplyPrefixesAreTypedErrors) {
  const net::Ipv4Addr router(testbed_.world().block_of(0).network().to_uint() | 1u);
  const Message query =
      Message::make_query(0x3456, reverse_pointer_name(router), std::nullopt, RrType::kPtr);
  const Message reply = ask(query);
  ASSERT_TRUE(has_answer<PtrRdata>(reply));
  expect_prefixes_fail(reply.encode(), "PTR reply");
}

TEST_F(CodecTruncationTest, CnameChainReplyPrefixesAreTypedErrors) {
  const Message query = Message::make_query(0x4567, testbed_.sites().front().host,
                                            client_subnet());
  const Message reply = ask(query);
  ASSERT_TRUE(has_answer<CnameRdata>(reply));
  ASSERT_FALSE(reply.answer_addresses().empty());
  expect_prefixes_fail(reply.encode(), "CNAME-chain reply");
}

TEST_F(CodecTruncationTest, DecoderMatchesTheLabelByLabelReference) {
  const Message a_query =
      Message::make_query(0x1234, testbed_.content_names(0).front(), client_subnet());
  const net::Ipv4Addr router(testbed_.world().block_of(0).network().to_uint() | 1u);
  const Message ptr_reply =
      ask(Message::make_query(0x3456, reverse_pointer_name(router), std::nullopt, RrType::kPtr));
  ASSERT_TRUE(has_answer<PtrRdata>(ptr_reply));
  const Message cname_reply =
      ask(Message::make_query(0x4567, testbed_.sites().front().host, client_subnet()));
  ASSERT_TRUE(has_answer<CnameRdata>(cname_reply));

  // Every record type the codec decodes, an unknown type kept raw, an
  // EDNS option other than ECS, and pointers into RDATA names.
  Message every_type = Message::make_response(a_query, Rcode::kNoError, 24);
  const DnsName zone = DnsName::must_parse("Cdn.sim");
  every_type.answers.push_back(ResourceRecord::txt(DnsName::must_parse("t.cdn.sim"), {"ab", ""}));
  every_type.answers.push_back({DnsName::must_parse("raw.cdn.SIM"), RrType::kAaaa, RrClass::kIn, 60,
                                RawRdata{{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}}});
  every_type.authority.push_back(ResourceRecord::ns(zone, DnsName::must_parse("ns1.cdn.sim")));
  every_type.authority.push_back(ResourceRecord::soa(
      zone, {DnsName::must_parse("ns1.CDN.sim"), DnsName::must_parse("admin.cdn.sim"), 7, 3600,
             600, 86400, 60}));
  every_type.additional.push_back(
      ResourceRecord::a(DnsName::must_parse("ns1.cdn.sim"), net::Ipv4Addr(10, 0, 0, 53)));
  every_type.edns->other_options.push_back({10, {0xAA, 0xBB}});

  const std::pair<const Message*, const char*> corpus[] = {
      {&a_query, "A+ECS query"},
      {&ptr_reply, "PTR reply"},
      {&cname_reply, "CNAME-chain reply"},
      {&every_type, "every record type"}};
  for (const auto& [message, what] : corpus) {
    EXPECT_EQ(count_disagreements(message->encode(), what), 0) << what;
  }
}

TEST_F(CodecTruncationTest, CompressionPointerLoopsAreRefused) {
  // One question whose name is label "a" followed by a pointer back to it:
  // every pointer points backward, yet the name never ends.
  const std::vector<std::uint8_t> loop = {
      0x00, 0x01, 0x01, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // header
      0x01, 'a', 0xC0, 0x0C,                                                   // a, ptr 12
      0x00, 0x01, 0x00, 0x01};                                                 // A, IN
  EXPECT_THROW((void)Message::decode(loop), net::ParseError);
  // A pointer to itself.
  const std::vector<std::uint8_t> self = {
      0x00, 0x01, 0x01, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0xC0, 0x0C, 0x00, 0x01, 0x00, 0x01};
  EXPECT_THROW((void)Message::decode(self), net::ParseError);
}

}  // namespace
}  // namespace drongo::dns
