#include "dns/message.hpp"

#include <algorithm>

#include "net/error.hpp"

namespace drongo::dns {

namespace {

constexpr std::uint16_t kFlagQr = 0x8000;
constexpr std::uint16_t kFlagAa = 0x0400;
constexpr std::uint16_t kFlagTc = 0x0200;
constexpr std::uint16_t kFlagRd = 0x0100;
constexpr std::uint16_t kFlagRa = 0x0080;

std::uint16_t pack_flags(const Header& h) {
  std::uint16_t flags = 0;
  if (h.qr) flags |= kFlagQr;
  flags |= static_cast<std::uint16_t>((static_cast<std::uint16_t>(h.opcode) & 0xF) << 11);
  if (h.aa) flags |= kFlagAa;
  if (h.tc) flags |= kFlagTc;
  if (h.rd) flags |= kFlagRd;
  if (h.ra) flags |= kFlagRa;
  flags |= static_cast<std::uint16_t>(static_cast<std::uint16_t>(h.rcode) & 0xF);
  return flags;
}

/// Fills `h` in place: a Header built on the stack and copied out costs a
/// failed store-to-load forward on every decode.
void unpack_flags(std::uint16_t id, std::uint16_t flags, Header& h) {
  h.id = id;
  h.qr = (flags & kFlagQr) != 0;
  h.opcode = static_cast<Opcode>((flags >> 11) & 0xF);
  h.aa = (flags & kFlagAa) != 0;
  h.tc = (flags & kFlagTc) != 0;
  h.rd = (flags & kFlagRd) != 0;
  h.ra = (flags & kFlagRa) != 0;
  h.rcode = static_cast<Rcode>(flags & 0xF);
}

/// The OPT pseudo-record's wire length: root owner, TYPE, CLASS, TTL and
/// RDLENGTH, then each option's code, length and payload.
std::size_t opt_record_length(const Edns& edns) {
  std::size_t n = 11;
  if (edns.client_subnet) n += 4 + edns.client_subnet->wire_length();
  for (const auto& opt : edns.other_options) n += 4 + opt.payload.size();
  return n;
}

/// Writes the OPT pseudo-record (RFC 6891) straight into the message
/// wire — byte-identical to encoding it as a ResourceRecord, without
/// materialising one (the serving hot path encodes an OPT per reply).
void write_opt_record(net::ByteCursor& w, const Edns& edns) {
  w.write_u8(0);  // root owner name
  w.write_u16(static_cast<std::uint16_t>(RrType::kOpt));
  w.write_u16(edns.udp_payload_size);  // CLASS carries the payload size
  w.write_u32((std::uint32_t{edns.extended_rcode} << 24) |
              (std::uint32_t{edns.version} << 16) | edns.flags);
  const std::size_t rdlength_at = w.position();
  w.write_u16(0);  // patched below
  const std::size_t rdata_start = w.position();
  if (edns.client_subnet) {
    w.write_u16(kOptionCodeClientSubnet);
    const std::size_t len_at = w.position();
    w.write_u16(0);
    const std::size_t start = w.position();
    edns.client_subnet->encode(w);
    w.patch_u16(len_at, static_cast<std::uint16_t>(w.position() - start));
  }
  for (const auto& opt : edns.other_options) {
    w.write_u16(opt.code);
    w.write_u16(static_cast<std::uint16_t>(opt.payload.size()));
    w.write_bytes(opt.payload);
  }
  w.patch_u16(rdlength_at, static_cast<std::uint16_t>(w.position() - rdata_start));
}

/// Parses an OPT pseudo-record (RFC 6891) straight from the message reader,
/// which sits just past the owner name and TYPE: CLASS carries the payload
/// size, TTL the extended rcode, version and flags, and the options are read
/// from the RDATA in place, without copying it out first.
Edns parse_opt(net::ByteReader& r) {
  // The fields are read into locals and the Edns built from all of them at
  // once: a default-constructed Edns is zeroed whole first.
  const std::uint16_t udp_payload_size = r.read_u16();
  const std::uint32_t ttl = r.read_u32();
  const std::uint16_t rdlength = r.read_u16();
  if (rdlength > r.remaining()) throw net::ParseError("RDATA length overruns message");
  net::ByteReader options(r.read_span(rdlength));
  std::optional<ClientSubnet> client_subnet;
  std::vector<EdnsOption> other_options;
  while (options.remaining() > 0) {
    const std::uint16_t code = options.read_u16();
    const std::uint16_t len = options.read_u16();
    if (code == kOptionCodeClientSubnet) {
      client_subnet = ClientSubnet::decode(options, len);
    } else {
      other_options.push_back({code, options.read_bytes(len)});
    }
  }
  return Edns{udp_payload_size,
              static_cast<std::uint8_t>(ttl >> 24),  // extended rcode
              static_cast<std::uint8_t>(ttl >> 16),  // version
              static_cast<std::uint16_t>(ttl),       // flags
              std::move(client_subnet),
              std::move(other_options)};
}

/// Whether the reader sits on an OPT record with the root owner name — the
/// only shape the OPT fast path in decode() parses in place.
bool at_root_opt(const net::ByteReader& r) {
  const auto rest = r.buffer().subspan(r.position());
  return rest.size() >= 3 && rest[0] == 0 &&
         ((rest[1] << 8) | rest[2]) == static_cast<int>(RrType::kOpt);
}

/// Capacity to reserve for `count` section entries of at least `min_size`
/// wire bytes each: the header count, capped by what the remaining bytes
/// could hold, so a forged count cannot force a huge allocation.
std::size_t reserve_for(std::uint16_t count, std::size_t remaining, std::size_t min_size) {
  return std::min<std::size_t>(count, remaining / min_size);
}

// The smallest record (root name, TYPE, CLASS, TTL, RDLENGTH, empty RDATA)
// on the wire.
constexpr std::size_t kMinRecordSize = 11;

constexpr std::size_t kHeaderSize = 12;

}  // namespace

Message Message::make_query(std::uint16_t id, const DnsName& name,
                            std::optional<net::IpPrefix> ecs_subnet, RrType type) {
  Message m;
  m.header.id = id;
  m.header.qr = false;
  m.header.rd = true;
  m.questions.emplace_back(name, type, RrClass::kIn);
  m.edns = Edns{};
  if (ecs_subnet) {
    m.edns->client_subnet = ClientSubnet::for_subnet(*ecs_subnet);
  }
  return m;
}

Message Message::make_response(const Message& query, Rcode rcode,
                               std::optional<int> ecs_scope) {
  Message m;
  m.header = query.header;
  m.header.qr = true;
  m.header.aa = true;
  m.header.ra = true;
  m.header.rcode = rcode;
  m.questions = query.questions;
  if (query.edns) {
    m.edns = Edns{};
    m.edns->udp_payload_size = 4096;
    if (query.edns->client_subnet) {
      ClientSubnet ecs = *query.edns->client_subnet;
      ecs.scope_prefix_length = static_cast<std::uint8_t>(
          ecs_scope.value_or(ecs.source_prefix_length));
      m.edns->client_subnet = ecs;
    }
  }
  return m;
}

const std::optional<ClientSubnet>& Message::client_subnet() const {
  static const std::optional<ClientSubnet> kNone;
  return edns ? edns->client_subnet : kNone;
}

void Message::set_client_subnet(const ClientSubnet& ecs) {
  if (!edns) edns = Edns{};
  edns->client_subnet = ecs;
}

void Message::clear_client_subnet() {
  if (edns) edns->client_subnet.reset();
}

std::vector<net::Ipv4Addr> Message::answer_addresses() const {
  const auto is_a = [](const ResourceRecord& rr) {
    return std::holds_alternative<ARdata>(rr.rdata);
  };
  std::vector<net::Ipv4Addr> out;
  out.reserve(static_cast<std::size_t>(std::ranges::count_if(answers, is_a)));
  for (const auto& rr : answers) {
    if (const auto* a = std::get_if<ARdata>(&rr.rdata)) {
      out.push_back(a->address);
    }
  }
  return out;
}

std::vector<std::uint8_t> Message::encode() const {
  // Encode into this thread's scratch buffer (it keeps its capacity across
  // calls), then copy out exactly the bytes written: one allocation, and
  // the returned wire carries no slack for the callers that keep it.
  thread_local std::vector<std::uint8_t> scratch;
  encode_to(scratch);
  return std::vector<std::uint8_t>(scratch.begin(), scratch.end());
}

void Message::encode_to(std::vector<std::uint8_t>& out) const {
  // Size the wire once, from the uncompressed lengths (compression only
  // shortens it), write through a cursor, then trim to what was written.
  std::size_t length = kHeaderSize;
  for (const auto& q : questions) length += q.name.wire_length() + 4;
  for (const auto* section : {&answers, &authority, &additional}) {
    for (const auto& rr : *section) length += rr.max_wire_length();
  }
  if (edns) length += opt_record_length(*edns);
  out.resize(length);
  net::ByteCursor w(out, 0);
  NameOffsets offsets;

  const std::size_t additional_count = additional.size() + (edns ? 1 : 0);
  w.write_u16(header.id);
  w.write_u16(pack_flags(header));
  w.write_u16(static_cast<std::uint16_t>(questions.size()));
  w.write_u16(static_cast<std::uint16_t>(answers.size()));
  w.write_u16(static_cast<std::uint16_t>(authority.size()));
  w.write_u16(static_cast<std::uint16_t>(additional_count));

  for (const auto& q : questions) {
    q.name.encode(w, &offsets);
    w.write_u16(static_cast<std::uint16_t>(q.type));
    w.write_u16(static_cast<std::uint16_t>(q.klass));
  }
  for (const auto& rr : answers) rr.encode(w, &offsets);
  for (const auto& rr : authority) rr.encode(w, &offsets);
  for (const auto& rr : additional) rr.encode(w, &offsets);
  if (edns) write_opt_record(w, *edns);
  out.resize(w.position());
}

Message Message::decode(std::span<const std::uint8_t> wire) {
  net::ByteReader r(wire);
  Message m;
  const std::uint16_t id = r.read_u16();
  const std::uint16_t flags = r.read_u16();
  unpack_flags(id, flags, m.header);
  const std::uint16_t qdcount = r.read_u16();
  const std::uint16_t ancount = r.read_u16();
  const std::uint16_t nscount = r.read_u16();
  const std::uint16_t arcount = r.read_u16();

  for (int i = 0; i < qdcount; ++i) {
    Question& q = m.questions.emplace_back();
    q.name = DnsName::decode(r);
    q.type = static_cast<RrType>(r.read_u16());
    q.klass = static_cast<RrClass>(r.read_u16());
  }
  m.answers.reserve(reserve_for(ancount, r.remaining(), kMinRecordSize));
  for (int i = 0; i < ancount; ++i) ResourceRecord::decode_into(r, m.answers);
  m.authority.reserve(reserve_for(nscount, r.remaining(), kMinRecordSize));
  for (int i = 0; i < nscount; ++i) ResourceRecord::decode_into(r, m.authority);
  for (int i = 0; i < arcount; ++i) {
    if (at_root_opt(r)) {
      if (m.edns) throw net::ParseError("message carries more than one OPT record");
      r.skip(3);  // root owner name and TYPE
      m.edns = parse_opt(r);
      continue;
    }
    const ResourceRecord& rr = ResourceRecord::decode_into(r, m.additional);
    if (rr.type == RrType::kOpt) throw net::ParseError("OPT record owner must be root");
  }
  return m;
}

std::string Message::to_string() const {
  std::string out;
  out += ";; id " + std::to_string(header.id) + " " + (header.qr ? "response" : "query") +
         " rcode " + dns::to_string(header.rcode) + "\n";
  if (edns && edns->client_subnet) {
    out += ";; ECS " + edns->client_subnet->to_string() + "\n";
  }
  for (const auto& q : questions) {
    out += ";" + q.name.to_string() + " IN " + dns::to_string(q.type) + "\n";
  }
  for (const auto& rr : answers) out += rr.to_string() + "\n";
  for (const auto& rr : authority) out += rr.to_string() + "\n";
  for (const auto& rr : additional) out += rr.to_string() + "\n";
  return out;
}

}  // namespace drongo::dns
