#include "dns/rr.hpp"

#include "net/error.hpp"

namespace drongo::dns {

namespace {

/// A record built member by member. Brace-initializing a ResourceRecord
/// from a converted Rdata makes GCC zero all of its bytes first (a
/// `rep stosq` that costs more than the rest of the build).
template <typename Data>
ResourceRecord build(DnsName&& name, RrType type, std::uint32_t ttl, Data&& data) {
  ResourceRecord rr;
  rr.name = std::move(name);
  rr.type = type;
  rr.ttl = ttl;
  rr.rdata = std::forward<Data>(data);
  return rr;
}

}  // namespace

ResourceRecord ResourceRecord::a(DnsName name, net::Ipv4Addr address, std::uint32_t ttl) {
  return build(std::move(name), RrType::kA, ttl, ARdata{address});
}

ResourceRecord ResourceRecord::cname(DnsName name, DnsName target, std::uint32_t ttl) {
  return build(std::move(name), RrType::kCname, ttl, CnameRdata{std::move(target)});
}

ResourceRecord ResourceRecord::ns(DnsName zone, DnsName nameserver, std::uint32_t ttl) {
  return build(std::move(zone), RrType::kNs, ttl, NsRdata{std::move(nameserver)});
}

ResourceRecord ResourceRecord::ptr(DnsName name, DnsName target, std::uint32_t ttl) {
  return build(std::move(name), RrType::kPtr, ttl, PtrRdata{std::move(target)});
}

ResourceRecord ResourceRecord::txt(DnsName name, std::vector<std::string> strings,
                                   std::uint32_t ttl) {
  return build(std::move(name), RrType::kTxt, ttl, TxtRdata{std::move(strings)});
}

ResourceRecord ResourceRecord::soa(DnsName zone, SoaRdata soa, std::uint32_t ttl) {
  return build(std::move(zone), RrType::kSoa, ttl, std::move(soa));
}

void ResourceRecord::encode(net::ByteWriter& writer, NameOffsets* offsets) const {
  net::ByteCursor out = writer.extend(max_wire_length());
  encode(out, offsets);
  writer.finish(out);
}

std::size_t ResourceRecord::max_wire_length() const {
  // Owner, TYPE, CLASS, TTL and RDLENGTH, then the RDATA.
  const std::size_t fixed = name.wire_length() + 10;
  return fixed + std::visit(
                     [](const auto& data) -> std::size_t {
                       using T = std::decay_t<decltype(data)>;
                       if constexpr (std::is_same_v<T, ARdata>) {
                         return 4;
                       } else if constexpr (std::is_same_v<T, CnameRdata>) {
                         return data.target.wire_length();
                       } else if constexpr (std::is_same_v<T, NsRdata>) {
                         return data.nameserver.wire_length();
                       } else if constexpr (std::is_same_v<T, PtrRdata>) {
                         return data.name.wire_length();
                       } else if constexpr (std::is_same_v<T, TxtRdata>) {
                         std::size_t n = 0;
                         for (const auto& s : data.strings) n += 1 + s.size();
                         return n;
                       } else if constexpr (std::is_same_v<T, SoaRdata>) {
                         return data.mname.wire_length() + data.rname.wire_length() + 20;
                       } else {
                         return data.bytes.size();
                       }
                     },
                     rdata);
}

void ResourceRecord::encode(net::ByteCursor& out, NameOffsets* offsets) const {
  name.encode(out, offsets);
  out.write_u16(static_cast<std::uint16_t>(type));
  out.write_u16(static_cast<std::uint16_t>(klass));
  out.write_u32(ttl);
  const std::size_t rdlength_at = out.position();
  out.write_u16(0);  // patched below
  const std::size_t rdata_start = out.position();

  std::visit(
      [&](const auto& data) {
        using T = std::decay_t<decltype(data)>;
        if constexpr (std::is_same_v<T, ARdata>) {
          out.write_u32(data.address.to_uint());
        } else if constexpr (std::is_same_v<T, CnameRdata>) {
          data.target.encode(out, offsets);
        } else if constexpr (std::is_same_v<T, NsRdata>) {
          data.nameserver.encode(out, offsets);
        } else if constexpr (std::is_same_v<T, PtrRdata>) {
          data.name.encode(out, offsets);
        } else if constexpr (std::is_same_v<T, TxtRdata>) {
          for (const auto& s : data.strings) {
            if (s.size() > 255) throw net::InvalidArgument("TXT string exceeds 255 bytes");
            out.write_u8(static_cast<std::uint8_t>(s.size()));
            out.write_string(s);
          }
        } else if constexpr (std::is_same_v<T, SoaRdata>) {
          data.mname.encode(out, offsets);
          data.rname.encode(out, offsets);
          out.write_u32(data.serial);
          out.write_u32(data.refresh);
          out.write_u32(data.retry);
          out.write_u32(data.expire);
          out.write_u32(data.minimum);
        } else if constexpr (std::is_same_v<T, RawRdata>) {
          out.write_bytes(data.bytes);
        }
      },
      rdata);

  const std::size_t rdata_len = out.position() - rdata_start;
  if (rdata_len > 0xFFFF) throw net::InvalidArgument("RDATA exceeds 65535 bytes");
  out.patch_u16(rdlength_at, static_cast<std::uint16_t>(rdata_len));
}

namespace {

/// The RDATA of a `type` record, `rdlength` bytes ending at `rdata_end`.
Rdata decode_rdata_of(net::ByteReader& reader, RrType type, std::uint16_t rdlength,
                      std::size_t rdata_end) {
  switch (type) {
    case RrType::kA:
      if (rdlength != 4) throw net::ParseError("A RDATA must be 4 bytes");
      return ARdata{net::Ipv4Addr(reader.read_u32())};
    case RrType::kCname:
      return CnameRdata{DnsName::decode(reader)};
    case RrType::kNs:
      return NsRdata{DnsName::decode(reader)};
    case RrType::kPtr:
      return PtrRdata{DnsName::decode(reader)};
    case RrType::kTxt: {
      TxtRdata txt;
      while (reader.position() < rdata_end) {
        const std::uint8_t len = reader.read_u8();
        txt.strings.push_back(reader.read_string(len));
      }
      return txt;
    }
    case RrType::kSoa: {
      SoaRdata soa;
      soa.mname = DnsName::decode(reader);
      soa.rname = DnsName::decode(reader);
      soa.serial = reader.read_u32();
      soa.refresh = reader.read_u32();
      soa.retry = reader.read_u32();
      soa.expire = reader.read_u32();
      soa.minimum = reader.read_u32();
      return soa;
    }
    default:
      return RawRdata{reader.read_bytes(rdlength)};
  }
}

/// Decodes RDLENGTH and the RDATA of a `type` record.
Rdata decode_rdata(net::ByteReader& reader, RrType type) {
  const std::uint16_t rdlength = reader.read_u16();
  const std::size_t rdata_end = reader.position() + rdlength;
  if (rdata_end > reader.buffer().size()) {
    throw net::ParseError("RDATA length overruns message");
  }
  Rdata rdata = decode_rdata_of(reader, type, rdlength, rdata_end);
  if (reader.position() != rdata_end) {
    throw net::ParseError("RDATA decode consumed " +
                          std::to_string(reader.position() - (rdata_end - rdlength)) +
                          " bytes, expected " + std::to_string(rdlength));
  }
  return rdata;
}

/// Decodes one record's fields in wire order and passes them to `build`,
/// which constructs the record where it is wanted. Every member comes from
/// a decoded value: a record built from its defaults first is zeroed whole.
template <typename Build>
decltype(auto) decode_record(net::ByteReader& reader, Build&& build) {
  DnsName name = DnsName::decode(reader);
  const auto type = static_cast<RrType>(reader.read_u16());
  const auto klass = static_cast<RrClass>(reader.read_u16());
  const std::uint32_t ttl = reader.read_u32();
  return build(std::move(name), type, klass, ttl, decode_rdata(reader, type));
}

}  // namespace

ResourceRecord ResourceRecord::decode(net::ByteReader& reader) {
  return decode_record(reader, [](DnsName&& name, RrType type, RrClass klass, std::uint32_t ttl,
                                  Rdata&& rdata) {
    return ResourceRecord{std::move(name), type, klass, ttl, std::move(rdata)};
  });
}

ResourceRecord& ResourceRecord::decode_into(net::ByteReader& reader,
                                            std::vector<ResourceRecord>& section) {
  return decode_record(reader, [&](DnsName&& name, RrType type, RrClass klass,
                                   std::uint32_t ttl, Rdata&& rdata) -> ResourceRecord& {
    return section.emplace_back(std::move(name), type, klass, ttl, std::move(rdata));
  });
}

std::string ResourceRecord::to_string() const {
  std::string out = name.to_string() + " " + std::to_string(ttl) + " IN " + dns::to_string(type) + " ";
  std::visit(
      [&](const auto& data) {
        using T = std::decay_t<decltype(data)>;
        if constexpr (std::is_same_v<T, ARdata>) {
          out += data.address.to_string();
        } else if constexpr (std::is_same_v<T, CnameRdata>) {
          out += data.target.to_string();
        } else if constexpr (std::is_same_v<T, NsRdata>) {
          out += data.nameserver.to_string();
        } else if constexpr (std::is_same_v<T, PtrRdata>) {
          out += data.name.to_string();
        } else if constexpr (std::is_same_v<T, TxtRdata>) {
          for (const auto& s : data.strings) out += "\"" + s + "\" ";
        } else if constexpr (std::is_same_v<T, SoaRdata>) {
          out += data.mname.to_string() + " " + data.rname.to_string() + " " +
                 std::to_string(data.serial);
        } else if constexpr (std::is_same_v<T, RawRdata>) {
          out += "\\# " + std::to_string(data.bytes.size());
        }
      },
      rdata);
  return out;
}

}  // namespace drongo::dns
