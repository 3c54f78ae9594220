#include "measure/dataset.hpp"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <ostream>
#include <sstream>

#include "net/error.hpp"
#include "net/strings.hpp"

namespace drongo::measure {

namespace {

// v2 carries per-trial outcome/failure fields and the health line. v3 adds
// `race|` lines (GWTW standings) and is emitted only when a record carries
// race data, so racing-free campaigns keep producing v2 files.
constexpr const char* kMagicV2 = "drongo-dataset-v2";
constexpr const char* kMagicV3 = "drongo-dataset-v3";

/// Counter count of a v2 `health|` line, derived from the same schema that
/// declares HealthCounters — growing the schema keeps writer, parser, and
/// this check in lockstep (and is the cue to bump the magic).
constexpr std::size_t kHealthFieldCount = [] {
  std::size_t n = 0;
#define DRONGO_OBS_COUNT_FIELD(field) ++n;
  DRONGO_OBS_HEALTH_COUNTERS(DRONGO_OBS_COUNT_FIELD)
#undef DRONGO_OBS_COUNT_FIELD
  return n;
}();

/// '|' is the field separator, so it must not appear inside a free-text
/// failure message (they never do today; this guards future messages).
std::string sanitize_field(std::string s) {
  for (char& c : s) {
    if (c == '|' || c == '\n') c = '/';
  }
  return s;
}

double parse_double(const std::string& s) {
  std::size_t used = 0;
  double v = 0.0;
  try {
    v = std::stod(s, &used);
  } catch (const std::exception&) {
    used = std::string::npos;  // flag failure; report through the taxonomy below
  }
  if (used != s.size()) throw net::ParseError("bad number '" + s + "' in dataset");
  return v;
}

std::uint64_t parse_u64(const std::string& s) {
  std::uint64_t v = 0;
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || ptr != s.data() + s.size()) {
    throw net::ParseError("bad integer '" + s + "' in dataset");
  }
  return v;
}

}  // namespace

void save_dataset(std::ostream& out, const std::vector<TrialRecord>& records) {
  // Full round-trip precision for the measurement values.
  out.precision(17);
  const bool any_race =
      std::any_of(records.begin(), records.end(),
                  [](const TrialRecord& r) { return !r.race.empty(); });
  out << (any_race ? kMagicV3 : kMagicV2) << "\n";
  for (const auto& r : records) {
    out << "trial|" << r.provider << "|" << r.domain << "|" << r.client_index << "|"
        << r.client.to_string() << "|" << r.time_hours << "|" << to_string(r.outcome)
        << "|" << sanitize_field(r.failure) << "\n";
    // Field order is the obs schema order — the same list that declares the
    // struct. Byte-compatible with the hand-written v2 writer it replaced.
    const HealthCounters& h = r.health;
    out << "health";
#define DRONGO_OBS_WRITE_FIELD(field) out << "|" << h.field;
    DRONGO_OBS_HEALTH_COUNTERS(DRONGO_OBS_WRITE_FIELD)
#undef DRONGO_OBS_WRITE_FIELD
    out << "\n";
    for (const auto& m : r.cr) {
      out << "cr|" << m.replica.to_string() << "|" << m.rtt_ms << "|"
          << m.download_first_ms << "|" << m.download_cached_ms << "\n";
    }
    for (const auto& m : r.race) {
      out << "race|" << m.replica.to_string() << "|" << m.rtt_ms << "|"
          << m.download_first_ms << "|" << m.download_cached_ms << "\n";
    }
    for (const auto& hop : r.hops) {
      out << "hop|" << hop.ip.to_string() << "|" << hop.subnet.to_string() << "|"
          << hop.rdns << "|" << hop.asn.value() << "|" << (hop.usable ? 1 : 0) << "\n";
      for (const auto& m : hop.hr) {
        out << "hr|" << m.replica.to_string() << "|" << m.rtt_ms << "|"
            << m.download_first_ms << "|" << m.download_cached_ms << "\n";
      }
    }
  }
}

void save_dataset_file(const std::string& path, const std::vector<TrialRecord>& records) {
  std::ofstream out(path);
  if (!out) throw net::Error("cannot open '" + path + "' for writing");
  save_dataset(out, records);
}

std::vector<TrialRecord> load_dataset(std::istream& in) {
  std::string line;
  if (!std::getline(in, line) ||
      (line != kMagicV2 && line != kMagicV3)) {
    throw net::ParseError("dataset missing magic header");
  }
  std::vector<TrialRecord> records;
  HopRecord* current_hop = nullptr;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const auto fields = net::split(line, '|');
    const std::string& kind = fields[0];
    if (kind == "trial") {
      if (fields.size() != 8) {
        throw net::ParseError("bad trial line: " + line);
      }
      TrialRecord r;
      r.provider = fields[1];
      r.domain = fields[2];
      r.client_index = parse_u64(fields[3]);
      r.client = net::Ipv4Addr::must_parse(fields[4]);
      r.time_hours = parse_double(fields[5]);
      r.outcome = trial_outcome_from_string(fields[6]);
      r.failure = fields[7];
      records.push_back(std::move(r));
      current_hop = nullptr;
    } else if (kind == "health") {
      if (fields.size() != kHealthFieldCount + 1 || records.empty()) {
        throw net::ParseError("bad health line: " + line);
      }
      HealthCounters& h = records.back().health;
      std::size_t next_field = 1;
#define DRONGO_OBS_READ_FIELD(field) h.field = parse_u64(fields[next_field++]);
      DRONGO_OBS_HEALTH_COUNTERS(DRONGO_OBS_READ_FIELD)
#undef DRONGO_OBS_READ_FIELD
    } else if (kind == "cr") {
      if (fields.size() != 5 || records.empty()) {
        throw net::ParseError("bad cr line: " + line);
      }
      records.back().cr.push_back({net::Ipv4Addr::must_parse(fields[1]),
                                   parse_double(fields[2]), parse_double(fields[3]),
                                   parse_double(fields[4])});
    } else if (kind == "race") {
      if (fields.size() != 5 || records.empty()) {
        throw net::ParseError("bad race line: " + line);
      }
      records.back().race.push_back({net::Ipv4Addr::must_parse(fields[1]),
                                     parse_double(fields[2]), parse_double(fields[3]),
                                     parse_double(fields[4])});
    } else if (kind == "hop") {
      if (fields.size() != 6 || records.empty()) {
        throw net::ParseError("bad hop line: " + line);
      }
      HopRecord h;
      h.ip = net::Ipv4Addr::must_parse(fields[1]);
      h.subnet = net::Prefix::must_parse(fields[2]);
      h.rdns = fields[3];
      h.asn = net::Asn(static_cast<std::uint32_t>(parse_u64(fields[4])));
      h.usable = fields[5] == "1";
      records.back().hops.push_back(std::move(h));
      current_hop = &records.back().hops.back();
    } else if (kind == "hr") {
      if (fields.size() != 5 || current_hop == nullptr) {
        throw net::ParseError("bad hr line: " + line);
      }
      current_hop->hr.push_back({net::Ipv4Addr::must_parse(fields[1]),
                                 parse_double(fields[2]), parse_double(fields[3]),
                                 parse_double(fields[4])});
    } else {
      throw net::ParseError("unknown dataset line kind: " + kind);
    }
  }
  return records;
}

std::vector<TrialRecord> load_dataset_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw net::Error("cannot open '" + path + "' for reading");
  return load_dataset(in);
}

}  // namespace drongo::measure
