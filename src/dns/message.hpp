// DNS message: header, sections, full wire codec, EDNS integration.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "dns/edns.hpp"
#include "dns/name.hpp"
#include "dns/rr.hpp"
#include "dns/types.hpp"

namespace drongo::dns {

/// The 12-byte DNS header (RFC 1035 §4.1.1), flags broken out.
struct Header {
  std::uint16_t id = 0;
  bool qr = false;                  ///< false = query, true = response.
  Opcode opcode = Opcode::kQuery;
  bool aa = false;                  ///< authoritative answer.
  bool tc = false;                  ///< truncated.
  bool rd = true;                   ///< recursion desired.
  bool ra = false;                  ///< recursion available.
  Rcode rcode = Rcode::kNoError;

  friend bool operator==(const Header&, const Header&) = default;
};

/// A question-section entry.
struct Question {
  DnsName name;
  RrType type = RrType::kA;
  RrClass klass = RrClass::kIn;

  friend bool operator==(const Question&, const Question&) = default;
};

/// The question section. Every message the stack builds carries exactly
/// one question, so that one lives inside the object and a message costs no
/// heap block for it; a decoded message with QDCOUNT > 1 moves all of its
/// questions into one vector. Contiguous, with the vector calls the codec
/// and its callers use.
class QuestionList {
 public:
  using value_type = Question;
  using iterator = Question*;
  using const_iterator = const Question*;

  [[nodiscard]] std::size_t size() const {
    return spill_.empty() ? (has_first_ ? 1 : 0) : spill_.size();
  }
  [[nodiscard]] bool empty() const { return size() == 0; }

  [[nodiscard]] Question* data() { return spill_.empty() ? &first_ : spill_.data(); }
  [[nodiscard]] const Question* data() const { return spill_.empty() ? &first_ : spill_.data(); }
  [[nodiscard]] const_iterator begin() const { return data(); }
  [[nodiscard]] const_iterator end() const { return data() + size(); }

  Question& operator[](std::size_t i) { return data()[i]; }
  const Question& operator[](std::size_t i) const { return data()[i]; }

  void push_back(Question q) { emplace_back(std::move(q)); }

  template <typename... Args>
  Question& emplace_back(Args&&... args) {
    // Built before anything moves, so an argument may refer into the list.
    Question q{std::forward<Args>(args)...};
    if (spill_.empty() && !has_first_) {
      first_ = std::move(q);
      has_first_ = true;
      return first_;
    }
    if (spill_.empty()) spill_.push_back(std::move(first_));
    return spill_.emplace_back(std::move(q));
  }

  friend bool operator==(const QuestionList& a, const QuestionList& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  Question first_;
  bool has_first_ = false;
  std::vector<Question> spill_;  // every question, once there are two or more
};

/// A full DNS message.
///
/// The OPT pseudo-record is lifted out of the additional section into `edns`
/// on decode and re-synthesized on encode, so callers manipulate ECS through
/// `Message::edns->client_subnet` and never touch OPT wire details.
struct Message {
  Header header;
  QuestionList questions;
  std::vector<ResourceRecord> answers;
  std::vector<ResourceRecord> authority;
  std::vector<ResourceRecord> additional;
  std::optional<Edns> edns;

  /// Builds an A-record query for `name`, optionally carrying an ECS subnet.
  /// This is the only query shape Drongo sends.
  static Message make_query(std::uint16_t id, const DnsName& name,
                            std::optional<net::IpPrefix> ecs_subnet = std::nullopt,
                            RrType type = RrType::kA);

  /// Builds a response skeleton echoing the query's id, question, and (per
  /// RFC 7871) its ECS option with `scope_prefix_length` set to `ecs_scope`.
  static Message make_response(const Message& query, Rcode rcode = Rcode::kNoError,
                               std::optional<int> ecs_scope = std::nullopt);

  /// The ECS option if present.
  [[nodiscard]] const std::optional<ClientSubnet>& client_subnet() const;

  /// Sets (or replaces) the ECS option, creating the EDNS block if needed.
  void set_client_subnet(const ClientSubnet& ecs);

  /// Removes the ECS option, leaving other EDNS state intact.
  void clear_client_subnet();

  /// All A-record addresses from the answer section, in order. Order matters:
  /// Drongo always takes the FIRST address, respecting CDN load balancing.
  [[nodiscard]] std::vector<net::Ipv4Addr> answer_addresses() const;

  /// Serializes to wire format with name compression.
  [[nodiscard]] std::vector<std::uint8_t> encode() const;

  /// encode() into `out`, reusing its capacity (the vector is cleared
  /// first). The serving hot path encodes every reply through one
  /// per-listener scratch vector so steady-state traffic allocates no
  /// fresh wire buffer per message.
  void encode_to(std::vector<std::uint8_t>& out) const;

  /// Parses wire format. Throws ParseError on malformed input.
  static Message decode(std::span<const std::uint8_t> wire);

  /// Multi-line human-readable dump (dig-like).
  [[nodiscard]] std::string to_string() const;
};

}  // namespace drongo::dns
