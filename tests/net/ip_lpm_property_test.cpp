// Differential property harness for the dual-stack IpLpmTrie: the trie and
// a naive std::map<IpPrefix> linear-scan model are driven through identical
// derived-RNG corpora of mixed-family insert / erase / longest-match
// interleavings (v4 lengths 0-32, v6 lengths 0-128) and must agree at every
// step — including that a lookup never crosses families. Divergences print
// the corpus seed for deterministic replay:
//
//   DRONGO_LPM_PROPERTY_SEED=<seed> ./ipv6_tests --gtest_filter='IpLpmProperty*'
#include "net/lpm.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "net/error.hpp"
#include "net/ipaddr.hpp"
#include "net/rng.hpp"

namespace drongo::net {
namespace {

constexpr std::uint64_t kDefaultSeed = 20260809;

std::uint64_t corpus_seed() {
  // drongo-lint: allow(nondeterminism) — test-only replay knob, corpus is
  // fixed unless explicitly overridden.
  if (const char* env = std::getenv("DRONGO_LPM_PROPERTY_SEED")) {
    return std::strtoull(env, nullptr, 10);
  }
  return kDefaultSeed;
}

/// The reference model: a sorted map scanned linearly, with the family
/// check spelled out (IpPrefix::contains already refuses cross-family).
class NaiveIpLpm {
 public:
  void insert(const IpPrefix& p, int value) { entries_[p] = value; }
  bool erase(const IpPrefix& p) { return entries_.erase(p) > 0; }

  [[nodiscard]] const int* find(const IpPrefix& p) const {
    const auto it = entries_.find(p);
    return it == entries_.end() ? nullptr : &it->second;
  }

  [[nodiscard]] std::optional<std::pair<IpPrefix, int>> longest_match(
      const IpAddr& addr, int max_length) const {
    std::optional<std::pair<IpPrefix, int>> best;
    for (const auto& [p, v] : entries_) {
      if (p.length() > max_length || !p.contains(addr)) continue;
      if (!best || p.length() > best->first.length()) best = {p, v};
    }
    return best;
  }

  [[nodiscard]] std::vector<std::pair<IpPrefix, int>> match_chain(
      const IpAddr& addr, int max_length) const {
    std::vector<std::pair<IpPrefix, int>> out;
    for (const auto& [p, v] : entries_) {
      if (p.length() <= max_length && p.contains(addr)) out.emplace_back(p, v);
    }
    std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
      return a.first.length() > b.first.length();
    });
    return out;
  }

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] const std::map<IpPrefix, int>& entries() const { return entries_; }

 private:
  std::map<IpPrefix, int> entries_;
};

/// Mixed-family generator biased toward nested/adjacent prefixes, exactly
/// like the v4 harness's PrefixGen but emitting both families — including
/// v6 prefixes built from the sim's v4 embedding so the two families carry
/// correlated bit patterns (the nastiest case for a shared-core bug).
class IpPrefixGen {
 public:
  explicit IpPrefixGen(Rng* rng) : rng_(rng) {}

  IpPrefix next() {
    IpPrefix p = make();
    history_.push_back(p);
    if (history_.size() > 64) history_.erase(history_.begin());
    return p;
  }

  IpAddr next_addr() {
    if (!history_.empty() && rng_->chance(0.7)) {
      const IpPrefix& base = history_[rng_->index(history_.size())];
      return inside(base);
    }
    return random_addr(rng_->chance(0.5) ? IpFamily::kV4 : IpFamily::kV6);
  }

 private:
  IpPrefix make() {
    if (!history_.empty() && rng_->chance(0.5)) {
      const IpPrefix& base = history_[rng_->index(history_.size())];
      const int bits = family_bits(base.family());
      const int len = static_cast<int>(rng_->uniform(static_cast<std::uint64_t>(bits) + 1));
      if (len <= base.length()) return base.truncated(len);
      return IpPrefix(inside(base), len);
    }
    const IpFamily family = rng_->chance(0.5) ? IpFamily::kV4 : IpFamily::kV6;
    const int len = static_cast<int>(
        rng_->uniform(static_cast<std::uint64_t>(family_bits(family)) + 1));
    return IpPrefix(random_addr(family), len);
  }

  /// A uniformly random host inside `base` (low bits randomized).
  IpAddr inside(const IpPrefix& base) {
    if (base.family() == IpFamily::kV4) {
      const std::uint32_t net_mask =
          base.length() == 0 ? 0 : ~std::uint32_t{0} << (32 - base.length());
      return IpAddr(Ipv4Addr(base.network().v4().to_uint() |
                             (static_cast<std::uint32_t>(rng_->next_u64()) & ~net_mask)));
    }
    const Ipv6Addr net = base.network().v6();
    const int len = base.length();
    const std::uint64_t hi_mask =
        len >= 64 ? ~std::uint64_t{0}
                  : (len == 0 ? 0 : ~std::uint64_t{0} << (64 - len));
    const std::uint64_t lo_mask =
        len <= 64 ? 0
        : len >= 128 ? ~std::uint64_t{0}
                     : ~std::uint64_t{0} << (128 - len);
    return IpAddr(Ipv6Addr(net.hi() | (rng_->next_u64() & ~hi_mask),
                           net.lo() | (rng_->next_u64() & ~lo_mask)));
  }

  IpAddr random_addr(IpFamily family) {
    if (family == IpFamily::kV4) {
      return IpAddr(Ipv4Addr(static_cast<std::uint32_t>(rng_->next_u64())));
    }
    // A third of random v6 addresses come from the sim embedding so v4 and
    // v6 keys share bit patterns without sharing matches.
    if (rng_->chance(0.33)) {
      return IpAddr(embed_v4(Ipv4Addr(static_cast<std::uint32_t>(rng_->next_u64()))));
    }
    return IpAddr(Ipv6Addr(rng_->next_u64(), rng_->next_u64()));
  }

  Rng* rng_;
  std::vector<IpPrefix> history_;
};

void expect_same_walk(const IpLpmTrie<int>& trie, const NaiveIpLpm& naive,
                      std::uint64_t seed, int round, int step) {
  std::vector<std::pair<IpPrefix, int>> walked;
  trie.walk([&](const IpPrefix& p, const int& v) { walked.emplace_back(p, v); });
  ASSERT_EQ(walked.size(), naive.size())
      << "walk size diverged (seed=" << seed << " round=" << round
      << " step=" << step << ")";
  auto it = naive.entries().begin();
  for (std::size_t i = 0; i < walked.size(); ++i, ++it) {
    // Walk order is all v4 (canonical order) then all v6 — which is exactly
    // std::map<IpPrefix>'s (family, network, length) order.
    ASSERT_EQ(walked[i].first, it->first)
        << "walk order diverged at " << i << " (seed=" << seed
        << " round=" << round << " step=" << step << ")";
    ASSERT_EQ(walked[i].second, it->second);
  }
}

TEST(IpLpmPropertyTest, TrieMatchesNaiveModelAcrossFamilies) {
  const std::uint64_t seed = corpus_seed();
  std::cout << "[ corpus   ] DRONGO_LPM_PROPERTY_SEED=" << seed << "\n";
  constexpr int kRounds = 16;
  constexpr int kSteps = 600;

  for (int round = 0; round < kRounds; ++round) {
    Rng rng = Rng::derive(seed, 2000 + static_cast<std::uint64_t>(round));
    IpPrefixGen gen(&rng);
    IpLpmTrie<int> trie;
    NaiveIpLpm naive;
    int next_token = 0;

    for (int step = 0; step < kSteps; ++step) {
      const double roll = rng.uniform01();
      if (roll < 0.40) {
        const IpPrefix p = gen.next();
        const int token = next_token++;
        trie.insert(p, token);
        naive.insert(p, token);
      } else if (roll < 0.60) {
        const IpPrefix p = gen.next();
        ASSERT_EQ(trie.erase(p), naive.erase(p))
            << "erase diverged on " << p.to_string() << " (seed=" << seed
            << " round=" << round << " step=" << step << ")";
      } else if (roll < 0.75) {
        const IpPrefix p = gen.next();
        const int* expect = naive.find(p);
        const int* got = trie.find(p);
        ASSERT_EQ(got != nullptr, expect != nullptr)
            << "find diverged on " << p.to_string() << " (seed=" << seed
            << " round=" << round << " step=" << step << ")";
        if (expect != nullptr) {
          ASSERT_EQ(*got, *expect);
        }
      } else {
        const IpAddr addr = gen.next_addr();
        const int max_len = static_cast<int>(rng.uniform(
            static_cast<std::uint64_t>(family_bits(addr.family())) + 1));
        const auto expect = naive.longest_match(addr, max_len);
        const auto got = trie.longest_match(addr, max_len);
        ASSERT_EQ(got.has_value(), expect.has_value())
            << "longest_match diverged on " << addr.to_string() << "/<=" << max_len
            << " (seed=" << seed << " round=" << round << " step=" << step << ")";
        if (expect) {
          ASSERT_EQ(got->prefix, expect->first);
          ASSERT_EQ(*got->value, expect->second);
        }
        const auto expect_chain = naive.match_chain(addr, max_len);
        const auto got_chain = trie.match_chain(addr, max_len);
        ASSERT_EQ(got_chain.size(), expect_chain.size())
            << "match_chain diverged on " << addr.to_string() << "/<=" << max_len
            << " (seed=" << seed << " round=" << round << " step=" << step << ")";
        for (std::size_t i = 0; i < got_chain.size(); ++i) {
          ASSERT_EQ(got_chain[i].prefix, expect_chain[i].first);
          ASSERT_EQ(*got_chain[i].value, expect_chain[i].second);
        }
      }
      ASSERT_EQ(trie.size(), naive.size())
          << "(seed=" << seed << " round=" << round << " step=" << step << ")";
      if (step % 100 == 99) expect_same_walk(trie, naive, seed, round, step);
    }
    expect_same_walk(trie, naive, seed, round, kSteps);
    ASSERT_LT(trie.node_count(), 2 * std::max<std::size_t>(1, trie.size()) + 1);

    std::vector<IpPrefix> leftover;
    trie.walk([&](const IpPrefix& p, const int&) { leftover.push_back(p); });
    rng.shuffle(leftover);
    for (const IpPrefix& p : leftover) {
      ASSERT_TRUE(trie.erase(p));
      naive.erase(p);
      ASSERT_EQ(trie.size(), naive.size());
    }
    ASSERT_TRUE(trie.empty());
    ASSERT_EQ(trie.node_count(), 0u);
  }
}

TEST(IpLpmPropertyTest, FamiliesNeverCrossMatch) {
  IpLpmTrie<int> trie;
  // The two "match everything" prefixes and the correlated embedded pair.
  trie.insert(IpPrefix::zero(IpFamily::kV4), 4);
  trie.insert(IpPrefix::zero(IpFamily::kV6), 6);
  trie.insert(Prefix::must_parse("20.1.2.0/24"), 424);
  trie.insert(embed_v4_prefix(Prefix::must_parse("20.1.2.0/24")), 656);

  const auto v4 = trie.longest_match(IpAddr(Ipv4Addr(20, 1, 2, 3)), 32);
  ASSERT_TRUE(v4.has_value());
  EXPECT_EQ(*v4->value, 424);
  const auto v6 = trie.longest_match(IpAddr(embed_v4(Ipv4Addr(20, 1, 2, 3))), 128);
  ASSERT_TRUE(v6.has_value());
  EXPECT_EQ(*v6->value, 656);

  // With the specific entries gone, each family falls back to ITS zero
  // prefix — ::/0 never answers for a v4 client and vice versa.
  ASSERT_TRUE(trie.erase(Prefix::must_parse("20.1.2.0/24")));
  ASSERT_TRUE(trie.erase(embed_v4_prefix(Prefix::must_parse("20.1.2.0/24"))));
  const auto v4_zero = trie.longest_match(IpAddr(Ipv4Addr(20, 1, 2, 3)), 32);
  ASSERT_TRUE(v4_zero.has_value());
  EXPECT_EQ(*v4_zero->value, 4);
  const auto v6_zero = trie.longest_match(IpAddr(embed_v4(Ipv4Addr(20, 1, 2, 3))), 128);
  ASSERT_TRUE(v6_zero.has_value());
  EXPECT_EQ(*v6_zero->value, 6);
  ASSERT_TRUE(trie.erase(IpPrefix::zero(IpFamily::kV6)));
  EXPECT_FALSE(trie.longest_match(IpAddr(embed_v4(Ipv4Addr(20, 1, 2, 3))), 128)
                   .has_value());
}

TEST(IpLpmPropertyTest, V6HostRoutesAndDeepPrefixesCoexist) {
  IpLpmTrie<int> trie;
  const Ipv6Addr host = Ipv6Addr::must_parse("2001:db8:cafe:f00d::42");
  trie.insert(IpPrefix(IpAddr(host), 128), 1);
  trie.insert(IpPrefix(IpAddr(host), 64), 2);
  trie.insert(IpPrefix(IpAddr(host), 56), 3);
  trie.insert(IpPrefix::zero(IpFamily::kV6), 4);
  const auto exact = trie.longest_match(IpAddr(host), 128);
  ASSERT_TRUE(exact.has_value());
  EXPECT_EQ(*exact->value, 1);
  // Capped at the RFC 7871 subnet lengths, the chain falls back in order.
  const auto at_64 = trie.longest_match(IpAddr(host), 64);
  ASSERT_TRUE(at_64.has_value());
  EXPECT_EQ(*at_64->value, 2);
  const auto chain = trie.match_chain(IpAddr(host), 128);
  ASSERT_EQ(chain.size(), 4u);
  EXPECT_EQ(chain.front().prefix.length(), 128);
  EXPECT_EQ(chain.back().prefix.length(), 0);
}

}  // namespace
}  // namespace drongo::net
