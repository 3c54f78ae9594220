// Differential property harness for the radix LPM trie's v4 side (and the
// DnsCache rebased on it): IpLpmTrie and a naive linear-scan reference model
// are driven through identical derived-RNG corpora of insert / erase /
// longest-match / expiry interleavings across prefix lengths 0-32, and must
// give identical answers at every step. Any divergence prints the corpus
// seed, so a failure replays deterministically:
//
//   DRONGO_LPM_PROPERTY_SEED=<seed> ./lpm_tests --gtest_filter='LpmProperty*'
#include "net/lpm.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "dns/cache.hpp"
#include "net/error.hpp"
#include "net/ipaddr.hpp"
#include "net/rng.hpp"

namespace drongo::net {
namespace {

constexpr std::uint64_t kDefaultSeed = 20260809;

/// The trie's candidate chain for `addr`, collected through visit_chain().
std::vector<IpLpmTrie<int>::Match> chain_of(IpLpmTrie<int>& trie, const IpAddr& addr,
                                            int max_length) {
  std::vector<IpLpmTrie<int>::Match> out;
  trie.visit_chain(addr, max_length, [&](const IpPrefix& prefix, int& value) {
    out.push_back({prefix, &value});
    return false;
  });
  return out;
}

/// The corpus seed: fixed by default (CI must be reproducible), overridable
/// to replay a logged failure.
std::uint64_t corpus_seed() {
  // drongo-lint: allow(nondeterminism) — test-only replay knob, corpus is
  // fixed unless explicitly overridden.
  if (const char* env = std::getenv("DRONGO_LPM_PROPERTY_SEED")) {
    return std::strtoull(env, nullptr, 10);
  }
  return kDefaultSeed;
}

/// The reference model: a sorted map scanned linearly. Obviously correct,
/// no shared structure with the trie.
class NaiveLpm {
 public:
  void insert(const Prefix& p, int value) { entries_[p] = value; }
  bool erase(const Prefix& p) { return entries_.erase(p) > 0; }

  [[nodiscard]] const int* find(const Prefix& p) const {
    const auto it = entries_.find(p);
    return it == entries_.end() ? nullptr : &it->second;
  }

  [[nodiscard]] std::optional<std::pair<Prefix, int>> longest_match(
      Ipv4Addr addr, int max_length) const {
    std::optional<std::pair<Prefix, int>> best;
    for (const auto& [p, v] : entries_) {
      if (p.length() > max_length || !p.contains(addr)) continue;
      if (!best || p.length() > best->first.length()) best = {p, v};
    }
    return best;
  }

  [[nodiscard]] std::vector<std::pair<Prefix, int>> match_chain(Ipv4Addr addr,
                                                                int max_length) const {
    std::vector<std::pair<Prefix, int>> out;
    for (const auto& [p, v] : entries_) {
      if (p.length() <= max_length && p.contains(addr)) out.emplace_back(p, v);
    }
    std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
      return a.first.length() > b.first.length();
    });
    return out;
  }

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] const std::map<Prefix, int>& entries() const { return entries_; }

 private:
  std::map<Prefix, int> entries_;
};

/// Prefix generator biased toward nested/adjacent prefixes: half the time a
/// fresh random (bits, length), half the time a mutation of one we already
/// made (truncated wider or extended deeper), so containment chains, exact
/// collisions, and near-miss siblings all occur constantly.
class PrefixGen {
 public:
  explicit PrefixGen(Rng* rng) : rng_(rng) {}

  Prefix next() {
    Prefix p = make();
    history_.push_back(p);
    if (history_.size() > 64) history_.erase(history_.begin());
    return p;
  }

  Ipv4Addr next_addr() {
    if (!history_.empty() && rng_->chance(0.7)) {
      // An address inside a known prefix finds real chains, not just /0.
      const Prefix& base = history_[rng_->index(history_.size())];
      const std::uint32_t host_mask =
          ~(base.length() == 0 ? 0U : ~std::uint32_t{0} << (32 - base.length()));
      return Ipv4Addr(base.network().to_uint() |
                      (static_cast<std::uint32_t>(rng_->next_u64()) & host_mask));
    }
    return Ipv4Addr(static_cast<std::uint32_t>(rng_->next_u64()));
  }

 private:
  Prefix make() {
    if (!history_.empty() && rng_->chance(0.5)) {
      const Prefix& base = history_[rng_->index(history_.size())];
      const int len = static_cast<int>(rng_->uniform(33));
      if (len <= base.length()) return base.truncated(len);
      // Extend deeper with random low bits.
      const std::uint32_t extra = static_cast<std::uint32_t>(rng_->next_u64());
      return Prefix(Ipv4Addr(base.network().to_uint() | extra), len);
    }
    return Prefix(Ipv4Addr(static_cast<std::uint32_t>(rng_->next_u64())),
                  static_cast<int>(rng_->uniform(33)));
  }

  Rng* rng_;
  std::vector<Prefix> history_;
};

void expect_same_walk(const IpLpmTrie<int>& trie, const NaiveLpm& naive,
                      std::uint64_t seed, int round, int step) {
  std::vector<std::pair<IpPrefix, int>> walked;
  trie.walk([&](const IpPrefix& p, const int& v) { walked.emplace_back(p, v); });
  ASSERT_EQ(walked.size(), naive.size())
      << "walk size diverged (seed=" << seed << " round=" << round
      << " step=" << step << ")";
  auto it = naive.entries().begin();
  for (std::size_t i = 0; i < walked.size(); ++i, ++it) {
    // The trie's canonical walk order (shorter prefix before its subtree,
    // zero branch first) IS the map's (network, length) order.
    ASSERT_EQ(walked[i].first, IpPrefix(it->first))
        << "walk order diverged at " << i << " (seed=" << seed
        << " round=" << round << " step=" << step << ")";
    ASSERT_EQ(walked[i].second, it->second);
  }
}

TEST(LpmPropertyTest, TrieMatchesNaiveModelThroughRandomInterleavings) {
  const std::uint64_t seed = corpus_seed();
  // Logged so any assertion below replays: the whole corpus derives from it.
  std::cout << "[ corpus   ] DRONGO_LPM_PROPERTY_SEED=" << seed << "\n";
  constexpr int kRounds = 24;
  constexpr int kSteps = 700;

  for (int round = 0; round < kRounds; ++round) {
    Rng rng = Rng::derive(seed, static_cast<std::uint64_t>(round));
    PrefixGen gen(&rng);
    IpLpmTrie<int> trie;
    NaiveLpm naive;
    int next_token = 0;

    for (int step = 0; step < kSteps; ++step) {
      const double roll = rng.uniform01();
      if (roll < 0.40) {
        const Prefix p = gen.next();
        const int token = next_token++;
        trie.insert(p, token);
        naive.insert(p, token);
      } else if (roll < 0.60) {
        const Prefix p = gen.next();
        ASSERT_EQ(trie.erase(p), naive.erase(p))
            << "erase diverged on " << p.to_string() << " (seed=" << seed
            << " round=" << round << " step=" << step << ")";
      } else if (roll < 0.75) {
        const Prefix p = gen.next();
        const int* expect = naive.find(p);
        const int* got = trie.find(p);
        ASSERT_EQ(got != nullptr, expect != nullptr)
            << "find diverged on " << p.to_string() << " (seed=" << seed
            << " round=" << round << " step=" << step << ")";
        if (expect != nullptr) {
          ASSERT_EQ(*got, *expect);
        }
      } else {
        const Ipv4Addr addr = gen.next_addr();
        const int max_len = static_cast<int>(rng.uniform(33));
        const auto expect = naive.longest_match(addr, max_len);
        const auto got = trie.longest_match(addr, max_len);
        ASSERT_EQ(got.has_value(), expect.has_value())
            << "longest_match diverged on " << addr.to_string() << "/<=" << max_len
            << " (seed=" << seed << " round=" << round << " step=" << step << ")";
        if (expect) {
          ASSERT_EQ(got->prefix, IpPrefix(expect->first));
          ASSERT_EQ(*got->value, expect->second);
        }
        const auto expect_chain = naive.match_chain(addr, max_len);
        const auto got_chain = chain_of(trie, addr, max_len);
        ASSERT_EQ(got_chain.size(), expect_chain.size())
            << "match_chain diverged on " << addr.to_string() << "/<=" << max_len
            << " (seed=" << seed << " round=" << round << " step=" << step << ")";
        for (std::size_t i = 0; i < got_chain.size(); ++i) {
          ASSERT_EQ(got_chain[i].prefix, IpPrefix(expect_chain[i].first));
          ASSERT_EQ(*got_chain[i].value, expect_chain[i].second);
        }
      }
      ASSERT_EQ(trie.size(), naive.size())
          << "(seed=" << seed << " round=" << round << " step=" << step << ")";
      if (step % 100 == 99) expect_same_walk(trie, naive, seed, round, step);
    }
    expect_same_walk(trie, naive, seed, round, kSteps);
    // Path compression invariant: at most one branch-only node per stored
    // prefix (a Patricia trie's structural bound).
    ASSERT_LT(trie.node_count(), 2 * std::max<std::size_t>(1, trie.size()) + 1);

    // Drain the round's survivors through erase so teardown exercises every
    // splice/merge shape the corpus built.
    std::vector<Prefix> leftover;
    trie.walk([&](const IpPrefix& p, const int&) { leftover.push_back(*p.to_v4()); });
    rng.shuffle(leftover);
    for (const Prefix& p : leftover) {
      ASSERT_TRUE(trie.erase(p));
      naive.erase(p);
      ASSERT_EQ(trie.size(), naive.size());
    }
    ASSERT_TRUE(trie.empty());
    ASSERT_EQ(trie.node_count(), 0u);
  }
}

/// The reference model of the rebased DnsCache's lookup semantics: among
/// cached scopes containing the client subnet (longest first), expired ones
/// erase in passing and the first live one answers.
struct NaiveCacheEntry {
  std::string name;
  Prefix scope;
  std::uint64_t expiry_ms = 0;
  int token = 0;
};

class NaiveDnsCache {
 public:
  void insert(const std::string& name, const Prefix& scope, std::uint64_t expiry_ms,
              int token) {
    for (auto& e : entries_) {
      if (e.name == name && e.scope == scope) {
        e.expiry_ms = expiry_ms;
        e.token = token;
        return;
      }
    }
    entries_.push_back({name, scope, expiry_ms, token});
  }

  /// Returns the answering token (or nullopt) and counts erased-expired.
  std::optional<int> lookup(const std::string& name, const Prefix& subnet,
                            std::uint64_t now_ms, int* erased_expired) {
    std::vector<std::size_t> chain;
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const auto& e = entries_[i];
      if (e.name == name && e.scope.length() <= subnet.length() &&
          e.scope.contains(subnet.network())) {
        chain.push_back(i);
      }
    }
    std::sort(chain.begin(), chain.end(), [&](std::size_t a, std::size_t b) {
      return entries_[a].scope.length() > entries_[b].scope.length();
    });
    std::optional<int> answer;
    std::vector<std::size_t> dead;
    for (const std::size_t i : chain) {
      if (entries_[i].expiry_ms <= now_ms) {
        dead.push_back(i);
        ++*erased_expired;
        continue;
      }
      answer = entries_[i].token;
      break;
    }
    std::sort(dead.rbegin(), dead.rend());
    for (const std::size_t i : dead) {
      entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(i));
    }
    return answer;
  }

  [[nodiscard]] std::size_t size() const { return entries_.size(); }

 private:
  std::vector<NaiveCacheEntry> entries_;
};

TEST(LpmPropertyTest, DnsCacheMatchesNaiveModelUnderExpiryInterleavings) {
  const std::uint64_t seed = corpus_seed();
  std::cout << "[ corpus   ] DRONGO_LPM_PROPERTY_SEED=" << seed << "\n";
  const std::vector<dns::DnsName> names = {
      dns::DnsName::must_parse("a.cdn.sim"),
      dns::DnsName::must_parse("b.cdn.sim"),
      dns::DnsName::must_parse("c.cdn.sim"),
  };
  constexpr int kRounds = 12;
  constexpr int kSteps = 400;

  for (int round = 0; round < kRounds; ++round) {
    Rng rng = Rng::derive(seed, 1000 + static_cast<std::uint64_t>(round));
    PrefixGen gen(&rng);
    // Unbounded for the corpus sizes used here: LRU eviction has its own
    // unit tests; this harness isolates scope-matching + expiry semantics.
    dns::DnsCache cache(100000);
    NaiveDnsCache naive;
    std::uint64_t now_ms = 0;
    int next_token = 1;
    int expected_expired = 0;

    for (int step = 0; step < kSteps; ++step) {
      now_ms += rng.uniform(200);
      const auto& name = names[rng.index(names.size())];
      if (rng.chance(0.45)) {
        const Prefix scope = gen.next();
        const int token = next_token++;
        const auto ttl = static_cast<std::uint32_t>(rng.uniform(4));  // 0-3s
        cache.insert(name, scope, {Ipv4Addr(static_cast<std::uint32_t>(token))}, ttl,
                     now_ms);
        naive.insert(name.canonical(), scope, now_ms + ttl * 1000ULL, token);
      } else {
        const Prefix subnet = Prefix(gen.next_addr(), 8 + static_cast<int>(rng.uniform(25)));
        const auto got = cache.lookup(name, subnet, now_ms);
        const auto expect = naive.lookup(name.canonical(), subnet, now_ms,
                                         &expected_expired);
        ASSERT_EQ(got.has_value(), expect.has_value())
            << "cache lookup diverged for " << name.to_string() << " "
            << subnet.to_string() << " at t=" << now_ms << " (seed=" << seed
            << " round=" << round << " step=" << step << ")";
        if (expect) {
          ASSERT_EQ(got->addresses.front(),
                    Ipv4Addr(static_cast<std::uint32_t>(*expect)))
              << "(seed=" << seed << " round=" << round << " step=" << step << ")";
        }
      }
      ASSERT_EQ(cache.size(), naive.size())
          << "(seed=" << seed << " round=" << round << " step=" << step << ")";
      ASSERT_EQ(cache.stats().expired, static_cast<std::uint64_t>(expected_expired))
          << "(seed=" << seed << " round=" << round << " step=" << step << ")";
    }
  }
}

TEST(LpmPropertyTest, RejectsOutOfRangeLengths) {
  IpLpmTrie<int> trie;
  trie.insert(Prefix::must_parse("1.2.3.0/24"), 1);
  const IpAddr v4(Ipv4Addr(1, 2, 3, 4));
  // Each family is bounded by its own width: a v4 lookup past /32 is a
  // caller bug, not a /32 lookup.
  for (const int bad : {-1, 33, 64, 128}) {
    EXPECT_THROW((void)trie.longest_match(v4, bad), InvalidArgument) << bad;
    EXPECT_THROW((void)chain_of(trie, v4, bad), InvalidArgument) << bad;
  }
  const IpAddr v6(Ipv6Addr::must_parse("2001:db8::1"));
  for (const int bad : {-1, 129}) {
    EXPECT_THROW((void)trie.longest_match(v6, bad), InvalidArgument) << bad;
    EXPECT_THROW((void)chain_of(trie, v6, bad), InvalidArgument) << bad;
  }
  // The edges of each range stay valid.
  EXPECT_TRUE(trie.longest_match(v4, 32).has_value());
  EXPECT_FALSE(trie.longest_match(v4, 0).has_value());
  EXPECT_FALSE(trie.longest_match(v6, 128).has_value());
  EXPECT_TRUE(chain_of(trie, v6, 0).empty());
}

TEST(LpmPropertyTest, SlashZeroAndSlash32Coexist) {
  IpLpmTrie<int> trie;
  trie.insert(Prefix::must_parse("0.0.0.0/0"), 1);
  trie.insert(Prefix::must_parse("10.1.2.3/32"), 2);
  trie.insert(Prefix::must_parse("10.1.2.0/24"), 3);
  const auto exact = trie.longest_match(Ipv4Addr(10, 1, 2, 3), 32);
  ASSERT_TRUE(exact.has_value());
  EXPECT_EQ(*exact->value, 2);
  // Capped below /32, the /24 answers; capped below /24, only /0 remains.
  const auto capped = trie.longest_match(Ipv4Addr(10, 1, 2, 3), 31);
  ASSERT_TRUE(capped.has_value());
  EXPECT_EQ(*capped->value, 3);
  const auto wide = trie.longest_match(Ipv4Addr(10, 1, 2, 3), 23);
  ASSERT_TRUE(wide.has_value());
  EXPECT_EQ(*wide->value, 1);
}

}  // namespace
}  // namespace drongo::net
