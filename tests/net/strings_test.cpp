#include "net/strings.hpp"

#include <gtest/gtest.h>

namespace drongo::net {
namespace {

TEST(SplitTest, BasicSplitting) {
  auto parts = split("a|b|c", '|');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(SplitTest, PreservesEmptyFields) {
  auto parts = split("|a||", '|');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "");
  EXPECT_EQ(parts[1], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "");
}

TEST(SplitTest, NoSeparatorGivesSingleField) {
  auto parts = split("plain", '.');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "plain");
}

TEST(SplitTest, EmptyInputGivesOneEmptyField) {
  auto parts = split("", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(ToLowerTest, LowersAsciiOnly) {
  EXPECT_EQ(to_lower("MiXeD.Case123"), "mixed.case123");
  EXPECT_EQ(to_lower(""), "");
}

TEST(DomainSuffixTest, ExactAndSubdomainMatch) {
  EXPECT_TRUE(domain_has_suffix("example.com", "example.com"));
  EXPECT_TRUE(domain_has_suffix("www.example.com", "example.com"));
  EXPECT_TRUE(domain_has_suffix("a.b.example.com", "example.com"));
  EXPECT_TRUE(domain_has_suffix("WWW.EXAMPLE.COM", "example.com"));
}

TEST(DomainSuffixTest, RejectsPartialLabelMatch) {
  // "badexample.com" must not match suffix "example.com".
  EXPECT_FALSE(domain_has_suffix("badexample.com", "example.com"));
  EXPECT_FALSE(domain_has_suffix("com", "example.com"));
  EXPECT_FALSE(domain_has_suffix("example.org", "example.com"));
}

TEST(DomainSuffixTest, EmptySuffixMatchesEverything) {
  EXPECT_TRUE(domain_has_suffix("anything.at.all", ""));
}

TEST(RegistrableDomainTest, LastTwoLabels) {
  EXPECT_EQ(registrable_domain_view("r7.core.att.net"), "att.net");
  EXPECT_EQ(registrable_domain_view("edge1.frankfurt.bbone3.net"), "bbone3.net");
  EXPECT_EQ(registrable_domain_view("host.example"), "host.example");
  EXPECT_EQ(registrable_domain_view("single"), "single");
  // A view keeps the original case; the hop filter compares with iequals.
  EXPECT_EQ(registrable_domain_view("A.B.C.D"), "C.D");
  EXPECT_TRUE(iequals(registrable_domain_view("A.B.C.D"), "c.d"));
}

TEST(RegistrableDomainTest, HandlesTrailingDot) {
  EXPECT_EQ(registrable_domain_view("www.example.com."), "example.com");
}

}  // namespace
}  // namespace drongo::net
