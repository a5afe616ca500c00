#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "stats/rng.h"
#include "web/psl.h"
#include "web_reference.h"

namespace nbv6::web {
namespace {

TEST(SplitLabels, Basic) {
  auto l = reference::split_labels("a.b.c");
  ASSERT_EQ(l.size(), 3u);
  EXPECT_EQ(l[0], "a");
  EXPECT_EQ(l[2], "c");
  EXPECT_EQ(reference::split_labels("single").size(), 1u);
}

TEST(Psl, SimpleTld) {
  auto psl = PublicSuffixList::builtin();
  EXPECT_EQ(psl.public_suffix("example.com"), "com");
  EXPECT_EQ(psl.public_suffix("www.example.com"), "com");
}

TEST(Psl, TwoLevelSuffix) {
  auto psl = PublicSuffixList::builtin();
  EXPECT_EQ(psl.public_suffix("example.co.uk"), "co.uk");
  EXPECT_EQ(psl.public_suffix("deep.sub.example.co.uk"), "co.uk");
}

TEST(Psl, RegistrableDomain) {
  auto psl = PublicSuffixList::builtin();
  EXPECT_EQ(psl.registrable_domain("www.example.com").value(), "example.com");
  EXPECT_EQ(psl.registrable_domain("a.b.example.co.uk").value(),
            "example.co.uk");
  EXPECT_EQ(psl.registrable_domain("example.com").value(), "example.com");
}

TEST(Psl, SuffixItselfHasNoRegistrableDomain) {
  auto psl = PublicSuffixList::builtin();
  EXPECT_FALSE(psl.registrable_domain("com").has_value());
  EXPECT_FALSE(psl.registrable_domain("co.uk").has_value());
}

TEST(Psl, WildcardRule) {
  auto psl = PublicSuffixList::builtin();
  // *.ck: any single label under ck is itself a public suffix.
  EXPECT_EQ(psl.public_suffix("foo.ck"), "foo.ck");
  EXPECT_FALSE(psl.registrable_domain("foo.ck").has_value());
  EXPECT_EQ(psl.registrable_domain("site.foo.ck").value(), "site.foo.ck");
}

TEST(Psl, ExceptionRule) {
  auto psl = PublicSuffixList::builtin();
  // !www.ck: www.ck is NOT a public suffix despite *.ck.
  EXPECT_EQ(psl.public_suffix("www.ck"), "ck");
  EXPECT_EQ(psl.registrable_domain("www.ck").value(), "www.ck");
  EXPECT_EQ(psl.registrable_domain("a.www.ck").value(), "www.ck");
}

TEST(Psl, PrivateRegistrySuffixes) {
  auto psl = PublicSuffixList::builtin();
  // github.io style: each user site is its own registrable domain.
  EXPECT_EQ(psl.registrable_domain("alice.github.io").value(),
            "alice.github.io");
  EXPECT_EQ(psl.registrable_domain("x.alice.github.io").value(),
            "alice.github.io");
  EXPECT_EQ(psl.registrable_domain("tenant.cloudfront.net").value(),
            "tenant.cloudfront.net");
}

TEST(Psl, UnlistedTldUsesImplicitStar) {
  auto psl = PublicSuffixList::builtin();
  EXPECT_EQ(psl.public_suffix("example.zz"), "zz");
  EXPECT_EQ(psl.registrable_domain("www.example.zz").value(), "example.zz");
}

TEST(Psl, SameSite) {
  auto psl = PublicSuffixList::builtin();
  EXPECT_TRUE(psl.same_site("www.example.com", "static.example.com"));
  EXPECT_TRUE(psl.same_site("example.com", "example.com"));
  EXPECT_FALSE(psl.same_site("example.com", "example.org"));
  EXPECT_FALSE(psl.same_site("a.example.co.uk", "a.other.co.uk"));
  // A public suffix has no site identity at all.
  EXPECT_FALSE(psl.same_site("com", "example.com"));
}

TEST(Psl, EmptyListUsesImplicitStarOnly) {
  PublicSuffixList psl;
  EXPECT_EQ(psl.public_suffix("a.b.c"), "c");
  EXPECT_EQ(psl.registrable_domain("a.b.c").value(), "b.c");
}

TEST(Psl, AddCustomRule) {
  PublicSuffixList psl;
  psl.add_rule("custom.suffix");
  EXPECT_EQ(psl.public_suffix("x.custom.suffix"), "custom.suffix");
  EXPECT_EQ(psl.registrable_domain("a.x.custom.suffix").value(),
            "x.custom.suffix");
}

TEST(Psl, AbsoluteNamesLoseTheirRootDot) {
  auto psl = PublicSuffixList::builtin();
  EXPECT_EQ(psl.public_suffix("example.com."), "com");
  EXPECT_EQ(psl.registrable_domain("example.com.").value(), "example.com");
  EXPECT_EQ(psl.registrable_domain("www.example.co.uk.").value(),
            "example.co.uk");
  EXPECT_FALSE(psl.registrable_domain("com.").has_value());
  EXPECT_TRUE(psl.same_site("www.example.com.", "example.com"));
}

TEST(Psl, MixedCaseHostsAreCanonicalized) {
  auto psl = PublicSuffixList::builtin();
  EXPECT_TRUE(psl.same_site("WWW.Example.com", "www.example.com"));
  EXPECT_EQ(psl.public_suffix("Shop.Example.CO.UK"), "co.uk");
  EXPECT_EQ(psl.registrable_domain("WWW.Example.COM.").value(), "example.com");
  EXPECT_EQ(psl.registrable_domain("A.WWW.CK").value(), "www.ck");
  EXPECT_EQ(psl.public_suffix("Site.Foo.CK"), "foo.ck");
}

TEST(Psl, MixedCaseRulesAreCanonicalized) {
  PublicSuffixList psl;
  psl.add_rule("Custom.Suffix");
  EXPECT_EQ(psl.registrable_domain("a.x.custom.suffix").value(),
            "x.custom.suffix");
}

TEST(Psl, EmptyLabelsHaveNoRegistrableDomain) {
  auto psl = PublicSuffixList::builtin();
  EXPECT_FALSE(psl.registrable_domain("a..com").has_value());
  EXPECT_FALSE(psl.registrable_domain("..com").has_value());
  EXPECT_FALSE(psl.registrable_domain(".com").has_value());
  EXPECT_FALSE(psl.registrable_domain("").has_value());
  EXPECT_FALSE(psl.registrable_domain(".").has_value());
  // One root dot is stripped; a second leaves an empty last label.
  EXPECT_FALSE(psl.registrable_domain("example.com..").has_value());
  EXPECT_FALSE(psl.same_site("a..com", "a..com"));
}

// The view-based matcher against the string-joining one it replaced, on
// seeded random canonical hosts built around every built-in rule
// (wildcard and exception rules included) and around unlisted TLDs.
TEST(Psl, MatchesJoinBasedReferenceOnRandomHosts) {
  const auto psl = PublicSuffixList::builtin();
  const reference::JoinPsl oracle;
  std::vector<std::string> bases;
  for (std::string_view rule : PublicSuffixList::builtin_rules()) {
    if (rule[0] == '!') rule.remove_prefix(1);
    if (rule.rfind("*.", 0) == 0) rule.remove_prefix(2);
    bases.emplace_back(rule);
  }
  for (const char* tld : {"zz", "local", "uk", "jp", "au"})
    bases.emplace_back(tld);
  static constexpr const char* kLabels[] = {
      "www", "a", "b1", "cdn", "x-y", "example", "com", "co", "ck",
      "github", "io", "static", "foo", "net", "uk"};

  stats::Rng rng(0x9515);
  std::vector<std::string> hosts;
  for (int i = 0; i < 20000; ++i) {
    std::string host = bases[rng.below(bases.size())];
    const auto extra = rng.below(5);
    for (std::uint64_t l = 0; l < extra; ++l)
      host = std::string(kLabels[rng.below(std::size(kLabels))]) + "." + host;
    hosts.push_back(std::move(host));
  }
  int with_domain = 0;
  for (size_t i = 0; i < hosts.size(); ++i) {
    const std::string& h = hosts[i];
    ASSERT_EQ(psl.public_suffix(h), oracle.public_suffix(h)) << h;
    const auto got = psl.registrable_domain(h);
    ASSERT_EQ(got, oracle.registrable_domain(h)) << h;
    with_domain += got.has_value();
    const std::string& other = hosts[(i * 7919) % hosts.size()];
    ASSERT_EQ(psl.same_site(h, other), oracle.same_site(h, other))
        << h << " vs " << other;
    ASSERT_EQ(psl.same_site(h, h), oracle.same_site(h, h)) << h;
  }
  // Both outcomes occur often.
  EXPECT_GT(with_domain, 10000);
  EXPECT_LT(with_domain, 19000);
}

class PslSweep
    : public ::testing::TestWithParam<std::pair<const char*, const char*>> {};

TEST_P(PslSweep, RegistrableDomainMatches) {
  auto psl = PublicSuffixList::builtin();
  auto [host, expected] = GetParam();
  auto got = psl.registrable_domain(host);
  ASSERT_TRUE(got.has_value()) << host;
  EXPECT_EQ(*got, expected) << host;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, PslSweep,
    ::testing::Values(
        std::pair{"www.google.com", "google.com"},
        std::pair{"s3.eu.amazonaws.com", "eu.amazonaws.com"},
        std::pair{"a.b.c.d.example.org", "example.org"},
        std::pair{"shop.example.com.au", "example.com.au"},
        std::pair{"media.example.de", "example.de"},
        std::pair{"x.y.site42.io", "site42.io"},
        std::pair{"cdn.assets.example.net", "example.net"},
        std::pair{"app.example.co.jp", "example.co.jp"}));

}  // namespace
}  // namespace nbv6::web
