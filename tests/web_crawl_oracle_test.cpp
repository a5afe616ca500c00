// Differential tests of the table-driven crawl against its per-fetch
// oracles (tests/web_reference.h): every SiteCrawl of a 1,200-site
// universe at all three epochs, and the single-walk resolve_dual on every
// name of the same universe's zones.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "dns/resolver.h"
#include "web/crawler.h"
#include "web/universe.h"
#include "web_reference.h"

namespace nbv6::web {
namespace {

UniverseConfig small_config() {
  UniverseConfig cfg;
  cfg.site_count = 1200;
  cfg.seed = 777;
  return cfg;
}

/// crawl_all's per-site RNG seeding.
stats::Rng site_rng(std::uint64_t seed, std::uint32_t i) {
  return stats::Rng(seed ^ (0x9e3779b97f4a7c15ull * (i + 1)));
}

void expect_same(const SiteCrawl& got, const SiteCrawl& want,
                 const std::string& where) {
  EXPECT_EQ(got.site_index, want.site_index) << where;
  EXPECT_EQ(got.fate, want.fate) << where;
  EXPECT_EQ(got.unknown_primary, want.unknown_primary) << where;
  EXPECT_EQ(got.main_has_a, want.main_has_a) << where;
  EXPECT_EQ(got.main_has_aaaa, want.main_has_aaaa) << where;
  EXPECT_EQ(got.main_used, want.main_used) << where;
  EXPECT_EQ(got.main_host, want.main_host) << where;
  EXPECT_EQ(got.external_links_refused, want.external_links_refused) << where;
  EXPECT_EQ(got.pages_loaded, want.pages_loaded) << where;
  ASSERT_EQ(got.resources.size(), want.resources.size()) << where;
  for (size_t r = 0; r < got.resources.size(); ++r) {
    const auto& g = got.resources[r];
    const auto& w = want.resources[r];
    const std::string at = where + " resource " + std::to_string(r);
    EXPECT_EQ(g.fqdn, w.fqdn) << at;
    EXPECT_EQ(g.type, w.type) << at;
    EXPECT_EQ(g.first_party, w.first_party) << at;
    EXPECT_EQ(g.has_a, w.has_a) << at;
    EXPECT_EQ(g.has_aaaa, w.has_aaaa) << at;
    EXPECT_EQ(g.used, w.used) << at;
    EXPECT_EQ(g.failed, w.failed) << at;
  }
}

class CrawlOracle : public ::testing::Test {
 protected:
  CrawlOracle() : universe_(small_config(), providers_) {}
  cloud::ProviderCatalog providers_;
  Universe universe_;
};

TEST_F(CrawlOracle, TableDrivenCrawlMatchesPerFetchCrawlerEverywhere) {
  constexpr std::uint64_t kSeed = 0xc0ffee;
  for (int e = 0; e < kEpochCount; ++e) {
    const auto epoch = static_cast<Epoch>(e);
    const dns::ZoneDb zone = universe_.build_zone(epoch);
    const Crawler crawler(universe_, zone, epoch);
    const reference::ReferenceCrawler oracle(universe_, zone, epoch);
    const auto all = crawler.crawl_all(kSeed);
    ASSERT_EQ(all.size(), universe_.sites().size());
    int ok = 0;
    for (std::uint32_t i = 0; i < universe_.sites().size(); ++i) {
      const std::string where =
          std::string(to_string(epoch)) + " site " + std::to_string(i);
      auto rng = site_rng(kSeed, i);
      const SiteCrawl want = oracle.crawl(i, rng);
      ok += want.fate == SiteFate::ok;
      expect_same(all[i], want, where + " crawl_all");
      auto rng_crawl = site_rng(kSeed, i);
      expect_same(crawler.crawl(i, rng_crawl), want, where + " crawl");

      auto rng_a = site_rng(kSeed, i);
      auto rng_b = site_rng(kSeed, i);
      expect_same(crawler.crawl_main_page_only(i, rng_a),
                  oracle.crawl_main_page_only(i, rng_b), where + " main only");
      if (::testing::Test::HasFailure()) return;
    }
    EXPECT_GT(ok, 900) << to_string(epoch);  // the comparison has teeth
  }
}

// Main hosts without a registrable domain (the "Unknown Primary Domain"
// bucket, "zoneN.ck" under the *.ck wildcard) only appear past rank 30,000:
// crawl a universe that large, and check those sites plus a sample of the
// rest against the oracle.
TEST(CrawlOracleLarge, UnknownPrimarySitesMatchPerFetchCrawler) {
  constexpr std::uint64_t kSeed = 0xbeef;
  cloud::ProviderCatalog providers;
  UniverseConfig cfg = small_config();
  cfg.site_count = 30'100;
  const Universe universe(cfg, providers);
  const dns::ZoneDb zone = universe.build_zone(Epoch::jul2025);
  const Crawler crawler(universe, zone, Epoch::jul2025);
  const reference::ReferenceCrawler oracle(universe, zone, Epoch::jul2025);
  const auto all = crawler.crawl_all(kSeed);
  int unknown = 0;
  for (std::uint32_t i = 0; i < universe.sites().size(); ++i) {
    const std::string& main =
        universe.fqdns()[universe.sites()[i].main_fqdn].name;
    const bool under_ck = main.ends_with(".ck");
    if (!under_ck && !all[i].unknown_primary && i % 97 != 0) continue;
    auto rng = site_rng(kSeed, i);
    const SiteCrawl want = oracle.crawl(i, rng);
    unknown += want.unknown_primary;
    expect_same(all[i], want, "site " + std::to_string(i));
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_GT(unknown, 0);
}

void expect_same(const dns::ResolveResult& got, const dns::ResolveResult& want,
                 const std::string& where) {
  EXPECT_EQ(got.status, want.status) << where;
  EXPECT_EQ(got.chain, want.chain) << where;
  EXPECT_EQ(got.addresses, want.addresses) << where;
}

TEST_F(CrawlOracle, ResolveDualMatchesTwoResolvesOnUniverseZones) {
  for (int e = 0; e < kEpochCount; ++e) {
    const auto epoch = static_cast<Epoch>(e);
    const dns::ZoneDb zone = universe_.build_zone(epoch);
    const dns::Resolver resolver(zone);
    // Every zone name, plus every universe FQDN: the unregistered ones are
    // the NXDOMAIN cases.
    std::vector<std::string> names;
    zone.for_each_name([&](const std::string& n) { names.push_back(n); });
    for (const auto& f : universe_.fqdns()) names.push_back(f.name);
    int statuses[4] = {};
    for (const auto& name : names) {
      const auto dual = resolver.resolve_dual(name);
      const std::string where = std::string(to_string(epoch)) + " " + name;
      expect_same(dual.v4, resolver.resolve(name, net::Family::v4),
                  where + " A");
      expect_same(dual.v6, resolver.resolve(name, net::Family::v6),
                  where + " AAAA");
      ++statuses[static_cast<int>(dual.v6.status)];
      if (::testing::Test::HasFailure()) return;
    }
    // Both ok and nodata (and NXDOMAIN) answers were exercised.
    EXPECT_GT(statuses[static_cast<int>(dns::ResolveStatus::ok)], 0);
    EXPECT_GT(statuses[static_cast<int>(dns::ResolveStatus::nodata)], 0);
    EXPECT_GT(statuses[static_cast<int>(dns::ResolveStatus::nxdomain)], 0);
  }
}

}  // namespace
}  // namespace nbv6::web
