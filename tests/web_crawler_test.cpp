#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/server_analysis.h"
#include "web/classify.h"
#include "web/crawler.h"
#include "web/metrics.h"
#include "web/universe.h"

namespace nbv6::web {
namespace {

UniverseConfig small_config() {
  UniverseConfig cfg;
  cfg.site_count = 1200;
  cfg.seed = 777;
  return cfg;
}

class CrawlerTest : public ::testing::Test {
 protected:
  CrawlerTest()
      : universe_(small_config(), providers_),
        zone_(universe_.build_zone(Epoch::jul2025)),
        crawler_(universe_, zone_, Epoch::jul2025) {}

  cloud::ProviderCatalog providers_;
  Universe universe_;
  dns::ZoneDb zone_;
  Crawler crawler_;
};

TEST_F(CrawlerTest, CrawlMatchesSiteFate) {
  stats::Rng rng(1);
  for (std::uint32_t i = 0; i < 200; ++i) {
    auto crawl = crawler_.crawl(i, rng);
    EXPECT_EQ(crawl.fate,
              universe_.fate(universe_.sites()[i], Epoch::jul2025));
  }
}

TEST_F(CrawlerTest, OkCrawlLoadsResources) {
  stats::Rng rng(2);
  int ok = 0;
  for (std::uint32_t i = 0; i < 300; ++i) {
    auto crawl = crawler_.crawl(i, rng);
    if (crawl.fate != SiteFate::ok) continue;
    ++ok;
    EXPECT_FALSE(crawl.resources.empty()) << i;
    EXPECT_GE(crawl.pages_loaded, 1);
    EXPECT_LE(crawl.pages_loaded, 6);  // main + up to 5 clicks
    EXPECT_FALSE(crawl.main_host.empty());
  }
  EXPECT_GT(ok, 200);
}

TEST_F(CrawlerTest, ResourcesAreDeduplicated) {
  stats::Rng rng(3);
  for (std::uint32_t i = 0; i < 100; ++i) {
    auto crawl = crawler_.crawl(i, rng);
    std::set<std::pair<std::uint32_t, int>> seen;
    for (const auto& r : crawl.resources) {
      auto key = std::pair{r.fqdn, static_cast<int>(r.type)};
      EXPECT_TRUE(seen.insert(key).second) << "dup resource on site " << i;
    }
  }
}

TEST_F(CrawlerTest, FirstPartyDetectionUsesEtld1) {
  stats::Rng rng(4);
  for (std::uint32_t i = 0; i < 150; ++i) {
    auto crawl = crawler_.crawl(i, rng);
    if (crawl.fate != SiteFate::ok || crawl.unknown_primary) continue;
    const auto& site_tenant =
        universe_.tenants()[universe_.sites()[i].tenant];
    for (const auto& r : crawl.resources) {
      bool same_tenant =
          universe_.fqdns()[r.fqdn].tenant == universe_.sites()[i].tenant;
      EXPECT_EQ(r.first_party, same_tenant)
          << universe_.fqdns()[r.fqdn].name << " on " << site_tenant.etld1;
    }
  }
}

TEST_F(CrawlerTest, MainPageOnlySeesSubsetOfResources) {
  for (std::uint32_t i = 0; i < 100; ++i) {
    stats::Rng rng1(50 + i), rng2(50 + i);
    auto full = crawler_.crawl(i, rng1);
    auto main_only = crawler_.crawl_main_page_only(i, rng2);
    if (full.fate != SiteFate::ok) continue;
    EXPECT_LE(main_only.resources.size(), full.resources.size());
    EXPECT_EQ(main_only.pages_loaded, 1);
  }
}

TEST_F(CrawlerTest, DualStackResourcesPreferV6) {
  stats::Rng rng(5);
  int dual = 0, used_v6 = 0;
  for (std::uint32_t i = 0; i < 300; ++i) {
    auto crawl = crawler_.crawl(i, rng);
    for (const auto& r : crawl.resources) {
      if (r.has_a && r.has_aaaa) {
        ++dual;
        used_v6 += r.used == net::Family::v6;
      } else if (r.has_a) {
        EXPECT_EQ(r.used, net::Family::v4);
      }
    }
  }
  ASSERT_GT(dual, 100);
  // Happy Eyeballs: v6 nearly always wins for dual-stack fetches.
  EXPECT_GT(static_cast<double>(used_v6) / dual, 0.98);
}

// A resource whose A record is gone but whose AAAA survives still loads
// (over IPv6); only a resource with neither record counts as failed. Every
// name of the synthetic universe has an A record, so the edit is made on a
// copy of its zone.
TEST_F(CrawlerTest, FailedMeansNoAddressInEitherFamily) {
  // Two resource FQDNs on an ok site's main page that hold their own A
  // and AAAA records (no CNAME), neither the site's main host nor its
  // redirect target, so the main page still loads.
  std::uint32_t site_index = 0;
  std::vector<std::uint32_t> picked;
  for (std::uint32_t i = 0; i < universe_.sites().size() && picked.size() < 2;
       ++i) {
    const Site& site = universe_.sites()[i];
    if (universe_.fate(site, Epoch::jul2025) != SiteFate::ok) continue;
    picked.clear();
    site_index = i;
    for (const auto& ref : site.pages[0].resources) {
      if (ref.fqdn == site.main_fqdn || ref.fqdn == site.redirect_to ||
          std::find(picked.begin(), picked.end(), ref.fqdn) != picked.end())
        continue;
      const std::string& name = universe_.fqdns()[ref.fqdn].name;
      if (zone_.cname(name).empty() && !zone_.a_records(name).empty() &&
          !zone_.aaaa_records(name).empty())
        picked.push_back(ref.fqdn);
      if (picked.size() == 2) break;
    }
  }
  ASSERT_EQ(picked.size(), 2u);
  const std::string& v6_only = universe_.fqdns()[picked[0]].name;
  const std::string& dark = universe_.fqdns()[picked[1]].name;

  dns::ZoneDb zone = zone_;
  ASSERT_GT(zone.remove(v6_only, dns::RecordType::a), 0u);
  ASSERT_GT(zone.remove(dark, dns::RecordType::a), 0u);
  ASSERT_GT(zone.remove(dark, dns::RecordType::aaaa), 0u);
  const Crawler crawler(universe_, zone, Epoch::jul2025);

  stats::Rng rng(11);
  const SiteCrawl crawl = crawler.crawl(site_index, rng);
  ASSERT_EQ(crawl.fate, SiteFate::ok);
  int seen_v6_only = 0, seen_dark = 0;
  for (const auto& r : crawl.resources) {
    if (r.fqdn == picked[0]) {
      ++seen_v6_only;
      EXPECT_FALSE(r.has_a);
      EXPECT_TRUE(r.has_aaaa);
      EXPECT_FALSE(r.failed);
      EXPECT_EQ(r.used, net::Family::v6);
    } else if (r.fqdn == picked[1]) {
      ++seen_dark;
      EXPECT_FALSE(r.has_a);
      EXPECT_FALSE(r.has_aaaa);
      EXPECT_TRUE(r.failed);
    }
  }
  EXPECT_GT(seen_v6_only, 0);
  EXPECT_GT(seen_dark, 0);
}

// ------------------------------------------------------------ classify

TEST_F(CrawlerTest, ClassificationPartitionIsExact) {
  auto survey = core::run_server_survey(universe_, Epoch::jul2025, 9);
  const auto& c = survey.counts;
  EXPECT_EQ(c.total, 1200);
  EXPECT_EQ(c.total, c.nxdomain + c.other_failure + c.connection_success);
  EXPECT_EQ(c.connection_success,
            c.unknown_primary + c.ipv4_only + c.aaaa_enabled);
  EXPECT_EQ(c.aaaa_enabled, c.ipv6_partial + c.ipv6_full);
  EXPECT_EQ(c.ipv6_full,
            c.full_browser_used_v4 + c.full_browser_used_v6_only);
}

TEST_F(CrawlerTest, FullSitesHaveNoV4OnlyResources) {
  auto survey = core::run_server_survey(universe_, Epoch::jul2025, 10);
  for (size_t i = 0; i < survey.crawls.size(); ++i) {
    const auto& cls = survey.classifications[i];
    if (cls.cls == SiteClass::ipv6_full) {
      EXPECT_EQ(cls.v4only_resources, 0);
    }
    if (cls.cls == SiteClass::ipv6_partial) {
      EXPECT_GT(cls.v4only_resources, 0);
      EXPECT_GT(cls.v4only_fraction, 0.0);
      EXPECT_LE(cls.v4only_fraction, 1.0);
    }
  }
}

TEST_F(CrawlerTest, Ipv4OnlySitesLackMainAaaa) {
  auto survey = core::run_server_survey(universe_, Epoch::jul2025, 11);
  for (size_t i = 0; i < survey.crawls.size(); ++i) {
    if (survey.classifications[i].cls == SiteClass::ipv4_only) {
      EXPECT_FALSE(survey.crawls[i].main_has_aaaa);
    }
  }
}

TEST_F(CrawlerTest, AdoptionGrowsAcrossEpochs) {
  auto oct = core::run_server_survey(universe_, Epoch::oct2024, 12);
  auto jul = core::run_server_survey(universe_, Epoch::jul2025, 12);
  EXPECT_GE(jul.counts.pct_of_success(jul.counts.aaaa_enabled),
            oct.counts.pct_of_success(oct.counts.aaaa_enabled));
  EXPECT_GE(jul.counts.nxdomain, oct.counts.nxdomain);
}

TEST_F(CrawlerTest, TopNBreakdownGradient) {
  auto survey = core::run_server_survey(universe_, Epoch::jul2025, 13);
  std::vector<int> ns{100, 1200};
  auto rows = core::topn_breakdown(universe_, survey, ns);
  ASSERT_EQ(rows.size(), 2u);
  // Top-100 sites should be more IPv6-ready than the whole list.
  EXPECT_GT(rows[0].pct_full + rows[0].pct_partial,
            rows[1].pct_full + rows[1].pct_partial);
}

TEST_F(CrawlerTest, LinkClickAblationFindsMoreFullSitesMainOnly) {
  auto ab = core::link_click_ablation(universe_, Epoch::jul2025, 14);
  // Fewer pages -> fewer chances to hit an IPv4-only resource.
  EXPECT_GE(ab.pct_full_main_only, ab.pct_full_with_clicks);
}

// ------------------------------------------------------------ metrics

TEST_F(CrawlerTest, SpanAnalysisInvariants) {
  auto survey = core::run_server_survey(universe_, Epoch::jul2025, 15);
  SpanAnalysis span(universe_, survey.crawls, survey.classifications);

  EXPECT_EQ(span.partial_sites().size(),
            static_cast<size_t>(survey.counts.ipv6_partial));

  int prev = INT32_MAX;
  for (const auto& d : span.impacts()) {
    EXPECT_LE(d.span, prev);  // sorted descending
    prev = d.span;
    EXPECT_GE(d.span, 1);
    EXPECT_GE(d.median_contribution, 0.0);
    EXPECT_LE(d.median_contribution, 1.0);
    EXPECT_LE(d.third_party_span, d.span);
  }

  // Each partial site's per-domain counts sum to its v4-only resources.
  for (const auto& site : span.partial_sites()) {
    int sum = 0;
    for (const auto& [_, n] : site.v4only_domains) sum += n;
    EXPECT_EQ(sum, site.v4only_resources);
    EXPECT_GT(site.v4only_resources, 0);
    EXPECT_LE(site.v4only_resources, site.total_resources);
  }
}

TEST_F(CrawlerTest, HeavyHittersRespectThreshold) {
  auto survey = core::run_server_survey(universe_, Epoch::jul2025, 16);
  SpanAnalysis span(universe_, survey.crawls, survey.classifications);
  auto hh = span.heavy_hitters(20);
  for (const auto& d : hh) EXPECT_GE(d.span, 20);
  // Threshold 1 returns everything.
  EXPECT_EQ(span.heavy_hitters(1).size(), span.impacts().size());
}

TEST_F(CrawlerTest, WhatIfCurveIsMonotoneAndTerminal) {
  auto survey = core::run_server_survey(universe_, Epoch::jul2025, 17);
  SpanAnalysis span(universe_, survey.crawls, survey.classifications);
  auto curve = span.whatif_adoption_curve();
  ASSERT_FALSE(curve.empty());
  int prev = 0;
  for (int v : curve) {
    EXPECT_GE(v, prev);
    prev = v;
  }
  // Enabling every IPv4-only dependency fixes every partial site.
  EXPECT_EQ(curve.back(),
            static_cast<int>(span.partial_sites().size()));
}

TEST_F(CrawlerTest, WhatIfTopDomainsFixDisproportionately) {
  auto survey = core::run_server_survey(universe_, Epoch::jul2025, 18);
  SpanAnalysis span(universe_, survey.crawls, survey.classifications);
  auto curve = span.whatif_adoption_curve();
  if (curve.size() < 100) GTEST_SKIP() << "universe too small";
  // The first 10% of domains fix more sites than the last 10%.
  size_t tenth = curve.size() / 10;
  int first = curve[tenth - 1];
  int last = curve.back() - curve[curve.size() - tenth - 1];
  EXPECT_GT(first, last);
}

TEST_F(CrawlerTest, AdsDominateHeavyHitterCategories) {
  auto survey = core::run_server_survey(universe_, Epoch::jul2025, 19);
  SpanAnalysis span(universe_, survey.crawls, survey.classifications);
  auto hh = span.heavy_hitters(10);
  if (hh.size() < 20) GTEST_SKIP() << "universe too small";
  std::map<DomainCategory, int> counts;
  for (const auto& d : hh) {
    auto cat = universe_.categorize(d.etld1);
    if (cat) ++counts[*cat];
  }
  // Ads should be the plurality category (Fig. 9's headline).
  int ads = counts[DomainCategory::ads];
  for (const auto& [cat, n] : counts) {
    if (cat == DomainCategory::ads) continue;
    EXPECT_GE(ads, n) << "category " << to_string(cat);
  }
}

}  // namespace
}  // namespace nbv6::web
