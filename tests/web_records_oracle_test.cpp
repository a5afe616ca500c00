// Differential tests of the cloud records stage against its rebuild-and-
// resolve oracle (tests/web_reference.h): on a 1,200-site universe at all
// three epochs, core::build_domain_records must give the records of
// reference::build_domain_records (observed names -> fresh zone ->
// resolve_dual -> PSL) in the same order and field for field, whether the
// survey carries the crawl's FqdnTable or was assembled by hand without
// one. observed_fqdn_names must keep the oracle's first-seen order, and a
// table built for another epoch or universe must be refused.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "cloud/analysis.h"
#include "cloud/providers.h"
#include "core/cloud_analysis.h"
#include "core/server_analysis.h"
#include "dns/zone.h"
#include "web/classify.h"
#include "web/crawler.h"
#include "web/fqdn_table.h"
#include "web/universe.h"
#include "web_reference.h"

namespace nbv6::core {
namespace {

constexpr std::uint64_t kSeed = 0xfeed;

web::UniverseConfig small_config() {
  web::UniverseConfig cfg;
  cfg.site_count = 1200;
  cfg.seed = 777;
  return cfg;
}

void expect_same(const std::vector<cloud::DomainRecord>& got,
                 const std::vector<cloud::DomainRecord>& want,
                 const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (size_t i = 0; i < got.size(); ++i) {
    const auto& g = got[i];
    const auto& w = want[i];
    const std::string at = where + " record " + std::to_string(i);
    ASSERT_EQ(g.fqdn, w.fqdn) << at;
    EXPECT_EQ(g.etld1, w.etld1) << at;
    EXPECT_EQ(g.a_addr, w.a_addr) << at;
    EXPECT_EQ(g.aaaa_addr, w.aaaa_addr) << at;
    EXPECT_EQ(g.cname_terminal, w.cname_terminal) << at;
    if (::testing::Test::HasFailure()) return;
  }
}

/// The records exercise every field: chained and chain-free names, names
/// whose eTLD+1 differs from them, both families present and absent.
void expect_teeth(const std::vector<cloud::DomainRecord>& records,
                  const std::string& where) {
  int chained = 0, subdomains = 0, with_aaaa = 0, without_aaaa = 0;
  for (const auto& r : records) {
    chained += r.cname_terminal != r.fqdn;
    subdomains += r.etld1 != r.fqdn;
    with_aaaa += r.has_aaaa();
    without_aaaa += !r.has_aaaa();
  }
  EXPECT_GT(records.size(), 3000u) << where;
  EXPECT_GT(chained, 30) << where;
  EXPECT_GT(subdomains, 100) << where;
  EXPECT_GT(with_aaaa, 100) << where;
  EXPECT_GT(without_aaaa, 100) << where;
}

class RecordsOracle : public ::testing::Test {
 protected:
  RecordsOracle() : universe_(small_config(), providers_) {}
  cloud::ProviderCatalog providers_;
  web::Universe universe_;
};

TEST_F(RecordsOracle, SurveyTableRecordsMatchRebuildAndResolve) {
  for (int e = 0; e < web::kEpochCount; ++e) {
    const auto epoch = static_cast<web::Epoch>(e);
    const std::string where(web::to_string(epoch));
    const ServerSurvey survey = run_server_survey(universe_, epoch, kSeed);
    ASSERT_NE(survey.fqdn_table, nullptr) << where;
    EXPECT_TRUE(survey.fqdn_table->built_for(universe_, epoch)) << where;

    const auto names = observed_fqdn_names(universe_, survey);
    EXPECT_EQ(names, reference::observed_fqdn_names(universe_, survey))
        << where;
    const auto ids = observed_fqdn_ids(universe_, survey);
    ASSERT_EQ(ids.size(), names.size()) << where;
    for (size_t i = 0; i < ids.size(); ++i)
      ASSERT_EQ(universe_.fqdns()[ids[i]].name, names[i]) << where;

    const auto want = reference::build_domain_records(universe_, survey);
    expect_teeth(want, where);
    expect_same(build_domain_records(universe_, survey), want, where);
  }
}

// perfbench's traced path shape: the survey's fields are filled one stage
// at a time, and no table is attached.
TEST_F(RecordsOracle, HandAssembledSurveyWithoutTableMatches) {
  for (int e = 0; e < web::kEpochCount; ++e) {
    const auto epoch = static_cast<web::Epoch>(e);
    const std::string where(web::to_string(epoch));
    ServerSurvey survey;
    survey.epoch = epoch;
    {
      const dns::ZoneDb zone = universe_.build_zone(epoch);
      const web::Crawler crawler(universe_, zone, epoch);
      survey.crawls = crawler.crawl_all(kSeed);
    }
    survey.classifications = web::classify_all(survey.crawls);
    survey.counts = web::tabulate(survey.classifications);
    ASSERT_EQ(survey.fqdn_table, nullptr);

    EXPECT_EQ(observed_fqdn_names(universe_, survey),
              reference::observed_fqdn_names(universe_, survey))
        << where;
    expect_same(build_domain_records(universe_, survey),
                reference::build_domain_records(universe_, survey), where);
  }
}

TEST_F(RecordsOracle, TableOfAnotherEpochOrUniverseIsRefused) {
  for (int e = 0; e < web::kEpochCount; ++e) {
    const auto epoch = static_cast<web::Epoch>(e);
    const auto other = static_cast<web::Epoch>((e + 1) % web::kEpochCount);
    ServerSurvey survey = run_server_survey(universe_, epoch, kSeed);
    survey.fqdn_table = std::make_shared<const web::FqdnTable>(
        universe_, universe_.build_zone(other), other);
    EXPECT_THROW((void)build_domain_records(universe_, survey),
                 std::invalid_argument)
        << web::to_string(epoch);
  }

  web::UniverseConfig cfg = small_config();
  cfg.site_count = 300;
  const web::Universe elsewhere(cfg, providers_);
  const ServerSurvey survey =
      run_server_survey(universe_, web::Epoch::jul2025, kSeed);
  EXPECT_THROW((void)build_domain_records(elsewhere, survey),
               std::invalid_argument);
}

}  // namespace
}  // namespace nbv6::core
