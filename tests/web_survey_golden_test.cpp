// Golden digests of the server- and cloud-side chain (§4–§5) on a
// 2,000-site universe at each of the three epochs:
//
//   - DigestsMatchAtEveryEpoch: run_server_survey -> build_domain_records
//     -> provider_breakdown. It covers the classification counts, the
//     record count and every provider row, so any change to what the
//     crawler, resolver or attribution observe shows up here. Its digests
//     were recorded from the per-fetch crawler that the table-driven one
//     replaced.
//   - CloudDigestsMatchAtEveryEpoch: analyze_cloud's service rows (Table 2)
//     and MultiCloudComparison's tenant count and org pairs (Fig. 12). The
//     provider rows do not see a record's eTLD+1 or CNAME terminal; the
//     service rows key on the terminal and the tenant grouping on the
//     eTLD+1, so this digest pins both. Its digests were recorded from the
//     records stage that rebuilt the zone and re-resolved every name.
//
// An intended behaviour change must regenerate them (the failure message
// prints the digested text).
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <string>

#include "cloud/analysis.h"
#include "cloud/providers.h"
#include "core/cloud_analysis.h"
#include "core/server_analysis.h"
#include "web/universe.h"

namespace nbv6 {
namespace {

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i, v >>= 4) out[static_cast<size_t>(i)] = kDigits[v & 0xf];
  return out;
}

/// The digested text: one line of classification counts, one of the record
/// count, one per provider row.
std::string survey_text(const web::Universe& universe, web::Epoch epoch) {
  const auto survey = core::run_server_survey(universe, epoch, 0x5eed);
  const auto records = core::build_domain_records(universe, survey);
  const auto rows = cloud::provider_breakdown(records, universe.providers());
  const auto& c = survey.counts;
  std::string text = "counts";
  for (int v : {c.total, c.nxdomain, c.other_failure, c.connection_success,
                c.unknown_primary, c.ipv4_only, c.aaaa_enabled, c.ipv6_partial,
                c.ipv6_full, c.full_browser_used_v4,
                c.full_browser_used_v6_only})
    text += " " + std::to_string(v);
  text += "\nrecords " + std::to_string(records.size()) + "\n";
  for (const auto& row : rows)
    text += row.org + " " + std::to_string(row.total) + " " +
            std::to_string(row.v4_only) + " " + std::to_string(row.v6_full) +
            " " + std::to_string(row.v6_only) + "\n";
  return text;
}

/// Doubles are digested at 9 significant digits, so the digest does not
/// hang on the last bits of the Wilcoxon arithmetic.
std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

/// The digested text: one line per service row, the multi-cloud tenant
/// count, one line per org pair.
std::string cloud_text(const web::Universe& universe, web::Epoch epoch) {
  const auto survey = core::run_server_survey(universe, epoch, 0x5eed);
  const auto report = core::analyze_cloud(universe, survey);
  const auto records = core::build_domain_records(universe, survey);
  const cloud::MultiCloudComparison cmp(records, universe.providers(),
                                        core::paper_org_merge_map());
  std::string text;
  for (const auto& row : report.services)
    text += "service " + row.provider_org + " | " + row.service_name + " " +
            std::to_string(static_cast<int>(row.policy)) + " " +
            std::to_string(row.total) + " " + std::to_string(row.v6_ready) +
            "\n";
  text += "tenants " + std::to_string(cmp.multi_cloud_tenant_count()) + "\n";
  for (const auto& p : cmp.pairs())
    text += "pair " + p.org1 + " | " + p.org2 + " " +
            std::to_string(p.differing_tenants) + " " + num(p.effect_size_r) +
            " " + num(p.p_value) + " " + std::to_string(p.significant) + " " +
            std::to_string(p.comparable) + "\n";
  return text;
}

web::Universe golden_universe(const cloud::ProviderCatalog& providers) {
  web::UniverseConfig cfg;
  cfg.site_count = 2000;
  cfg.seed = 2024;
  return web::Universe(cfg, providers);
}

TEST(WebSurveyGolden, DigestsMatchAtEveryEpoch) {
  static constexpr std::array<const char*, web::kEpochCount> kExpected = {
      "db812defb1546306",  // oct2024
      "a83c88b0fea1d396",  // apr2025
      "ac49b8757e88f4a2",  // jul2025
  };
  cloud::ProviderCatalog providers;
  const web::Universe universe = golden_universe(providers);
  for (int e = 0; e < web::kEpochCount; ++e) {
    const auto epoch = static_cast<web::Epoch>(e);
    const std::string text = survey_text(universe, epoch);
    EXPECT_EQ(hex64(fnv1a(text)), kExpected[static_cast<size_t>(e)])
        << "epoch " << web::to_string(epoch) << ":\n"
        << text;
  }
}

TEST(WebSurveyGolden, CloudDigestsMatchAtEveryEpoch) {
  static constexpr std::array<const char*, web::kEpochCount> kExpected = {
      "7aace6cde4544b94",  // oct2024
      "d72c91e5a92e623a",  // apr2025
      "825dd5546dc7165c",  // jul2025
  };
  cloud::ProviderCatalog providers;
  const web::Universe universe = golden_universe(providers);
  for (int e = 0; e < web::kEpochCount; ++e) {
    const auto epoch = static_cast<web::Epoch>(e);
    const std::string text = cloud_text(universe, epoch);
    EXPECT_EQ(hex64(fnv1a(text)), kExpected[static_cast<size_t>(e)])
        << "epoch " << web::to_string(epoch) << ":\n"
        << text;
  }
}

}  // namespace
}  // namespace nbv6
