// Golden digest of the server- and cloud-side chain (§4–§5):
// run_server_survey -> build_domain_records -> provider_breakdown on a
// 2,000-site universe at each of the three epochs. The digest covers the
// classification counts, the record count and every provider row, so any
// change to what the crawler, resolver, PSL or attribution observe shows
// up here. The expected digests were recorded from the per-fetch crawler
// that the table-driven one replaced; an intended behaviour change must
// regenerate them (the failure message prints the digested text).
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
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

TEST(WebSurveyGolden, DigestsMatchAtEveryEpoch) {
  static constexpr std::array<const char*, web::kEpochCount> kExpected = {
      "db812defb1546306",  // oct2024
      "a83c88b0fea1d396",  // apr2025
      "ac49b8757e88f4a2",  // jul2025
  };
  cloud::ProviderCatalog providers;
  web::UniverseConfig cfg;
  cfg.site_count = 2000;
  cfg.seed = 2024;
  const web::Universe universe(cfg, providers);
  for (int e = 0; e < web::kEpochCount; ++e) {
    const auto epoch = static_cast<web::Epoch>(e);
    const std::string text = survey_text(universe, epoch);
    EXPECT_EQ(hex64(fnv1a(text)), kExpected[static_cast<size_t>(e)])
        << "epoch " << web::to_string(epoch) << ":\n"
        << text;
  }
}

}  // namespace
}  // namespace nbv6
