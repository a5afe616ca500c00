// Server-side adoption analysis (§4): one-call survey of a web universe.
//
// A survey keeps the crawl's web::FqdnTable, the one DNS/PSL view of the
// universe at the survey's epoch; the cloud records of §5
// (core::build_domain_records) are read from it. The zone the table was
// resolved from is dropped before the crawl.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "web/classify.h"
#include "web/crawler.h"
#include "web/fqdn_table.h"
#include "web/metrics.h"
#include "web/universe.h"

namespace nbv6::core {

struct ServerSurvey {
  web::Epoch epoch = web::Epoch::jul2025;
  std::vector<web::SiteCrawl> crawls;
  std::vector<web::SiteClassification> classifications;
  web::ClassificationCounts counts;
  /// The crawl's DNS/PSL table, built for the surveyed universe at
  /// `epoch`. Null in a survey assembled by hand, whose records stage
  /// then builds one.
  std::shared_ptr<const web::FqdnTable> fqdn_table;
};

/// Crawl every site of `universe` at `epoch` and classify. Deterministic
/// in `seed`. The survey keeps the crawl's FqdnTable, not its zone.
ServerSurvey run_server_survey(const web::Universe& universe, web::Epoch epoch,
                               std::uint64_t seed,
                               web::CrawlerConfig cfg = {});

/// Readiness by top-N rank prefix (Fig. 6). Percentages are of
/// connection-success sites within the prefix.
struct TopNBreakdown {
  int n = 0;
  double pct_v4only = 0;
  double pct_partial = 0;
  double pct_full = 0;
};

std::vector<TopNBreakdown> topn_breakdown(const web::Universe& universe,
                                          const ServerSurvey& survey,
                                          std::span<const int> ns);

/// The §4.2 ablation: classify from main pages only (no link clicks) and
/// report the IPv6-full share difference.
struct LinkClickAblation {
  double pct_full_with_clicks = 0;
  double pct_full_main_only = 0;
};

LinkClickAblation link_click_ablation(const web::Universe& universe,
                                      web::Epoch epoch, std::uint64_t seed);

/// All distinct resource+main FQDN ids observed by a survey — the §5
/// input dataset (the paper's 265k FQDNs) — in first-seen order: crawl by
/// crawl, each ok crawl's non-failed resources, then its main FQDN.
std::vector<std::uint32_t> observed_fqdn_ids(const web::Universe& universe,
                                             const ServerSurvey& survey);

/// The names of observed_fqdn_ids, in the same order.
std::vector<std::string> observed_fqdn_names(const web::Universe& universe,
                                             const ServerSurvey& survey);

}  // namespace nbv6::core
