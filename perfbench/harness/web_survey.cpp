// web_survey: the paper's server- and cloud-side chain (§4–§5), the same
// chain as fig11_cloud_providers, on a tenth of the paper's 100k sites so
// that a run makes dozens of timed calls. Set-up builds the provider
// catalog and a 10k-site Universe; the timed call runs run_server_survey
// (zone, crawl, classify, tabulate), build_domain_records and
// provider_breakdown. Single-threaded: none of these take a pool.
#include <memory>
#include <utility>
#include <vector>

#include "bench.h"
#include "cloud/analysis.h"
#include "cloud/providers.h"
#include "core/cloud_analysis.h"
#include "core/server_analysis.h"
#include "web/classify.h"
#include "web/crawler.h"
#include "web/universe.h"

namespace perfbench {

namespace {

using namespace nbv6;

constexpr web::Epoch kEpoch = web::Epoch::jul2025;

struct Setup {
  std::unique_ptr<cloud::ProviderCatalog> providers;
  std::unique_ptr<web::Universe> universe;
};

std::unique_ptr<Setup> setup(const Options& o, Trace& tr) {
  auto s = std::make_unique<Setup>();
  {
    Trace::Scope span(tr, "setup.providers");
    s->providers = std::make_unique<cloud::ProviderCatalog>();
  }
  Trace::Scope span(tr, "universe");
  web::UniverseConfig cfg;
  cfg.site_count = o.tiny ? 2000 : 10'000;
  cfg.seed = o.seed;
  s->universe = std::make_unique<web::Universe>(cfg, *s->providers);
  return s;
}

struct Survey {
  core::ServerSurvey survey;
  std::vector<cloud::DomainRecord> records;
  std::vector<cloud::ProviderBreakdownRow> rows;
};

// The crawl seed is derived from the workload seed, so one seed fixes
// both the universe and the crawl.
std::uint64_t crawl_seed(const Options& o) { return o.seed ^ 0x9e3779b97f4a7c15ull; }

// Digest of the survey's results: classification counts, record count and
// every provider row.
std::string survey_digest(const Survey& r) {
  const auto& c = r.survey.counts;
  Fnv64 f;
  for (int v : {c.total, c.nxdomain, c.other_failure, c.connection_success,
                c.unknown_primary, c.ipv4_only, c.aaaa_enabled, c.ipv6_partial,
                c.ipv6_full, c.full_browser_used_v4,
                c.full_browser_used_v6_only})
    f.mix(static_cast<std::uint64_t>(v));
  f.mix(r.records.size());
  for (const auto& row : r.rows) {
    f.bytes(row.org);
    for (int v : {row.total, row.v4_only, row.v6_full, row.v6_only})
      f.mix(static_cast<std::uint64_t>(v));
  }
  return hex64(f.h);
}

// Checks that hold for every seed.
void check_survey(const Survey& r, const Setup& s, Outcome& out,
                  const Options& opts) {
  const auto& c = r.survey.counts;
  const int sites = static_cast<int>(s.universe->sites().size());
  out.attempt(c.total == sites && r.survey.crawls.size() == s.universe->sites().size(),
              "survey did not cover every site");
  out.attempt(c.nxdomain + c.other_failure + c.connection_success == c.total &&
                  c.unknown_primary + c.ipv4_only + c.aaaa_enabled ==
                      c.connection_success &&
                  c.ipv6_partial + c.ipv6_full == c.aaaa_enabled,
              "classification counts do not add up");
  out.attempt(!r.rows.empty() && r.rows.front().org == "Overall" &&
                  r.rows.front().total == static_cast<int>(r.records.size()),
              "provider breakdown lacks a consistent Overall row");
  out.attempt(out.digest_matches(survey_digest(r), opts),
              "survey digest differs from the reference");
}

std::uint64_t resources(const Survey& r) {
  std::uint64_t n = 0;
  for (const auto& c : r.survey.crawls) n += c.resources.size();
  return n;
}

Survey run_chain(const Setup& s, const Options& o) {
  Survey r;
  r.survey = core::run_server_survey(*s.universe, kEpoch, crawl_seed(o));
  r.records = core::build_domain_records(*s.universe, r.survey);
  r.rows = cloud::provider_breakdown(r.records, *s.providers);
  return r;
}

// run_chain with run_server_survey's body inlined under spans.
Survey run_chain_traced(const Setup& s, const Options& o, Trace& tr) {
  Survey r;
  r.survey.epoch = kEpoch;
  dns::ZoneDb zone;
  {
    Trace::Scope span(tr, "zone");
    zone = s.universe->build_zone(kEpoch);
  }
  {
    Trace::Scope span(tr, "crawl");
    web::Crawler crawler(*s.universe, zone, kEpoch);
    r.survey.crawls = crawler.crawl_all(crawl_seed(o));
  }
  {
    Trace::Scope span(tr, "classify");
    r.survey.classifications = web::classify_all(r.survey.crawls);
    r.survey.counts = web::tabulate(r.survey.classifications);
  }
  {
    Trace::Scope span(tr, "records");
    r.records = core::build_domain_records(*s.universe, r.survey);
  }
  {
    Trace::Scope span(tr, "attribution");
    r.rows = cloud::provider_breakdown(r.records, *s.providers);
  }
  return r;
}

}  // namespace

void run_web_survey(const Options& opts, Outcome& out, Trace& tr) {
  if (!opts.trace) {
    // Every call runs on the universe of a fresh set-up batch (one build,
    // since a build takes longer than a batch).
    std::unique_ptr<Setup> s;
    std::vector<double> setup_means;
    std::vector<double> run_times;
    double rss = 0.0;
    std::uint64_t fetches = 0;
    repeat_for(opts.seconds, kMinCalls, [&] {
      sample_setup([&] { s.reset(); }, [&] { s = setup(opts, tr); },
                   setup_means);
      Survey r;
      run_times.push_back(time_call([&] { r = run_chain(*s, opts); }));
      if (rss == 0.0) rss = peak_rss_mb();
      check_survey(r, *s, out, opts);
      fetches = resources(r);
    });
    out.add_timing("setup_s", setup_means, 0.5);
    const double run_s = out.add_timing("run_s", run_times, kCallQuantile);
    out.add("flows_per_s", static_cast<double>(fetches) / run_s,
            "1/s");
    out.add("peak_rss_mb", rss, "MB");
    return;
  }

  const int root = tr.begin("traced_run");
  auto s = setup(opts, tr);
  Survey traced = run_chain_traced(*s, opts, tr);
  tr.end(root);
  check_survey(traced, *s, out, opts);

  Survey untraced;
  const double untraced_s = time_call([&] { untraced = run_chain(*s, opts); });
  out.attempt(survey_digest(untraced) == out.digest,
              "traced and untraced surveys differ");

  const double root_s = tr.duration(root);
  double traced_s = 0.0;
  for (const char* layer : {"zone", "crawl", "classify", "records",
                            "attribution"}) {
    traced_s += tr.total(layer);
    out.add(std::string(layer) + ".busy_frac", tr.total(layer) / root_s,
            "frac");
  }
  out.add("universe.busy_frac", tr.total("universe") / root_s, "frac");
  out.add("universe.build_s", tr.total("universe"), "s");
  out.add("zone.build_s", tr.total("zone"), "s");
  out.add("crawl.busy_s", tr.total("crawl"), "s");
  out.add("classify.busy_s", tr.total("classify"), "s");
  out.add("records.busy_s", tr.total("records"), "s");
  out.add("attribution.busy_s", tr.total("attribution"), "s");
  std::uint64_t ok = 0;
  for (const auto& c : traced.survey.crawls) ok += c.fate == web::SiteFate::ok;
  const auto sites = static_cast<double>(traced.survey.crawls.size());
  out.add("crawl.sites", sites, "count");
  out.add("crawl.resources", static_cast<double>(resources(traced)), "count");
  out.add("crawl.ok_frac", static_cast<double>(ok) / sites, "frac");
  out.add("records.count", static_cast<double>(traced.records.size()),
          "count");
  out.add("trace.overhead_s", traced_s - untraced_s, "s");
  out.add("trace.uncovered_frac", tr.uncovered_frac(root), "frac");
}

}  // namespace perfbench
