#include "web/crawler.h"

#include <utility>

namespace nbv6::web {

Crawler::Crawler(const Universe& universe, const dns::ZoneDb& zone,
                 Epoch epoch, CrawlerConfig cfg)
    : Crawler(std::make_shared<const FqdnTable>(universe, zone, epoch), cfg) {}

Crawler::Crawler(std::shared_ptr<const FqdnTable> table, CrawlerConfig cfg)
    : table_(std::move(table)), cfg_(cfg) {}

/// Insert-only open-addressing set of (fqdn, type) keys, sized once for a
/// site's worst case (every resource of every page distinct) so it never
/// grows: one allocation per site, and no node per key.
class Crawler::SeenSet {
 public:
  explicit SeenSet(std::size_t max_keys) {
    std::size_t cap = 16;
    while (cap < 2 * max_keys) cap *= 2;
    slots_.assign(cap, kEmpty);
  }

  /// True when `key` was not in the set yet.
  bool insert(std::uint64_t key) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t s = ((key * 0x9e3779b97f4a7c15ull) >> 32) & mask;
    while (slots_[s] != kEmpty) {
      if (slots_[s] == key) return false;
      s = (s + 1) & mask;
    }
    slots_[s] = key;
    return true;
  }

 private:
  static constexpr std::uint64_t kEmpty = ~0ull;  // keys are < 2^35
  std::vector<std::uint64_t> slots_;
};

net::Family Crawler::race(const FqdnTable::Facts& f, stats::Rng& rng) const {
  if (f.has_a && f.has_aaaa)
    return rng.chance(cfg_.he_v4_win_prob) ? net::Family::v4 : net::Family::v6;
  return f.has_aaaa ? net::Family::v6 : net::Family::v4;
}

void Crawler::load_page(const Page& page, std::uint32_t main_site_id,
                        SeenSet& seen, SiteCrawl& out,
                        stats::Rng& rng) const {
  // Dedup observations by (fqdn, type): re-fetches of the same resource on
  // later pages don't create new observations.
  for (const auto& ref : page.resources) {
    const std::uint64_t key = (static_cast<std::uint64_t>(ref.fqdn) << 3) |
                              static_cast<std::uint64_t>(ref.type);
    if (!seen.insert(key)) continue;

    const FqdnTable::Facts& f = table_->facts(ref.fqdn);
    ResourceObservation obs;
    obs.fqdn = ref.fqdn;
    obs.type = ref.type;
    // Same eTLD+1 as the main host; a name without one is never
    // first-party.
    obs.first_party =
        f.site_id != FqdnTable::kNone && f.site_id == main_site_id;
    obs.has_a = f.has_a;
    obs.has_aaaa = f.has_aaaa;
    obs.failed = !f.reachable();
    obs.used = race(f, rng);
    out.resources.push_back(obs);
  }

  // The paper's crawler only follows links inside the site's eTLD+1;
  // external link targets are refused, never loaded.
  out.external_links_refused += static_cast<int>(page.external_links.size());
}

SiteCrawl Crawler::crawl_impl(std::uint32_t site_index, stats::Rng& rng,
                              int link_clicks) const {
  const Universe& universe = table_->universe();
  const Site& site = universe.sites()[site_index];
  SiteCrawl out;
  out.site_index = site_index;
  out.fate = universe.fate(site, table_->epoch());

  // The main domain's DNS answer. NXDOMAIN sites are unregistered, so the
  // failure is discovered through DNS exactly as a real crawler would.
  if (!table_->facts(site.main_fqdn).reachable()) {
    out.fate = SiteFate::nxdomain;
    return out;
  }
  if (out.fate == SiteFate::other_failure) {
    // DNS answered but the TLS/HTTP exchange fails.
    return out;
  }
  out.fate = SiteFate::ok;

  // Follow the main-page redirect; classification applies to the final
  // page of the redirect chain (§4.2).
  const std::uint32_t effective_main = site.redirect_to.value_or(site.main_fqdn);
  const FqdnTable::Facts& main = table_->facts(effective_main);
  if (!main.reachable()) {
    out.fate = SiteFate::other_failure;  // broken redirect target
    return out;
  }
  out.main_host = universe.fqdns()[effective_main].name;
  out.main_has_a = main.has_a;
  out.main_has_aaaa = main.has_aaaa;
  out.unknown_primary = main.site_id == FqdnTable::kNone;
  out.main_used = race(main, rng);

  // Load the main page.
  std::size_t max_keys = 0;
  for (const Page& p : site.pages) max_keys += p.resources.size();
  SeenSet seen(max_keys);
  load_page(site.pages[0], main.site_id, seen, out, rng);
  out.pages_loaded = 1;

  // Click up to `link_clicks` distinct same-site links, chosen at random
  // like OpenWPM's five clicks.
  std::vector<std::uint32_t> candidates = site.pages[0].internal_links;
  for (int c = 0; c < link_clicks && !candidates.empty(); ++c) {
    size_t pick = rng.below(candidates.size());
    std::uint32_t page_idx = candidates[pick];
    candidates.erase(candidates.begin() + static_cast<std::ptrdiff_t>(pick));
    load_page(site.pages[page_idx], main.site_id, seen, out, rng);
    ++out.pages_loaded;
  }
  return out;
}

SiteCrawl Crawler::crawl(std::uint32_t site_index, stats::Rng& rng) const {
  return crawl_impl(site_index, rng, cfg_.link_clicks);
}

SiteCrawl Crawler::crawl_main_page_only(std::uint32_t site_index,
                                        stats::Rng& rng) const {
  return crawl_impl(site_index, rng, 0);
}

std::vector<SiteCrawl> Crawler::crawl_all(std::uint64_t seed) const {
  std::vector<SiteCrawl> out;
  const auto sites =
      static_cast<std::uint32_t>(table_->universe().sites().size());
  out.reserve(sites);
  for (std::uint32_t i = 0; i < sites; ++i) {
    stats::Rng rng(seed ^ (0x9e3779b97f4a7c15ull * (i + 1)));
    out.push_back(crawl(i, rng));
  }
  return out;
}

}  // namespace nbv6::web
