// Test-only reference implementations of the web layer's hot paths, kept
// as oracles for the differential tests:
//
//   - JoinPsl: the PSL matcher that joins a std::string per candidate
//     suffix. It takes hosts as given (no canonicalization), so compare it
//     with PublicSuffixList on canonical hosts.
//   - ReferenceCrawler: the per-fetch crawler. Every fetch resolves its
//     FQDN over both families with two Resolver::resolve calls and tests
//     first-party-ness with a JoinPsl same-site match, rebuilding the
//     dedup set on every page, exactly as the crawl ran before it became
//     table-driven. web::Crawler must reproduce its SiteCrawls field for
//     field.
//   - observed_fqdn_names / collect_domain_records / build_domain_records:
//     the cloud records stage as it ran before it read the survey's
//     FqdnTable. The observed names are collected through an
//     unordered_set, the epoch's zone is built afresh, every name is
//     resolved with resolve_dual and its eTLD+1 comes from a PSL callback.
//     core::build_domain_records must reproduce its records in order and
//     field for field.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "cloud/analysis.h"
#include "core/server_analysis.h"
#include "dns/resolver.h"
#include "dns/zone.h"
#include "stats/rng.h"
#include "web/crawler.h"
#include "web/psl.h"
#include "web/universe.h"

namespace nbv6::reference {

/// Split a hostname into labels ("a.b.c" -> {"a","b","c"}).
inline std::vector<std::string_view> split_labels(std::string_view host) {
  std::vector<std::string_view> labels;
  size_t start = 0;
  while (start <= host.size()) {
    const size_t dot = host.find('.', start);
    if (dot == std::string_view::npos) {
      labels.push_back(host.substr(start));
      break;
    }
    labels.push_back(host.substr(start, dot - start));
    start = dot + 1;
  }
  return labels;
}

class JoinPsl {
 public:
  /// Loaded with PublicSuffixList::builtin_rules().
  JoinPsl() {
    for (std::string_view rule : web::PublicSuffixList::builtin_rules()) {
      if (rule[0] == '!') {
        exception_rules_.emplace(rule.substr(1));
      } else if (rule.rfind("*.", 0) == 0) {
        wildcard_rules_.emplace(rule.substr(2));
      } else {
        rules_.emplace(rule);
      }
    }
  }

  [[nodiscard]] std::string public_suffix(std::string_view host) const {
    auto labels = split_labels(host);
    if (labels.empty()) return std::string(host);
    int best = -1;  // index into labels where the suffix starts
    for (size_t start = 0; start < labels.size(); ++start) {
      const std::string suffix = join(labels, start);
      if (exception_rules_.contains(suffix)) {
        best = static_cast<int>(start) + 1;
        break;
      }
      if (rules_.contains(suffix)) {
        best = static_cast<int>(start);
        break;
      }
      if (start + 1 < labels.size() &&
          wildcard_rules_.contains(join(labels, start + 1))) {
        best = static_cast<int>(start);
        break;
      }
    }
    if (best < 0) best = static_cast<int>(labels.size()) - 1;  // implicit "*"
    return join(labels, static_cast<size_t>(best));
  }

  [[nodiscard]] std::optional<std::string> registrable_domain(
      std::string_view host) const {
    const std::string suffix = public_suffix(host);
    if (suffix.size() >= host.size()) return std::nullopt;
    std::string_view rest = host.substr(0, host.size() - suffix.size() - 1);
    const size_t last_dot = rest.rfind('.');
    std::string_view label =
        last_dot == std::string_view::npos ? rest : rest.substr(last_dot + 1);
    if (label.empty()) return std::nullopt;
    return std::string(label) + "." + suffix;
  }

  [[nodiscard]] bool same_site(std::string_view a, std::string_view b) const {
    auto ra = registrable_domain(a);
    auto rb = registrable_domain(b);
    return ra && rb && *ra == *rb;
  }

 private:
  static std::string join(const std::vector<std::string_view>& labels,
                          size_t from) {
    std::string out;
    for (size_t i = from; i < labels.size(); ++i) {
      if (!out.empty()) out += '.';
      out += labels[i];
    }
    return out;
  }

  std::unordered_set<std::string> rules_;
  std::unordered_set<std::string> wildcard_rules_;
  std::unordered_set<std::string> exception_rules_;
};

class ReferenceCrawler {
 public:
  ReferenceCrawler(const web::Universe& universe, const dns::ZoneDb& zone,
                   web::Epoch epoch, web::CrawlerConfig cfg = {})
      : universe_(&universe), resolver_(zone), epoch_(epoch), cfg_(cfg) {}

  [[nodiscard]] web::SiteCrawl crawl(std::uint32_t site_index,
                                     stats::Rng& rng) const {
    return crawl_impl(site_index, rng, cfg_.link_clicks);
  }
  [[nodiscard]] web::SiteCrawl crawl_main_page_only(std::uint32_t site_index,
                                                    stats::Rng& rng) const {
    return crawl_impl(site_index, rng, 0);
  }

 private:
  struct Dual {
    dns::ResolveResult v4, v6;
    [[nodiscard]] bool has_v4() const { return v4.ok(); }
    [[nodiscard]] bool has_v6() const { return v6.ok(); }
    [[nodiscard]] bool reachable() const { return has_v4() || has_v6(); }
  };
  [[nodiscard]] Dual resolve_dual(std::string_view name) const {
    return {resolver_.resolve(name, net::Family::v4),
            resolver_.resolve(name, net::Family::v6)};
  }

  void load_page(const web::Page& page, web::SiteCrawl& out,
                 stats::Rng& rng) const {
    std::unordered_set<std::uint64_t> seen;
    for (const auto& r : out.resources)
      seen.insert((static_cast<std::uint64_t>(r.fqdn) << 3) |
                  static_cast<std::uint64_t>(r.type));
    for (const auto& ref : page.resources) {
      const std::uint64_t key = (static_cast<std::uint64_t>(ref.fqdn) << 3) |
                                static_cast<std::uint64_t>(ref.type);
      if (!seen.insert(key).second) continue;
      const web::Fqdn& f = universe_->fqdns()[ref.fqdn];
      const Dual dual = resolve_dual(f.name);
      web::ResourceObservation obs;
      obs.fqdn = ref.fqdn;
      obs.type = ref.type;
      obs.first_party = psl_.same_site(f.name, out.main_host);
      obs.has_a = dual.has_v4();
      obs.has_aaaa = dual.has_v6();
      obs.failed = !dual.reachable();
      if (obs.has_a && obs.has_aaaa) {
        obs.used = rng.chance(cfg_.he_v4_win_prob) ? net::Family::v4
                                                   : net::Family::v6;
      } else {
        obs.used = obs.has_aaaa ? net::Family::v6 : net::Family::v4;
      }
      out.resources.push_back(obs);
    }
    for ([[maybe_unused]] auto ext : page.external_links)
      ++out.external_links_refused;
  }

  web::SiteCrawl crawl_impl(std::uint32_t site_index, stats::Rng& rng,
                            int link_clicks) const {
    const web::Site& site = universe_->sites()[site_index];
    web::SiteCrawl out;
    out.site_index = site_index;
    out.fate = universe_->fate(site, epoch_);
    Dual dual = resolve_dual(universe_->fqdns()[site.main_fqdn].name);
    if (!dual.reachable()) {
      out.fate = web::SiteFate::nxdomain;
      return out;
    }
    if (out.fate == web::SiteFate::other_failure) return out;
    out.fate = web::SiteFate::ok;

    std::uint32_t effective_main = site.main_fqdn;
    if (site.redirect_to) {
      effective_main = *site.redirect_to;
      dual = resolve_dual(universe_->fqdns()[effective_main].name);
      if (!dual.reachable()) {
        out.fate = web::SiteFate::other_failure;
        return out;
      }
    }
    out.main_host = universe_->fqdns()[effective_main].name;
    out.main_has_a = dual.has_v4();
    out.main_has_aaaa = dual.has_v6();
    out.unknown_primary = !psl_.registrable_domain(out.main_host).has_value();
    if (out.main_has_a && out.main_has_aaaa) {
      out.main_used = rng.chance(cfg_.he_v4_win_prob) ? net::Family::v4
                                                      : net::Family::v6;
    } else {
      out.main_used = out.main_has_aaaa ? net::Family::v6 : net::Family::v4;
    }

    load_page(site.pages[0], out, rng);
    out.pages_loaded = 1;
    std::vector<std::uint32_t> candidates = site.pages[0].internal_links;
    for (int c = 0; c < link_clicks && !candidates.empty(); ++c) {
      const size_t pick = rng.below(candidates.size());
      const std::uint32_t page_idx = candidates[pick];
      candidates.erase(candidates.begin() + static_cast<std::ptrdiff_t>(pick));
      load_page(site.pages[page_idx], out, rng);
      ++out.pages_loaded;
    }
    return out;
  }

  const web::Universe* universe_;
  dns::Resolver resolver_;
  JoinPsl psl_;
  web::Epoch epoch_;
  web::CrawlerConfig cfg_;
};

/// All distinct resource+main FQDN names a survey observed, first-seen
/// order.
inline std::vector<std::string> observed_fqdn_names(
    const web::Universe& universe, const core::ServerSurvey& survey) {
  std::unordered_set<std::uint32_t> seen;
  std::vector<std::string> out;
  auto push = [&](std::uint32_t fqdn) {
    if (seen.insert(fqdn).second) out.push_back(universe.fqdns()[fqdn].name);
  };
  for (const auto& crawl : survey.crawls) {
    if (crawl.fate != web::SiteFate::ok) continue;
    for (const auto& r : crawl.resources)
      if (!r.failed) push(r.fqdn);
    push(universe.sites()[crawl.site_index].main_fqdn);
  }
  return out;
}

/// Resolve `names` against `resolver` into DomainRecords. `etld1_of` maps a
/// hostname to its registrable domain. Unresolvable names are dropped.
inline std::vector<cloud::DomainRecord> collect_domain_records(
    const dns::Resolver& resolver, std::span<const std::string> names,
    const std::function<std::string(std::string_view)>& etld1_of) {
  std::vector<cloud::DomainRecord> out;
  out.reserve(names.size());
  for (const auto& name : names) {
    auto dual = resolver.resolve_dual(name);
    if (!dual.reachable()) continue;
    cloud::DomainRecord r;
    r.fqdn = dns::canonicalize(name);
    r.etld1 = etld1_of(r.fqdn);
    if (dual.has_v4()) r.a_addr = dual.v4.addresses.front();
    if (dual.has_v6()) r.aaaa_addr = dual.v6.addresses.front();
    r.cname_terminal = dual.has_v4() ? dual.v4.terminal() : dual.v6.terminal();
    out.push_back(std::move(r));
  }
  return out;
}

/// Observed names -> fresh zone of the survey's epoch -> resolve_dual ->
/// PSL.
inline std::vector<cloud::DomainRecord> build_domain_records(
    const web::Universe& universe, const core::ServerSurvey& survey) {
  const auto names = reference::observed_fqdn_names(universe, survey);
  const dns::ZoneDb zone = universe.build_zone(survey.epoch);
  const dns::Resolver resolver(zone);
  const auto& psl = universe.psl();
  return reference::collect_domain_records(
      resolver, names, [&psl](std::string_view host) {
        return psl.registrable_domain(host).value_or(std::string(host));
      });
}

}  // namespace nbv6::reference
