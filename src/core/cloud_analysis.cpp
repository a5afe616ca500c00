#include "core/cloud_analysis.h"

#include <optional>
#include <stdexcept>
#include <utility>

#include "dns/zone.h"
#include "web/fqdn_table.h"

namespace nbv6::core {

std::vector<cloud::DomainRecord> build_domain_records(
    const web::Universe& universe, const ServerSurvey& survey) {
  std::optional<web::FqdnTable> own;
  const web::FqdnTable* table = survey.fqdn_table.get();
  if (table == nullptr) {
    own.emplace(universe, universe.build_zone(survey.epoch), survey.epoch);
    table = &*own;
  } else if (!table->built_for(universe, survey.epoch)) {
    throw std::invalid_argument(
        "build_domain_records: the survey's FQDN table was built for "
        "another universe or epoch");
  }

  const auto ids = observed_fqdn_ids(universe, survey);
  std::vector<cloud::DomainRecord> out;
  out.reserve(ids.size());
  for (std::uint32_t id : ids) {
    const web::FqdnTable::Facts& facts = table->facts(id);
    if (!facts.reachable()) continue;
    const web::FqdnTable::Answer& answer = table->answer(id);
    cloud::DomainRecord r;
    r.fqdn = dns::canonicalize(universe.fqdns()[id].name);
    r.etld1 = facts.site_id == web::FqdnTable::kNone
                  ? r.fqdn
                  : std::string(table->etld1(facts.site_id));
    if (facts.has_a) r.a_addr = answer.a;
    if (facts.has_aaaa) r.aaaa_addr = answer.aaaa;
    r.cname_terminal = answer.terminal == web::FqdnTable::kNone
                           ? r.fqdn
                           : std::string(table->cname_terminal(answer.terminal));
    out.push_back(std::move(r));
  }
  return out;
}

std::map<std::string, std::string> paper_org_merge_map() {
  return {
      {"Cloudflare, Inc.", "Cloudflare (All)"},
      {"Cloudflare London, LLC", "Cloudflare (All)"},
      {"Akamai International B.V.", "Akamai (All)"},
      {"Akamai Technologies, Inc.", "Akamai (All)"},
  };
}

CloudReport analyze_cloud(const web::Universe& universe,
                          const ServerSurvey& survey) {
  auto records = build_domain_records(universe, survey);
  CloudReport report;
  report.providers =
      cloud::provider_breakdown(records, universe.providers());
  report.services = cloud::service_breakdown(records, universe.providers());
  return report;
}

}  // namespace nbv6::core
