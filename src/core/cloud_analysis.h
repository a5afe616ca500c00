// Cloud-side adoption analysis (§5): glue from a server survey's observed
// FQDNs to the cloud attribution pipeline. The records are read from the
// survey's web::FqdnTable, the DNS/PSL view its crawl already resolved.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "cloud/analysis.h"
#include "core/server_analysis.h"
#include "web/universe.h"

namespace nbv6::core {

/// One cloud DomainRecord per reachable FQDN the survey observed, in
/// observed_fqdn_ids order: canonical name, eTLD+1 (the name itself when
/// it has none), first A and AAAA address, CNAME terminal (the name itself
/// when chain-free). Read from the survey's FqdnTable: no zone, no resolve,
/// no PSL. A survey without a table (assembled by hand) gets one built from
/// `universe`'s zone at the survey's epoch. Throws std::invalid_argument
/// when the survey's table was built for another universe or epoch.
std::vector<cloud::DomainRecord> build_domain_records(
    const web::Universe& universe, const ServerSurvey& survey);

/// The paper's merged-entity map for Fig. 12 ("Cloudflare (All)",
/// "Akamai (All)").
std::map<std::string, std::string> paper_org_merge_map();

struct CloudReport {
  std::vector<cloud::ProviderBreakdownRow> providers;   ///< Table 3 / Fig. 11
  std::vector<cloud::ServiceAdoptionRow> services;      ///< Table 2
};

CloudReport analyze_cloud(const web::Universe& universe,
                          const ServerSurvey& survey);

}  // namespace nbv6::core
