#include "web/fqdn_table.h"

#include <unordered_map>
#include <utility>

#include "dns/resolver.h"

namespace nbv6::web {

FqdnTable::FqdnTable(const Universe& universe, const dns::ZoneDb& zone,
                     Epoch epoch)
    : universe_(&universe), epoch_(epoch) {
  const dns::Resolver resolver(zone);
  const PublicSuffixList& psl = universe.psl();
  std::unordered_map<std::string, std::uint32_t> site_ids;
  facts_.reserve(universe.fqdns().size());
  answers_.reserve(universe.fqdns().size());
  for (const Fqdn& f : universe.fqdns()) {
    auto dual = resolver.resolve_dual(f.name);
    Facts facts;
    Answer answer;
    facts.has_a = dual.has_v4();
    facts.has_aaaa = dual.has_v6();
    if (facts.has_a) answer.a = dual.v4.addresses.front().v4();
    if (facts.has_aaaa) answer.aaaa = dual.v6.addresses.front().v6();
    if (facts.reachable() && dual.v4.chain.size() > 1) {
      answer.terminal = static_cast<std::uint32_t>(terminals_.size());
      terminals_.push_back(std::move(dual.v4.chain.back()));
    }
    if (auto etld1 = psl.registrable_domain(f.name)) {
      const auto next = static_cast<std::uint32_t>(site_ids.size());
      facts.site_id = site_ids.try_emplace(std::move(*etld1), next).first->second;
    }
    facts_.push_back(facts);
    answers_.push_back(answer);
  }
  etld1s_.resize(site_ids.size());
  while (!site_ids.empty()) {
    auto node = site_ids.extract(site_ids.begin());
    etld1s_[node.mapped()] = std::move(node.key());
  }
}

}  // namespace nbv6::web
