// What DNS and the PSL say about every FQDN of a universe at one epoch.
//
// The table is the one DNS/PSL view of a survey: construction resolves
// every FQDN of the universe once, over both families (one CNAME walk per
// name), and interns its eTLD+1 via the universe's PSL. The crawler reads
// its reachability and eTLD+1 ids on every fetch; the cloud records of §5
// read its first A and AAAA address, CNAME terminal and eTLD+1 string. No
// zone is needed after construction.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "dns/zone.h"
#include "net/ip.h"
#include "web/universe.h"

namespace nbv6::web {

class FqdnTable {
 public:
  /// "No such id": a name without a registrable domain, or a name without
  /// a CNAME chain.
  static constexpr std::uint32_t kNone = 0xffffffffu;

  /// What the crawl reads per fetch. Kept apart from the answers below so
  /// that the crawl's random reads stay 8 bytes per FQDN.
  struct Facts {
    bool has_a = false;
    bool has_aaaa = false;
    /// Interned eTLD+1 (see etld1()); kNone when the name has no
    /// registrable domain.
    std::uint32_t site_id = kNone;
    [[nodiscard]] bool reachable() const { return has_a || has_aaaa; }
  };

  /// The answers behind the facts, read by the cloud records.
  struct Answer {
    net::IPv4Addr a;     ///< first A address; meaningful when has_a
    net::IPv6Addr aaaa;  ///< first AAAA address; meaningful when has_aaaa
    /// CNAME terminal (see cname_terminal()); kNone when the name has no
    /// chain, so its terminal is the canonical name itself.
    std::uint32_t terminal = kNone;
  };

  /// Resolves every FQDN of `universe` against `zone`, which is `epoch`'s
  /// zone. The zone is read only here.
  FqdnTable(const Universe& universe, const dns::ZoneDb& zone, Epoch epoch);

  [[nodiscard]] const Universe& universe() const { return *universe_; }
  [[nodiscard]] Epoch epoch() const { return epoch_; }
  /// True when this table describes `universe` (the same object, with as
  /// many FQDNs as when the table was built) at `epoch`.
  [[nodiscard]] bool built_for(const Universe& universe, Epoch epoch) const {
    return universe_ == &universe && epoch_ == epoch &&
           facts_.size() == universe.fqdns().size();
  }

  /// Indexed by FQDN id.
  [[nodiscard]] const Facts& facts(std::uint32_t fqdn) const {
    return facts_[fqdn];
  }
  [[nodiscard]] const Answer& answer(std::uint32_t fqdn) const {
    return answers_[fqdn];
  }
  /// The eTLD+1 interned as `site_id` (canonical form).
  [[nodiscard]] std::string_view etld1(std::uint32_t site_id) const {
    return etld1s_[site_id];
  }
  /// The terminal of a chained name, by Answer::terminal (canonical form).
  [[nodiscard]] std::string_view cname_terminal(std::uint32_t terminal) const {
    return terminals_[terminal];
  }

 private:
  const Universe* universe_;
  Epoch epoch_;
  std::vector<Facts> facts_;
  std::vector<Answer> answers_;
  std::vector<std::string> etld1s_;
  /// One per reachable name with a CNAME chain.
  std::vector<std::string> terminals_;
};

}  // namespace nbv6::web
