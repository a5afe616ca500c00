// A stub resolver over a ZoneDb.
//
// Follows CNAME chains (bounded, loop-safe), distinguishes NXDOMAIN (name
// owns nothing anywhere on the chain) from NODATA (name exists but lacks
// the queried type) — the distinction §4.2's loading-failure taxonomy
// needs — and reports the chain itself, which the cloud service
// identification of §5.3 mines for service suffixes.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "dns/zone.h"
#include "net/ip.h"

namespace nbv6::dns {

enum class ResolveStatus : std::uint8_t {
  ok,          ///< at least one address of the requested family
  nodata,      ///< terminal name exists but has no record of this type
  nxdomain,    ///< some name on the chain does not exist at all
  cname_loop,  ///< CNAME chain exceeded the hop limit or looped
};

std::string_view to_string(ResolveStatus s);

struct ResolveResult {
  ResolveStatus status = ResolveStatus::nxdomain;
  /// Addresses of the requested family at the chain's terminal name.
  std::vector<net::IpAddr> addresses;
  /// Names traversed, starting with the canonicalized query name and
  /// ending with the terminal (non-CNAME) name.
  std::vector<std::string> chain;

  [[nodiscard]] bool ok() const { return status == ResolveStatus::ok; }
  /// Terminal name of the chain (canonical), or empty if none.
  [[nodiscard]] std::string terminal() const {
    return chain.empty() ? std::string{} : chain.back();
  }
};

class Resolver {
 public:
  explicit Resolver(const ZoneDb& db) : db_(&db) {}

  /// Resolve `name` for the requested family, following CNAMEs.
  [[nodiscard]] ResolveResult resolve(std::string_view name,
                                      net::Family family) const;

  /// Convenience wrappers.
  [[nodiscard]] ResolveResult resolve_a(std::string_view name) const {
    return resolve(name, net::Family::v4);
  }
  [[nodiscard]] ResolveResult resolve_aaaa(std::string_view name) const {
    return resolve(name, net::Family::v6);
  }

  /// Dual-stack view of one name, the unit of §4's classification.
  struct DualStack {
    ResolveResult v4;
    ResolveResult v6;
    [[nodiscard]] bool has_v4() const { return v4.ok(); }
    [[nodiscard]] bool has_v6() const { return v6.ok(); }
    /// Reachable over at least one family.
    [[nodiscard]] bool reachable() const { return has_v4() || has_v6(); }
  };
  /// Walks the CNAME chain once; equal to resolve() for each family.
  [[nodiscard]] DualStack resolve_dual(std::string_view name) const;

  /// Maximum CNAME hops before declaring a loop (mirrors common resolver
  /// limits).
  static constexpr int kMaxChain = 16;

 private:
  /// Follow the CNAME chain of `name`, recording it in `r.chain`. Returns
  /// the terminal name's records, or nullopt with `r.status` set to
  /// nxdomain / cname_loop.
  [[nodiscard]] std::optional<ZoneDb::NameView> walk(std::string_view name,
                                                     ResolveResult& r) const;

  const ZoneDb* db_;
};

}  // namespace nbv6::dns
