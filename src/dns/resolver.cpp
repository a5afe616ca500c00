#include "dns/resolver.h"

#include <algorithm>
#include <optional>

namespace nbv6::dns {

std::string_view to_string(ResolveStatus s) {
  switch (s) {
    case ResolveStatus::ok:
      return "ok";
    case ResolveStatus::nodata:
      return "nodata";
    case ResolveStatus::nxdomain:
      return "nxdomain";
    case ResolveStatus::cname_loop:
      return "cname_loop";
  }
  return "?";
}

std::optional<ZoneDb::NameView> Resolver::walk(std::string_view name,
                                               ResolveResult& r) const {
  // The chain walk never owns intermediate names: after the initial
  // canonicalization, `current` is a view into the zone's own storage
  // (stable while the const resolver runs), so each CNAME hop costs one
  // heterogeneous map probe (ZoneDb::lookup answers existence, CNAME, and
  // terminal record sets in a single find) instead of several probes and a
  // std::string round-trip. Only the reported chain materializes strings.
  const std::string first = canonicalize(name);
  std::string_view current = first;
  r.chain.emplace_back(first);

  for (int hop = 0; hop <= kMaxChain; ++hop) {
    const ZoneDb::NameView view = db_->lookup(current);
    if (!view.exists) {
      r.status = ResolveStatus::nxdomain;
      return std::nullopt;
    }
    if (view.cname.empty()) return view;  // terminal name
    // Loop detection: a repeated name means the chain cycles.
    if (std::find(r.chain.begin(), r.chain.end(), view.cname) !=
        r.chain.end()) {
      r.status = ResolveStatus::cname_loop;
      return std::nullopt;
    }
    current = view.cname;
    r.chain.emplace_back(current);
  }
  r.status = ResolveStatus::cname_loop;
  return std::nullopt;
}

namespace {

/// Fill `r` with the terminal's addresses of one family.
template <typename Addr>
void take_addresses(const std::vector<Addr>& set, ResolveResult& r) {
  r.addresses.assign(set.begin(), set.end());
  r.status = r.addresses.empty() ? ResolveStatus::nodata : ResolveStatus::ok;
}

}  // namespace

ResolveResult Resolver::resolve(std::string_view name,
                                net::Family family) const {
  ResolveResult r;
  const auto terminal = walk(name, r);
  if (!terminal) return r;
  if (family == net::Family::v4) {
    take_addresses(*terminal->a, r);
  } else {
    take_addresses(*terminal->aaaa, r);
  }
  return r;
}

Resolver::DualStack Resolver::resolve_dual(std::string_view name) const {
  // The CNAME chain does not depend on the address family: walk it once
  // and read both of the terminal's address sets.
  DualStack d;
  const auto terminal = walk(name, d.v4);
  d.v6.chain = d.v4.chain;
  d.v6.status = d.v4.status;
  if (!terminal) return d;
  take_addresses(*terminal->a, d.v4);
  take_addresses(*terminal->aaaa, d.v6);
  return d;
}

}  // namespace nbv6::dns
