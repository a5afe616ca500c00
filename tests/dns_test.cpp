#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "dns/resolver.h"
#include "dns/zone.h"

namespace nbv6::dns {
namespace {

net::IPv4Addr v4(std::uint8_t d) { return net::IPv4Addr(192, 0, 2, d); }
net::IPv6Addr v6(std::uint64_t lo) {
  return net::IPv6Addr::from_halves(0x20010db8ull << 32, lo);
}

TEST(Canonicalize, LowercasesAndStripsDot) {
  EXPECT_EQ(canonicalize("WWW.Example.COM."), "www.example.com");
  EXPECT_EQ(canonicalize("a.b"), "a.b");
  EXPECT_EQ(canonicalize(""), "");
}

TEST(ZoneDb, AddAndReadBack) {
  ZoneDb zone;
  EXPECT_TRUE(zone.add_a("www.example.com", v4(1)));
  EXPECT_TRUE(zone.add_aaaa("www.example.com", v6(1)));
  EXPECT_EQ(zone.a_records("www.example.com").size(), 1u);
  EXPECT_EQ(zone.aaaa_records("WWW.EXAMPLE.COM").size(), 1u);
  EXPECT_TRUE(zone.exists("www.example.com"));
  EXPECT_FALSE(zone.exists("other.example.com"));
}

TEST(ZoneDb, DuplicateAddressesCollapse) {
  ZoneDb zone;
  zone.add_a("x.test", v4(1));
  zone.add_a("x.test", v4(1));
  zone.add_a("x.test", v4(2));
  EXPECT_EQ(zone.a_records("x.test").size(), 2u);
}

TEST(ZoneDb, CnameExclusivity) {
  ZoneDb zone;
  EXPECT_TRUE(zone.add_cname("alias.test", "target.test"));
  // RFC 1034: no other data beside a CNAME.
  EXPECT_FALSE(zone.add_a("alias.test", v4(1)));
  EXPECT_FALSE(zone.add_aaaa("alias.test", v6(1)));
  // And no CNAME on a name with addresses.
  zone.add_a("addr.test", v4(2));
  EXPECT_FALSE(zone.add_cname("addr.test", "elsewhere.test"));
  // Re-adding the same CNAME is fine; a different one is not.
  EXPECT_TRUE(zone.add_cname("alias.test", "target.test"));
  EXPECT_FALSE(zone.add_cname("alias.test", "other.test"));
}

TEST(ZoneDb, RemoveCleansUp) {
  ZoneDb zone;
  zone.add_a("x.test", v4(1));
  EXPECT_EQ(zone.remove("x.test", RecordType::a), 1u);
  EXPECT_FALSE(zone.exists("x.test"));
  EXPECT_EQ(zone.remove("x.test", RecordType::a), 0u);
}

TEST(ZoneDb, RemoveAaaaOnlyDowngrades) {
  ZoneDb zone;
  zone.add_a("dual.test", v4(1));
  zone.add_aaaa("dual.test", v6(1));
  EXPECT_EQ(zone.remove("dual.test", RecordType::aaaa), 1u);
  EXPECT_TRUE(zone.exists("dual.test"));
  EXPECT_TRUE(zone.aaaa_records("dual.test").empty());
  EXPECT_EQ(zone.a_records("dual.test").size(), 1u);
}

TEST(Resolver, DirectAddressLookup) {
  ZoneDb zone;
  zone.add_a("host.test", v4(9));
  zone.add_aaaa("host.test", v6(9));
  Resolver r(zone);
  auto a = r.resolve_a("host.test");
  EXPECT_EQ(a.status, ResolveStatus::ok);
  ASSERT_EQ(a.addresses.size(), 1u);
  EXPECT_TRUE(a.addresses[0].is_v4());
  auto aaaa = r.resolve_aaaa("host.test");
  EXPECT_EQ(aaaa.status, ResolveStatus::ok);
  EXPECT_TRUE(aaaa.addresses[0].is_v6());
}

TEST(Resolver, NxdomainVsNodata) {
  ZoneDb zone;
  zone.add_a("v4only.test", v4(1));
  Resolver r(zone);
  EXPECT_EQ(r.resolve_aaaa("v4only.test").status, ResolveStatus::nodata);
  EXPECT_EQ(r.resolve_a("missing.test").status, ResolveStatus::nxdomain);
}

TEST(Resolver, FollowsCnameChain) {
  ZoneDb zone;
  zone.add_cname("www.site.test", "edge.cdn.test");
  zone.add_cname("edge.cdn.test", "pop.cdn.test");
  zone.add_a("pop.cdn.test", v4(5));
  Resolver r(zone);
  auto res = r.resolve_a("www.site.test");
  EXPECT_EQ(res.status, ResolveStatus::ok);
  ASSERT_EQ(res.chain.size(), 3u);
  EXPECT_EQ(res.chain.front(), "www.site.test");
  EXPECT_EQ(res.terminal(), "pop.cdn.test");
}

TEST(Resolver, CnameToNxdomain) {
  ZoneDb zone;
  zone.add_cname("www.site.test", "gone.test");
  Resolver r(zone);
  EXPECT_EQ(r.resolve_a("www.site.test").status, ResolveStatus::nxdomain);
}

TEST(Resolver, CnameToNodata) {
  ZoneDb zone;
  zone.add_cname("www.site.test", "v4only.test");
  zone.add_a("v4only.test", v4(1));
  Resolver r(zone);
  EXPECT_EQ(r.resolve_aaaa("www.site.test").status, ResolveStatus::nodata);
  EXPECT_EQ(r.resolve_a("www.site.test").status, ResolveStatus::ok);
}

TEST(Resolver, DetectsLoop) {
  ZoneDb zone;
  zone.add_cname("a.test", "b.test");
  zone.add_cname("b.test", "a.test");
  Resolver r(zone);
  EXPECT_EQ(r.resolve_a("a.test").status, ResolveStatus::cname_loop);
}

TEST(Resolver, SelfLoop) {
  ZoneDb zone;
  // A CNAME pointing at itself: add_cname normalizes but permits it
  // (it's a data error the resolver must survive).
  zone.add_cname("self.test", "self.test");
  Resolver r(zone);
  EXPECT_EQ(r.resolve_a("self.test").status, ResolveStatus::cname_loop);
}

TEST(Resolver, DualStackView) {
  ZoneDb zone;
  zone.add_a("dual.test", v4(1));
  zone.add_aaaa("dual.test", v6(1));
  zone.add_a("v4.test", v4(2));
  zone.add_aaaa("v6.test", v6(2));
  Resolver r(zone);

  auto dual = r.resolve_dual("dual.test");
  EXPECT_TRUE(dual.has_v4());
  EXPECT_TRUE(dual.has_v6());
  EXPECT_TRUE(dual.reachable());

  auto v4only = r.resolve_dual("v4.test");
  EXPECT_TRUE(v4only.has_v4());
  EXPECT_FALSE(v4only.has_v6());
  EXPECT_TRUE(v4only.reachable());

  auto v6only = r.resolve_dual("v6.test");
  EXPECT_FALSE(v6only.has_v4());
  EXPECT_TRUE(v6only.has_v6());

  auto missing = r.resolve_dual("nope.test");
  EXPECT_FALSE(missing.reachable());
}

TEST(Resolver, CaseInsensitiveQueries) {
  ZoneDb zone;
  zone.add_a("MiXeD.Test", v4(3));
  Resolver r(zone);
  EXPECT_EQ(r.resolve_a("mixed.test").status, ResolveStatus::ok);
  EXPECT_EQ(r.resolve_a("MIXED.TEST.").status, ResolveStatus::ok);
}

TEST(Canonical, DetectsCanonicalForm) {
  EXPECT_TRUE(is_canonical("www.example.com"));
  EXPECT_TRUE(is_canonical(""));
  EXPECT_TRUE(is_canonical("a-b.c0.net"));
  EXPECT_FALSE(is_canonical("WWW.example.com"));
  EXPECT_FALSE(is_canonical("example.com."));
  EXPECT_FALSE(is_canonical("."));
}

TEST(ZoneDb, HeterogeneousLookupMatchesCanonicalized) {
  // The allocation-free canonical fast path and the canonicalizing slow
  // path must answer identically for every spelling of a name.
  ZoneDb db;
  db.add_a("www.Example.COM.", net::IPv4Addr(192, 0, 2, 1));
  db.add_cname("alias.example.com", "www.example.com");
  for (const char* spelling :
       {"www.example.com", "WWW.EXAMPLE.COM", "www.example.com.",
        "wWw.eXample.Com."}) {
    EXPECT_TRUE(db.exists(spelling)) << spelling;
    ASSERT_EQ(db.a_records(spelling).size(), 1u) << spelling;
    EXPECT_EQ(db.a_records(spelling)[0], net::IPv4Addr(192, 0, 2, 1));
  }
  EXPECT_EQ(db.cname("ALIAS.example.com."), "www.example.com");
  EXPECT_EQ(db.cname_view("alias.example.com"), "www.example.com");
  EXPECT_TRUE(db.cname_view("www.example.com").empty());
  EXPECT_TRUE(db.cname_view("missing.example.com").empty());
}

TEST(Resolver, MixedCaseChainResolvesAndReportsCanonicalChain) {
  ZoneDb db;
  db.add_cname("Shop.Example.com", "edge.CDN.net");
  db.add_a("edge.cdn.net", net::IPv4Addr(203, 0, 113, 9));
  Resolver r(db);
  auto res = r.resolve_a("SHOP.EXAMPLE.COM.");
  ASSERT_TRUE(res.ok());
  ASSERT_EQ(res.chain.size(), 2u);
  EXPECT_EQ(res.chain[0], "shop.example.com");
  EXPECT_EQ(res.chain[1], "edge.cdn.net");
  EXPECT_EQ(res.terminal(), "edge.cdn.net");
}

TEST(Resolver, ResolveDualEqualsTwoResolvesOnEdgeCases) {
  // The single chain walk of resolve_dual must answer exactly like one
  // resolve() per family: status, chain and addresses.
  ZoneDb zone;
  zone.add_cname("a.test", "b.test");  // two-name loop
  zone.add_cname("b.test", "a.test");
  zone.add_cname("self.test", "self.test");
  zone.add_cname("dangling.test", "gone.test");     // CNAME -> NXDOMAIN
  zone.add_cname("to-v4.test", "v4only.test");      // CNAME -> NODATA (AAAA)
  zone.add_a("v4only.test", v4(1));
  zone.add_cname("to-v6.test", "v6only.test");      // CNAME -> NODATA (A)
  zone.add_aaaa("v6only.test", v6(1));
  zone.add_cname("Shop.Example.com", "edge.CDN.net");  // mixed case
  zone.add_a("edge.cdn.net", v4(2));
  zone.add_a("edge.cdn.net", v4(3));
  zone.add_aaaa("edge.cdn.net", v6(2));
  // A chain longer than kMaxChain.
  for (int i = 0; i <= Resolver::kMaxChain + 1; ++i)
    zone.add_cname("hop" + std::to_string(i) + ".test",
                   "hop" + std::to_string(i + 1) + ".test");
  zone.add_a("hop" + std::to_string(Resolver::kMaxChain + 2) + ".test", v4(4));
  Resolver r(zone);

  for (const char* name :
       {"a.test", "self.test", "dangling.test", "to-v4.test", "to-v6.test",
        "v4only.test", "v6only.test", "SHOP.EXAMPLE.COM.", "shop.example.com",
        "Edge.Cdn.Net", "missing.test", "hop0.test", "hop5.test"}) {
    const auto dual = r.resolve_dual(name);
    const auto a = r.resolve_a(name);
    const auto aaaa = r.resolve_aaaa(name);
    EXPECT_EQ(dual.v4.status, a.status) << name;
    EXPECT_EQ(dual.v4.chain, a.chain) << name;
    EXPECT_EQ(dual.v4.addresses, a.addresses) << name;
    EXPECT_EQ(dual.v6.status, aaaa.status) << name;
    EXPECT_EQ(dual.v6.chain, aaaa.chain) << name;
    EXPECT_EQ(dual.v6.addresses, aaaa.addresses) << name;
  }
  EXPECT_EQ(r.resolve_dual("a.test").v6.status, ResolveStatus::cname_loop);
  EXPECT_EQ(r.resolve_dual("hop0.test").v4.status, ResolveStatus::cname_loop);
  EXPECT_EQ(r.resolve_dual("hop5.test").v4.status, ResolveStatus::ok);
  EXPECT_EQ(r.resolve_dual("to-v4.test").v6.status, ResolveStatus::nodata);
  EXPECT_EQ(r.resolve_dual("to-v6.test").v4.status, ResolveStatus::nodata);
  EXPECT_EQ(r.resolve_dual("dangling.test").v4.status, ResolveStatus::nxdomain);
  EXPECT_EQ(r.resolve_dual("SHOP.EXAMPLE.COM.").v6.addresses.size(), 1u);
}

TEST(ResolveStatusNames, ToString) {
  EXPECT_EQ(to_string(ResolveStatus::ok), "ok");
  EXPECT_EQ(to_string(ResolveStatus::nodata), "nodata");
  EXPECT_EQ(to_string(ResolveStatus::nxdomain), "nxdomain");
  EXPECT_EQ(to_string(ResolveStatus::cname_loop), "cname_loop");
}

// ----------------------------------------------- interned-store checking
// The open-addressing interning store must behave exactly like the
// ordered-map implementation it replaced: same records, same removal
// semantics, same sorted iteration.

TEST(ZoneDbIntern, ForEachNameStaysSortedAcrossMutation) {
  ZoneDb zone;
  for (const char* n : {"mmm.example", "aaa.example", "zzz.example",
                        "kkk.example", "bbb.example"})
    zone.add_a(n, v4(1));
  zone.remove("kkk.example", RecordType::a);
  zone.add_a("ccc.example", v4(2));

  std::vector<std::string> seen;
  zone.for_each_name([&](const std::string& n) { seen.push_back(n); });
  const std::vector<std::string> want{"aaa.example", "bbb.example",
                                      "ccc.example", "mmm.example",
                                      "zzz.example"};
  EXPECT_EQ(seen, want);
}

TEST(ZoneDbIntern, RandomizedDifferentialAgainstOrderedMap) {
  // Reference model: the exact structure the pre-interning ZoneDb used.
  struct Ref {
    std::vector<net::IPv4Addr> a;
    std::string cname;
  };
  std::map<std::string, Ref> ref;
  ZoneDb zone;

  std::mt19937_64 rng(20260808);
  auto rand_name = [&rng] {
    std::string name = "h";
    name += std::to_string(rng() % 64);
    name += ".example";
    return name;
  };
  for (int step = 0; step < 4000; ++step) {
    const std::string name = rand_name();
    switch (rng() % 4) {
      case 0: {  // add A
        const auto addr = v4(static_cast<std::uint8_t>(rng() % 8));
        const bool ok = zone.add_a(name, addr);
        auto& r = ref[name];
        if (!r.cname.empty()) {
          EXPECT_FALSE(ok);
          if (ref[name].a.empty() && ref[name].cname.empty()) ref.erase(name);
        } else {
          EXPECT_TRUE(ok);
          if (std::find(r.a.begin(), r.a.end(), addr) == r.a.end())
            r.a.push_back(addr);
        }
        break;
      }
      case 1: {  // add CNAME
        const std::string target = rand_name();
        const bool ok = zone.add_cname(name, target);
        auto& r = ref[name];
        if (!r.a.empty() || (!r.cname.empty() && r.cname != target)) {
          EXPECT_FALSE(ok) << name;
          if (r.a.empty() && r.cname.empty()) ref.erase(name);
        } else {
          EXPECT_TRUE(ok) << name;
          r.cname = target;
        }
        break;
      }
      case 2: {  // remove A set
        const size_t got = zone.remove(name, RecordType::a);
        auto it = ref.find(name);
        const size_t want = it == ref.end() ? 0 : it->second.a.size();
        EXPECT_EQ(got, want) << name;
        if (it != ref.end()) {
          it->second.a.clear();
          if (it->second.cname.empty()) ref.erase(it);
        }
        break;
      }
      default: {  // remove CNAME
        const size_t got = zone.remove(name, RecordType::cname);
        auto it = ref.find(name);
        const size_t want =
            it == ref.end() || it->second.cname.empty() ? 0 : 1;
        EXPECT_EQ(got, want) << name;
        if (it != ref.end()) {
          it->second.cname.clear();
          if (it->second.a.empty()) ref.erase(it);
        }
        break;
      }
    }
  }

  // Full-state comparison at the end of the walk.
  ASSERT_EQ(zone.name_count(), ref.size());
  std::vector<std::string> names;
  zone.for_each_name([&](const std::string& n) { names.push_back(n); });
  ASSERT_EQ(names.size(), ref.size());
  size_t i = 0;
  for (const auto& [name, r] : ref) {
    EXPECT_EQ(names[i++], name);  // sorted order == map order
    EXPECT_EQ(zone.a_records(name), r.a) << name;
    EXPECT_EQ(zone.cname(name), r.cname) << name;
    EXPECT_TRUE(zone.exists(name));
  }
}

TEST(ZoneDbIntern, LookupSurvivesTableGrowth) {
  ZoneDb zone;
  // Push far past several grow_slots() rebuilds.
  for (int i = 0; i < 5000; ++i)
    zone.add_a("host" + std::to_string(i) + ".example", v4(1));
  EXPECT_EQ(zone.name_count(), 5000u);
  for (int i = 0; i < 5000; ++i) {
    const std::string name = "host" + std::to_string(i) + ".example";
    EXPECT_TRUE(zone.exists(name)) << name;
    EXPECT_EQ(zone.a_records(name).size(), 1u) << name;
  }
  EXPECT_FALSE(zone.exists("host5000.example"));
}

}  // namespace
}  // namespace nbv6::dns
