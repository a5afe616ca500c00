// Public Suffix List and eTLD+1 (registrable domain) extraction.
//
// The paper's unit of "site" and of resource-domain aggregation is the
// eTLD+1: "a domain name consisting of one label and a public suffix"
// (§4.1, following the Mozilla PSL). Same-site link-click crawling, the
// first- vs third-party split, span/median-contribution, and multi-cloud
// tenant grouping all key on it.
//
// This is a self-contained PSL engine with the standard matching rules
// (normal rules, wildcard rules like *.ck, exception rules like !www.ck)
// preloaded with a representative rule set; callers can add rules.
#pragma once

#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_set>

namespace nbv6::web {

class PublicSuffixList {
 public:
  /// An empty list (only the implicit "*" root rule applies).
  PublicSuffixList() = default;

  /// The built-in rule set: gTLDs, common ccTLDs and second-level public
  /// suffixes, a wildcard rule, and an exception rule, enough to exercise
  /// every branch of the algorithm.
  static PublicSuffixList builtin();

  /// The rules builtin() loads, in PSL syntax.
  static std::span<const std::string_view> builtin_rules();

  /// Add one rule in PSL syntax ("com", "co.uk", "*.ck", "!www.ck"). The
  /// rule is canonicalized like a host.
  void add_rule(std::string_view rule);

  // Every query canonicalizes `host` first (lowercase, one trailing root
  // dot stripped, as dns::canonicalize does), so "WWW.Example.com." and
  // "www.example.com" answer alike; results are in canonical form. Only a
  // non-canonical host costs a copy: candidate suffixes are views into the
  // host, probed against the rule sets without building a string each.

  /// Longest matching public suffix of `host` ("a.b.co.uk" -> "co.uk").
  /// Per the PSL algorithm, an unlisted TLD matches the implicit "*" rule.
  [[nodiscard]] std::string public_suffix(std::string_view host) const;

  /// Registrable domain: public suffix plus one label
  /// ("x.assets.example.co.uk" -> "example.co.uk"). nullopt when `host`
  /// itself is a public suffix (no registrable domain exists), or when the
  /// label before the suffix, or the suffix itself, is empty ("a..com").
  [[nodiscard]] std::optional<std::string> registrable_domain(
      std::string_view host) const;

  /// True when `a` and `b` share their registrable domain — the paper's
  /// same-site test for link clicks and the first-party test for
  /// resources.
  [[nodiscard]] bool same_site(std::string_view a, std::string_view b) const;

 private:
  /// Heterogeneous hashing: rule sets are probed with string_views.
  struct ViewHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };
  using RuleSet = std::unordered_set<std::string, ViewHash, std::equal_to<>>;

  /// public_suffix / registrable_domain of a canonical host, as views
  /// into it (registrable is empty when there is none).
  [[nodiscard]] std::string_view suffix_of(std::string_view canon) const;
  [[nodiscard]] std::string_view registrable_of(std::string_view canon) const;

  RuleSet rules_;
  RuleSet wildcard_rules_;   // stored without "*."
  RuleSet exception_rules_;  // stored without "!"
};

}  // namespace nbv6::web
