#include "web/psl.h"

#include "dns/zone.h"

namespace nbv6::web {

namespace {

constexpr std::string_view kBuiltinRules[] = {
    // gTLDs and common new TLDs.
    "com", "org", "net", "edu", "gov", "mil", "int", "io", "co", "ai",
    "app", "dev", "cloud", "online", "shop", "site", "xyz", "info", "biz",
    "tv", "me", "us", "ca", "de", "fr", "nl", "es", "it", "pl", "ru", "cn",
    "in", "br", "mx", "se", "no", "fi", "ch", "at", "be", "cz", "gr", "pt",
    "ro", "hu", "dk", "ie", "il", "tr", "za", "kr", "vn", "id", "th", "my",
    "sg", "hk", "tw", "ar", "cl", "pe", "ve",
    // Two-level public suffixes.
    "co.uk", "org.uk", "ac.uk", "gov.uk", "me.uk",
    "com.au", "net.au", "org.au", "edu.au",
    "co.jp", "ne.jp", "or.jp", "ac.jp",
    "com.br", "net.br", "org.br",
    "co.in", "net.in", "org.in",
    "com.cn", "net.cn", "org.cn",
    "co.nz", "net.nz", "org.nz",
    "com.mx", "com.ar", "com.tr", "com.sg", "com.hk", "com.tw",
    "co.kr", "co.za", "com.vn",
    // Private-registry suffixes on the real PSL that matter for
    // third-party hosting analysis.
    "github.io", "gitlab.io", "netlify.app", "vercel.app", "web.app",
    "firebaseapp.com", "herokuapp.com", "azurewebsites.net",
    "cloudfront.net", "appspot.com", "run.app", "b-cdn.net",
    "amazonaws.com",
    // Wildcard and exception rules (the ck classic).
    "*.ck", "!www.ck",
};

/// Run `fn` on the canonical form of `host`, copying only when `host` is
/// not canonical already. `fn` must return an owning value.
template <typename Fn>
auto on_canonical(std::string_view host, Fn&& fn) {
  if (dns::is_canonical(host)) return fn(host);
  const std::string canon = dns::canonicalize(host);
  return fn(std::string_view(canon));
}

}  // namespace

std::span<const std::string_view> PublicSuffixList::builtin_rules() {
  return kBuiltinRules;
}

void PublicSuffixList::add_rule(std::string_view rule) {
  if (rule.empty()) return;
  if (rule[0] == '!') {
    exception_rules_.emplace(dns::canonicalize(rule.substr(1)));
  } else if (rule.rfind("*.", 0) == 0) {
    wildcard_rules_.emplace(dns::canonicalize(rule.substr(2)));
  } else {
    rules_.emplace(dns::canonicalize(rule));
  }
}

PublicSuffixList PublicSuffixList::builtin() {
  PublicSuffixList psl;
  for (std::string_view r : kBuiltinRules) psl.add_rule(r);
  return psl;
}

std::string_view PublicSuffixList::suffix_of(std::string_view host) const {
  // Walk candidate suffixes from the full host down, each a view starting
  // at the host's start or just past a dot; the first (longest) match
  // wins. PSL semantics: exception beats wildcard; wildcard "*.X" makes
  // "<label>.X" a suffix; otherwise the literal rules; fall back to the
  // last label (implicit "*").
  for (size_t start = 0;;) {
    const std::string_view suffix = host.substr(start);
    const size_t dot = suffix.find('.');
    const std::string_view parent =
        dot == std::string_view::npos ? std::string_view{}
                                      : suffix.substr(dot + 1);
    // The exception rule says this exact name is NOT a public suffix; its
    // public suffix is one label shorter.
    if (exception_rules_.contains(suffix)) return parent;
    if (rules_.contains(suffix)) return suffix;
    if (dot == std::string_view::npos) return suffix;  // implicit "*"
    if (wildcard_rules_.contains(parent)) return suffix;
    start += dot + 1;
  }
}

std::string_view PublicSuffixList::registrable_of(std::string_view host) const {
  const std::string_view suffix = suffix_of(host);
  // No registrable domain when the host IS a suffix or ends in an empty
  // label.
  if (suffix.empty() || suffix.size() >= host.size()) return {};
  // One more label than the suffix.
  const std::string_view rest = host.substr(0, host.size() - suffix.size() - 1);
  const size_t last_dot = rest.rfind('.');
  const size_t label_start = last_dot == std::string_view::npos ? 0 : last_dot + 1;
  if (label_start == rest.size()) return {};  // empty label ("a..com")
  return host.substr(label_start);
}

std::string PublicSuffixList::public_suffix(std::string_view host) const {
  return on_canonical(host, [this](std::string_view h) {
    return std::string(suffix_of(h));
  });
}

std::optional<std::string> PublicSuffixList::registrable_domain(
    std::string_view host) const {
  return on_canonical(host, [this](std::string_view h) {
    const std::string_view r = registrable_of(h);
    return r.empty() ? std::nullopt : std::optional<std::string>(r);
  });
}

bool PublicSuffixList::same_site(std::string_view a,
                                 std::string_view b) const {
  return on_canonical(a, [&](std::string_view ca) {
    return on_canonical(b, [&](std::string_view cb) {
      const std::string_view ra = registrable_of(ca);
      return !ra.empty() && ra == registrable_of(cb);
    });
  });
}

}  // namespace nbv6::web
