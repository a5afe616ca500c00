// Shared plumbing for the experiment harness binaries.
//
// Every table and figure of the paper has its own binary under bench/.
// Each prints the same rows/series the paper reports, against the synthetic
// substrate, so the *shape* of every result can be compared directly with
// the published numbers (see EXPERIMENTS.md for the side-by-side).
//
// Scale knobs via environment:
//   NBV6_SITES  web universe size   (default 100000, the paper's scale)
//   NBV6_DAYS   residence days      (default 274, Nov 2024 - Aug 2025)
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bench_cli.h"
#include "cloud/providers.h"
#include "core/client_analysis.h"
#include "engine/fleet.h"
#include "core/server_analysis.h"
#include "flowmon/monitor.h"
#include "stats/descriptive.h"
#include "traffic/generator.h"
#include "traffic/residence.h"
#include "traffic/service_catalog.h"
#include "web/universe.h"

namespace nbv6::bench {

inline int env_int(const char* name, int fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::atoi(v) : fallback;
}

inline std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::strtoull(v, nullptr, 10) : fallback;
}

inline void section(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

/// Print an ECDF at fixed evaluation points as "x y" rows.
inline void print_cdf(std::span<const double> values, const char* label,
                      int points = 21) {
  stats::Ecdf cdf(values);
  std::printf("# CDF: %s (n=%zu)\n", label, values.size());
  for (int i = 0; i <= points; ++i) {
    double q = static_cast<double>(i) / points;
    std::printf("  q=%.2f  value=%.4f\n", q, cdf.inverse(q));
  }
}

inline void print_boxplot(const stats::BoxPlot& b, const std::string& label) {
  std::printf("  %-42s q1=%.3f med=%.3f q3=%.3f whisk=[%.3f,%.3f] outliers=%zu\n",
              label.c_str(), b.q1, b.median, b.q3, b.whisker_low,
              b.whisker_high, b.outliers.size());
}

/// One simulated residence: config, conntrack table, monitor (tables and
/// monitors are non-movable as a pair, hence the unique_ptr wrapper).
struct SimulatedResidence {
  traffic::ResidenceConfig config;
  std::unique_ptr<flowmon::ConntrackTable> table;
  std::unique_ptr<flowmon::FlowMonitor> monitor;
};

/// Run all five paper residences for NBV6_DAYS days.
inline std::vector<SimulatedResidence> simulate_residences(
    const traffic::ServiceCatalog& catalog) {
  int days = env_int("NBV6_DAYS", 274);
  std::vector<SimulatedResidence> out;
  for (auto cfg : traffic::paper_residences()) {
    cfg.days = days;
    SimulatedResidence r;
    r.config = cfg;
    r.table = std::make_unique<flowmon::ConntrackTable>();
    r.monitor = std::make_unique<flowmon::FlowMonitor>(*r.table);
    traffic::ResidenceSimulator sim(catalog, cfg);
    sim.run(*r.table);
    out.push_back(std::move(r));
  }
  return out;
}

/// The fleet figure binaries' shared scenario defaults, one place so both
/// figures always run the same fleet.
inline engine::FleetConfig default_bench_fleet() {
  engine::FleetConfig cfg;
  cfg.residences = 256;
  cfg.days = 14;
  cfg.seed = 20260726;
  cfg.threads = 0;
  return cfg;
}

/// Register the shared fleet scenario flags on `cli`, targeting `cfg`
/// (typically default_bench_fleet()).
inline void register_fleet_flags(Cli& cli, engine::FleetConfig& cfg) {
  cli.flag_int("residences", &cfg.residences.mut(), "fleet size");
  cli.flag_int("days", &cfg.days.mut(), "simulated horizon in days");
  cli.flag_u64("seed", &cfg.seed.mut(), "scenario master seed");
  cli.flag_int("threads", &cfg.threads.mut(),
               "worker lanes, 0 = hw concurrency");
}

/// The standard web universe at NBV6_SITES scale.
inline web::Universe make_universe(const cloud::ProviderCatalog& providers) {
  web::UniverseConfig cfg;
  cfg.site_count = env_int("NBV6_SITES", 100000);
  return web::Universe(cfg, providers);
}

}  // namespace nbv6::bench
