#include "engine/run_spec.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "engine/flat_conntrack.h"
#include "stats/rng.h"
#include "traffic/arrival.h"

namespace nbv6::engine {

SampledFleet sample_stage(const FleetConfig& cfg,
                          const traffic::ServiceCatalog& catalog) {
  SampledFleet out;
  out.configs.reserve(static_cast<size_t>(cfg.residences));
  out.traits.reserve(static_cast<size_t>(cfg.residences));

  for (int i = 0; i < cfg.residences; ++i) {
    // Residence i's sampling stream depends only on (seed, i): stable under
    // population resizes and independent of evaluation order.
    std::uint64_t state =
        cfg.seed ^ (0x9E3779B97F4A7C15ull * (static_cast<std::uint64_t>(i) + 1));
    stats::Rng rng(stats::splitmix64(state));

    traffic::ResidenceConfig r;
    r.name = "R";
    r.name += std::to_string(i);
    r.days = cfg.days;
    r.arrival = cfg.arrival;
    r.seed = stats::splitmix64(state);  // simulator stream, distinct from sampler's

    ResidenceTraits t;
    const bool v6_isp = t.dual_stack_isp = rng.chance(cfg.dual_stack_isp_frac);
    const bool vacant = t.vacant = rng.chance(cfg.background_only_frac);
    const bool heavy = t.heavy_streamer = rng.chance(cfg.heavy_streamer_frac);

    r.activity_scale =
        vacant ? 0.0
               : rng.uniform(cfg.activity_scale_min, cfg.activity_scale_max);
    if (!v6_isp) {
      r.device_v6_ok_frac = 0.0;  // no delegated prefix, nothing to be ok
      r.internal_v6_frac = rng.uniform(0.0, 0.25);  // link-local-ish only
    } else {
      t.broken_v6 = rng.chance(cfg.broken_v6_frac);
      r.device_v6_ok_frac = t.broken_v6 ? rng.uniform(0.2, 0.6) : 1.0;
      r.internal_v6_frac = rng.uniform(0.25, 0.98);
    }
    t.opt_out = rng.chance(cfg.opt_out_frac);
    if (t.opt_out) r.visibility = rng.uniform(0.3, 0.8);
    r.internal_flows_per_hour = rng.uniform(0.4, 6.0);
    r.background_v4_bias = rng.uniform(0.05, 0.9);

    // Service-mix tilt: heavy streamers boost every streaming/download
    // service; everyone else gets a mild random tilt over a few services.
    if (heavy) {
      for (const auto& s : catalog.services()) {
        if (s.profile == traffic::TrafficProfile::streaming ||
            s.profile == traffic::TrafficProfile::download) {
          r.service_weight_overrides.emplace_back(s.name,
                                                  rng.uniform(2.0, 8.0));
        }
      }
    } else {
      for (int k = 0; k < 3; ++k) {
        size_t idx = static_cast<size_t>(rng.below(catalog.size()));
        r.service_weight_overrides.emplace_back(catalog.at(idx).name,
                                                rng.uniform(0.5, 3.0));
      }
    }

    // One scripted absence window when the horizon has room for it.
    if (cfg.days > 14 && rng.chance(cfg.absence_prob)) {
      t.scripted_absence = true;
      int len = static_cast<int>(rng.between(2, 7));
      int first = static_cast<int>(rng.between(3, cfg.days - len - 3));
      r.away_day_ranges.push_back({first, first + len - 1});
    }

    out.configs.push_back(std::move(r));
    out.traits.push_back(t);
  }
  return out;
}

FleetResult simulate_fleet(const traffic::ServiceCatalog& catalog,
                           std::span<const traffic::ResidenceConfig> configs,
                           ThreadPool* pool) {
  FleetResult out;
  out.residences.resize(configs.size());

  // One shard per residence: private RNG (seeded from the config), private
  // flat conntrack table, private monitor. The slot vector is preallocated,
  // so each monitor is attached at its final address and never moves while
  // its table is alive.
  auto run_one = [&](std::size_t i) {
    ResidenceRun& slot = out.residences[i];
    slot.config = configs[i];
    FlatConntrack table;
    slot.monitor.attach(table);
    traffic::ResidenceSimulator sim(catalog, configs[i]);
    slot.stats = sim.run(table);
  };

  if (pool != nullptr) {
    pool->parallel_for(configs.size(), run_one);
  } else {
    for (std::size_t i = 0; i < configs.size(); ++i) run_one(i);
  }

  // Fixed-order reduction: counter merges are associative and commutative,
  // so the fold order only matters for retained records (none here) — the
  // fleet view is bit-identical for any lane count.
  for (const auto& run : out.residences) {
    out.fleet.merge(run.monitor);
    out.totals += run.stats;  // horizon totals + the per-day series
  }
  return out;
}

FleetResult simulate_fleet(const traffic::ServiceCatalog& catalog,
                           const SampledFleet& fleet, ThreadPool* pool) {
  // Traits index into the residence vector downstream (group comparisons),
  // so a hand-built SampledFleet with mismatched sizes must fail here, not
  // as an out-of-bounds read later.
  if (fleet.traits.size() != fleet.configs.size())
    throw std::invalid_argument(
        "simulate_fleet: SampledFleet traits/configs size mismatch");
  FleetResult out = simulate_fleet(catalog, fleet.configs, pool);
  out.traits = fleet.traits;
  return out;
}

StreamStats stream_fleet(const traffic::ServiceCatalog& catalog,
                         const SampledFleet& fleet, int days,
                         const traffic::ArrivalConfig& arrival,
                         ThreadPool* pool, const RunSpec::FlowSink& sink) {
  const size_t n = fleet.configs.size();
  std::vector<traffic::ResidenceSimulator> sims;
  sims.reserve(n);
  for (const auto& rc : fleet.configs) sims.emplace_back(catalog, rc);
  std::vector<FlowEventBuffer> buffers(n);
  for (auto& sim : sims) sim.begin_run();

  // Slots per day: hours in batch mode, ticks otherwise (the same clamp
  // the generator's tick loop applies).
  const int tph = arrival.mode == traffic::ArrivalMode::batch
                      ? 1
                      : std::clamp(arrival.ticks_per_hour, 1, 3600);
  const int slots_per_day = 24 * tph;

  StreamStats out;
  std::vector<size_t> cursor(n);

  for (int day = 0; day < days; ++day) {
    // Lanes fill per-residence buffers independently (no shared state);
    // determinism comes from the merge below, not the fill order.
    auto run_one = [&](std::size_t i) { sims[i].run_day(buffers[i], day); };
    if (pool != nullptr) {
      pool->parallel_for(n, run_one);
    } else {
      for (std::size_t i = 0; i < n; ++i) run_one(i);
    }

    // Canonical merge: tick-major, residence index, generation order.
    // Each buffer's records are already tick-sorted (ticks are simulated
    // in order), so this is a linear cursor sweep, not a sort.
    std::fill(cursor.begin(), cursor.end(), size_t{0});
    for (int tick = 0; tick < slots_per_day; ++tick) {
      for (size_t i = 0; i < n; ++i) {
        auto& ev = buffers[i].events();
        size_t& c = cursor[i];
        while (c < ev.size() && ev[c].tick <= tick) {
          ev[c].residence = static_cast<std::uint32_t>(i);
          sink(ev[c]);
          ++out.flows;
          ++c;
        }
      }
    }
    // Defensive drain: nothing should remain past the last slot, but a
    // record must never be dropped silently.
    for (size_t i = 0; i < n; ++i) {
      auto& ev = buffers[i].events();
      for (size_t& c = cursor[i]; c < ev.size(); ++c) {
        ev[c].residence = static_cast<std::uint32_t>(i);
        sink(ev[c]);
        ++out.flows;
      }
    }
    for (auto& b : buffers) b.clear();
  }

  const auto horizon =
      static_cast<flowmon::Timestamp>(days) * flowmon::kSecondsPerDay;
  for (size_t i = 0; i < n; ++i) {
    buffers[i].flush(horizon);
    out.totals += sims[i].stats();
  }
  return out;
}

}  // namespace nbv6::engine
