// Shared test utilities: fleet builders and canonical serializers.
//
// The golden-replay suite needs two things no production header provides:
// a one-call "run this scenario file end to end" builder (sample →
// timeline → simulate → analyze), and a canonical text form of the whole
// outcome whose equality is exactly bit-equality of the underlying state.
// Both live here so future conformance tests (and ad-hoc debugging — the
// serializer makes any two runs diffable) reuse them instead of growing
// private copies.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/fleet_analysis.h"
#include "engine/fleet.h"
#include "engine/thread_pool.h"
#include "engine/timeline.h"
#include "traffic/service_catalog.h"

namespace nbv6::testutil {

// ------------------------------------------------------------------ paths

/// Repo source root (the NBV6_SOURCE_DIR compile definition).
std::string source_dir();
/// Committed scenario configs: <source>/examples/scenarios.
std::string scenarios_dir();
/// Committed golden replays: <source>/tests/golden.
std::string golden_dir();

/// Absolute paths of every *.cfg under scenarios_dir(), sorted by name so
/// iteration order never depends on directory enumeration order.
std::vector<std::string> scenario_files();

/// "rollout_wave" from ".../rollout_wave.cfg".
std::string scenario_stem(const std::string& path);

// ---------------------------------------------------------------- builder

/// One scenario run, end to end: the sampled + timeline-applied fleet
/// simulated on `lanes` lanes, with the full statistics report and a
/// pre/post panel over the horizon's two halves (the day-dimension check).
struct ScenarioRun {
  engine::FleetConfig cfg;
  engine::FleetResult result;
  core::FleetStatsReport report;
  core::GroupComparison window_panel;
};

/// The sampled, timeline-planned population of `cfg`: sample_stage, then
/// apply_timeline — the input of simulate_fleet and stream_fleet.
engine::SampledFleet plan_scenario(const engine::FleetConfig& cfg,
                                   const traffic::ServiceCatalog& catalog);

/// Distinct engine::home_key values over the planned fleets of `cfgs`: the
/// homes a forest of those scenarios must simulate when its simulate
/// passes share one shard store, each exactly once.
std::size_t distinct_home_keys(const std::vector<engine::FleetConfig>& cfgs,
                               const traffic::ServiceCatalog& catalog);

/// plan_scenario, then simulate_fleet on `pool` (nullptr = sequential).
engine::FleetResult simulate_scenario(const engine::FleetConfig& cfg,
                                      const traffic::ServiceCatalog& catalog,
                                      engine::ThreadPool* pool);

/// Simulates the planned population `planned` of `cfg` on a local pool of
/// `lanes` lanes, then fleet_stats_report and compare_windows, without the
/// pass graph.
ScenarioRun run_planned(const engine::FleetConfig& cfg,
                        const traffic::ServiceCatalog& catalog,
                        const engine::SampledFleet& planned, int lanes);

/// run_planned on plan_scenario(cfg, catalog): the stage functions in
/// sequence (sample_stage → apply_timeline → simulate_fleet →
/// fleet_stats_report → compare_windows). That makes it an oracle
/// independent of the scheduler: the pipeline and forest byte-diff tests
/// take their expected text from here.
ScenarioRun run_scenario(const engine::FleetConfig& cfg,
                         const traffic::ServiceCatalog& catalog, int lanes);

// ------------------------------------------------ materialized-plan oracle

/// The parity reference for apply_timeline's lazy day plans. Computes
/// every (residence, day) plan up front and independently of the lazy
/// providers: one engine::timeline_day_state call per cell (it re-derives
/// the event draws on every call), converted by engine::day_plan_from_state.
/// Installs on each config a day_plan_fn that indexes that table and
/// returns kStaticDayPlan outside [0, days). Clears the providers for an
/// empty timeline, as apply_timeline does. Costs residences x days DayPlan
/// entries.
void materialize_timeline(engine::SampledFleet& fleet,
                          const engine::Timeline& tl, std::uint64_t seed,
                          int days);

/// plan_scenario with materialize_timeline in place of apply_timeline.
engine::SampledFleet plan_scenario_materialized(
    const engine::FleetConfig& cfg, const traffic::ServiceCatalog& catalog);

/// Lazy vs materialized day plans, cell by cell: every (residence, day)
/// plan of plan_scenario must equal plan_scenario_materialized's and come
/// out the same on a second evaluation, and days -1 and `days` must give
/// kStaticDayPlan. nullopt on success; otherwise the first failing cell.
std::optional<std::string> check_plan_parity(
    const engine::FleetConfig& cfg, const traffic::ServiceCatalog& catalog);

// ------------------------------------------------------------- serializer

/// Canonical, diff-friendly text form of a run. Every double renders with
/// %.17g (equal text iff bit-identical doubles); high-volume aggregates
/// (the hourly series, per-destination tallies) fold to a count plus an
/// order-stable FNV-1a checksum over their integer state. Lane count is
/// deliberately absent: serializations of the same scenario at different
/// lane counts must be byte-identical.
std::string canonical_serialize(const ScenarioRun& run);

// ------------------------------------------------------- fuzz differential

/// The full differential check the scenario fuzzer runs on one generated
/// config text, in order:
///   1. parse -> render -> reparse round trip (engine::check_parse_round_trip)
///   2. lazy vs materialized day plans, cell by cell (check_plan_parity)
///   3. byte-identical canonical serializations across 1/4/8-lane replays
///      and across lazy vs materialized (run_planned on
///      plan_scenario_materialized) simulation of the 1-lane run
///   4. windowed extract_metrics finiteness: over the full horizon, both
///      halves, first/middle/last single days, and every event's clamped
///      window, no metric may be +-inf, and count/sum metrics (sessions_k,
///      external_gb, ...) may not be NaN either — only rate/fraction
///      metrics may be undefined when a window saw no traffic.
/// nullopt when every check passes; otherwise a description of the first
/// failure, prefixed with the stage that caught it.
std::optional<std::string> fuzz_check_scenario(
    const std::string& text, const traffic::ServiceCatalog& catalog);

// ------------------------------------------------------------------- io

std::optional<std::string> read_file(const std::string& path);
bool write_file(const std::string& path, std::string_view content);

/// Human-readable location of the first difference ("line N:\n  a: ...\n
/// b: ..."), empty when equal. Keeps golden-mismatch failures readable
/// instead of dumping two multi-kilobyte blobs.
std::string first_diff(std::string_view a, std::string_view b);

}  // namespace nbv6::testutil
