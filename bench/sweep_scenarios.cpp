// Scenario sweep driver: an N-variant what-if forest off one base scenario,
// executed on the pass-graph pipeline (engine/pipeline.h +
// core/scenario_pipeline.h) with a shared pass cache.
//
// Every variant keeps the base population slice and differs only in its
// timeline (variant v > 0 appends one cpe_fix wave with a variant-specific
// repair fraction), so all N "sample" passes digest identically: the base
// population is sampled exactly once for the whole forest, every other
// variant binds the cached value. The driver *asserts* that via the
// per-pass execution counters — if sampling ran more than once the reuse
// machinery is broken and the run exits non-zero. A warm re-run of the
// first variant then demonstrates the fully-cached fixpoint (zero
// executed passes).
//
// With --workers > 1 (or --overlap) the driver re-runs the same forest
// overlapped: engine::ForestScheduler merges all N pipelines into one
// frontier and dispatches independent passes from different variants
// concurrently (variant B simulates while variant A computes panels),
// releasing transient fleets (population, planned_fleet) once their last
// consumer ran. The overlapped outputs are diffed byte-for-byte against
// the serial pass — any divergence exits non-zero — and the RESULT line
// reports both wall-clocks plus the peak transient residency.
//
//   ./build/sweep_scenarios [--variants=25 --lanes=0 --workers=0 --overlap
//                            --residences=48 --days=14 --seed=20260808
//                            --outdir=DIR --scenario=base.cfg]
//
// With --outdir, each variant also renders its panel/CDF/summary files
// there through the uncached sink passes. With --scenario, the base config
// is loaded from a scenario file instead of the embedded defaults.
//
// Output ends with one machine-greppable `RESULT` line (the CI artifact).
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench_cli.h"
#include "core/scenario_pipeline.h"
#include "engine/fleet.h"
#include "engine/pipeline.h"
#include "engine/run_spec.h"
#include "engine/thread_pool.h"
#include "testutil.h"
#include "traffic/service_catalog.h"

using namespace nbv6;

namespace {

// Canonical text of one variant's pipelined outcome — the byte-level
// equality the serial-vs-overlapped diff runs on (the same serializer the
// golden suite pins across compilers and lane counts).
std::string serialize_variant(const engine::FleetConfig& cfg,
                              engine::Pipeline& pipe) {
  testutil::ScenarioRun run;
  run.cfg = cfg;
  run.result = pipe.output<engine::FleetResult>("fleet_result");
  run.report = pipe.output<core::FleetStatsReport>("stats_report");
  run.window_panel = pipe.output<core::GroupComparison>("window_panel");
  return testutil::canonical_serialize(run);
}

}  // namespace

int main(int argc, char** argv) {
  int variants = 25;
  int lanes = 0;
  int workers = 0;
  bool overlap = false;
  std::string outdir;
  std::string scenario_path;
  engine::FleetConfig base;
  base.residences = 48;
  base.days = 14;
  base.seed = 20260808;

  bench::Cli cli("sweep_scenarios",
                 "What-if scenario forest on the shared-cache pass pipeline");
  cli.flag_int("variants", &variants, "what-if variants to run");
  cli.flag_int("lanes", &lanes, "worker lanes, 0 = hw concurrency");
  cli.flag_int("workers", &workers,
               "overlapped passes in flight (>1 enables the overlapped "
               "forest; 0 = lanes when --overlap)");
  cli.flag_bool("overlap", &overlap,
                "run the overlapped cross-variant forest and diff it "
                "against the serial path");
  cli.flag_int("residences", &base.residences.mut(), "base fleet size");
  cli.flag_int("days", &base.days.mut(), "base horizon in days");
  cli.flag_u64("seed", &base.seed.mut(), "base scenario master seed");
  cli.flag_string("outdir", &outdir,
                  "also render per-variant panel/CDF/summary files here");
  cli.flag_string("scenario", &scenario_path,
                  "load the base config from this scenario file");
  if (!cli.parse(argc, argv)) return cli.exit_code();
  if (variants < 1) {
    std::fprintf(stderr, "--variants must be >= 1\n");
    return 2;
  }
  if (!outdir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(outdir, ec);
    if (ec) {
      std::fprintf(stderr, "cannot create --outdir %s: %s\n", outdir.c_str(),
                   ec.message().c_str());
      return 2;
    }
  }
  if (!scenario_path.empty()) {
    std::string error;
    auto loaded = engine::FleetConfig::load(scenario_path, &error);
    if (!loaded) {
      std::fprintf(stderr, "%s: %s\n", scenario_path.c_str(), error.c_str());
      return 2;
    }
    base = *loaded;
  }

  const auto catalog = traffic::build_paper_catalog();
  std::unique_ptr<engine::ThreadPool> pool;
  lanes = engine::resolve_lanes(lanes);
  if (lanes > 1) pool = std::make_unique<engine::ThreadPool>(lanes - 1);
  if (workers > 1) overlap = true;
  if (overlap && workers <= 1) workers = lanes;
  if (!overlap) workers = 1;

  std::printf("sweep: %d variants of %d residences x %d days on %d lane(s)",
              variants, base.residences.get(), base.days.get(), lanes);
  if (overlap)
    std::printf(", overlapped at %d worker(s)", workers);
  std::printf("\n");

  // Variant configs: variant v > 0 appends a cpe_fix wave whose repair
  // fraction sweeps (0, 1]: only the timeline slice changes, so sample
  // stays digest-identical across the whole forest while
  // timeline/simulate/analysis re-run per variant.
  std::vector<engine::FleetConfig> cfgs;
  std::vector<core::ScenarioPassOptions> opts;
  for (int v = 0; v < variants; ++v) {
    engine::FleetConfig cfg = base;
    if (v > 0) {
      engine::TimelineEvent fix;
      fix.kind = engine::TimelineEventKind::cpe_fix;
      fix.start_day = cfg.days / 4;
      fix.end_day = cfg.days - 1;
      fix.fraction = static_cast<double>(v) / variants;
      cfg.timeline->events.push_back(fix);
    }
    core::ScenarioPassOptions o;
    o.sink_dir = outdir;
    o.scenario_tag = "variant_" + std::to_string(v);
    cfgs.push_back(std::move(cfg));
    opts.push_back(std::move(o));
  }

  // ------------------------------------------------------ serial reference
  // One pipeline per variant, one cache for the forest, run to completion
  // in variant order — the reference the overlapped pass is diffed against.
  engine::PassCache cache;
  std::vector<std::unique_ptr<engine::Pipeline>> pipes;
  std::size_t executed = 0;
  std::size_t cached = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (int v = 0; v < variants; ++v) {
    pipes.push_back(std::make_unique<engine::Pipeline>(
        core::make_scenario_pipeline(cfgs[v], catalog, opts[v])));
    const auto stats = pipes.back()->run(&cache, pool.get());
    executed += stats.executed;
    cached += stats.cached;
  }
  const auto t1 = std::chrono::steady_clock::now();
  const double serial_secs = std::chrono::duration<double>(t1 - t0).count();

  // The tentpole invariant: the base population was sampled exactly once
  // across the whole forest.
  std::uint64_t sample_execs = 0;
  for (const auto& p : pipes) sample_execs += p->executions("sample");
  if (sample_execs != 1) {
    std::fprintf(stderr,
                 "FAIL: sample pass executed %llu times across %d variants "
                 "(expected exactly 1 — shared-pass reuse is broken)\n",
                 static_cast<unsigned long long>(sample_execs), variants);
    return 1;
  }

  // Warm re-run of the base variant: every cacheable pass must hit.
  const auto warm = pipes[0]->run(&cache, pool.get());
  const std::size_t sinks = outdir.empty() ? 0 : 3;
  if (warm.executed != sinks) {
    std::fprintf(stderr,
                 "FAIL: warm re-run executed %zu passes (expected %zu)\n",
                 warm.executed, sinks);
    return 1;
  }

  // Spot equivalence: the pipelined base result matches direct stage calls
  // on the horizon totals (byte-level identity across lane counts is
  // pinned by pipeline_test's golden-parity suite).
  const auto& piped = pipes[0]->output<engine::FleetResult>("fleet_result");
  engine::SampledFleet planned = engine::sample_stage(base, catalog);
  engine::apply_timeline(planned, base.timeline, base.seed, base.days);
  const auto direct = engine::simulate_fleet(catalog, planned, pool.get());
  if (piped.totals.sessions != direct.totals.sessions ||
      piped.totals.flows != direct.totals.flows ||
      piped.totals.he_failures != direct.totals.he_failures) {
    std::fprintf(stderr,
                 "FAIL: pipelined totals diverge from direct stage calls\n");
    return 1;
  }

  std::vector<std::string> serial_canon;
  for (int v = 0; v < variants; ++v)
    serial_canon.push_back(serialize_variant(cfgs[v], *pipes[v]));

  std::printf(
      "  base sampled once; %zu passes executed, %zu served from cache\n"
      "  warm re-run: %zu executed / %zu cached; cache holds %zu results\n",
      executed, cached, warm.executed, warm.cached, cache.size());

  // ----------------------------------------------------- overlapped forest
  // Fresh pipelines, fresh cache: the overlapped run must reproduce the
  // serial outputs from nothing, not bind the serial run's warm entries.
  double overlap_secs = 0.0;
  engine::ForestScheduler::Stats fstats;
  std::uint64_t forest_sample_execs = 0;
  if (overlap) {
    std::unique_ptr<engine::ThreadPool> forest_pool;
    if (workers > 1)
      forest_pool = std::make_unique<engine::ThreadPool>(workers);

    engine::PassCache forest_cache;
    std::vector<std::unique_ptr<engine::Pipeline>> forest_pipes;
    std::vector<engine::Pipeline*> ptrs;
    for (int v = 0; v < variants; ++v) {
      forest_pipes.push_back(std::make_unique<engine::Pipeline>(
          core::make_scenario_pipeline(cfgs[v], catalog, opts[v])));
      ptrs.push_back(forest_pipes.back().get());
    }
    engine::ForestScheduler::Options fopts;
    fopts.pool = forest_pool ? forest_pool.get() : pool.get();
    fopts.workers = workers;
    fopts.transient = core::scenario_transient_resources();

    const auto f0 = std::chrono::steady_clock::now();
    fstats = engine::ForestScheduler::run(ptrs, forest_cache, fopts);
    const auto f1 = std::chrono::steady_clock::now();
    overlap_secs = std::chrono::duration<double>(f1 - f0).count();

    for (const auto& p : forest_pipes)
      forest_sample_execs += p->executions("sample");
    if (forest_sample_execs != 1) {
      std::fprintf(stderr,
                   "FAIL: overlapped forest executed sample %llu times "
                   "(expected exactly 1 — in-flight dedup is broken)\n",
                   static_cast<unsigned long long>(forest_sample_execs));
      return 1;
    }
    for (int v = 0; v < variants; ++v) {
      const std::string got = serialize_variant(cfgs[v], *forest_pipes[v]);
      if (got != serial_canon[v]) {
        std::fprintf(stderr,
                     "FAIL: overlapped variant %d diverges from serial:\n%s\n",
                     v, testutil::first_diff(got, serial_canon[v]).c_str());
        return 1;
      }
    }
    std::printf(
        "  overlapped: %zu executed / %zu cached / %zu deduped; "
        "%zu transients released, peak residency %zu\n"
        "  serial %.3fs vs overlapped %.3fs — outputs byte-identical\n",
        fstats.executed, fstats.cached, fstats.deduped, fstats.released,
        fstats.peak_resident, serial_secs, overlap_secs);
  }

  std::printf(
      "RESULT variants=%d lanes=%d workers=%d sample_executions=%llu "
      "passes_executed=%zu passes_cached=%zu warm_executed=%zu "
      "cache_entries=%zu seconds=%.6f overlap_seconds=%.6f "
      "overlap_sample_executions=%llu overlap_deduped=%zu "
      "peak_pass_residency=%zu released=%zu identical=%d\n",
      variants, lanes, workers,
      static_cast<unsigned long long>(sample_execs), executed, cached,
      warm.executed, cache.size(), serial_secs, overlap_secs,
      static_cast<unsigned long long>(forest_sample_execs), fstats.deduped,
      fstats.peak_resident, fstats.released, overlap ? 1 : 0);
  return 0;
}
