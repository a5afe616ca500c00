// Fleet figure: cross-fleet Wilcoxon panels — Fig. 12's Holm-corrected
// pairwise comparison machinery applied to residence strata instead of
// cloud providers. Each default group pair (healthy-v6 vs broken-CPE,
// dual-stack vs v4-only, streamer vs baseline, visible vs opt-out) gets an
// unpaired rank-sum panel over every fleet metric; active homes get the
// paired signed-rank metric panel; and the horizon's two halves get the
// paired pre/post day-window panel (day-resolved metrics, including the
// per-day session stats behind he_failure_rate). Writes one TSV for
// plotting or CI artifact upload and prints it to stdout.
//
//   ./build/fleet_fig_wilcoxon [--residences=N --days=N --seed=S
//                               --threads=T] [panel-out.tsv]
//
// The scenario runs through the standard pass graph
// (core/scenario_pipeline.h); see --help for the flags.
#include <cstdio>
#include <memory>
#include <string>

#include "core/fleet_analysis.h"
#include "core/scenario_pipeline.h"
#include "engine/fleet.h"
#include "engine/pipeline.h"
#include "engine/thread_pool.h"
#include "traffic/service_catalog.h"

#include "bench_common.h"

using namespace nbv6;

int main(int argc, char** argv) {
  auto cfg = bench::default_bench_fleet();
  std::string panel_path = "fleet_wilcoxon.tsv";
  bench::Cli cli("fleet_fig_wilcoxon",
                 "Cross-fleet Wilcoxon group-comparison panels");
  bench::register_fleet_flags(cli, cfg);
  cli.positional("panel-out.tsv", &panel_path, "panel TSV output");
  if (!cli.parse(argc, argv)) return cli.exit_code();

  bench::section("Fleet figure: Wilcoxon group-comparison panels");
  auto catalog = traffic::build_paper_catalog();
  const int lanes = engine::resolve_lanes(cfg.threads);
  std::unique_ptr<engine::ThreadPool> pool;  // + the calling thread
  if (lanes > 1) pool = std::make_unique<engine::ThreadPool>(lanes - 1);
  std::printf("fleet: %d residences x %d days on %d lane(s)\n",
              cfg.residences.get(), cfg.days.get(), lanes);
  engine::Pipeline pipe = core::make_scenario_pipeline(cfg, catalog);
  pipe.run(nullptr, pool.get());
  const auto& report = pipe.output<core::FleetStatsReport>("stats_report");

  std::FILE* out = std::fopen(panel_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", panel_path.c_str());
    return 1;
  }
  bool first = true;
  for (const auto& cmp : report.comparisons) {
    std::printf("\n-- %s vs %s --\n", core::to_string(cmp.group_a),
                core::to_string(cmp.group_b));
    core::write_panel_tsv(stdout, cmp);
    core::write_panel_tsv(out, cmp, first);
    first = false;
  }
  std::printf("\n-- paired metric panel (active homes) --\n");
  core::write_panel_tsv(stdout, report.paired);
  core::write_panel_tsv(out, report.paired, first);
  first = false;

  // Pre/post panel over the horizon's halves: with a timeline this is the
  // before/after comparison, without one a self-check near the null. The
  // day-resolved session stats make every row real — he_failure_rate
  // included.
  if (cfg.days >= 2) {
    const core::DayWindow pre{0, cfg.days / 2 - 1};
    const core::DayWindow post{cfg.days / 2, cfg.days - 1};
    const auto& windows = pipe.output<core::GroupComparison>("window_panel");
    std::printf("\n-- days %d-%d vs days %d-%d (paired, Holm alpha=0.05) --\n",
                pre.first, pre.last, post.first, post.last);
    core::write_panel_tsv(stdout, windows);
    core::write_panel_tsv(out, windows, first);
  }
  std::fclose(out);
  std::printf("\nwrote %s\n", panel_path.c_str());

  std::printf(
      "\nShape check vs paper: the broken-CPE and v4-only strata sit far "
      "below their\ncounterparts on every v6-fraction metric (large negative "
      "effect r, significant\nafter Holm); volume metrics separate streamers "
      "from baseline homes.\n");
  return 0;
}
