// firehose_throughput: the streaming path's headline number.
//
// Samples and plans a synthetic fleet, streams it through
// engine::stream_fleet with a byte-counting sink, and reports flows/sec
// and — the figure of merit — flows/sec/core. Knobs are shared-grammar
// CLI flags (see --help) so CI smoke runs and local deep runs share one
// binary:
//
//   ./build/firehose_throughput [--residences=64 --days=14 --threads=0
//                                --tph=12 --mode=poisson --seed=1]
//
// Output is one human line plus one machine-greppable `RESULT` line of
// key=value pairs (the CI artifact).
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>

#include "bench_cli.h"
#include "engine/fleet.h"
#include "engine/run_spec.h"
#include "engine/thread_pool.h"
#include "engine/timeline.h"
#include "traffic/arrival.h"
#include "traffic/service_catalog.h"

int main(int argc, char** argv) {
  using namespace nbv6;

  engine::FleetConfig cfg;
  cfg.residences = 64;
  cfg.days = 14;
  cfg.seed = 1;
  cfg.arrival->ticks_per_hour = 12;
  std::string mode = "poisson";
  int threads = 0;

  bench::Cli cli("firehose_throughput",
                 "Streaming flow-firehose throughput measurement");
  cli.flag_int("residences", &cfg.residences.mut(), "fleet size");
  cli.flag_int("days", &cfg.days.mut(), "simulated horizon in days");
  cli.flag_int("threads", &threads, "worker lanes, 0 = hw concurrency");
  cli.flag_int("tph", &cfg.arrival->ticks_per_hour, "arrival ticks per hour");
  cli.flag_string("mode", &mode, "arrival mode: batch|poisson|uniform");
  cli.flag_u64("seed", &cfg.seed.mut(), "scenario master seed");
  if (!cli.parse(argc, argv)) return cli.exit_code();
  if (!traffic::parse_arrival_mode(mode, cfg.arrival->mode)) {
    std::fprintf(stderr, "unknown --mode '%s'\n", mode.c_str());
    return 2;
  }

  auto catalog = traffic::build_paper_catalog();
  const int lanes = engine::resolve_lanes(threads);
  // The calling thread is one lane; the pool supplies the rest.
  std::unique_ptr<engine::ThreadPool> pool;
  if (lanes > 1) pool = std::make_unique<engine::ThreadPool>(lanes - 1);

  std::uint64_t bytes = 0;
  std::uint64_t external = 0;
  const auto t0 = std::chrono::steady_clock::now();
  engine::SampledFleet fleet = engine::sample_stage(cfg, catalog);
  engine::apply_timeline(fleet, cfg.timeline, cfg.seed, cfg.days);
  const auto result = engine::stream_fleet(
      catalog, fleet, cfg.days, cfg.arrival, pool.get(),
      [&](const engine::FlowEvent& ev) {
        bytes += ev.bytes_out + ev.bytes_in;
        external += ev.scope == flowmon::Scope::external ? 1u : 0u;
      });
  const auto t1 = std::chrono::steady_clock::now();

  const double secs = std::chrono::duration<double>(t1 - t0).count();
  const double fps = secs > 0.0 ? static_cast<double>(result.flows) / secs : 0.0;
  const double fps_core = fps / static_cast<double>(lanes);

  std::printf(
      "firehose: %d residences x %d days, mode=%s tph=%d, %d lane(s)\n"
      "  %llu flows (%llu external) / %llu sessions in %.3f s\n"
      "  %.0f flows/sec, %.0f flows/sec/core\n",
      cfg.residences.get(), cfg.days.get(), mode.c_str(),
      cfg.arrival->ticks_per_hour,
      lanes, static_cast<unsigned long long>(result.flows),
      static_cast<unsigned long long>(external),
      static_cast<unsigned long long>(result.totals.sessions), secs, fps,
      fps_core);
  std::printf(
      "RESULT residences=%d days=%d mode=%s tph=%d lanes=%d flows=%llu "
      "bytes=%llu seconds=%.6f flows_per_sec=%.1f flows_per_sec_per_core=%.1f\n",
      cfg.residences.get(), cfg.days.get(), mode.c_str(),
      cfg.arrival->ticks_per_hour,
      lanes, static_cast<unsigned long long>(result.flows),
      static_cast<unsigned long long>(bytes), secs, fps, fps_core);
  return result.flows > 0 ? 0 : 1;
}
