// Google-benchmark microbenchmarks for the hot substrate paths: address
// parsing, LPM lookup, AES/CryptoPAN, DNS resolution, conntrack churn,
// LOESS/MSTL, and Wilcoxon — the operations every experiment binary leans
// on.
#include <benchmark/benchmark.h>

#include <vector>

#include "dns/resolver.h"
#include "engine/flat_conntrack.h"
#include "engine/fleet.h"
#include "engine/run_spec.h"
#include "engine/thread_pool.h"
#include "engine/timeline.h"
#include "flowmon/conntrack.h"
#include "net/cryptopan.h"
#include "net/lpm_trie.h"
#include "stats/fleet_stats.h"
#include "stats/loess.h"
#include "stats/rng.h"
#include "stats/stl.h"
#include "stats/wilcoxon.h"

namespace {

using namespace nbv6;

void BM_ParseIPv6(benchmark::State& state) {
  for (auto _ : state) {
    auto a = net::IPv6Addr::parse("2606:4700:3037::ac43:a1e5");
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_ParseIPv6);

void BM_FormatIPv6(benchmark::State& state) {
  auto a = *net::IPv6Addr::parse("2606:4700::6810:85e5");
  for (auto _ : state) {
    auto s = a.to_string();
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(BM_FormatIPv6);

void BM_LpmLookup(benchmark::State& state) {
  stats::Rng rng(1);
  net::LpmTrie4<int> trie;
  for (int i = 0; i < static_cast<int>(state.range(0)); ++i) {
    trie.insert(net::Prefix4(net::IPv4Addr(static_cast<std::uint32_t>(rng())),
                             static_cast<int>(8 + rng.below(17))),
                i);
  }
  for (auto _ : state) {
    auto v = trie.lookup(net::IPv4Addr(static_cast<std::uint32_t>(rng())));
    benchmark::DoNotOptimize(v);
  }
}
BENCHMARK(BM_LpmLookup)->Arg(100)->Arg(1000)->Arg(10000);

void BM_Aes128Block(benchmark::State& state) {
  net::Aes128::Key key{};
  for (size_t i = 0; i < key.size(); ++i) key[i] = static_cast<std::uint8_t>(i);
  net::Aes128 aes(key);
  net::Aes128::Block block{};
  for (auto _ : state) {
    block = aes.encrypt(block);
    benchmark::DoNotOptimize(block);
  }
}
BENCHMARK(BM_Aes128Block);

void BM_CryptoPanV4(benchmark::State& state) {
  net::CryptoPan::Secret secret{};
  for (size_t i = 0; i < secret.size(); ++i)
    secret[i] = static_cast<std::uint8_t>(i * 7);
  net::CryptoPan cp(secret);
  std::uint32_t x = 0xC0000200;
  for (auto _ : state) {
    auto a = cp.anonymize(net::IPv4Addr(x++), static_cast<int>(state.range(0)));
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_CryptoPanV4)->Arg(8)->Arg(32);

void BM_DnsResolveChain(benchmark::State& state) {
  dns::ZoneDb zone;
  for (int i = 0; i < 10000; ++i) {
    std::string name = "host" + std::to_string(i) + ".example.com";
    zone.add_cname(name, "edge" + std::to_string(i) + ".cdn.net");
    zone.add_a("edge" + std::to_string(i) + ".cdn.net",
               net::IPv4Addr(static_cast<std::uint32_t>(i + 1)));
  }
  dns::Resolver resolver(zone);
  stats::Rng rng(2);
  for (auto _ : state) {
    auto r = resolver.resolve_a("host" + std::to_string(rng.below(10000)) +
                                ".example.com");
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_DnsResolveChain);

void BM_ConntrackChurn(benchmark::State& state) {
  flowmon::ConntrackTable table;
  stats::Rng rng(3);
  std::uint16_t port = 0;
  for (auto _ : state) {
    net::FlowKey k;
    k.src = net::IPv4Addr(192, 168, 1, 10);
    k.dst = net::IPv4Addr(static_cast<std::uint32_t>(rng()));
    k.src_port = ++port;
    k.dst_port = 443;
    table.open(k, 0, flowmon::Scope::external);
    table.account(k, 0, 1000, 50000);
    table.close(k, 10);
  }
}
BENCHMARK(BM_ConntrackChurn);

// Identical churn loop against the flat open-addressing table; compare
// with BM_ConntrackChurn for the fused-hash flat-table speedup.
void BM_FlatConntrackChurn(benchmark::State& state) {
  engine::FlatConntrack table;
  stats::Rng rng(3);
  std::uint16_t port = 0;
  for (auto _ : state) {
    net::FlowKey k;
    k.src = net::IPv4Addr(192, 168, 1, 10);
    k.dst = net::IPv4Addr(static_cast<std::uint32_t>(rng()));
    k.src_port = ++port;
    k.dst_port = 443;
    table.open(k, 0, flowmon::Scope::external);
    table.account(k, 0, 1000, 50000);
    table.close(k, 10);
  }
}
BENCHMARK(BM_FlatConntrackChurn);

// End-to-end fleet ingest: N sampled residences simulated into flat shards
// across 4 lanes and reduced. Arg = residence count (2 simulated days).
void BM_FleetIngest(benchmark::State& state) {
  auto catalog = nbv6::traffic::build_paper_catalog();
  engine::FleetConfig cfg;
  cfg.residences = static_cast<int>(state.range(0));
  cfg.days = 2;
  cfg.seed = 99;
  auto configs = engine::sample_stage(cfg, catalog).configs;
  engine::ThreadPool pool(3);  // + the calling thread = 4 lanes
  std::uint64_t flows = 0;
  for (auto _ : state) {
    auto result = engine::simulate_fleet(catalog, configs, &pool);
    flows += result.totals.flows;
    benchmark::DoNotOptimize(result);
  }
  state.counters["flows"] =
      benchmark::Counter(static_cast<double>(flows), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_FleetIngest)->Arg(16)->Arg(64)->Unit(benchmark::kMillisecond);

// Parallel cycle-subseries MSTL (4 lanes) on the same series shape as
// BM_MstlDecompose for a direct speedup read-out.
void BM_MstlDecomposeParallel(benchmark::State& state) {
  stats::Rng rng(4);
  std::vector<double> ys(static_cast<size_t>(state.range(0)));
  for (size_t i = 0; i < ys.size(); ++i)
    ys[i] = 0.5 + 0.2 * std::sin(2 * 3.14159 * static_cast<double>(i) / 24.0) +
            rng.normal(0, 0.05);
  engine::ThreadPool pool(4);
  stats::MstlConfig cfg;
  cfg.periods = {24, 168};
  cfg.pool = &pool;
  stats::StlWorkspace ws;
  stats::MstlResult r;
  for (auto _ : state) {
    stats::mstl_decompose(ys, cfg, ws, r);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_MstlDecomposeParallel)->Arg(24 * 30)->Arg(24 * 90)->Arg(24 * 365)->Unit(benchmark::kMillisecond);

void BM_MstlDecompose(benchmark::State& state) {
  stats::Rng rng(4);
  std::vector<double> ys(static_cast<size_t>(state.range(0)));
  for (size_t i = 0; i < ys.size(); ++i)
    ys[i] = 0.5 + 0.2 * std::sin(2 * 3.14159 * static_cast<double>(i) / 24.0) +
            rng.normal(0, 0.05);
  stats::MstlConfig cfg;
  cfg.periods = {24, 168};
  for (auto _ : state) {
    auto r = stats::mstl_decompose(ys, cfg);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_MstlDecompose)->Arg(24 * 30)->Arg(24 * 90)->Arg(24 * 365)->Unit(benchmark::kMillisecond);

// The raw LOESS kernel on a unit-spaced series (the MSTL inner loop) —
// tracks the multi-accumulator window regression directly, without the
// decomposition machinery around it. Arg = series length.
void BM_LoessUnit(benchmark::State& state) {
  stats::Rng rng(6);
  std::vector<double> ys(static_cast<size_t>(state.range(0)));
  for (size_t i = 0; i < ys.size(); ++i)
    ys[i] = std::sin(static_cast<double>(i) / 40.0) + rng.normal(0, 0.1);
  std::vector<double> out(ys.size());
  stats::LoessConfig cfg;
  cfg.span_fraction = 0.1;
  for (auto _ : state) {
    stats::loess_unit_into(ys, cfg, {}, out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_LoessUnit)->Arg(720)->Arg(8760);

// v6 CryptoPAN over a flow-batch shaped address set: a few /64s repeated
// many times, interleaved — exercises the sorted batch layout plus the
// prefix cache. Counter = anonymized addresses per second.
void BM_CryptoPanV6Batch(benchmark::State& state) {
  net::CryptoPan::Secret secret{};
  for (size_t i = 0; i < secret.size(); ++i)
    secret[i] = static_cast<std::uint8_t>(i * 7 + 3);
  net::CryptoPan cp(secret);
  stats::Rng rng(17);
  std::vector<net::IPv6Addr> in;
  std::vector<std::uint64_t> prefixes;
  for (int p = 0; p < 12; ++p)
    prefixes.push_back(0x20010DB800000000ull | rng());
  for (int i = 0; i < 4096; ++i)
    in.push_back(net::IPv6Addr::from_halves(
        prefixes[rng.below(prefixes.size())], rng()));
  std::vector<net::IPv6Addr> out(in.size());
  for (auto _ : state) {
    cp.anonymize_batch(in, out, 64);
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["addrs_per_sec"] = benchmark::Counter(
      static_cast<double>(in.size()), benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_CryptoPanV6Batch)->Unit(benchmark::kMicrosecond);

// The headline path: a fleet sampled, planned and streamed tick-by-tick
// into a counting sink, 4 lanes. Counter = flows per second (all-core).
void BM_FirehoseStream(benchmark::State& state) {
  engine::FleetConfig cfg;
  cfg.residences = static_cast<int>(state.range(0));
  cfg.days = 2;
  cfg.seed = 21;
  cfg.arrival->mode = traffic::ArrivalMode::poisson;
  cfg.arrival->ticks_per_hour = 12;
  auto catalog = traffic::build_paper_catalog();
  engine::ThreadPool pool(3);  // + the calling thread = 4 lanes
  std::uint64_t flows = 0;
  for (auto _ : state) {
    engine::SampledFleet fleet = engine::sample_stage(cfg, catalog);
    engine::apply_timeline(fleet, cfg.timeline, cfg.seed, cfg.days);
    auto result = engine::stream_fleet(
        catalog, fleet, cfg.days, cfg.arrival, &pool,
        [&](const engine::FlowEvent& ev) {
          benchmark::DoNotOptimize(ev.bytes_out);
        });
    flows += result.flows;
    benchmark::DoNotOptimize(result.flows);
  }
  state.counters["flows_per_sec"] = benchmark::Counter(
      static_cast<double>(flows), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FirehoseStream)->Arg(16)->Arg(64)->Unit(benchmark::kMillisecond);

void BM_WilcoxonExact(benchmark::State& state) {
  std::vector<double> d;
  for (int i = 1; i <= 25; ++i) d.push_back(i % 3 == 0 ? -i : i);
  for (auto _ : state) {
    auto r = stats::wilcoxon_signed_rank(d);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_WilcoxonExact);

void BM_RankSumNormalApprox(benchmark::State& state) {
  // Fleet-panel shape: two residence strata of `Arg` homes each, metric
  // values in [0, 1], tested through the tie-corrected normal path.
  const auto n = static_cast<size_t>(state.range(0));
  stats::Rng rng(3);
  std::vector<double> xs, ys;
  for (size_t i = 0; i < n; ++i) {
    xs.push_back(rng.uniform(0.0, 1.0));
    ys.push_back(rng.uniform(0.1, 1.0));
  }
  for (auto _ : state) {
    auto r = stats::wilcoxon_rank_sum(xs, ys);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_RankSumNormalApprox)->Arg(64)->Arg(1024);

void BM_StreamingCdfAdd(benchmark::State& state) {
  stats::Rng rng(9);
  std::vector<double> xs;
  for (int i = 0; i < 4096; ++i) xs.push_back(rng.uniform(0.0, 1.0));
  for (auto _ : state) {
    stats::StreamingCdf acc(0.0, 1.0, 128);
    acc.add(xs);
    benchmark::DoNotOptimize(acc.quantile(0.5));
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_StreamingCdfAdd);

}  // namespace

BENCHMARK_MAIN();
