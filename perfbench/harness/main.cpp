// nbv6_perfbench: runs one benchmark workload and prints one JSON line.
//
//   nbv6_perfbench --workload fleet|web_survey --seed N
//                  [--seconds S] [--trace 0|1] [--trace-out FILE]
//                  [--expect-digest HEX] [--root DIR] [--tiny]
//
// --trace 0 measures the end-to-end metrics untraced; --trace 1 makes the
// traced run that yields the per-layer metrics and writes its spans to
// --trace-out. Every run checks its outputs; --expect-digest adds the
// comparison against a reference digest. perfbench/run.py drives this
// binary and turns its line into the benchmark's result.
#include <sched.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <string_view>
#include <thread>

#include "bench.h"

namespace {

using namespace perfbench;

void usage() {
  std::fprintf(stderr,
               "usage: nbv6_perfbench --workload fleet|web_survey "
               "--seed N [--seconds S] [--trace 0|1] "
               "[--trace-out FILE] [--expect-digest HEX] [--root DIR] "
               "[--tiny]\n");
}

int cpu_count() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) == 0) return CPU_COUNT(&set);
  return std::max(1u, std::thread::hardware_concurrency());
}

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out + "\"";
}

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (a == "--tiny") {
      o.tiny = true;
    } else if (a == "--workload" && (v = value())) {
      o.workload = v;
    } else if (a == "--seed" && (v = value())) {
      o.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds" && (v = value())) {
      o.seconds = std::strtod(v, nullptr);
    } else if (a == "--trace" && (v = value())) {
      o.trace = std::string_view(v) == "1";
    } else if (a == "--trace-out" && (v = value())) {
      o.trace_out = v;
    } else if (a == "--expect-digest" && (v = value())) {
      o.expect_digest = v;
    } else if (a == "--root" && (v = value())) {
      o.root = v;
    } else {
      return false;
    }
  }
  return !o.workload.empty() && o.seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  if (!parse(argc, argv, opts)) {
    usage();
    return 2;
  }
  // Timings from an unoptimized build would mislead every comparison.
  if (std::string_view(NBV6_BENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr,
                 "nbv6_perfbench: built as '%s'; timings are reported only "
                 "from a Release build\n",
                 NBV6_BENCH_BUILD_TYPE);
    return 3;
  }
  opts.nproc = cpu_count();

  Outcome out;
  Trace trace(opts.trace, opts.workload);
  try {
    if (opts.workload == "fleet") {
      run_fleet(opts, out, trace);
    } else if (opts.workload == "web_survey") {
      run_web_survey(opts, out, trace);
    } else {
      std::fprintf(stderr, "unknown workload '%s'\n", opts.workload.c_str());
      usage();
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "nbv6_perfbench: %s\n", e.what());
    return 4;
  }
  if (opts.trace && !opts.trace_out.empty() &&
      !trace.write_chrome(opts.trace_out)) {
    std::fprintf(stderr, "cannot write %s\n", opts.trace_out.c_str());
    return 4;
  }

  // JSON has no NaN or infinity; a non-finite metric is a harness bug.
  for (Metric& m : out.metrics) {
    if (std::isfinite(m.value)) continue;
    out.attempt(false, "metric " + m.name + " is not finite");
    m.value = 0.0;
  }

  std::string failures = "[";
  for (std::size_t i = 0; i < out.failures.size(); ++i)
    failures += (i ? "," : "") + json_string(out.failures[i]);
  failures += "]";
  std::string metrics = "{";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", m.value);
    metrics += (i ? "," : "") + json_string(m.name) + ":{\"value\":" + buf +
               ",\"unit\":" + json_string(m.unit) + "}";
  }
  metrics += "}";
  std::printf(
      "{\"workload\":%s,\"seed\":%" PRIu64
      ",\"trace\":%d,\"attempted\":%d,\"failed\":%d,\"failures\":%s,"
      "\"digest\":%s,\"threads_peak\":%d,\"context\":{\"nproc\":%d,"
      "\"build_type\":%s,\"compiler\":%s,\"march_native\":%s},"
      "\"metrics\":%s}\n",
      json_string(opts.workload).c_str(), opts.seed, opts.trace ? 1 : 0,
      out.attempted, out.failed, failures.c_str(),
      json_string(out.digest).c_str(), peak_threads(), opts.nproc,
      json_string(NBV6_BENCH_BUILD_TYPE).c_str(),
      json_string(NBV6_BENCH_COMPILER).c_str(),
      json_string(NBV6_BENCH_MARCH_NATIVE).c_str(), metrics.c_str());
  return 0;
}
