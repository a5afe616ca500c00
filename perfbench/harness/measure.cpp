#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <utility>

#include "bench.h"

namespace perfbench {

void Outcome::attempt(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  failures.push_back(what);
}

bool Outcome::digest_matches(const std::string& d, const Options& opts) {
  if (digest.empty()) digest = d;
  return d == digest && (opts.expect_digest.empty() || d == opts.expect_digest);
}

void Outcome::add(std::string name, double value, std::string unit) {
  metrics.push_back({std::move(name), value, std::move(unit)});
}

double Outcome::add_timing(const std::string& name,
                          const std::vector<double>& samples, double q) {
  const double value = quantile(samples, q);
  add(name, value, "s");
  add(name + ".n", static_cast<double>(samples.size()), "count");
  add(name + ".median", median(samples), "s");
  // The highest percentile with at least ten samples beyond it.
  const double tail_q =
      std::max(0.5, 1.0 - 10.0 / static_cast<double>(samples.size()));
  add(name + ".tail", quantile(samples, tail_q), "s");
  add(name + ".tail_q", tail_q, "frac");
  add(name + ".min", quantile(samples, 0.0), "s");
  add(name + ".max", quantile(samples, 1.0), "s");
  return value;
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double peak_rss_mb() {
  // VmHWM is the high-water mark of this process image alone. getrusage's
  // ru_maxrss survives execve, so it would also count the launching
  // process's RSS at fork; it is only the fallback where /proc is absent.
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kib = -1;
    while (std::fgets(line, sizeof line, f) != nullptr)
      if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
    std::fclose(f);
    if (kib >= 0) return static_cast<double>(kib) / 1024.0;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  // Linear interpolation between the closest ranks.
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

void Fnv64::bytes(std::string_view s) {
  for (unsigned char c : s) h = (h ^ c) * 1099511628211ull;
  mix(s.size());
}

void repeat_for(double budget_s, int min_iters,
                const std::function<void()>& iteration) {
  const double t0 = now_s();
  std::vector<double> times;
  for (;;) {
    const double elapsed = now_s() - t0;
    if (static_cast<int>(times.size()) >= min_iters &&
        elapsed + median(times) > budget_s)
      break;
    const double s = now_s();
    iteration();
    times.push_back(now_s() - s);
  }
}

double time_call(const std::function<void()>& fn) {
  const double t0 = now_s();
  fn();
  return now_s() - t0;
}

void sample_setup(const std::function<void()>& teardown,
                  const std::function<void()>& setup,
                  std::vector<double>& batch_means) {
  // The first teardown may free a whole timed call's output; it is not
  // part of the batch's budget.
  teardown();
  const double t0 = now_s();
  double total = 0.0;
  int n = 0;
  for (;;) {
    total += time_call(setup);
    ++n;
    if (now_s() - t0 >= kSetupBatchS) break;
    teardown();
  }
  batch_means.push_back(total / n);
}

// ---------------------------------------------------------------- trace

Trace::Trace(bool enabled, std::string workload)
    : enabled_(enabled), workload_(std::move(workload)) {}

int Trace::begin(std::string name) {
  if (!enabled_) return -1;
  Span s;
  s.name = std::move(name);
  s.parent = open_.empty() ? -1 : open_.back();
  s.start = now_s();
  spans_.push_back(std::move(s));
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void Trace::end(int id) {
  if (!enabled_ || id < 0) return;
  spans_[id].end = now_s();
  // Spans nest strictly on the one recording thread.
  while (!open_.empty()) {
    const int top = open_.back();
    open_.pop_back();
    if (top == id) break;
  }
}

void Trace::record(std::string name, double start, double end) {
  if (!enabled_) return;
  Span s;
  s.name = std::move(name);
  s.parent = open_.empty() ? -1 : open_.back();
  s.start = start;
  s.end = end;
  spans_.push_back(std::move(s));
}

double Trace::total(std::string_view name) const {
  double sum = 0.0;
  for (const auto& s : spans_)
    if (s.name == name && s.end >= s.start) sum += s.end - s.start;
  return sum;
}

double Trace::duration(int id) const {
  if (id < 0) return 0.0;
  return spans_[id].end - spans_[id].start;
}

double Trace::uncovered_frac(int id) const {
  const double root = duration(id);
  if (root <= 0.0) return 0.0;
  // Children of one span are sequential on the recording thread, but
  // merge intervals anyway so an overlap is never counted twice.
  std::vector<std::pair<double, double>> iv;
  for (const auto& s : spans_)
    if (s.parent == id && s.end >= s.start) iv.emplace_back(s.start, s.end);
  std::sort(iv.begin(), iv.end());
  double covered = 0.0;
  double reach = spans_[id].start;
  for (const auto& [a, b] : iv) {
    const double lo = std::max(a, reach);
    if (b > lo) {
      covered += b - lo;
      reach = b;
    }
  }
  return std::clamp(1.0 - covered / root, 0.0, 1.0);
}

bool Trace::write_chrome(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const double origin = spans_.empty() ? 0.0 : spans_.front().start;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  std::fprintf(f,
               "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
               "\"args\":{\"name\":\"nbv6_perfbench %s\"}}",
               workload_.c_str());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end < s.start) continue;
    const std::string parent =
        s.parent >= 0 ? spans_[s.parent].name : std::string();
    std::fprintf(f,
                 ",\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":\"%s\",\"parent_id\":%d,\"workload\":\"%s\"}}",
                 s.name.c_str(), workload_.c_str(), (s.start - origin) * 1e6,
                 (s.end - s.start) * 1e6, i, parent.c_str(), s.parent,
                 workload_.c_str());
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
