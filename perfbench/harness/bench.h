// Shared plumbing of the benchmark harness: options, the outcome of one
// workload run, wall-clock and RSS readings, and the span recorder.
//
// Every timing is wall clock (steady_clock), never the main thread's CPU
// time: the fleet workloads spread their work over a thread pool, and a
// CPU-time reading would overstate their rates by the lane count.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /// Wall-clock budget of the timed loop.
  double seconds = 10.0;
  /// false: untraced end-to-end run. true: the traced run that yields the
  /// per-layer metrics and a Chrome trace-event file.
  bool trace = false;
  /// Tiny inputs for the harness's own smoke test; never timed seriously.
  bool tiny = false;
  /// Checkout root (scenario files are read relative to it).
  std::string root = ".";
  /// Where the traced run writes its spans (Chrome trace-event JSON).
  std::string trace_out;
  /// Reference output digest for this seed; empty = no reference, only
  /// the seed-independent invariants are checked.
  std::string expect_digest;
  /// Thread budget: pools get nproc - 1 workers, the caller is the last
  /// lane, so no workload has more than nproc threads at once.
  int nproc = 1;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports back to main().
struct Outcome {
  int attempted = 0;
  int failed = 0;
  std::vector<std::string> failures;
  /// Digest of the workload's checked output (hex), from its first checked
  /// iteration.
  std::string digest;
  std::vector<Metric> metrics;

  /// Count one checked attempt; a false `ok` records `what` as a failure.
  void attempt(bool ok, const std::string& what);
  /// Compare an output digest against the first one seen and against the
  /// reference; returns whether it matched both.
  bool digest_matches(const std::string& digest, const Options& opts);
  void add(std::string name, double value, std::string unit);
  /// Add the `q` quantile of `samples` as `name`, plus (printed, not part
  /// of the result) the sample count `<name>.n`, the `.median`, the
  /// highest percentile with at least ten samples beyond it `.tail` at
  /// quantile `.tail_q`, and the `.min` and `.max`. Returns the value.
  double add_timing(const std::string& name, const std::vector<double>& samples,
                    double q);
};

// ------------------------------------------------------------ readings

/// Quantile of the call times a run reports as run_s: the 90th
/// percentile. A shared host runs a call either at full speed or up to
/// ~1.5x slower, in spells of seconds to minutes, and the share of fast
/// calls changes from run to run. The slow calls are the common case and
/// their time is steady, so the 90th percentile moves between runs far
/// less than the median does (on web_survey over five runs, 0.03-0.09 of
/// its median between quartiles where the median moved 0.13-0.25).
inline constexpr double kCallQuantile = 0.90;
/// Fewest timed calls a run makes, even past its budget. The calls are
/// short (0.5-2.5 s), so a run of the benchmark's length makes dozens.
inline constexpr int kMinCalls = 5;
/// Wall time of one batch of set-ups (see sample_setup).
inline constexpr double kSetupBatchS = 0.05;

/// Seconds on the steady clock since an arbitrary fixed origin.
double now_s();
/// Peak resident set size of this process image so far, in MB. The
/// workloads read it right after their first timed call: set-up plus one
/// run is what a user's process holds. Later iterations are not counted,
/// since memory the allocator kept from an earlier iteration would
/// inflate them.
double peak_rss_mb();
/// `q` quantile of `values`, interpolated linearly between closest ranks.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);
std::string hex64(std::uint64_t v);

/// FNV-1a over 64-bit words — order-sensitive and cheap enough to fold
/// every flow of a stream.
struct Fnv64 {
  std::uint64_t h = 1469598103934665603ull;
  void mix(std::uint64_t v) { h = (h ^ v) * 1099511628211ull; }
  void bytes(std::string_view s);
};

/// Runs `iteration` repeatedly within `budget_s` seconds of wall time: at
/// least `min_iters` times, and another time only while the median
/// iteration so far still fits in what is left of the budget.
void repeat_for(double budget_s, int min_iters,
                const std::function<void()>& iteration);

/// Times `fn` (wall seconds).
double time_call(const std::function<void()>& fn);

/// Times one batch of set-ups, at least one and until kSetupBatchS of
/// wall time has been spent, and appends the batch's mean set-up time to
/// `batch_means`. The workloads take one batch before every timed call and
/// report the median over batches, so the samples are spread over the
/// whole run: a single sub-millisecond set-up jumps between the host's
/// fast and slow spells, while a batch's mean moves smoothly with the
/// share of time spent slow. `teardown` runs untimed before each set-up
/// and must release the previous set-up's product (joining its pool's
/// threads); the last set-up of the batch stays live for the timed call.
void sample_setup(const std::function<void()>& teardown,
                  const std::function<void()>& setup,
                  std::vector<double>& batch_means);

// ---------------------------------------------------------------- trace

/// In-memory span recorder. Spans are recorded only from the harness's
/// calling thread, around calls into each layer's public functions; they
/// are written out once, at the end, as Chrome trace-event JSON (opens in
/// chrome://tracing and Perfetto).
class Trace {
 public:
  Trace(bool enabled, std::string workload);

  /// Open a span whose parent is the innermost open span. Returns its id
  /// (-1 when disabled).
  int begin(std::string name);
  void end(int id);

  /// RAII span.
  class Scope {
   public:
    Scope(Trace& t, std::string name) : t_(t), id_(t.begin(std::move(name))) {}
    ~Scope() { t_.end(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Trace& t_;
    int id_;
  };

  /// Summed duration of every closed span named `name`.
  [[nodiscard]] double total(std::string_view name) const;
  /// Duration of span `id`.
  [[nodiscard]] double duration(int id) const;
  /// Share of span `id` that none of its direct children covers.
  [[nodiscard]] double uncovered_frac(int id) const;

  /// Record a complete span from explicit times (used for per-day merge
  /// windows measured inside the stream sink).
  void record(std::string name, double start, double end);

  bool write_chrome(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = -1.0;
    int parent = -1;
  };
  bool enabled_;
  std::string workload_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// ------------------------------------------------------------ workloads

void run_fleet(const Options& opts, Outcome& out, Trace& trace);
void run_web_survey(const Options& opts, Outcome& out, Trace& trace);

/// Highest number of threads this process has had alive at once,
/// counting the main thread (see thread_count.cpp).
int peak_threads();

}  // namespace perfbench
