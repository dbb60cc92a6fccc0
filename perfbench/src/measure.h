// perfbench/src/measure.h
//
// Measurement plumbing shared by the workloads: clocks, a bounded latency
// sample, quantiles, process resource readings, the span tracer of the
// traced run, and the result record every workload fills in.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// steady_clock in nanoseconds.
std::uint64_t now_ns();

/// Seconds since `start_ns`.
double seconds_since(std::uint64_t start_ns);

/// Process CPU time (all threads), seconds.
double process_cpu_s();

/// Peak resident set size of this process (VmHWM), MiB.
double peak_rss_mib();

/// Linear-interpolated quantile q in [0,1] of `values` (sorted in place).
double quantile(std::vector<double>& values, double q);
double median(std::vector<double> values);

/// The highest percentile (at most p99, at least p50) that still has ten
/// samples beyond it — the tail percentile a sample of `n` supports.
double tail_quantile_for(std::size_t n);

/// A uniform-in-time latency sample of bounded size: every observation is
/// kept until the buffer fills, then every other kept sample is dropped and
/// only every 2nd (4th, ...) later observation is kept.
class LatencySample {
 public:
  explicit LatencySample(std::size_t capacity = std::size_t(1) << 16)
      : capacity_(capacity) {
    kept_.reserve(capacity);
  }
  void add(std::uint64_t ns) {
    if (++seen_ % stride_ != 0) return;
    if (kept_.size() == capacity_) {
      for (std::size_t i = 0; i < kept_.size() / 2; ++i) kept_[i] = kept_[2 * i + 1];
      kept_.resize(kept_.size() / 2);
      stride_ *= 2;
    }
    kept_.push_back(static_cast<std::uint32_t>(ns > 0xffffffffu ? 0xffffffffu : ns));
  }
  [[nodiscard]] const std::vector<std::uint32_t>& kept() const { return kept_; }

 private:
  std::size_t capacity_;
  std::uint64_t seen_ = 0;
  std::uint64_t stride_ = 1;
  std::vector<std::uint32_t> kept_;
};

/// The end-to-end figures of one timed phase: operations per second, and
/// median and tail (tail_quantile_for) operation latency.
struct OpStats {
  double ops_per_s = 0.0;
  double p50_us = 0.0;
  double tail_us = 0.0;
};

/// OpStats of a phase of few, long operations (closures): every latency is
/// kept, throughput is operations ÷ wall time.
OpStats op_stats(std::vector<double> latencies_us, double wall_s);

/// One thread's record of a phase of many short operations, split into
/// kWindows equal time windows: exact operation counts plus a latency
/// sample per window. Operations ending after the phase's deadline are not
/// recorded.
class WindowedLatency {
 public:
  static constexpr std::size_t kWindows = 20;
  WindowedLatency(std::uint64_t start_ns, double seconds);
  void add(std::uint64_t end_ns, std::uint64_t latency_ns) {
    const std::uint64_t window = (end_ns - start_ns_) / window_ns_;
    if (end_ns < start_ns_ || window >= kWindows) return;
    ++counts_[window];
    samples_[window].add(latency_ns);
  }

 private:
  friend OpStats windowed_stats(const std::vector<const WindowedLatency*>&);
  std::uint64_t start_ns_;
  std::uint64_t window_ns_;
  std::vector<std::uint64_t> counts_;
  std::vector<LatencySample> samples_;
};

/// Merges the threads' windows; each figure is the median over windows of
/// that window's throughput, median latency and tail latency, so a burst of
/// outside load moves one window, not the result.
OpStats windowed_stats(const std::vector<const WindowedLatency*>& threads);

// --- tracing ----------------------------------------------------------------

/// One timed call into a layer's public function.
struct Span {
  const char* name = nullptr;  // static string: "<module>.<function>"
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t arg = 0;  // call-specific (level k, target index, ...)
};

/// Per-thread in-memory span buffers, written out once at exit. Each buffer
/// keeps at most `per_thread_cap` spans and counts the rest as dropped.
class Tracer {
 public:
  explicit Tracer(std::size_t threads, std::size_t per_thread_cap = 20000);
  void record(std::uint32_t thread, const char* name, std::uint64_t start_ns,
              std::uint64_t end_ns, std::uint64_t arg = 0);
  /// Writes Chrome trace-event JSON (chrome://tracing, Perfetto).
  void write(const std::string& path) const;
  [[nodiscard]] std::uint64_t dropped() const;

 private:
  std::size_t cap_;
  std::vector<std::vector<Span>> buffers_;
  std::vector<std::uint64_t> dropped_;
};

// --- results ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // first few messages, for stderr
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Records one checked operation; `ok` false counts a failure.
  void check(bool ok, const std::string& what) { tally(1, ok ? 0 : 1, what); }
  /// Records `ops` operations of which `bad` failed.
  void tally(std::uint64_t ops, std::uint64_t bad, const std::string& what) {
    attempted += ops;
    failed += bad;
    if (bad != 0 && failures.size() < 20) failures.push_back(what);
  }
};

/// Settings every workload receives.
struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string scratch_dir;  // per-run directory for catalogs and spill files
};

/// Set-up is timed several times and its median reported: at least 5
/// repeats, and up to 9 while they add up to less than a second.
bool more_setup(const std::vector<double>& setup_s);

/// ops_per_s, op_p50_us, op_tail_us.
void add_op_metrics(Report& report, const OpStats& stats);

/// trace.ratio.* metrics: traced ÷ untraced figures of the same workload.
void add_trace_ratios(Report& report, const OpStats& untraced,
                      const OpStats& traced);

/// setup_s (median of the set-up repeats) and peak_rss_mib (read by the
/// caller once the workload's own work is done, before verification-only
/// work): the metrics every untraced run ends with.
void add_common_metrics(Report& report, const std::vector<double>& setup_s,
                        double peak_rss_mib);

}  // namespace perfbench
