// qsyn/common/metrics.h
//
// Lock-cheap observability substrate: a fixed log-bucketed latency histogram
// with atomic counters, snapshotting to p50/p90/p99/max plus throughput
// rates. Built for serving hot paths — record() is a handful of relaxed
// atomic increments with no allocation and no lock, so any subsystem
// (serve/automata_service.h, the catalog server, benches) can report through
// one recorder from many threads.
//
// Resolution: values bucket into octaves subdivided into kSubBuckets linear
// sub-buckets, so a reported quantile overestimates the true one by at most
// 1/kSubBuckets (12.5%) — ample for p50/p99 latency reporting, at a fixed
// ~4 KiB per recorder.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

namespace qsyn::metrics {

/// Monotonic clock reading in nanoseconds — the time base every recorder
/// shares (steady_clock, so differences are wall durations).
[[nodiscard]] std::uint64_t now_ns();

/// Seconds elapsed since the now_ns() reading `start_ns`.
[[nodiscard]] inline double seconds_since(std::uint64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

/// A monotonically increasing atomic event counter.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// One consistent view of a LatencyRecorder: counts, quantiles (upper bucket
/// bounds, nanoseconds), and rates over the recorder's lifetime.
struct LatencySnapshot {
  std::uint64_t count = 0;
  std::uint64_t sum_ns = 0;
  std::uint64_t max_ns = 0;
  std::uint64_t p50_ns = 0;
  std::uint64_t p90_ns = 0;
  std::uint64_t p99_ns = 0;
  double mean_ns = 0.0;
  /// Seconds since the recorder was constructed or reset().
  double elapsed_seconds = 0.0;
  /// count / elapsed_seconds (0 when nothing elapsed).
  double rate_per_sec = 0.0;
};

/// Fixed log-bucketed latency histogram with atomic bucket counters.
///
/// record_ns() is wait-free (relaxed fetch_adds plus one CAS loop for the
/// max); snapshot() copies the buckets in one pass and derives quantiles
/// from the copy. Snapshots taken concurrently with recording are
/// approximate in the usual histogram sense (each bucket is individually
/// exact; cross-bucket skew is bounded by the records in flight). reset() is
/// not synchronized against concurrent recorders — quiesce first.
class LatencyRecorder {
 public:
  /// Sub-buckets per octave (power of two). 8 keeps quantile error <= 12.5%.
  static constexpr std::size_t kSubBuckets = 8;
  static constexpr std::size_t kSubBucketBits = 3;  // log2(kSubBuckets)
  /// Values < kSubBuckets get one exact bucket each; every octave above
  /// contributes kSubBuckets more. 64-bit values top out at octave 63.
  static constexpr std::size_t kBucketCount =
      kSubBuckets + (64 - kSubBucketBits) * kSubBuckets;

  LatencyRecorder();

  /// Records one latency observation, in nanoseconds.
  void record_ns(std::uint64_t ns);

  /// Convenience: records now_ns() - start_ns (clamped at 0).
  void record_since(std::uint64_t start_ns);

  [[nodiscard]] LatencySnapshot snapshot() const;

  /// Zeroes every bucket and counter and restarts the rate clock. Callers
  /// must ensure no concurrent record_ns().
  void reset();

  /// The bucket index a value lands in, and the largest value mapping to
  /// bucket `index` (the quantile estimate reported for it). Exposed for
  /// tests: value_for_bucket(bucket_for_value(v)) >= v with bounded error.
  [[nodiscard]] static std::size_t bucket_for_value(std::uint64_t ns);
  [[nodiscard]] static std::uint64_t value_for_bucket(std::size_t index);

 private:
  std::array<std::atomic<std::uint64_t>, kBucketCount> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> max_{0};
  std::atomic<std::uint64_t> start_ns_{0};
};

/// Records the lifetime of a scope into a recorder on destruction.
class ScopedTimer {
 public:
  explicit ScopedTimer(LatencyRecorder& recorder)
      : recorder_(&recorder), start_ns_(now_ns()) {}
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;
  ~ScopedTimer() { recorder_->record_since(start_ns_); }

 private:
  LatencyRecorder* recorder_;
  std::uint64_t start_ns_;
};

}  // namespace qsyn::metrics
