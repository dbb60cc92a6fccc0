#include "common/metrics.h"

#include <chrono>

namespace qsyn::metrics {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

namespace {

/// Index of the highest set bit (value must be nonzero).
int top_bit(std::uint64_t value) {
  int top = 0;
  while (value >>= 1) ++top;
  return top;
}

}  // namespace

LatencyRecorder::LatencyRecorder() { reset(); }

std::size_t LatencyRecorder::bucket_for_value(std::uint64_t ns) {
  if (ns < kSubBuckets) return static_cast<std::size_t>(ns);
  const int top = top_bit(ns);  // >= kSubBucketBits
  const int shift = top - static_cast<int>(kSubBucketBits);
  // The kSubBucketBits bits below the top bit pick the linear sub-bucket.
  const std::size_t sub =
      static_cast<std::size_t>(ns >> shift) - kSubBuckets;  // in [0, 8)
  return kSubBuckets +
         static_cast<std::size_t>(shift) * kSubBuckets + sub;
}

std::uint64_t LatencyRecorder::value_for_bucket(std::size_t index) {
  if (index < kSubBuckets) return index;
  const std::size_t shift = (index - kSubBuckets) / kSubBuckets;
  const std::size_t sub = (index - kSubBuckets) % kSubBuckets;
  // Largest value whose bucket_for_value is `index`.
  return ((static_cast<std::uint64_t>(kSubBuckets + sub) + 1)
          << shift) -
         1;
}

void LatencyRecorder::record_ns(std::uint64_t ns) {
  buckets_[bucket_for_value(ns)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(ns, std::memory_order_relaxed);
  std::uint64_t seen = max_.load(std::memory_order_relaxed);
  while (ns > seen &&
         !max_.compare_exchange_weak(seen, ns, std::memory_order_relaxed)) {
  }
}

void LatencyRecorder::record_since(std::uint64_t start_ns) {
  const std::uint64_t now = now_ns();
  record_ns(now > start_ns ? now - start_ns : 0);
}

void LatencyRecorder::reset() {
  for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
  start_ns_.store(now_ns(), std::memory_order_relaxed);
}

LatencySnapshot LatencyRecorder::snapshot() const {
  // One pass over the buckets into a local copy, so every quantile below is
  // derived from the same view.
  std::array<std::uint64_t, kBucketCount> local;
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < kBucketCount; ++i) {
    local[i] = buckets_[i].load(std::memory_order_relaxed);
    total += local[i];
  }

  LatencySnapshot snap;
  snap.count = total;
  snap.sum_ns = sum_.load(std::memory_order_relaxed);
  snap.max_ns = max_.load(std::memory_order_relaxed);
  const std::uint64_t start = start_ns_.load(std::memory_order_relaxed);
  const std::uint64_t now = now_ns();
  snap.elapsed_seconds = now > start ? (now - start) * 1e-9 : 0.0;
  if (total == 0) return snap;
  snap.mean_ns = static_cast<double>(snap.sum_ns) / static_cast<double>(total);
  if (snap.elapsed_seconds > 0.0) {
    snap.rate_per_sec = static_cast<double>(total) / snap.elapsed_seconds;
  }

  const auto quantile = [&](double q) -> std::uint64_t {
    // Smallest bucket whose cumulative count reaches ceil(q * total).
    std::uint64_t rank =
        static_cast<std::uint64_t>(q * static_cast<double>(total));
    if (rank < 1) rank = 1;
    if (rank > total) rank = total;
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < kBucketCount; ++i) {
      cumulative += local[i];
      if (cumulative >= rank) return value_for_bucket(i);
    }
    return snap.max_ns;
  };
  snap.p50_ns = quantile(0.50);
  snap.p90_ns = quantile(0.90);
  snap.p99_ns = quantile(0.99);
  return snap;
}

}  // namespace qsyn::metrics
