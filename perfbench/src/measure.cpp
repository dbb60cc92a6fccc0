#include "measure.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <stdexcept>

namespace perfbench {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double seconds_since(std::uint64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("VmHWM not found in /proc/self/status");
}

double quantile(std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) { return quantile(values, 0.5); }

double tail_quantile_for(std::size_t n) {
  if (n == 0) return 0.5;
  const double q = 1.0 - 10.0 / static_cast<double>(n);
  return std::clamp(q, 0.5, 0.99);
}

OpStats op_stats(std::vector<double> latencies_us, double wall_s) {
  OpStats stats;
  stats.ops_per_s = static_cast<double>(latencies_us.size()) / wall_s;
  stats.p50_us = quantile(latencies_us, 0.5);
  stats.tail_us = quantile(latencies_us, tail_quantile_for(latencies_us.size()));
  return stats;
}

WindowedLatency::WindowedLatency(std::uint64_t start_ns, double seconds)
    : start_ns_(start_ns),
      window_ns_(std::max<std::uint64_t>(
          1, static_cast<std::uint64_t>(seconds * 1e9 / kWindows))),
      counts_(kWindows, 0),
      samples_(kWindows, LatencySample(4096)) {}

OpStats windowed_stats(const std::vector<const WindowedLatency*>& threads) {
  std::vector<double> rates, p50s, tails;
  for (std::size_t w = 0; w < WindowedLatency::kWindows; ++w) {
    std::uint64_t ops = 0;
    std::vector<double> us;
    for (const WindowedLatency* t : threads) {
      ops += t->counts_[w];
      for (const std::uint32_t ns : t->samples_[w].kept()) us.push_back(ns * 1e-3);
    }
    if (us.empty()) continue;
    rates.push_back(static_cast<double>(ops) /
                    (static_cast<double>(threads.front()->window_ns_) * 1e-9));
    p50s.push_back(quantile(us, 0.5));
    tails.push_back(quantile(us, tail_quantile_for(us.size())));
  }
  return {median(rates), median(p50s), median(tails)};
}

Tracer::Tracer(std::size_t threads, std::size_t per_thread_cap)
    : cap_(per_thread_cap), buffers_(threads), dropped_(threads, 0) {
  for (auto& b : buffers_) b.reserve(std::min<std::size_t>(cap_, 4096));
}

void Tracer::record(std::uint32_t thread, const char* name,
                    std::uint64_t start_ns, std::uint64_t end_ns,
                    std::uint64_t arg) {
  std::vector<Span>& buffer = buffers_.at(thread);
  if (buffer.size() >= cap_) {
    ++dropped_[thread];
    return;
  }
  buffer.push_back({name, start_ns, end_ns, arg});
}

std::uint64_t Tracer::dropped() const {
  std::uint64_t total = 0;
  for (const std::uint64_t d : dropped_) total += d;
  return total;
}

void Tracer::write(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) throw std::runtime_error("cannot write trace " + path);
  std::uint64_t origin = ~std::uint64_t(0);
  for (const auto& b : buffers_) {
    for (const Span& s : b) origin = std::min(origin, s.start_ns);
  }
  std::fprintf(out, "{\"traceEvents\":[");
  bool first = true;
  for (std::size_t thread = 0; thread < buffers_.size(); ++thread) {
    for (const Span& s : buffers_[thread]) {
      std::fprintf(out,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"arg\":%llu}}",
                   first ? "" : ",", s.name, static_cast<unsigned>(thread),
                   (s.start_ns - origin) * 1e-3, (s.end_ns - s.start_ns) * 1e-3,
                   static_cast<unsigned long long>(s.arg));
      first = false;
    }
  }
  std::fprintf(out, "\n],\"droppedSpans\":%llu}\n",
               static_cast<unsigned long long>(dropped()));
  std::fclose(out);
}

bool more_setup(const std::vector<double>& setup_s) {
  double total = 0.0;
  for (const double s : setup_s) total += s;
  return setup_s.size() < 5 || (setup_s.size() < 9 && total < 1.0);
}

void add_op_metrics(Report& report, const OpStats& stats) {
  report.add("ops_per_s", stats.ops_per_s, "1/s");
  report.add("op_p50_us", stats.p50_us, "us");
  report.add("op_tail_us", stats.tail_us, "us");
}

void add_trace_ratios(Report& report, const OpStats& untraced,
                      const OpStats& traced) {
  report.add("trace.ratio.ops_per_s", traced.ops_per_s / untraced.ops_per_s,
             "ratio");
  report.add("trace.ratio.op_p50_us", traced.p50_us / untraced.p50_us, "ratio");
  report.add("trace.ratio.op_tail_us", traced.tail_us / untraced.tail_us,
             "ratio");
}

void add_common_metrics(Report& report, const std::vector<double>& setup_s,
                        double peak_rss) {
  report.add("setup_s", median(setup_s), "s");
  report.add("peak_rss_mib", peak_rss, "MiB");
}

}  // namespace perfbench
