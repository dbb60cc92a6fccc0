#include "synth/closure_config.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "common/env.h"
#include "common/error.h"
#include "common/thread_pool.h"

namespace qsyn::synth {

namespace {

std::atomic<std::size_t> g_spill_dir_fallbacks{0};

}  // namespace

std::size_t resolve_threads(std::size_t requested) {
  return requested != 0 ? requested : ThreadPool::default_thread_count();
}

std::size_t resolve_shards(std::size_t requested, std::size_t threads) {
  if (requested != 0) {
    QSYN_CHECK(requested <= 65536, "shard count must be in [1, 65536]");
    return requested;
  }
  if (threads <= 1) return 1;
  // ~4 shards per worker keeps the per-shard sort/subtract/merge rounds
  // load-balanced.
  return std::min<std::size_t>(4 * threads, 256);
}

std::size_t resolve_spill_budget(std::size_t requested_bytes) {
  if (requested_bytes != 0) return requested_bytes;
  // Strict parse: "64abc" used to half-apply as 64 MiB via strtoul; now it
  // warns once and falls through to unlimited.
  if (const auto mib = parse_env_size_t("QSYN_SPILL_BUDGET_MB", 1,
                                        std::size_t(-1) >> 20)) {
    return *mib << 20;
  }
  return 0;  // unlimited: never spill
}

std::string resolve_spill_dir(const std::string& requested) {
  if (!requested.empty()) return requested;
  if (const char* env = std::getenv("QSYN_SPILL_DIR")) {
    if (env[0] != '\0') return env;
  }
  std::error_code ec;
  const std::filesystem::path tmp = std::filesystem::temp_directory_path(ec);
  if (!ec) return tmp.string();
  // An unresolvable temp dir degrades to the working directory — loudly:
  // warn once and tick the fallback counter so run files appearing in the
  // CWD are attributable. The first spill write still reports
  // qsyn::IoError if "." too is unusable.
  g_spill_dir_fallbacks.fetch_add(1, std::memory_order_relaxed);
  static std::atomic<bool> warned{false};
  if (!warned.exchange(true, std::memory_order_relaxed)) {
    std::fprintf(stderr,
                 "qsyn: system temp dir unresolvable (%s); spill files will "
                 "land in the working directory — set QSYN_SPILL_DIR or "
                 "ClosureConfig::spill_dir\n",
                 ec.message().c_str());
  }
  return std::string(".");
}

std::size_t spill_dir_fallback_count() {
  return g_spill_dir_fallbacks.load(std::memory_order_relaxed);
}

}  // namespace qsyn::synth
