// bench_beyond_cb7: extension experiment — push the FMCF closure past the
// paper's memory-bound cb = 7.
//
// The paper: "The constant cb is the upper-bound cost that we can apply in a
// particular computer (due to finite memory size). In our computer, cb = 7."
// On a modern machine the flat-store enumerator reaches cost 9 in well under
// a minute, yielding |G[8]| and |G[9]| — counts the paper could not compute —
// and the cumulative coverage of the full group |G| = 5040.
//
// Set QSYN_BEYOND_MAX=10 (or higher) to push further; memory grows ~4.5x per
// level.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>

#include "bench_util.h"
#include "common/env.h"
#include "common/metrics.h"
#include "gates/library.h"
#include "mvl/domain.h"
#include "synth/fmcf.h"

namespace {

using namespace qsyn;

void regenerate() {
  unsigned max_cost = 9;
  if (const auto cap = parse_env_size_t("QSYN_BEYOND_MAX", 1, 12)) {
    max_cost = static_cast<unsigned>(*cap);
  }
  bench::section("Extension: FMCF closure beyond the paper's cb = 7");
  const mvl::PatternDomain domain = mvl::PatternDomain::reduced(3);
  const gates::GateLibrary library(domain);

  synth::ClosureConfig options;
  options.track_witnesses = false;
  synth::FmcfEnumerator enumerator(library, options);

  std::printf("  k | |G[k]|  | cumulative G | coverage of 5040 | |B[k]|    | "
              "secs    | approx MiB\n");
  std::printf("  %s\n", std::string(88, '-').c_str());
  std::size_t cumulative = 1;  // G[0]
  for (unsigned k = 1; k <= max_cost; ++k) {
    const auto& s = enumerator.advance();
    cumulative += s.g_new;
    std::printf("  %u | %-7zu | %-12zu | %14.1f %% | %-9zu | %-7.2f | %zu\n",
                k, s.g_new, cumulative,
                100.0 * static_cast<double>(cumulative) / 5040.0, s.frontier,
                s.seconds, enumerator.memory_bytes() >> 20);
  }
  std::printf(
      "  paper values end at k = 7; k >= 8 rows are new results enabled by "
      "the flat-store enumerator.\n");
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t total_start = metrics::now_ns();
  regenerate();
  std::printf("  total wall time: %.2f s\n",
              metrics::seconds_since(total_start));
  return qsyn::bench::run_benchmarks(argc, argv);
}
