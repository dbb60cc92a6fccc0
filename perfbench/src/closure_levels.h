// perfbench/src/closure_levels.h
//
// Level-by-level driving of an FMCF closure, with the synth/fmcf,
// synth/sharded_perm_store and synth/spill per-layer readings taken around
// each advance() — shared by every workload that builds a closure.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "measure.h"
#include "synth/fmcf.h"

namespace perfbench {

/// Highest level any workload computes (the paper's cb).
inline constexpr unsigned kMaxLevel = 7;

/// Per-level readings accumulated over every traced closure of a run.
class ClosureLevels {
 public:
  /// Advances `closure` to `levels`. With a tracer, each advance() is a span
  /// ("synth/fmcf.advance", arg = k) and its readings are accumulated.
  void run(qsyn::synth::FmcfEnumerator& closure, unsigned levels,
           Tracer* tracer);

  /// fmcf.*, store.heap_mib.*, spill.* per level (medians over closures).
  void emit(Report& report) const;

 private:
  struct Level {
    std::vector<double> seconds, cpu_util, heap_mib, disk_mib;
    double rows_in = 0;        // |B[k-1]| * |L|, the rows expanded
    double frontier_rows = 0;  // |B[k]|
  };
  std::array<Level, kMaxLevel + 1> levels_{};  // index k; 0 unused
};

/// store.shard_max_over_mean.k<k>: routes a seeded sample of B[k] rows
/// (witness_for_row -> Cascade::to_permutation -> row encoding) through the
/// public ShardedPermStore::shard_of at resolve_shards(0, threads) and
/// reports the fullest shard's count over the mean, for k = 1..levels_done.
void emit_shard_balance(Report& report,
                        const qsyn::synth::FmcfEnumerator& closure,
                        std::uint64_t seed);

}  // namespace perfbench
