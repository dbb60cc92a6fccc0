// qsyn/synth/closure_config.h
//
// ClosureConfig — the one knob surface of the FMCF closure.
//
// Threads, shards, chunking, witness tracking, banned-set pruning, and (new
// in the out-of-core engine) the spill budget and spill directory all live
// here. Earlier PRs scattered these across enumerator option fields,
// constructor parameters, and environment variables read in different
// places; this header is the single home (the transitional alias spelled
// after the enumerator is gone — tests/test_deprecation.cpp and the
// deprecated_names_absent ctest keep it from coming back).
//
// Field resolution follows one rule: an explicit non-default field wins,
// else the matching QSYN_* environment variable, else a hardware- or
// workload-derived default. The resolve_* helpers implement that rule and
// are what FmcfEnumerator calls at construction, so the printed/benched
// configuration is always the resolved one.
#pragma once

#include <cstddef>
#include <string>

namespace qsyn::synth {

/// Configuration of one FMCF closure (enumeration, parallelism, spilling).
struct ClosureConfig {
  /// Keep every level's canonical rows R[k] (one per wire-relabeling orbit
  /// of B[k]) so witness cascades can be reconstructed (the paper's MCE
  /// back-walk tests each predecessor against R[k-1]) and implementations()
  /// can list any level. Costs memory — 4.4 MB at cb = 7 — but no time;
  /// disable for pure counting, which keeps only the latest level.
  bool track_witnesses = true;

  /// Honor the banned sets (the paper's "reasonable product"). Turning this
  /// off is an *ablation only*: the closure then walks unphysical cascades
  /// whose don't-care semantics do not correspond to quantum circuits.
  bool use_banned_sets = true;

  /// Candidate-buffer chunk size (rows) for the level expansion; bounds peak
  /// memory at deep levels. With a spill budget, a round is also capped in
  /// bytes (see spill_budget_bytes).
  std::size_t chunk_rows = std::size_t(1) << 24;

  /// Worker threads for the level sweep. 0 = the QSYN_THREADS environment
  /// variable when set to a positive integer, else
  /// std::thread::hardware_concurrency(). The per-level stats are
  /// thread-count-invariant (byte-identical to the single-threaded sweep).
  std::size_t threads = 0;

  /// Shards of the seen-set and per-level stores. 0 = derived from the
  /// resolved thread count (1 when single-threaded, else 4x threads, at most
  /// 256). A perf/memory knob only: results never depend on the shard count.
  std::size_t shards = 0;

  /// Heap budget (bytes) of each of the closure's sharded stores (the seen
  /// set and the rep level under construction), shared by its live shards.
  /// 0 = the
  /// QSYN_SPILL_BUDGET_MB environment variable (in MiB) when set to a
  /// positive integer, else unlimited (the historical all-in-RAM behavior).
  /// When the budget trips, shards seal their sorted rows into run files
  /// (the rows byte for byte) under spill_dir and the level's set algebra
  /// continues over the mapped runs — per-level stats stay byte-identical
  /// to the in-memory sweep. The budget also caps each round of candidate
  /// rows the level expansion buffers before sorting them into a store: at
  /// most max(budget, 1 MiB) bytes (the floor keeps tiny budgets from
  /// sealing a run per shard per handful of rows).
  /// Outside the budget: each file being written holds one 1 MiB write
  /// buffer, and while a spilled level's canonical rows drain to disk each
  /// running shard task holds one (see SpillOptions::budget_bytes).
  std::size_t spill_budget_bytes = 0;

  /// Directory for spill files. Empty = the QSYN_SPILL_DIR environment
  /// variable when set, else the system temporary directory. Files are
  /// created per closure and removed when the closure (or the level that
  /// owns them) dies; an unusable directory surfaces as qsyn::IoError at the
  /// first spill.
  std::string spill_dir;
};

/// Resolved worker-thread count: explicit > QSYN_THREADS > hardware.
[[nodiscard]] std::size_t resolve_threads(std::size_t requested);

/// Resolved shard count: explicit > derived from the resolved thread count.
[[nodiscard]] std::size_t resolve_shards(std::size_t requested,
                                         std::size_t threads);

/// Resolved spill budget in bytes: explicit > QSYN_SPILL_BUDGET_MB > 0
/// (0 = never spill).
[[nodiscard]] std::size_t resolve_spill_budget(std::size_t requested_bytes);

/// Resolved spill directory: explicit > QSYN_SPILL_DIR > system temp dir.
/// When the system temp dir itself is unresolvable the result degrades to
/// "." — observably: a one-time stderr warning fires and
/// spill_dir_fallback_count() ticks, so run files appearing in the working
/// directory can be traced instead of silently scattering.
[[nodiscard]] std::string resolve_spill_dir(const std::string& requested);

/// Number of times resolve_spill_dir fell back to "." because the system
/// temporary directory could not be resolved (process lifetime counter).
[[nodiscard]] std::size_t spill_dir_fallback_count();

}  // namespace qsyn::synth
