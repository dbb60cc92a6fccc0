// qsyn/synth/search/topology_search.h
//
// TopologySearchBackend — topology-guided exact synthesis by DFS over gate
// cascades, the complementary attack to the FMCF breadth-first closure (in
// the spirit of percy's fence enumeration: walk circuit topologies and test
// whether the target fits, instead of building every reachable function).
//
// The engine runs iterative deepening on quantum cost: iteration t exhausts
// every reasonable cascade of exactly t library gates, so the first hit is a
// minimal realization and a completed miss at t proves cost > t — the same
// exactness contract as the closure, without storing the levels. Search
// state is the image table of the 2^n binary labels under the cascade prefix
// (the only part of the full domain permutation the banned sets and the
// target test consult), so a node costs O(2^n) and the whole search for a
// 5-wire cost-4 target fits in a few dozen MiB of memo where the closure
// builds a 1.2 GiB level-4 frontier.
//
// Pruning (all exactness-preserving):
//   * banned classes (NQubitDomain): a gate whose banned set meets the
//     prefix's binary images is skipped — the paper's "reasonable product";
//   * canonical order: no gate directly follows its adjoint (the pair
//     cancels, so no *minimal* cascade contains it), and of two adjacent
//     commuting gates only the ascending-index order is explored (the swap
//     reaches the same state at the same depth in an earlier-visited
//     branch, and it is always reasonable: the banned classes of commuting
//     library gates allow both orders label by label, which
//     tests/test_search.cpp checks on the standard libraries);
//   * transposition memo: states revisited at the same or greater depth are
//     pruned (VisitedSet over a budgeted FlatPermStore arena).
//
// Theorem 2's NOT coset is handled exactly as in the closure path: targets
// are stripped to a core fixing the all-zero pattern via strip_not_prefix,
// and only cores are searched. synthesize_batch shares one deepening sweep
// across every pending target — matching a leaf against a hash set of open
// targets costs O(1), so differential sweeps over thousands of targets pay
// for the tree walk once.
//
// first_cascade runs the same walk with a caller's test on the leaf images
// instead of the target lookup; it is how automata::ProbSynthesizer finds
// minimal probabilistic circuits (Section 4). Every prune above drops a
// branch only when a shorter or a lexicographically smaller reasonable
// cascade reaches the same binary images, so the walk returns the
// lexicographically least (by gate index) of the minimal reasonable
// cascades a leaf test accepts — the one a walk without pruning finds first.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "gates/library.h"
#include "perm/permutation.h"
#include "synth/backend.h"
#include "synth/search/visited_set.h"

namespace qsyn::synth {

/// Knobs of the DFS engine.
struct SearchConfig {
  /// Iterative-deepening ceiling (the paper's cb): targets with minimal
  /// cost beyond this return nullopt.
  unsigned max_cost = 7;

  /// Byte budget of the transposition memo (0 = unlimited). A full memo
  /// keeps the search exact but stops deduplicating revisits.
  std::size_t visited_budget_bytes = std::size_t(64) << 20;

  /// Honor the banned sets. Turning this off is an *ablation only*, exactly
  /// as on the closure: the search then walks unphysical cascades.
  bool use_banned_sets = true;

  /// Canonical-order pruning: skip a gate directly following its adjoint.
  bool prune_adjoint_pairs = true;

  /// Canonical-order pruning: of two adjacent commuting gates explore only
  /// the ascending-index order (the swapped order is always reasonable too).
  bool prune_commuting_pairs = true;
};

/// Cumulative search counters (across every query on one backend).
struct SearchStats {
  std::size_t nodes = 0;             // interior nodes expanded
  std::size_t leaves = 0;            // depth-limit states tested
  std::size_t pruned_banned = 0;     // children skipped by banned classes
  std::size_t pruned_adjoint = 0;    // children skipped as canceling pairs
  std::size_t pruned_commuting = 0;  // children skipped by canonical order
  std::size_t pruned_visited = 0;    // subtrees skipped by the memo
  std::size_t peak_memo_rows = 0;    // largest memo across iterations
  unsigned deepest_iteration = 0;    // deepest deepening iteration entered
};

/// DFS-with-pruning exact synthesis backend. Supports the same wire range as
/// the closure (2..5: leaf keys pack 2^n domain labels into 512 bits).
class TopologySearchBackend final : public SynthesisBackend {
 public:
  explicit TopologySearchBackend(const gates::GateLibrary& library,
                                 SearchConfig config = {});

  [[nodiscard]] const gates::GateLibrary& library() const override {
    return *library_;
  }
  [[nodiscard]] unsigned max_cost() const override { return config_.max_cost; }
  [[nodiscard]] std::optional<SynthesisResult> synthesize(
      const perm::Permutation& target) override;

  /// One deepening sweep answers the whole batch: iteration t runs once and
  /// every still-open target is matched against its leaves.
  [[nodiscard]] std::vector<std::optional<SynthesisResult>> synthesize_batch(
      const std::vector<perm::Permutation>& targets) override;

  /// Leaf test for first_cascade: the 0-based images of the 2^n binary
  /// labels (the domain's binary_count() entries) under a cascade.
  using LeafTest = std::function<bool(const std::uint16_t* images)>;

  /// The lexicographically least cascade of minimal length whose leaf images
  /// `accept` takes, among the reasonable cascades of cost <= max_cost();
  /// nullopt when none is. Depth 0 tests the identity. The prunes never drop
  /// that cascade (see the file comment), so the answer is the one an
  /// unpruned lex-order walk returns.
  [[nodiscard]] std::optional<gates::Cascade> first_cascade(
      const LeafTest& accept);

  [[nodiscard]] const SearchConfig& config() const { return config_; }
  [[nodiscard]] const SearchStats& stats() const { return stats_; }

 private:
  /// A search state's identity: the encoded image row of the binary labels,
  /// zero-padded into eight words (32 labels x 2 bytes at the 5-wire max).
  using StateKey = std::array<std::uint64_t, 8>;
  struct StateKeyHash {
    std::size_t operator()(const StateKey& key) const;
  };

  struct Run;  // per-walk scratch (state stack, path, memo)

  void encode_state(const std::uint16_t* state, std::uint8_t* out) const;
  [[nodiscard]] StateKey key_of(const std::uint8_t* encoded) const;
  /// Iterative deepening from the identity (depth 0) up to max_cost: hands
  /// each unpruned leaf's images and gate path to `visit` in lex order, and
  /// returns true as soon as `visit` does.
  template <typename Visit>
  bool deepen(const Visit& visit);
  template <typename Visit>
  bool dfs(Run& run, unsigned depth, std::size_t last_gate,
           const Visit& visit);
  [[nodiscard]] gates::Cascade cascade_of(
      const std::vector<std::size_t>& path) const;

  const gates::GateLibrary* library_;  // outlives the backend
  SearchConfig config_;
  SearchStats stats_;
  std::size_t wires_;
  std::size_t width_;         // domain size
  std::size_t binary_count_;  // 2^n
  std::size_t label_bytes_;   // memo/key row encoding (1 or 2)

  std::vector<std::uint8_t> gate_commutes_;  // [a * |L| + b] (symmetric)
};

}  // namespace qsyn::synth
