// Distributed state shared by the phases of SINGLE-RANDOM-WALK.
//
// The simulator hosts all processors in one address space, so each store
// is one aggregate object; what makes it distributed is who may touch
// which entry:
//
//   * WalkStore: the short-walk endpoint tokens ("only the destination of
//     each of these walks is aware of its source"), indexed by holder node.
//     SAMPLE-DESTINATION samples an unused token for a given source
//     uniformly and Sweep 3 marks it used so no walk is ever re-stitched.
//   * TrajectoryStore: optional per-hop routing records that let the walk be
//     regenerated (Section 2.2).
//       - Phase-1 tokens carry a (source, seq) identity and are replayed
//         forward. Their records are flat columns indexed by token, not by
//         node: run j (the token with the j-th smallest (source, seq)) owns
//         `slots[run_begin[j] .. run_begin[j+1])`, one exit slot per hop.
//         Entry (j, hop) is written by the node that held token j after
//         `hop` hops, when the token leaves it, and read back only by that
//         same node when regeneration replays the walk through it. A token
//         is at exactly one node at each hop, so every entry has exactly one
//         owner node and the node-ownership contract holds per entry: shards
//         of a parallel round write disjoint entries, with no locks.
//       - GET-MORE-WALKS tokens are aggregated counts, so their hops are
//         stored per node as anonymous fragments and replayed backward (any
//         hop-consistent matching of fragments to endpoints yields the same
//         walk distribution, because the aggregated tokens are
//         exchangeable).
#pragma once

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "graph/graph.hpp"

namespace drw::core {

/// How a stored short walk was created (affects replay direction).
enum class WalkKind : std::uint8_t { kPhase1 = 0, kGetMore = 1 };

/// A short-walk endpoint held by its destination node.
struct HeldToken {
  NodeId source = kInvalidNode;
  std::uint32_t seq = 0;          ///< unique per source for Phase-1 walks
  std::uint32_t length = 0;       ///< in [lambda, 2*lambda - 1]
  WalkKind kind = WalkKind::kPhase1;
  std::uint32_t arrival_slot = 0; ///< slot the token arrived through
                                  ///< (reverse-replay entry point)
  bool used = false;
};

struct WalkStore {
  explicit WalkStore(std::size_t n) : held(n) {}
  std::vector<std::vector<HeldToken>> held;  // indexed by holder node

  std::size_t unused_count(NodeId holder, NodeId source) const {
    std::size_t count = 0;
    for (const auto& t : held[holder]) {
      if (!t.used && t.source == source) ++count;
    }
    return count;
  }
};

/// One anonymous GET-MORE-WALKS fragment at a node: a token arrived through
/// `prev_slot` having completed `hop` hops and left through `next_slot`.
struct Fragment {
  std::uint32_t prev_slot = 0;
  std::uint32_t next_slot = 0;
};

struct TrajectoryStore {
  /// Run index of a (source, seq) pair that was never recorded.
  static constexpr std::uint32_t kNoRun = static_cast<std::uint32_t>(-1);

  explicit TrajectoryStore(std::size_t n) : fragments(n) {}

  static std::uint64_t key(NodeId source, std::uint32_t seq) {
    return (static_cast<std::uint64_t>(source) << 32) | seq;
  }

  // Phase-1 forward columns (see the header comment).
  /// key(source, seq) of run j, strictly ascending in j.
  std::vector<std::uint64_t> run_key;
  /// runs() + 1 offsets into `slots`: non-decreasing, front 0, back
  /// slots.size(). Run j's length is run_begin[j + 1] - run_begin[j].
  std::vector<std::uint64_t> run_begin{0};
  /// slots[run_begin[j] + hop]: the slot run j left through at that hop.
  std::vector<std::uint32_t> slots;

  std::uint32_t runs() const noexcept {
    return static_cast<std::uint32_t>(run_key.size());
  }
  NodeId run_source(std::uint32_t j) const noexcept {
    return static_cast<NodeId>(run_key[j] >> 32);
  }
  std::uint32_t run_seq(std::uint32_t j) const noexcept {
    return static_cast<std::uint32_t>(run_key[j]);
  }
  std::uint32_t run_length(std::uint32_t j) const noexcept {
    return static_cast<std::uint32_t>(run_begin[j + 1] - run_begin[j]);
  }
  std::uint32_t exit_slot(std::uint32_t j, std::uint32_t hop) const noexcept {
    return slots[run_begin[j] + hop];
  }
  /// The run of token (source, seq), or kNoRun.
  std::uint32_t find_run(NodeId source, std::uint32_t seq) const noexcept {
    const std::uint64_t k = key(source, seq);
    const auto it = std::lower_bound(run_key.begin(), run_key.end(), k);
    if (it == run_key.end() || *it != k) return kNoRun;
    return static_cast<std::uint32_t>(it - run_key.begin());
  }

  /// The run table's shape: run_begin has runs() + 1 entries, starts at 0,
  /// never decreases, ends at slots.size() and bounds every run length to
  /// 32 bits; run_key is strictly ascending. Says nothing about the slots.
  bool runs_well_formed() const noexcept {
    if (run_begin.size() != run_key.size() + 1 || run_begin.front() != 0 ||
        run_begin.back() != slots.size()) {
      return false;
    }
    for (std::size_t j = 0; j < run_key.size(); ++j) {
      if (run_begin[j + 1] < run_begin[j] ||
          run_begin[j + 1] - run_begin[j] > UINT32_MAX ||
          (j > 0 && run_key[j] <= run_key[j - 1])) {
        return false;
      }
    }
    return true;
  }

  /// fragments[v][key(source, hop)] = anonymous GET-MORE-WALKS transits at
  /// node v (keyed by source AND hop: replay must never mix sources).
  std::vector<std::unordered_map<std::uint64_t, std::vector<Fragment>>>
      fragments;
};

/// Positions discovered during regeneration: node v appears at walk step
/// `step` of walk number `walk`.
struct WalkPosition {
  std::uint32_t walk = 0;
  std::uint64_t step = 0;
};

using PositionTable = std::vector<std::vector<WalkPosition>>;  // per node

}  // namespace drw::core
