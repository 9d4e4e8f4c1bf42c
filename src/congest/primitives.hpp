// Reusable distributed building blocks on the CONGEST kernel:
//
//   * BfsTreeProtocol       -- breadth-first tree construction, O(D) rounds
//   * BroadcastProtocol     -- root-to-all dissemination over a BFS tree
//   * ConvergecastSum       -- aggregate a per-node word up the tree
//   * PipelinedVectorUpcast -- aggregate a K-vector up the tree, O(D + K)
//   * TokenWalkProtocol     -- many simultaneous random-walk tokens with
//                              emergent congestion (a generic-protocol
//                              reference of Lemma 2.1's token walks; Phase 1
//                              itself runs ShortWalkPhaseProtocol on the
//                              network's token-walk kernel)
//
// These correspond to the standard CONGEST toolbox the paper builds on
// ("constructing a BFS tree clearly takes O(D) rounds", "the standard upcast
// technique", Appendix A/C).
//
// Charged tree sweeps: the BFS flood and the tree broadcast draw no
// randomness and never congest (every directed edge carries at most one of
// their messages), so their outcome and exact cost depend only on the graph
// and the root. charged_bfs_tree() and charged_broadcast() compute both on
// the host -- one BFS, one pass over the nodes -- and return the RunStats a
// simulated run would report. Every in-repo driver uses them;
// BfsTreeProtocol and BroadcastProtocol remain as the reference the tests
// check them against (tests/test_primitives.cpp).
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "congest/network.hpp"
#include "graph/graph.hpp"

namespace drw::congest {

/// A rooted BFS tree: output of BfsTreeProtocol / charged_bfs_tree, input
/// to the cast protocols.
struct BfsTree {
  NodeId root = kInvalidNode;
  std::vector<NodeId> parent;                // parent[root] == root
  std::vector<std::uint32_t> depth;          // hops from root
  std::uint32_t height = 0;                  // max depth
  /// Children of every node in one column: node v's, ascending, are
  /// child_list[child_begin[v] .. child_begin[v + 1]).
  std::vector<std::uint32_t> child_begin;    // node count + 1 entries
  std::vector<NodeId> child_list;            // node count - 1 entries

  std::span<const NodeId> children(NodeId v) const noexcept {
    return std::span<const NodeId>(child_list.data() + child_begin[v],
                                   child_list.data() + child_begin[v + 1]);
  }
};

/// Floods level messages from the root; each node adopts the smallest-ID
/// first-round sender as parent and notifies it. Quiesces in O(D) rounds.
class BfsTreeProtocol final : public Protocol {
 public:
  BfsTreeProtocol(const Graph& g, NodeId root);
  void on_round(Context& ctx) override;

  /// Valid after the run completes; throws if some node was never reached.
  BfsTree take_tree();

 private:
  enum MsgType : std::uint16_t { kLevel = 1, kJoin = 2 };
  NodeId root_;
  BfsTree tree_;
  std::vector<std::vector<NodeId>> joins_;  ///< per node, as received
  std::vector<std::uint8_t> joined_;
};

/// Sends one payload message from the root to every node along tree edges.
/// Each node's payload is observed via the `on_receive` callback (called with
/// the receiving node's ID); O(height) rounds.
///
/// SHARD SAFETY: `on_receive` runs inside on_round and may execute on any
/// executor thread -- it must only write state indexed by the receiving
/// node (see the Protocol contract in network.hpp). All in-repo callbacks
/// comply.
class BroadcastProtocol final : public Protocol {
 public:
  BroadcastProtocol(const BfsTree& tree, Message payload,
                    std::function<void(NodeId, const Message&)> on_receive);
  void on_round(Context& ctx) override;

 private:
  enum MsgType : std::uint16_t { kDown = 1 };
  const BfsTree* tree_;
  Message payload_;
  std::function<void(NodeId, const Message&)> on_receive_;
};

/// Sums a per-node 64-bit value up the tree; result available at the root
/// after O(height) rounds via `root_sum()`.
class ConvergecastSum final : public Protocol {
 public:
  ConvergecastSum(const BfsTree& tree, std::vector<std::uint64_t> values);
  void on_round(Context& ctx) override;
  std::uint64_t root_sum() const { return acc_[tree_->root]; }

 private:
  enum MsgType : std::uint16_t { kUp = 1 };
  void maybe_forward(Context& ctx);
  const BfsTree* tree_;
  std::vector<std::uint64_t> acc_;
  std::vector<std::uint32_t> pending_children_;
  std::vector<std::uint8_t> sent_;
};

/// Element-wise sums per-node vectors of length K up the tree, pipelined one
/// entry per tree edge per round: O(height + K) rounds, messages of
/// (index, value) pairs. Used by the mixing-time estimator's bucket upcast
/// (Appendix C.3's "standard upcast technique").
class PipelinedVectorUpcast final : public Protocol {
 public:
  PipelinedVectorUpcast(const BfsTree& tree,
                        std::vector<std::vector<std::uint64_t>> values);
  void on_round(Context& ctx) override;
  const std::vector<std::uint64_t>& root_vector() const {
    return acc_[tree_->root];
  }

 private:
  enum MsgType : std::uint16_t { kEntry = 1 };
  void pump(Context& ctx);
  const BfsTree* tree_;
  std::size_t k_ = 0;
  std::vector<std::vector<std::uint64_t>> acc_;
  std::vector<std::vector<std::uint32_t>> entry_pending_;  // children missing
  std::vector<std::uint32_t> next_send_;
};

/// Streams arbitrary per-node record lists (3 words each) to the tree root,
/// one record per tree edge per round: O(height + total records) rounds.
/// Used to deliver walk-sample records to the mixing-time estimator's source
/// ("the source can obtain ... in O~(n^{1/2} poly(1/eps) + D) rounds").
class PipelinedListUpcast final : public Protocol {
 public:
  using Record = std::array<std::uint64_t, 3>;

  PipelinedListUpcast(const BfsTree& tree,
                      std::vector<std::vector<Record>> records);
  void on_round(Context& ctx) override;

  /// All records collected at the root (order unspecified).
  const std::vector<Record>& root_records() const {
    return queue_[tree_->root];
  }

 private:
  enum MsgType : std::uint16_t { kRecord = 5 };
  void pump(Context& ctx);
  const BfsTree* tree_;
  std::vector<std::vector<Record>> queue_;
  std::vector<std::size_t> next_send_;
};

/// A short-walk token in flight: walk from `source`, `remaining` hops to go,
/// `total_len` the walk's full length (carried so the destination learns it).
struct WalkToken {
  NodeId source = kInvalidNode;
  std::uint32_t remaining = 0;
  std::uint32_t total_len = 0;
};

/// A walk endpoint stored at its destination node.
struct StoredToken {
  NodeId source = kInvalidNode;
  std::uint32_t length = 0;
};

/// Moves every initial token along an independent random walk, one hop per
/// delivered message, decrementing `remaining`; a token with remaining == 0
/// is stored at the current node. One message carries one token, so edge
/// congestion is real and the protocol's round count exhibits the
/// O(lambda * eta * log n) behaviour of Lemma 2.1.
class TokenWalkProtocol final : public Protocol {
 public:
  TokenWalkProtocol(const Graph& g,
                    std::vector<std::vector<WalkToken>> initial_tokens);
  void on_round(Context& ctx) override;

  /// Tokens stored at each node after quiescence (destination-side record:
  /// "only the destination of each of these walks is aware of its source").
  const std::vector<std::vector<StoredToken>>& stored() const {
    return stored_;
  }
  std::vector<std::vector<StoredToken>> take_stored() {
    return std::move(stored_);
  }

 private:
  enum MsgType : std::uint16_t { kToken = 1 };
  void route(Context& ctx, const WalkToken& token);
  std::vector<std::vector<WalkToken>> initial_;
  std::vector<std::vector<StoredToken>> stored_;
};

/// Charged BfsTreeProtocol: builds into `tree` (reusing its buffers) the
/// tree the protocol builds from `root` -- each node's parent is its
/// smallest-ID neighbour one level up, children ascending -- and returns
/// the RunStats a run of it reports: rounds = height + 1 (0 on a one-node
/// graph), messages = token_sends = 2m, max_backlog = 1 (0 without
/// edges). Only wall_ms (the host time) is measured; the executor split
/// (compute / transmit / merge), steals and threads stay 0, since no
/// executor ran. Throws std::runtime_error, like the protocol, if some node
/// is unreachable.
RunStats charged_bfs_tree(const Graph& g, NodeId root, BfsTree& tree);

/// Charged BroadcastProtocol: calls `on_receive` (if set) once per node
/// with the payload as the protocol delivers it (type set to its kDown
/// tag), in ascending node order on the calling thread, and returns the
/// RunStats a run of it reports: rounds = height, messages = n - 1,
/// token_sends = messages if the payload packs (message.hpp), else 0,
/// max_backlog = 1 (0 on a one-node tree); wall_ms only, as above.
RunStats charged_broadcast(
    const BfsTree& tree, Message payload,
    const std::function<void(NodeId, const Message&)>& on_receive);

/// Driver helper: the charged BFS tree rooted at `root` on `net`'s graph,
/// accumulating its cost into `stats`.
BfsTree build_bfs_tree(Network& net, NodeId root, RunStats& stats);

}  // namespace drw::congest
