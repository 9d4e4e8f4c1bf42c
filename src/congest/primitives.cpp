#include "congest/primitives.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

namespace drw::congest {

// ---------------------------------------------------------------- BFS tree

BfsTreeProtocol::BfsTreeProtocol(const Graph& g, NodeId root) : root_(root) {
  const std::size_t n = g.node_count();
  tree_.root = root;
  tree_.parent.assign(n, kInvalidNode);
  tree_.depth.assign(n, 0);
  joins_.assign(n, {});
  joined_.assign(n, 0);
}

void BfsTreeProtocol::on_round(Context& ctx) {
  const NodeId v = ctx.self();
  if (ctx.round() == 0) {
    if (v != root_) return;
    joined_[v] = 1;
    tree_.parent[v] = v;
    Message level{kLevel, {0, 0, 0, 0}};
    for (std::uint32_t slot = 0; slot < ctx.degree(); ++slot) {
      ctx.send(slot, level);
    }
    return;
  }
  for (const Delivery& d : ctx.inbox()) {
    switch (d.msg.type) {
      case kLevel: {
        if (joined_[v]) break;
        // First LEVEL this round: all same-round senders are at equal depth;
        // adopt the smallest ID for determinism.
        NodeId best = d.from;
        for (const Delivery& other : ctx.inbox()) {
          if (other.msg.type == kLevel && other.from < best) {
            best = other.from;
          }
        }
        joined_[v] = 1;
        tree_.parent[v] = best;
        // height is derived in take_tree(): a running max here would be a
        // cross-node write, which the parallel executor forbids.
        tree_.depth[v] = static_cast<std::uint32_t>(d.msg.f[0]) + 1;
        ctx.send_to(best, Message{kJoin, {0, 0, 0, 0}});
        Message level{kLevel, {tree_.depth[v], 0, 0, 0}};
        for (std::uint32_t slot = 0; slot < ctx.degree(); ++slot) {
          if (ctx.neighbor(slot) != best) ctx.send(slot, level);
        }
        break;
      }
      case kJoin:
        joins_[v].push_back(d.from);
        break;
      default:
        throw std::logic_error("BfsTreeProtocol: unknown message");
    }
  }
}

BfsTree BfsTreeProtocol::take_tree() {
  tree_.child_begin.assign(1, 0);
  tree_.child_list.clear();
  for (std::size_t v = 0; v < joined_.size(); ++v) {
    if (!joined_[v]) {
      throw std::runtime_error("BfsTreeProtocol: graph not connected");
    }
    std::sort(joins_[v].begin(), joins_[v].end());
    tree_.child_list.insert(tree_.child_list.end(), joins_[v].begin(),
                            joins_[v].end());
    tree_.child_begin.push_back(
        static_cast<std::uint32_t>(tree_.child_list.size()));
    tree_.height = std::max(tree_.height, tree_.depth[v]);
  }
  return std::move(tree_);
}

// --------------------------------------------------------------- broadcast

BroadcastProtocol::BroadcastProtocol(
    const BfsTree& tree, Message payload,
    std::function<void(NodeId, const Message&)> on_receive)
    : tree_(&tree), payload_(payload), on_receive_(std::move(on_receive)) {
  payload_.type = kDown;
}

void BroadcastProtocol::on_round(Context& ctx) {
  const NodeId v = ctx.self();
  auto forward = [&] {
    if (on_receive_) on_receive_(v, payload_);
    for (NodeId child : tree_->children(v)) ctx.send_to(child, payload_);
  };
  if (ctx.round() == 0) {
    if (v == tree_->root) forward();
    return;
  }
  for (const Delivery& d : ctx.inbox()) {
    if (d.msg.type == kDown) forward();
  }
}

// --------------------------------------------------------- convergecast sum

ConvergecastSum::ConvergecastSum(const BfsTree& tree,
                                 std::vector<std::uint64_t> values)
    : tree_(&tree), acc_(std::move(values)) {
  const std::size_t n = acc_.size();
  pending_children_.resize(n);
  sent_.assign(n, 0);
  for (std::size_t v = 0; v < n; ++v) {
    pending_children_[v] =
        static_cast<std::uint32_t>(tree_->children(v).size());
  }
}

void ConvergecastSum::maybe_forward(Context& ctx) {
  const NodeId v = ctx.self();
  if (sent_[v] || pending_children_[v] != 0 || v == tree_->root) return;
  sent_[v] = 1;
  ctx.send_to(tree_->parent[v], Message{kUp, {acc_[v], 0, 0, 0}});
}

void ConvergecastSum::on_round(Context& ctx) {
  const NodeId v = ctx.self();
  for (const Delivery& d : ctx.inbox()) {
    if (d.msg.type != kUp) continue;
    acc_[v] += d.msg.f[0];
    --pending_children_[v];
  }
  maybe_forward(ctx);
}

// --------------------------------------------------- pipelined vector upcast

PipelinedVectorUpcast::PipelinedVectorUpcast(
    const BfsTree& tree, std::vector<std::vector<std::uint64_t>> values)
    : tree_(&tree), acc_(std::move(values)) {
  const std::size_t n = acc_.size();
  if (n == 0) throw std::invalid_argument("PipelinedVectorUpcast: empty");
  k_ = acc_[0].size();
  for (const auto& vec : acc_) {
    if (vec.size() != k_) {
      throw std::invalid_argument("PipelinedVectorUpcast: ragged values");
    }
  }
  entry_pending_.resize(n);
  next_send_.assign(n, 0);
  for (std::size_t v = 0; v < n; ++v) {
    entry_pending_[v].assign(
        k_, static_cast<std::uint32_t>(tree_->children(v).size()));
  }
}

void PipelinedVectorUpcast::pump(Context& ctx) {
  const NodeId v = ctx.self();
  if (v == tree_->root) return;
  std::uint32_t& cursor = next_send_[v];
  if (cursor >= k_) return;
  if (entry_pending_[v][cursor] != 0) return;
  // One (index, value) entry per round keeps within the per-edge budget.
  ctx.send_to(tree_->parent[v],
              Message{kEntry, {cursor, acc_[v][cursor], 0, 0}});
  ++cursor;
  if (cursor < k_ && entry_pending_[v][cursor] == 0) ctx.wake_me();
}

void PipelinedVectorUpcast::on_round(Context& ctx) {
  const NodeId v = ctx.self();
  for (const Delivery& d : ctx.inbox()) {
    if (d.msg.type != kEntry) continue;
    const auto index = static_cast<std::size_t>(d.msg.f[0]);
    acc_[v][index] += d.msg.f[1];
    --entry_pending_[v][index];
  }
  pump(ctx);
}

// ------------------------------------------------------ pipelined list upcast

PipelinedListUpcast::PipelinedListUpcast(
    const BfsTree& tree, std::vector<std::vector<Record>> records)
    : tree_(&tree), queue_(std::move(records)) {
  next_send_.assign(queue_.size(), 0);
}

void PipelinedListUpcast::pump(Context& ctx) {
  const NodeId v = ctx.self();
  if (v == tree_->root) return;
  std::size_t& cursor = next_send_[v];
  if (cursor >= queue_[v].size()) return;
  const Record& r = queue_[v][cursor];
  ctx.send_to(tree_->parent[v], Message{kRecord, {r[0], r[1], r[2], 0}});
  ++cursor;
  if (cursor < queue_[v].size()) ctx.wake_me();
}

void PipelinedListUpcast::on_round(Context& ctx) {
  const NodeId v = ctx.self();
  for (const Delivery& d : ctx.inbox()) {
    if (d.msg.type != kRecord) continue;
    queue_[v].push_back(Record{d.msg.f[0], d.msg.f[1], d.msg.f[2]});
  }
  pump(ctx);
}

// -------------------------------------------------------------- token walks

TokenWalkProtocol::TokenWalkProtocol(
    const Graph& g, std::vector<std::vector<WalkToken>> initial_tokens)
    : initial_(std::move(initial_tokens)) {
  if (initial_.size() != g.node_count()) {
    throw std::invalid_argument("TokenWalkProtocol: size mismatch");
  }
  stored_.resize(g.node_count());
}

void TokenWalkProtocol::route(Context& ctx, const WalkToken& token) {
  if (token.remaining == 0) {
    stored_[ctx.self()].push_back(StoredToken{token.source, token.total_len});
    return;
  }
  const auto slot = static_cast<std::uint32_t>(
      ctx.rng().next_below(ctx.degree()));
  ctx.send(slot, Message{kToken,
                         {token.source, token.remaining - 1u,
                          token.total_len, 0}});
}

void TokenWalkProtocol::on_round(Context& ctx) {
  const NodeId v = ctx.self();
  if (ctx.round() == 0) {
    for (const WalkToken& token : initial_[v]) route(ctx, token);
    initial_[v].clear();
    return;
  }
  for (const Delivery& d : ctx.inbox()) {
    if (d.msg.type != kToken) continue;
    route(ctx, WalkToken{static_cast<NodeId>(d.msg.f[0]),
                         static_cast<std::uint32_t>(d.msg.f[1]),
                         static_cast<std::uint32_t>(d.msg.f[2])});
  }
}

// ------------------------------------------------------------------ drivers

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

}  // namespace

RunStats charged_bfs_tree(const Graph& g, NodeId root, BfsTree& tree) {
  const auto start = Clock::now();
  const std::size_t n = g.node_count();
  tree.root = root;
  tree.parent.assign(n, kInvalidNode);
  tree.depth.assign(n, 0);
  tree.height = 0;
  // BFS in level order; child_list doubles as the queue until the children
  // are laid out. Every candidate parent of a depth-(d + 1) node is dequeued
  // before any depth-(d + 1) node is, so keeping the smallest one picks the
  // parent the protocol's level flood picks (the smallest-ID sender of the
  // first round a LEVEL arrives).
  std::vector<NodeId>& queue = tree.child_list;
  queue.assign(1, root);
  tree.parent[root] = root;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const NodeId u = queue[head];
    const std::uint32_t next = tree.depth[u] + 1;
    for (const NodeId w : g.neighbors(u)) {
      if (tree.parent[w] == kInvalidNode) {
        tree.parent[w] = u;
        tree.depth[w] = next;
        queue.push_back(w);
      } else if (tree.depth[w] == next && u < tree.parent[w]) {
        tree.parent[w] = u;
      }
    }
  }
  if (queue.size() != n) {
    throw std::runtime_error("BfsTreeProtocol: graph not connected");
  }
  tree.height = tree.depth[queue.back()];

  // Children as one column: count per parent, prefix-sum to range ends,
  // then fill each range back to front with v descending, which leaves
  // child_begin[p] at the range start and every range ascending.
  tree.child_begin.assign(n + 1, 0);
  for (NodeId v = 0; v < n; ++v) {
    if (v != root) ++tree.child_begin[tree.parent[v]];
  }
  for (std::size_t v = 1; v <= n; ++v) {
    tree.child_begin[v] += tree.child_begin[v - 1];
  }
  tree.child_list.resize(n - 1);
  for (NodeId v = static_cast<NodeId>(n); v-- > 0;) {
    if (v != root) tree.child_list[--tree.child_begin[tree.parent[v]]] = v;
  }

  RunStats stats;
  // The root floods in round 0 and each level one round later; a round
  // counts while it transmits, and every node sends exactly deg(v)
  // messages (LEVEL to all neighbours but its parent, JOIN to the parent).
  stats.rounds = n > 1 ? tree.height + 1u : 0u;
  stats.messages = g.directed_edge_count();
  stats.token_sends = stats.messages;
  stats.max_backlog = stats.messages > 0 ? 1 : 0;
  stats.wall_ms = ms_since(start);
  return stats;
}

RunStats charged_broadcast(
    const BfsTree& tree, Message payload,
    const std::function<void(NodeId, const Message&)>& on_receive) {
  const auto start = Clock::now();
  const std::size_t n = tree.parent.size();
  payload.type = 1;  // BroadcastProtocol's kDown
  if (on_receive) {
    for (NodeId v = 0; v < n; ++v) on_receive(v, payload);
  }
  RunStats stats;
  stats.rounds = tree.height;
  stats.messages = n - 1;
  stats.token_sends = token_packable(payload) ? stats.messages : 0;
  stats.max_backlog = n > 1 ? 1 : 0;
  stats.wall_ms = ms_since(start);
  return stats;
}

BfsTree build_bfs_tree(Network& net, NodeId root, RunStats& stats) {
  BfsTree tree;
  stats += charged_bfs_tree(net.graph(), root, tree);
  return tree;
}

}  // namespace drw::congest
