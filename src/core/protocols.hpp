// The distributed protocols that make up SINGLE-RANDOM-WALK (Algorithm 1)
// and its subroutines GET-MORE-WALKS (Algorithm 2) and SAMPLE-DESTINATION
// (Algorithm 3), plus the naive-walk and regeneration protocols.
//
// Each protocol is a self-contained CONGEST state machine; the drivers in
// single_random_walk.cpp sequence them and accumulate round counts.
//
// TOKEN-WALK KERNEL: ShortWalkPhaseProtocol and NaiveSegmentProtocol only
// forward fixed-width walk tokens, so they are congest::TokenKernelProtocols:
// per-hop launch/step functions run by the network's token-walk kernel,
// one lane, no on_round.
//
// LANE COMPATIBILITY: every other protocol here draws randomness
// exclusively through Context::rng() and keeps all mutable state
// node-indexed, so each can run as one lane of a congest::ProtocolMux (the
// mux retargets ctx.rng() to a per-lane stream and isolates messages/wakes
// per lane). The stitch protocols' only cross-instance coupling is the
// shared WalkStore, whose token pools are keyed by source connector -- the
// conflict rule BatchScheduler serializes on.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "congest/network.hpp"
#include "congest/primitives.hpp"
#include "core/walk_state.hpp"
#include "graph/transition.hpp"

namespace drw::core {

/// Phase 1 of Algorithm 1: every node v starts `eta_v` tokens, the i-th with
/// desired length lambda + r_i; tokens do one random hop per delivery ("the
/// nodes keep forwarding these tokens with decreased desired walk length").
/// Distinct tokens occupy distinct messages, so congestion is real and the
/// round count displays Lemma 2.1's O(lambda * eta * log n) behaviour.
/// Runs on the token-walk kernel with tokens (source, seq, total length,
/// remaining hops) -- when recording, the seq word carries the token's
/// TrajectoryStore run index instead (the network never reads it, and
/// hold() maps it back); a self-loop step (lazy / Metropolis stay) keeps the
/// token at its node for a round without a message.
class ShortWalkPhaseProtocol final : public congest::TokenKernelProtocol {
 public:
  /// A short walk to launch from node `origin`.
  struct Job {
    NodeId origin = kInvalidNode;
    std::uint32_t seq = 0;
    std::uint32_t length = 0;  ///< in [lambda, 2*lambda - 1]
  };

  /// When `trajectories` is given, its Phase-1 columns are replaced by one
  /// run per job, sized here; (origin, seq) pairs must then be distinct.
  ShortWalkPhaseProtocol(const Graph& g, std::vector<Job> jobs,
                         WalkStore& store, TrajectoryStore* trajectories,
                         TransitionModel model = TransitionModel::kSimple);

  /// Kernel steps (see congest::TokenKernelProtocol): a token with no hops
  /// left is stored at v in WalkStore::held; otherwise one step of the
  /// transition model is drawn from `rng`, and when recording its exit
  /// slot is stored in the token's run.
  std::uint32_t launch(NodeId v, Rng& rng, congest::KernelToken& t) {
    return step(v, rng, t, congest::kNoArrival);
  }
  std::uint32_t step(NodeId v, Rng& rng, congest::KernelToken& t,
                     std::uint32_t arrival_slot);

 private:
  void run_chunk(const Chunk& chunk) override;
  /// Sizes the trajectory columns and points each token's seq word at its
  /// run, so recording a hop is one store with no lookup.
  void plan_runs(std::vector<congest::KernelToken>& tokens);
  /// The walk ends at v: store its endpoint token (with its real seq).
  void hold(NodeId v, const congest::KernelToken& t,
            std::uint32_t arrival_slot);
  /// Trajectory recording: the token leaves its node through `slot`.
  void record_hop(const congest::KernelToken& t, std::uint32_t slot);
  const Graph* graph_;
  WalkStore* store_;
  TrajectoryStore* trajectories_;
  TransitionModel model_;
};

/// GET-MORE-WALKS (Algorithm 2): `count` walks from `source`, forwarded as
/// (source, count, steps) aggregates -- one message per edge per round, so no
/// congestion and exactly O(lambda) rounds -- then extended by reservoir
/// sampling: at extension step i every surviving token stops with probability
/// 1/(lambda - i), yielding lengths uniform in [lambda, 2*lambda - 1]
/// (Lemma 2.4). With `extend == false` (PODC 2009 preset) all tokens stop at
/// exactly lambda.
class GetMoreWalksProtocol final : public congest::Protocol {
 public:
  GetMoreWalksProtocol(const Graph& g, NodeId source, std::uint32_t count,
                       std::uint32_t lambda, bool extend, WalkStore& store,
                       TrajectoryStore* trajectories,
                       TransitionModel model = TransitionModel::kSimple);
  void on_round(congest::Context& ctx) override;

 private:
  enum MsgType : std::uint16_t { kAggregate = 20 };
  /// Handles one round's arrivals ((arrival_slot, count) pairs, all at the
  /// same hop count) and emits at most one aggregate message per neighbor.
  void process(
      congest::Context& ctx,
      const std::vector<std::pair<std::uint32_t, std::uint64_t>>& arrivals,
      std::uint32_t steps);
  const Graph* graph_;
  NodeId source_;
  std::uint32_t initial_count_;
  std::uint32_t lambda_;
  bool extend_;
  WalkStore* store_;
  TrajectoryStore* trajectories_;
  TransitionModel model_;
  /// Aggregated self-loop stays per node: (count, steps) carried to the
  /// next round locally (no message), preserving lockstep.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> staying_;
};

/// Sweep 2 of SAMPLE-DESTINATION (Algorithm 3): a convergecast up `tree`
/// (rooted at the sampling node v) where every node samples one candidate
/// among its own unused source-v tokens and its children's candidates,
/// weighted by counts, so the root ends up with a uniform sample over all
/// unused short walks from v (Lemma A.2).
class SampleConvergecast final : public congest::Protocol {
 public:
  struct Candidate {
    NodeId holder = kInvalidNode;
    std::uint64_t count = 0;       ///< tokens this candidate was sampled from
    std::uint32_t length = 0;
    WalkKind kind = WalkKind::kPhase1;
    std::uint32_t seq = 0;
    std::uint32_t held_index = 0;  ///< index into store.held[holder]
  };

  SampleConvergecast(const congest::BfsTree& tree, const WalkStore& store,
                     NodeId source);
  void on_round(congest::Context& ctx) override;

  /// Root's result after the run; count == 0 means "no unused walks left"
  /// (SAMPLE-DESTINATION returned NULL and GET-MORE-WALKS is required).
  const Candidate& result() const { return acc_[tree_->root]; }

 private:
  enum MsgType : std::uint16_t { kCandidate = 30 };
  void absorb(congest::Context& ctx, const Candidate& incoming);
  void maybe_forward(congest::Context& ctx);
  const congest::BfsTree* tree_;
  const WalkStore* store_;
  NodeId source_;
  std::vector<Candidate> acc_;
  std::vector<std::uint32_t> pending_children_;
  std::vector<std::uint8_t> sent_;
};

/// One or more plain token walks with every intermediate position optionally
/// recorded. Used for: the naive baseline, the naive tail of Algorithm 1
/// ("walk naively until l steps are completed"), and the k > lambda fallback
/// of MANY-RANDOM-WALKS. Tokens are individual messages (congestion real).
/// Runs on the token-walk kernel with tokens (job index, -, -, remaining
/// hops); a token's position is base_step + steps - remaining.
class NaiveSegmentProtocol final : public congest::TokenKernelProtocol {
 public:
  struct Job {
    NodeId start = kInvalidNode;
    std::uint64_t steps = 0;  ///< at most 2^32 - 1 (a 32-bit token field)
    std::uint32_t walk_id = 0;
    std::uint64_t base_step = 0;  ///< absolute position of `start`
    /// Record the start position too (false when a preceding stitched
    /// segment already recorded it as its endpoint).
    bool record_start = true;
    /// Record this job's positions at all (per-walk opt-out: jobs of
    /// walks that did not ask for positions share a protocol run with
    /// ones that did).
    bool record = true;
  };

  NaiveSegmentProtocol(const Graph& g, std::vector<Job> jobs,
                       PositionTable* positions,
                       TransitionModel model = TransitionModel::kSimple);

  /// Destination of each job (valid after the run).
  const std::vector<NodeId>& destinations() const { return destinations_; }

  /// Kernel steps (see congest::TokenKernelProtocol): record the position
  /// (at launch only if record_start), then stop at v if no hops are left,
  /// else draw one step of the transition model.
  std::uint32_t launch(NodeId v, Rng& rng, congest::KernelToken& t);
  std::uint32_t step(NodeId v, Rng& rng, congest::KernelToken& t,
                     std::uint32_t arrival_slot);

 private:
  void run_chunk(const Chunk& chunk) override;
  void record(NodeId v, const congest::KernelToken& t);
  std::uint32_t hop(NodeId v, Rng& rng, congest::KernelToken& t);
  const Graph* graph_;
  std::vector<Job> jobs_;
  PositionTable* positions_;
  std::vector<NodeId> destinations_;
  TransitionModel model_;
};

/// Regeneration (Section 2.2): every stitched short walk is replayed so each
/// node on it learns its absolute position(s). Phase-1 segments replay
/// forward from their source through their recorded run (the message
/// carries the run index, so each hop is one column read);
/// GET-MORE-WALKS segments replay backward from their endpoint by consuming
/// anonymous fragments (exchangeability makes any consistent matching
/// distribution-correct). All segments replay in parallel; the round count
/// is dominated by the longest segment, O~(lambda) = O~(sqrt(l D)).
class RegenerateProtocol final : public congest::Protocol {
 public:
  struct ForwardJob {
    NodeId source = kInvalidNode;  ///< stitch connector = short-walk source
    std::uint32_t seq = 0;
    std::uint64_t offset = 0;      ///< absolute position of the source
    std::uint32_t walk_id = 0;
  };
  struct ReverseJob {
    NodeId holder = kInvalidNode;  ///< short-walk endpoint
    NodeId source = kInvalidNode;
    std::uint32_t length = 0;
    std::uint32_t arrival_slot = 0;
    std::uint64_t offset = 0;
    std::uint32_t walk_id = 0;
  };

  /// Throws std::logic_error if a forward job's (source, seq) has no run.
  RegenerateProtocol(const Graph& g, std::vector<ForwardJob> forward,
                     std::vector<ReverseJob> reverse,
                     TrajectoryStore& trajectories, PositionTable& positions);
  void on_round(congest::Context& ctx) override;

 private:
  enum MsgType : std::uint16_t { kForward = 50, kReverse = 51 };
  /// A forward job resolved to its TrajectoryStore run.
  struct ForwardRun {
    std::uint32_t run = 0;
    std::uint32_t walk_id = 0;
    std::uint64_t offset = 0;
  };
  void forward_step(congest::Context& ctx, std::uint32_t run,
                    std::uint64_t offset, std::uint32_t hop,
                    std::uint32_t walk_id);
  void reverse_step(congest::Context& ctx, NodeId source, std::uint64_t offset,
                    std::uint32_t hop, std::uint32_t walk_id,
                    std::uint32_t via_slot);
  std::vector<std::vector<ForwardRun>> forward_by_node_;
  std::vector<std::vector<ReverseJob>> reverse_by_node_;
  TrajectoryStore* trajectories_;
  PositionTable* positions_;
};

}  // namespace drw::core
