#include "core/random_walks.hpp"

#include <algorithm>
#include <stdexcept>

#include "congest/mux.hpp"
#include "congest/primitives.hpp"
#include "obs/trace.hpp"

namespace drw::core {

WalkCounters& WalkCounters::operator+=(const WalkCounters& other) noexcept {
  lambda = other.lambda != 0 ? other.lambda : lambda;
  walks_prepared += other.walks_prepared;
  stitches += other.stitches;
  sample_calls += other.sample_calls;
  get_more_walks_calls += other.get_more_walks_calls;
  naive_tail_steps += other.naive_tail_steps;
  phase1 += other.phase1;
  phase2 += other.phase2;
  regen += other.regen;
  return *this;
}

std::uint64_t StitchEngine::max_connector_visits() const noexcept {
  std::uint64_t best = 0;
  for (std::uint64_t c : connector_visits_) best = std::max(best, c);
  return best;
}

StitchEngine::StitchEngine(congest::Network& net, Params params,
                           std::uint32_t diameter)
    : net_(&net), params_(params), diameter_(diameter),
      store_(net.graph().node_count()),
      trajectories_(net.graph().node_count()) {
  if (params_.record_trajectories &&
      params_.transition != TransitionModel::kSimple) {
    // GET-MORE-WALKS tokens travel as anonymous aggregated counts; their
    // reverse replay relies on every transit being an edge traversal.
    throw std::invalid_argument(
        "StitchEngine: walk regeneration requires the simple walk");
  }
  if (params_.record_trajectories) {
    positions_.resize(net.graph().node_count());
  }
}

void StitchEngine::prepare(std::uint64_t k, std::uint64_t l) {
  obs::Span span(obs::Name::kEnginePrepare, obs::kPidService, 0, k);
  const Graph& g = net_->graph();
  // Reset all distributed walk state; a prepare() starts a fresh epoch.
  store_ = WalkStore(g.node_count());
  trajectories_ = TrajectoryStore(g.node_count());
  if (params_.record_trajectories) {
    positions_.assign(g.node_count(), {});
  }
  prepared_ = true;
  prepared_l_ = l;
  prepared_k_ = std::max<std::uint64_t>(k, 1);
  connector_visits_.assign(g.node_count(), 0);

  lambda_ = k <= 1 ? params_.lambda_single(l, diameter_, g.node_count())
                   : params_.lambda_many(k, l, diameter_, g.node_count());
  // MANY-RANDOM-WALKS: "If lambda > l then run the naive random walk
  // algorithm". The same guard is the right call for a single walk.
  naive_mode_ = lambda_ > l;
  if (naive_mode_) return;

  std::vector<ShortWalkPhaseProtocol::Job> jobs;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    const std::uint32_t count =
        params_.walks_per_node(g.degree(v), l, diameter_);
    Rng& rng = net_->node_rng(v);
    for (std::uint32_t i = 0; i < count; ++i) {
      const auto extra =
          params_.random_lengths
              ? static_cast<std::uint32_t>(rng.next_below(lambda_))
              : 0u;
      jobs.push_back(ShortWalkPhaseProtocol::Job{v, i, lambda_ + extra});
    }
  }
  const auto prepared_count = static_cast<std::uint64_t>(jobs.size());
  ShortWalkPhaseProtocol phase1(
      g, std::move(jobs), store_,
      params_.record_trajectories ? &trajectories_ : nullptr,
      params_.transition);
  const congest::RunStats stats = net_->run(phase1);
  total_ += stats;
  // Stash Phase-1 cost so the next walk() can report it.
  pending_phase1_ = stats;
  pending_prepared_ = prepared_count;
}

WalkResult StitchEngine::naive_walk_result(NodeId source, std::uint64_t l,
                                           std::uint32_t walk_id,
                                           bool record_start,
                                           bool record_positions) {
  NaiveSegmentProtocol::Job job{source, l, walk_id, 0, record_start};
  NaiveSegmentProtocol protocol(
      net_->graph(), {job},
      params_.record_trajectories && record_positions ? &positions_ : nullptr,
      params_.transition);
  WalkResult result;
  result.stats = net_->run(protocol);
  result.counters.naive_tail_steps = l;
  result.destination = protocol.destinations()[0];
  total_ += result.stats;
  return result;
}

WalkResult StitchEngine::walk(NodeId source, std::uint64_t l,
                              std::uint32_t walk_id, bool record_positions) {
  return walk_impl(source, l, walk_id, /*defer_tail=*/false, 0,
                   record_positions);
}

WalkResult StitchEngine::walk_deferring_tail(NodeId source, std::uint64_t l,
                                             std::uint32_t walk_id,
                                             bool record_positions) {
  return walk_impl(source, l, walk_id, /*defer_tail=*/true, 0,
                   record_positions);
}

WalkResult StitchEngine::continue_walk(NodeId source, std::uint64_t l,
                                       std::uint32_t walk_id,
                                       std::uint64_t start_step) {
  return walk_impl(source, l, walk_id, /*defer_tail=*/false, start_step);
}

std::vector<std::uint64_t> StitchEngine::unused_counts_by_source() const {
  std::vector<std::uint64_t> counts(net_->graph().node_count(), 0);
  for (const auto& held : store_.held) {
    for (const HeldToken& t : held) {
      if (!t.used) ++counts[t.source];
    }
  }
  return counts;
}

congest::RunStats StitchEngine::replenish(NodeId source,
                                          std::uint32_t count) {
  if (!prepared_ || naive_mode_) {
    throw std::logic_error(
        "StitchEngine::replenish: requires a prepared, non-naive engine");
  }
  if (count == 0) return {};
  obs::Span span(obs::Name::kEngineReplenish, obs::kPidService, 0, count);
  GetMoreWalksProtocol more(
      net_->graph(), source, count, lambda_, params_.random_lengths, store_,
      params_.record_trajectories ? &trajectories_ : nullptr,
      params_.transition);
  const congest::RunStats stats = net_->run(more);
  total_ += stats;
  return stats;
}

void StitchEngine::adopt_plan(std::uint64_t k, std::uint64_t l) {
  if (!prepared_ || naive_mode_) {
    throw std::logic_error(
        "StitchEngine::adopt_plan: requires a prepared, non-naive engine");
  }
  prepared_k_ = std::max<std::uint64_t>(k, 1);
  prepared_l_ = l;
}

StitchEngine::EngineState StitchEngine::release_state() {
  if (!prepared_ || naive_mode_) {
    throw std::logic_error(
        "StitchEngine::release_state: requires a prepared, non-naive engine");
  }
  EngineState state;
  state.store = std::move(store_);
  state.trajectories = std::move(trajectories_);
  state.lambda = lambda_;
  state.prepared_l = prepared_l_;
  state.prepared_k = prepared_k_;
  const std::size_t n = net_->graph().node_count();
  store_ = WalkStore(n);
  trajectories_ = TrajectoryStore(n);
  prepared_ = false;
  return state;
}

void StitchEngine::adopt_state(EngineState state) {
  const std::size_t n = net_->graph().node_count();
  if (state.store.held.size() != n ||
      state.trajectories.fragments.size() != n) {
    throw std::invalid_argument(
        "StitchEngine::adopt_state: node count mismatch");
  }
  if (!state.trajectories.runs_well_formed()) {
    throw std::invalid_argument(
        "StitchEngine::adopt_state: malformed trajectory run table");
  }
  if (state.lambda == 0) {
    throw std::invalid_argument("StitchEngine::adopt_state: lambda == 0");
  }
  store_ = std::move(state.store);
  trajectories_ = std::move(state.trajectories);
  lambda_ = state.lambda;
  prepared_l_ = state.prepared_l;
  prepared_k_ = std::max<std::uint64_t>(state.prepared_k, 1);
  naive_mode_ = false;
  prepared_ = true;
  connector_visits_.assign(n, 0);
  pending_phase1_ = {};
  pending_prepared_ = 0;
}

void StitchEngine::restore_connector_visits(
    std::vector<std::uint64_t> visits) {
  if (visits.size() != net_->graph().node_count()) {
    throw std::invalid_argument(
        "StitchEngine::restore_connector_visits: node count mismatch");
  }
  connector_visits_ = std::move(visits);
}

PositionTable StitchEngine::drain_positions() {
  PositionTable out = std::move(positions_);
  positions_ = PositionTable();
  if (params_.record_trajectories) {
    positions_.resize(net_->graph().node_count());
  }
  return out;
}

StitchEngine::TailOutcome StitchEngine::run_deferred_tails() {
  TailOutcome outcome;
  if (deferred_tails_.empty()) return outcome;
  obs::Span span(obs::Name::kEngineTails, obs::kPidService, 0,
                 deferred_tails_.size());
  // Canonical ascending-walk_id order: tail tokens draw from the SHARED
  // node streams, so the job order must not depend on the mux scheduler's
  // task completion order. Legacy callers defer in walk_id order already
  // (stable: preserves their order).
  std::stable_sort(deferred_tails_.begin(), deferred_tails_.end(),
                   [](const NaiveSegmentProtocol::Job& a,
                      const NaiveSegmentProtocol::Job& b) {
                     return a.walk_id < b.walk_id;
                   });
  for (const auto& job : deferred_tails_) {
    outcome.walk_ids.push_back(job.walk_id);
  }
  NaiveSegmentProtocol protocol(
      net_->graph(), std::move(deferred_tails_),
      params_.record_trajectories ? &positions_ : nullptr,
      params_.transition);
  deferred_tails_.clear();
  outcome.stats = net_->run(protocol);
  outcome.destinations = protocol.destinations();
  total_ += outcome.stats;
  return outcome;
}

// --------------------------------------------------------------- WalkTask

StitchEngine::WalkTask::WalkTask(StitchEngine& engine, NodeId source,
                                 std::uint64_t l, std::uint32_t walk_id,
                                 bool record_positions)
    : engine_(&engine), source_(source), l_(l), walk_id_(walk_id),
      record_(engine.params_.record_trajectories && record_positions),
      current_(source),
      rngs_(congest::ProtocolMux::derive_lane_rngs(
          engine.net_->seed(), walk_id,
          engine.net_->graph().node_count())) {
  result_.counters.lambda = engine.lambda_;
  result_.counters.phase1 = engine.pending_phase1_;
  result_.counters.walks_prepared = engine.pending_prepared_;
  engine.pending_phase1_ = {};
  engine.pending_prepared_ = 0;
  result_.stats += result_.counters.phase1;
  if (record_) {
    engine.positions_[source].push_back(WalkPosition{walk_id, 0});
  }
  begin_stitch_or_finish();
}

void StitchEngine::WalkTask::begin_stitch_or_finish() {
  // "While length of walk completed is at most l - 2*lambda" (Algorithm 1).
  if (completed_ + 2 * static_cast<std::uint64_t>(engine_->lambda_) <= l_) {
    protocol_ = std::make_unique<congest::BfsTreeProtocol>(
        engine_->net_->graph(), current_);
    step_ = Step::kBfs;
  } else {
    finish();
  }
}

void StitchEngine::WalkTask::advance(const congest::RunStats& lane_stats) {
  result_.stats += lane_stats;
  result_.counters.phase2 += lane_stats;
  switch (step_) {
    case Step::kBfs: {
      auto& bfs = static_cast<congest::BfsTreeProtocol&>(*protocol_);
      tree_ = std::make_unique<congest::BfsTree>(bfs.take_tree());
      protocol_ = std::make_unique<SampleConvergecast>(*tree_, engine_->store_,
                                                       current_);
      step_ = Step::kSample;
      break;
    }
    case Step::kSample:
    case Step::kResample: {
      auto& sample = static_cast<SampleConvergecast&>(*protocol_);
      candidate_ = sample.result();
      ++result_.counters.sample_calls;
      if (candidate_.count != 0) {
        // Sweep 3: broadcast down the tree to delete the sampled token at
        // its holder and hand the walk token to it.
        WalkStore* store = &engine_->store_;
        const auto held_index = candidate_.held_index;
        protocol_ = std::make_unique<congest::BroadcastProtocol>(
            *tree_,
            congest::Message{
                0, {candidate_.holder, candidate_.held_index, 0, 0}},
            [store, held_index](NodeId at, const congest::Message& m) {
              if (at != static_cast<NodeId>(m.f[0])) return;
              auto& held = store->held[at][held_index];
              if (held.used) {
                throw std::logic_error("StitchEngine: token already used");
              }
              held.used = true;
            });
        step_ = Step::kCommit;
        break;
      }
      if (step_ == Step::kResample) {
        throw std::logic_error("StitchEngine: GET-MORE-WALKS yielded none");
      }
      // Pool at the connector is dry: GET-MORE-WALKS, scaled by the
      // prepared walk count exactly as in walk_impl.
      const Params& params = engine_->params_;
      const std::uint32_t count = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(
              static_cast<std::uint64_t>(params.get_more_walks_count(
                  l_, engine_->lambda_, engine_->diameter_)) *
                  engine_->prepared_k_,
              1u << 20));
      protocol_ = std::make_unique<GetMoreWalksProtocol>(
          engine_->net_->graph(), current_, count, engine_->lambda_,
          params.random_lengths, engine_->store_,
          params.record_trajectories ? &engine_->trajectories_ : nullptr,
          params.transition);
      step_ = Step::kGetMore;
      break;
    }
    case Step::kGetMore:
      ++result_.counters.get_more_walks_calls;
      protocol_ = std::make_unique<SampleConvergecast>(*tree_, engine_->store_,
                                                       current_);
      step_ = Step::kResample;
      break;
    case Step::kCommit:
      segments_.push_back(
          Segment{candidate_, current_, completed_});
      ++engine_->connector_visits_[current_];
      completed_ += candidate_.length;
      current_ = candidate_.holder;
      ++result_.counters.stitches;
      begin_stitch_or_finish();
      break;
    case Step::kDone:
      throw std::logic_error("WalkTask::advance: task already finished");
  }
}

void StitchEngine::WalkTask::finish() {
  step_ = Step::kDone;
  protocol_.reset();
  result_.destination = current_;

  // "Walk naively until l steps are completed": deferred into the engine's
  // shared concurrent tail run (the source/connector position is already
  // recorded, so record_start stays false).
  const std::uint64_t tail = l_ - completed_;
  if (tail > 0) {
    result_.counters.naive_tail_steps = tail;
    engine_->deferred_tails_.push_back(NaiveSegmentProtocol::Job{
        current_, tail, walk_id_, completed_, false, record_});
  }

  // Regeneration jobs (Section 2.2), deferred into one batched replay.
  if (record_) {
    for (const Segment& s : segments_) {
      if (s.token.kind == WalkKind::kPhase1) {
        engine_->deferred_forward_.push_back(RegenerateProtocol::ForwardJob{
            s.from, s.token.seq, s.offset, walk_id_});
      } else {
        const HeldToken& held =
            engine_->store_.held[s.token.holder][s.token.held_index];
        engine_->deferred_reverse_.push_back(RegenerateProtocol::ReverseJob{
            s.token.holder, s.from, s.token.length, held.arrival_slot,
            s.offset, walk_id_});
      }
    }
  }
}

StitchEngine::WalkTask StitchEngine::start_walk_task(NodeId source,
                                                     std::uint64_t l,
                                                     std::uint32_t walk_id,
                                                     bool record_positions) {
  if (!prepared_) throw std::logic_error("StitchEngine: prepare() first");
  if (naive_mode_) {
    throw std::logic_error(
        "StitchEngine::start_walk_task: naive mode defers whole walks "
        "(use walk_deferring_tail)");
  }
  if (l > prepared_l_) {
    throw std::logic_error("StitchEngine: walk longer than prepared for");
  }
  return WalkTask(*this, source, l, walk_id, record_positions);
}

congest::RunStats StitchEngine::run_deferred_regen() {
  if (deferred_forward_.empty() && deferred_reverse_.empty()) return {};
  obs::Span span(obs::Name::kEngineRegen, obs::kPidService, 0,
                 deferred_forward_.size() + deferred_reverse_.size());
  // Canonical ascending-walk_id order (stable: preserves each walk's
  // segment order): reverse replay consumes shared anonymous fragments, so
  // the job order must not depend on task completion order.
  std::stable_sort(deferred_forward_.begin(), deferred_forward_.end(),
                   [](const RegenerateProtocol::ForwardJob& a,
                      const RegenerateProtocol::ForwardJob& b) {
                     return a.walk_id < b.walk_id;
                   });
  std::stable_sort(deferred_reverse_.begin(), deferred_reverse_.end(),
                   [](const RegenerateProtocol::ReverseJob& a,
                      const RegenerateProtocol::ReverseJob& b) {
                     return a.walk_id < b.walk_id;
                   });
  RegenerateProtocol regen(net_->graph(), std::move(deferred_forward_),
                           std::move(deferred_reverse_), trajectories_,
                           positions_);
  deferred_forward_.clear();
  deferred_reverse_.clear();
  const congest::RunStats stats = net_->run(regen);
  total_ += stats;
  return stats;
}

WalkResult StitchEngine::walk_impl(NodeId source, std::uint64_t l,
                                   std::uint32_t walk_id, bool defer_tail,
                                   std::uint64_t start_step,
                                   bool record_positions) {
  if (!prepared_) throw std::logic_error("StitchEngine: prepare() first");
  if (l > prepared_l_) {
    throw std::logic_error("StitchEngine: walk longer than prepared for");
  }
  const Graph& g = net_->graph();
  const bool record = params_.record_trajectories && record_positions;

  if (naive_mode_) {
    if (defer_tail && l > 0) {
      // The whole walk becomes one deferred token job so a batch of naive
      // walks runs concurrently (O(k + l) rounds, the MANY-RANDOM-WALKS
      // fallback) instead of sequentially.
      deferred_tails_.push_back(NaiveSegmentProtocol::Job{
          source, l, walk_id, start_step, true, record});
      WalkResult result;
      result.counters.lambda = lambda_;
      result.counters.naive_tail_steps = l;
      result.destination = source;  // real destination: run_deferred_tails()
      return result;
    }
    WalkResult result = naive_walk_result(source, l, walk_id, true, record);
    result.counters.lambda = lambda_;
    return result;
  }

  WalkResult result;
  result.counters.lambda = lambda_;
  result.counters.phase1 = pending_phase1_;
  result.counters.walks_prepared = pending_prepared_;
  pending_phase1_ = {};
  pending_prepared_ = 0;

  // The source knows it is step `start_step` of the walk (node-local
  // knowledge; for a continuation the previous phase already recorded it).
  if (record && start_step == 0) {
    positions_[source].push_back(WalkPosition{walk_id, 0});
  }

  // Phase 2: stitch short walks "while length of walk completed is at most
  // l - 2*lambda" (Algorithm 1).
  struct Segment {
    SampleConvergecast::Candidate token;
    NodeId from = kInvalidNode;
    std::uint64_t offset = 0;
  };
  std::vector<Segment> segments;
  congest::RunStats phase2;
  NodeId current = source;
  std::uint64_t completed = 0;
  while (completed + 2 * static_cast<std::uint64_t>(lambda_) <= l) {
    congest::BfsTree tree = congest::build_bfs_tree(*net_, current, phase2);

    SampleConvergecast sample(tree, store_, current);
    phase2 += net_->run(sample);
    ++result.counters.sample_calls;
    SampleConvergecast::Candidate candidate = sample.result();

    if (candidate.count == 0) {
      // All short walks from `current` are used up: GET-MORE-WALKS.
      // When the engine serves k walks (MANY-RANDOM-WALKS), connectors can
      // recur up to k times as often, so the batch is scaled by k -- the
      // count aggregation makes the bigger batch free (still O(lambda)
      // rounds, Lemma 2.2).
      const std::uint32_t count = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(
              static_cast<std::uint64_t>(
                  params_.get_more_walks_count(l, lambda_, diameter_)) *
                  prepared_k_,
              1u << 20));
      GetMoreWalksProtocol more(
          g, current, count, lambda_, params_.random_lengths, store_,
          params_.record_trajectories ? &trajectories_ : nullptr,
          params_.transition);
      phase2 += net_->run(more);
      ++result.counters.get_more_walks_calls;

      SampleConvergecast retry(tree, store_, current);
      phase2 += net_->run(retry);
      ++result.counters.sample_calls;
      candidate = retry.result();
      if (candidate.count == 0) {
        throw std::logic_error("StitchEngine: GET-MORE-WALKS yielded none");
      }
    }

    // Sweep 3: broadcast down the tree to delete the sampled token at its
    // holder ("so that this random walk is not reused") and hand the walk
    // token to it.
    WalkStore* store = &store_;
    const auto held_index = candidate.held_index;
    congest::BroadcastProtocol commit(
        tree,
        congest::Message{0, {candidate.holder, candidate.held_index, 0, 0}},
        [store, held_index](NodeId at, const congest::Message& m) {
          if (at != static_cast<NodeId>(m.f[0])) return;
          auto& held = store->held[at][held_index];
          if (held.used) {
            throw std::logic_error("StitchEngine: token already used");
          }
          held.used = true;
        });
    phase2 += net_->run(commit);

    segments.push_back(Segment{candidate, current, start_step + completed});
    ++connector_visits_[current];
    completed += candidate.length;
    current = candidate.holder;
    ++result.counters.stitches;
  }

  // "Walk naively until l steps are completed (at most another 2*lambda)."
  result.counters.phase2 = phase2;
  result.stats += result.counters.phase1;
  result.stats += phase2;
  total_ += phase2;

  NodeId destination = current;
  const std::uint64_t tail = l - completed;
  if (tail > 0) {
    NaiveSegmentProtocol::Job job{current, tail, walk_id,
                                  start_step + completed, false, record};
    result.counters.naive_tail_steps = tail;
    if (defer_tail) {
      deferred_tails_.push_back(job);
    } else {
      NaiveSegmentProtocol protocol(
          g, {job}, record ? &positions_ : nullptr, params_.transition);
      const congest::RunStats tail_stats = net_->run(protocol);
      result.stats += tail_stats;
      total_ += tail_stats;
      destination = protocol.destinations()[0];
    }
  }
  result.destination = destination;

  // Regeneration (Section 2.2): replay every stitched segment in parallel so
  // all nodes learn their position(s).
  if (record && !segments.empty()) {
    std::vector<RegenerateProtocol::ForwardJob> forward;
    std::vector<RegenerateProtocol::ReverseJob> reverse;
    for (const Segment& s : segments) {
      if (s.token.kind == WalkKind::kPhase1) {
        forward.push_back(RegenerateProtocol::ForwardJob{
            s.from, s.token.seq, s.offset, walk_id});
      } else {
        const HeldToken& held = store_.held[s.token.holder][s.token.held_index];
        reverse.push_back(RegenerateProtocol::ReverseJob{
            s.token.holder, s.from, s.token.length, held.arrival_slot,
            s.offset, walk_id});
      }
    }
    RegenerateProtocol regen(g, std::move(forward), std::move(reverse),
                             trajectories_, positions_);
    const congest::RunStats regen_stats = net_->run(regen);
    result.counters.regen = regen_stats;
    result.stats += regen_stats;
    total_ += regen_stats;
  }
  return result;
}

SingleWalkOutput single_random_walk(congest::Network& net, NodeId source,
                                    std::uint64_t l, const Params& params,
                                    std::uint32_t diameter) {
  StitchEngine engine(net, params, diameter);
  engine.prepare(1, l);
  SingleWalkOutput out;
  out.result = engine.walk(source, l, 0);
  out.positions = engine.positions();
  return out;
}

WalkResult naive_random_walk(congest::Network& net, NodeId source,
                             std::uint64_t l, TransitionModel model) {
  NaiveSegmentProtocol::Job job{source, l, 0, 0, true};
  NaiveSegmentProtocol protocol(net.graph(), {job}, nullptr, model);
  WalkResult result;
  result.stats = net.run(protocol);
  result.destination = protocol.destinations()[0];
  result.counters.naive_tail_steps = l;
  return result;
}

ManyWalksOutput many_random_walks(congest::Network& net,
                                  std::span<const NodeId> sources,
                                  std::uint64_t l, const Params& params,
                                  std::uint32_t diameter) {
  ManyWalksOutput out;
  if (sources.empty()) return out;

  StitchEngine engine(net, params, diameter);
  engine.prepare(sources.size(), l);

  if (engine.naive_mode()) {
    // "If lambda > l then run the naive random walk algorithm, i.e., the
    // sources find walks of length l simultaneously by sending tokens."
    out.used_naive_fallback = true;
    PositionTable positions;
    if (params.record_trajectories) {
      positions.resize(net.graph().node_count());
    }
    std::vector<NaiveSegmentProtocol::Job> jobs;
    for (std::uint32_t i = 0; i < sources.size(); ++i) {
      jobs.push_back(NaiveSegmentProtocol::Job{sources[i], l, i, 0, true});
    }
    NaiveSegmentProtocol protocol(
        net.graph(), std::move(jobs),
        params.record_trajectories ? &positions : nullptr,
        params.transition);
    out.stats = net.run(protocol);
    out.destinations = protocol.destinations();
    out.counters.lambda = engine.lambda();
    out.counters.naive_tail_steps = l * sources.size();
    out.positions = std::move(positions);
    return out;
  }

  // Stitch the k walks one at a time (Section 2.3), but run all the naive
  // tails concurrently at the end -- k independent tail tokens cost
  // O(k + 2*lambda) rounds together instead of k * 2*lambda sequentially,
  // keeping the total within Theorem 2.8's O~(sqrt(k l D) + k).
  for (std::uint32_t i = 0; i < sources.size(); ++i) {
    WalkResult walk = engine.walk_deferring_tail(sources[i], l, i);
    out.destinations.push_back(walk.destination);
    out.stats += walk.stats;
    out.counters += walk.counters;
  }
  const StitchEngine::TailOutcome tails = engine.run_deferred_tails();
  out.stats += tails.stats;
  for (std::size_t t = 0; t < tails.walk_ids.size(); ++t) {
    out.destinations[tails.walk_ids[t]] = tails.destinations[t];
  }
  out.counters.lambda = engine.lambda();
  out.positions = engine.positions();
  return out;
}

}  // namespace drw::core
