#include "service/batch_scheduler.hpp"

#include <algorithm>
#include <stdexcept>

#include "congest/mux.hpp"
#include "obs/trace.hpp"

namespace drw::service {

namespace {

/// True when dist(a, b) <= 2 * radius, i.e. the radius-`radius` balls
/// around the two connectors intersect. radius 0 degenerates to equality
/// (the exact rule: token pools are keyed by connector). The bounded BFS
/// costs O(ball size) -- cheap for the small radii this knob is meant for.
bool connectors_conflict(const Graph& g, NodeId a, NodeId b,
                         std::uint32_t radius,
                         std::vector<NodeId>& scratch) {
  if (a == b) return true;
  if (radius == 0) return false;
  const std::uint32_t limit = 2 * radius;
  // Bounded BFS from a; scratch holds the frontier/visited list.
  scratch.clear();
  scratch.push_back(a);
  std::size_t begin = 0;
  for (std::uint32_t depth = 0; depth < limit; ++depth) {
    const std::size_t end = scratch.size();
    for (std::size_t i = begin; i < end; ++i) {
      for (const NodeId u : g.neighbors(scratch[i])) {
        if (u == b) return true;
        if (std::find(scratch.begin(), scratch.end(), u) == scratch.end()) {
          scratch.push_back(u);
        }
      }
    }
    begin = end;
    if (begin == scratch.size()) break;
  }
  return false;
}

/// A lane's share of its wave, as a walk's stats record it: the rounds it
/// was active and the messages it delivered.
congest::RunStats lane_share(std::uint64_t rounds, std::uint64_t messages) {
  congest::RunStats stats;
  stats.rounds = rounds;
  stats.messages = messages;
  return stats;
}

/// Folds one lane's (or one mux run's) cost into its wave: the lanes share
/// rounds, so the wave lasts as long as its longest lane; messages, sends
/// and host time add up.
void add_to_wave(congest::RunStats& wave, const congest::RunStats& lane) {
  const std::uint64_t rounds = std::max(wave.rounds, lane.rounds);
  wave += lane;
  wave.rounds = rounds;
}

}  // namespace

std::vector<BatchScheduler::Unit> BatchScheduler::plan(
    std::span<const WalkRequest> requests, std::uint32_t first_walk_id) {
  std::vector<Unit> units;
  for (std::uint32_t r = 0; r < requests.size(); ++r) {
    for (std::uint32_t s = 0; s < requests[r].count; ++s) {
      units.push_back(Unit{r, s, 0, requests[r].source, requests[r].length,
                           requests[r].record_positions});
    }
  }
  std::stable_sort(units.begin(), units.end(),
                   [](const Unit& a, const Unit& b) {
                     return a.length > b.length;
                   });
  // Walk ids are assigned AFTER sorting so id - first_walk_id indexes the
  // execution order (used to map deferred-tail outcomes back to units).
  for (std::uint32_t i = 0; i < units.size(); ++i) {
    units[i].walk_id = first_walk_id + i;
  }
  return units;
}

void BatchScheduler::run_sequential(std::span<const Unit> units,
                                    Outcome& out) {
  // Stitch every unit, deferring all naive tails (whole-walk tails for
  // units with length < 2*lambda or a naive-mode engine).
  for (const Unit& u : units) {
    const core::WalkResult walk =
        engine_->walk_deferring_tail(u.source, u.length, u.walk_id, u.record);
    RequestResult& result = out.results[u.request_index];
    result.destinations[u.slot] = walk.destination;
    result.stats += walk.stats;
    result.counters += walk.counters;
    out.stats += walk.stats;
    out.counters += walk.counters;
  }
}

void BatchScheduler::run_multiplexed(std::span<const Unit> units,
                                     const MuxOptions& mux, Outcome& out) {
  congest::Network& net = engine_->network();
  const Graph& g = net.graph();
  const unsigned width =
      std::min<unsigned>(mux.width, congest::Network::kMaxLanes);

  struct OpenTask {
    core::StitchEngine::WalkTask task;
    const Unit* unit;
    /// Per-node lane streams for this walk (keyed by walk_id).
    std::vector<Rng> rngs;
  };
  std::vector<OpenTask> open;  // lane priority: oldest first
  open.reserve(width);
  std::size_t next_unit = 0;
  std::vector<NodeId> bfs_scratch;

  // Harvest finished tasks into the outcome and top the lanes back up
  // (tasks of walks shorter than 2*lambda finish at creation, so the two
  // steps iterate to a fixed point).
  const auto harvest_and_refill = [&] {
    for (;;) {
      bool progressed = false;
      for (std::size_t i = 0; i < open.size();) {
        if (!open[i].task.finished()) {
          ++i;
          continue;
        }
        const core::WalkResult& walk = open[i].task.result();
        const Unit& u = *open[i].unit;
        RequestResult& result = out.results[u.request_index];
        result.destinations[u.slot] = walk.destination;
        result.stats += walk.stats;
        result.counters += walk.counters;
        out.counters += walk.counters;
        // Phase-1 cost is attributed once (the first task absorbed the
        // engine's pending stats); the stitch traversals themselves are
        // charged per GROUP run below, which is where the round sharing
        // shows up at batch level.
        out.stats += walk.counters.phase1;
        open.erase(open.begin() + i);
        progressed = true;
      }
      while (open.size() < width && next_unit < units.size()) {
        const Unit& u = units[next_unit++];
        open.push_back(OpenTask{
            engine_->start_walk_task(u.source, u.length, u.walk_id, u.record),
            &u,
            congest::ProtocolMux::derive_lane_rngs(net.seed(), u.walk_id,
                                                   g.node_count())});
        progressed = true;
      }
      if (!progressed) return;
    }
  };

  harvest_and_refill();
  while (!open.empty()) {
    // Build this wave's group: a task joins unless its connector conflicts
    // with one already admitted (then it waits a wave -- the sequential
    // fallback). Tasks holding a sampled, uncommitted token are admitted
    // first: until their commit runs, that token still looks unused to any
    // other walk sampling at the same connector. The rest follow in lane
    // order. The first task considered always enters, so the schedule
    // cannot stall.
    std::vector<std::size_t> group;
    std::vector<NodeId> claimed;
    for (const bool committing : {true, false}) {
      for (std::size_t i = 0; i < open.size(); ++i) {
        if (open[i].task.holds_sample() != committing) continue;
        const NodeId c = open[i].task.connector();
        bool conflict = false;
        for (const NodeId other : claimed) {
          if (connectors_conflict(g, other, c, mux.conflict_radius,
                                  bfs_scratch)) {
            conflict = true;
            break;
          }
        }
        if (conflict) {
          ++out.mux_conflicts;
          continue;
        }
        claimed.push_back(c);
        group.push_back(i);
      }
    }
    std::sort(group.begin(), group.end());
    ++out.mux_groups;
    out.mux_lanes += group.size();
    obs::Span wave_span(obs::Name::kStitchWave, obs::kPidService, 0,
                        group.size());

    // Charged traversals (BFS flood, commit broadcast) are computed on the
    // host and keep their place in the wave as lanes of known cost; only
    // the simulated lanes run on the network.
    std::vector<congest::RunStats> lane_cost(group.size());
    std::vector<unsigned> simulated;  // positions in `group`
    congest::RunStats wave;
    for (unsigned k = 0; k < group.size(); ++k) {
      core::StitchEngine::WalkTask& task = open[group[k]].task;
      if (!task.charged()) {
        simulated.push_back(k);
        continue;
      }
      const congest::RunStats cost = task.charge();
      lane_cost[k] = lane_share(cost.rounds, cost.messages);
      if (mux.mode == MuxMode::kMux) {
        add_to_wave(wave, cost);
      } else {
        wave += cost;
      }
    }

    if (mux.mode == MuxMode::kMux) {
      if (!simulated.empty()) {
        congest::ProtocolMux pmux(g.node_count());
        for (const unsigned k : simulated) {
          pmux.add_lane(open[group[k]].task.protocol(), &open[group[k]].rngs);
        }
        // Lane occupancy spans: the simulated lanes share one Network run,
        // so each one's span brackets that run on its own lane track (arg
        // = walk id). Attribution WITHIN the run is the per-round
        // lane.round instants emitted by ProtocolMux.
        if (obs::trace_enabled()) {
          for (unsigned lane = 0; lane < simulated.size(); ++lane) {
            obs::event(obs::Name::kWalkLane, 'B', obs::kPidMux,
                       static_cast<std::uint16_t>(lane),
                       open[group[simulated[lane]]].unit->walk_id);
          }
        }
        add_to_wave(wave, net.run_multiplexed(
                              pmux, static_cast<unsigned>(simulated.size())));
        if (obs::trace_enabled()) {
          for (unsigned lane = 0; lane < simulated.size(); ++lane) {
            obs::event(obs::Name::kWalkLane, 'E', obs::kPidMux,
                       static_cast<std::uint16_t>(lane));
          }
        }
        for (unsigned lane = 0; lane < simulated.size(); ++lane) {
          const congest::ProtocolMux::LaneStats& ls = pmux.lane_stats(lane);
          lane_cost[simulated[lane]] = lane_share(ls.rounds, ls.messages);
        }
      }
    } else {
      // kSerial: the SAME schedule, each lane in its own (mux-of-1) run --
      // the baseline the lane-isolation tests compare kMux against.
      for (const unsigned k : simulated) {
        congest::ProtocolMux solo(g.node_count());
        solo.add_lane(open[group[k]].task.protocol(), &open[group[k]].rngs);
        obs::event(obs::Name::kWalkLane, 'B', obs::kPidMux, 0,
                   open[group[k]].unit->walk_id);
        wave += net.run_multiplexed(solo, 1);
        obs::event(obs::Name::kWalkLane, 'E', obs::kPidMux, 0);
        const congest::ProtocolMux::LaneStats& ls = solo.lane_stats(0);
        lane_cost[k] = lane_share(ls.rounds, ls.messages);
      }
    }
    engine_->absorb_stats(wave);
    out.stats += wave;
    for (unsigned k = 0; k < group.size(); ++k) {
      open[group[k]].task.advance(lane_cost[k]);
    }
    harvest_and_refill();
  }
}

BatchScheduler::Outcome BatchScheduler::run(
    std::span<const WalkRequest> requests, std::uint32_t first_walk_id,
    const MuxOptions& mux) {
  Outcome out;
  out.results.resize(requests.size());
  for (std::uint32_t r = 0; r < requests.size(); ++r) {
    out.results[r].request = requests[r];
    out.results[r].destinations.assign(requests[r].count, kInvalidNode);
  }

  std::vector<Unit> units = plan(requests, first_walk_id);
  out.walks = units.size();

  // A naive-mode engine already batches whole walks into the shared tail
  // run; there is nothing to multiplex.
  if (engine_->naive_mode() || mux.width <= 1) {
    run_sequential(units, out);
  } else {
    run_multiplexed(units, mux, out);
  }

  // One concurrent run finishes every deferred tail.
  const core::StitchEngine::TailOutcome tails = engine_->run_deferred_tails();
  out.tail_stats = tails.stats;
  out.stats += tails.stats;
  for (std::size_t t = 0; t < tails.walk_ids.size(); ++t) {
    const std::uint32_t index = tails.walk_ids[t] - first_walk_id;
    if (index >= units.size()) {
      throw std::logic_error("BatchScheduler: stray deferred tail");
    }
    const Unit& u = units[index];
    out.results[u.request_index].destinations[u.slot] = tails.destinations[t];
  }

  // Batched regeneration of stitched segments (width >= 2 defers it; the
  // sequential path regenerates inside each walk, leaving nothing
  // deferred).
  out.regen_stats = engine_->run_deferred_regen();
  out.stats += out.regen_stats;
  out.counters.regen += out.regen_stats;

  // Path extraction: drain the engine's position table and invert it into
  // per-unit node sequences for the units that asked.
  const bool any_record =
      std::any_of(units.begin(), units.end(),
                  [](const Unit& u) { return u.record; });
  if (any_record) {
    const core::PositionTable positions = engine_->drain_positions();
    std::vector<std::vector<NodeId>*> paths(units.size(), nullptr);
    for (const Unit& u : units) {
      if (!u.record) continue;
      RequestResult& result = out.results[u.request_index];
      if (result.paths.empty()) {
        result.paths.resize(result.request.count);
      }
      result.paths[u.slot].assign(u.length + 1, kInvalidNode);
      paths[u.walk_id - first_walk_id] = &result.paths[u.slot];
    }
    for (NodeId v = 0; v < positions.size(); ++v) {
      for (const core::WalkPosition& p : positions[v]) {
        const std::uint32_t index = p.walk - first_walk_id;
        if (index >= units.size() || paths[index] == nullptr) continue;
        if (p.step < paths[index]->size()) (*paths[index])[p.step] = v;
      }
    }
  }
  return out;
}

}  // namespace drw::service
