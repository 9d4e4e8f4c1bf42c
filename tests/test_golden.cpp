// Golden fingerprints of the token-walk protocols (tier-1).
//
// The determinism suites compare thread counts, partitions and mux widths
// against each other within one build, so a change that moves every
// configuration's draw order the same way passes them. This suite pins the
// absolute output instead: FNV-1a fingerprints of
//
//   * Phase 1 (ShortWalkPhaseProtocol): every holder's WalkStore::held list
//     (source, seq, length, arrival_slot, in order) and, for the simple
//     walk, the TrajectoryStore's forward records;
//   * NaiveSegmentProtocol: destinations and the PositionTable;
//   * MANY-RANDOM-WALKS through the StitchEngine (Phase 1, stitching,
//     deferred tails and, for the simple walk, regeneration) and its naive
//     fallback: destinations and positions;
//   * each run's RunStats{rounds, messages, max_backlog};
//   * the width-1 stitch entry points -- single_random_walk, a
//     continue_walk chain and a width-1 WalkService -- with their walk
//     counters (second test);
//   * a width-4 WalkService's batch accounting -- group rounds, summed
//     messages and the wave counters -- and its per-request results (third
//     test).
//
// Simple, lazy and Metropolis walks on a random regular graph, a cycle and
// a lollipop, at executor widths {1, 2, 8} x both shard partitions. Every
// configuration must reproduce the same constants.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "congest/network.hpp"
#include "core/params.hpp"
#include "core/protocols.hpp"
#include "core/random_walks.hpp"
#include "core/walk_state.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "service/walk_service.hpp"
#include "util/rng.hpp"

namespace drw {
namespace {

/// 64-bit FNV-1a over little-endian words.
class Fnv {
 public:
  void add(std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (word >> (8 * byte)) & 0xffu;
      hash_ *= 0x100000001b3ull;
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

void add_stats(Fnv& fnv, const congest::RunStats& stats) {
  fnv.add(stats.rounds);
  fnv.add(stats.messages);
  fnv.add(stats.max_backlog);
}

std::uint64_t fingerprint(const core::WalkStore& store) {
  Fnv fnv;
  for (const auto& held : store.held) {
    fnv.add(held.size());
    for (const core::HeldToken& t : held) {
      fnv.add(t.source);
      fnv.add(t.seq);
      fnv.add(t.length);
      fnv.add(t.arrival_slot);
    }
  }
  return fnv.value();
}

/// The Phase-1 forward records as logical per-node (key, hop, slot)
/// entries: each run is replayed from its source through Graph::neighbor,
/// and every node's entries are hashed grouped by key in ascending key
/// order, each key's hops in order. The pinned phase1_forward constants
/// fix this layout (per node: key count; per key: key, hop count, then
/// (hop, slot) pairs), so it must not change with the storage format.
std::uint64_t fingerprint(const Graph& g,
                          const core::TrajectoryStore& trajectories) {
  struct Entry {
    std::uint64_t key;
    std::uint32_t hop;
    std::uint32_t slot;
  };
  std::vector<std::vector<Entry>> at(g.node_count());
  for (std::uint32_t j = 0; j < trajectories.runs(); ++j) {
    NodeId v = trajectories.run_source(j);
    for (std::uint32_t hop = 0; hop < trajectories.run_length(j); ++hop) {
      const std::uint32_t slot = trajectories.exit_slot(j, hop);
      at[v].push_back({trajectories.run_key[j], hop, slot});
      v = g.neighbor(v, slot);
    }
  }
  Fnv fnv;
  for (std::vector<Entry>& entries : at) {
    std::stable_sort(entries.begin(), entries.end(),
                     [](const Entry& a, const Entry& b) {
                       return a.key < b.key;
                     });
    std::uint64_t keys = 0;
    for (std::size_t i = 0; i < entries.size(); ++i) {
      keys += i == 0 || entries[i].key != entries[i - 1].key ? 1 : 0;
    }
    fnv.add(keys);
    for (std::size_t i = 0; i < entries.size();) {
      std::size_t end = i;
      while (end < entries.size() && entries[end].key == entries[i].key) {
        ++end;
      }
      fnv.add(entries[i].key);
      fnv.add(end - i);
      for (; i < end; ++i) {
        fnv.add(entries[i].hop);
        fnv.add(entries[i].slot);
      }
    }
  }
  return fnv.value();
}

std::uint64_t fingerprint(const core::PositionTable& positions) {
  Fnv fnv;
  for (const auto& at : positions) {
    fnv.add(at.size());
    for (const core::WalkPosition& p : at) {
      fnv.add(p.walk);
      fnv.add(p.step);
    }
  }
  return fnv.value();
}

std::uint64_t fingerprint(const std::vector<NodeId>& nodes) {
  Fnv fnv;
  fnv.add(nodes.size());
  for (const NodeId v : nodes) fnv.add(v);
  return fnv.value();
}

struct Fingerprints {
  std::uint64_t phase1_held = 0;
  std::uint64_t phase1_forward = 0;
  std::uint64_t phase1_stats = 0;
  std::uint64_t naive_destinations = 0;
  std::uint64_t naive_positions = 0;
  std::uint64_t naive_stats = 0;
  std::uint64_t many_destinations = 0;
  std::uint64_t many_positions = 0;
  std::uint64_t many_stats = 0;
  std::uint64_t fallback_destinations = 0;
  std::uint64_t fallback_stats = 0;

  bool operator==(const Fingerprints&) const = default;
};

std::string describe(const Fingerprints& f) {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "{0x%016llxull, 0x%016llxull, 0x%016llxull, 0x%016llxull, "
                "0x%016llxull, 0x%016llxull, 0x%016llxull, 0x%016llxull, "
                "0x%016llxull, 0x%016llxull, 0x%016llxull}",
                static_cast<unsigned long long>(f.phase1_held),
                static_cast<unsigned long long>(f.phase1_forward),
                static_cast<unsigned long long>(f.phase1_stats),
                static_cast<unsigned long long>(f.naive_destinations),
                static_cast<unsigned long long>(f.naive_positions),
                static_cast<unsigned long long>(f.naive_stats),
                static_cast<unsigned long long>(f.many_destinations),
                static_cast<unsigned long long>(f.many_positions),
                static_cast<unsigned long long>(f.many_stats),
                static_cast<unsigned long long>(f.fallback_destinations),
                static_cast<unsigned long long>(f.fallback_stats));
  return buf;
}

enum class Topology { kRegular, kCycle, kLollipop };

Graph make_graph(Topology topology) {
  switch (topology) {
    case Topology::kRegular: {
      Rng rng(4242);
      return gen::random_regular(48, 4, rng);
    }
    case Topology::kCycle:
      return gen::cycle(21);
    case Topology::kLollipop:
      return gen::lollipop(9, 12);
  }
  return Graph();
}

/// Runs every fingerprinted workload on one freshly built network.
Fingerprints run_all(const Graph& g, TransitionModel model, unsigned threads,
                     congest::Partition partition) {
  const auto configure = [&](congest::Network& net) {
    net.set_threads(threads);
    net.set_partition(partition);
  };
  const std::size_t n = g.node_count();
  Fingerprints out;

  // Phase 1: 2 * deg(v) short walks per node with lengths in [5, 10), plus
  // a zero-length walk at node 0, so edge backlogs build up.
  {
    congest::Network net(g, 9001);
    configure(net);
    Rng lengths(17);
    std::vector<core::ShortWalkPhaseProtocol::Job> jobs;
    jobs.push_back({0, 0, 0});
    for (NodeId v = 0; v < n; ++v) {
      const std::uint32_t count = 2 * g.degree(v);
      for (std::uint32_t i = 0; i < count; ++i) {
        jobs.push_back({v, i + (v == 0 ? 1u : 0u),
                        5 + static_cast<std::uint32_t>(lengths.next_below(5))});
      }
    }
    core::WalkStore store(n);
    core::TrajectoryStore trajectories(n);
    const bool record = model == TransitionModel::kSimple;
    core::ShortWalkPhaseProtocol phase1(g, std::move(jobs), store,
                                        record ? &trajectories : nullptr,
                                        model);
    Fnv stats;
    add_stats(stats, net.run(phase1));
    out.phase1_held = fingerprint(store);
    out.phase1_forward = fingerprint(g, trajectories);
    out.phase1_stats = stats.value();
  }

  // Naive segments: overlapping starts, zero-length jobs, offsets and the
  // per-job record / record_start switches.
  {
    congest::Network net(g, 9002);
    configure(net);
    std::vector<core::NaiveSegmentProtocol::Job> jobs;
    for (std::uint32_t i = 0; i < 2 * n; ++i) {
      core::NaiveSegmentProtocol::Job job;
      job.start = static_cast<NodeId>((i * 5) % n);
      job.steps = i % 11 == 3 ? 0 : 4 + (i * 7) % 19;
      job.walk_id = i;
      job.base_step = 3 * i;
      job.record_start = i % 3 != 0;
      job.record = i % 4 != 1;
      jobs.push_back(job);
    }
    core::PositionTable positions(n);
    core::NaiveSegmentProtocol naive(g, std::move(jobs), &positions, model);
    Fnv stats;
    add_stats(stats, net.run(naive));
    out.naive_destinations = fingerprint(naive.destinations());
    out.naive_positions = fingerprint(positions);
    out.naive_stats = stats.value();
  }

  const std::uint32_t diameter = exact_diameter(g);
  std::vector<NodeId> sources;
  for (NodeId v = 0; v < 7; ++v) sources.push_back((v * 3) % n);

  // MANY-RANDOM-WALKS: Phase 1, stitching and deferred naive tails (and
  // regeneration where recording is supported).
  {
    congest::Network net(g, 9003);
    configure(net);
    core::Params params = core::Params::paper();
    params.lambda_override = 4;
    params.transition = model;
    params.record_trajectories = model == TransitionModel::kSimple;
    const core::ManyWalksOutput many =
        core::many_random_walks(net, sources, 37, params, diameter);
    EXPECT_FALSE(many.used_naive_fallback);
    Fnv stats;
    add_stats(stats, many.stats);
    out.many_destinations = fingerprint(many.destinations);
    out.many_positions = fingerprint(many.positions);
    out.many_stats = stats.value();
  }

  // The naive fallback (lambda > l): all walks as one token run.
  {
    congest::Network net(g, 9004);
    configure(net);
    core::Params params = core::Params::paper();
    params.lambda_override = 64;
    params.transition = model;
    const core::ManyWalksOutput many =
        core::many_random_walks(net, sources, 29, params, diameter);
    EXPECT_TRUE(many.used_naive_fallback);
    Fnv stats;
    add_stats(stats, many.stats);
    out.fallback_destinations = fingerprint(many.destinations);
    out.fallback_stats = stats.value();
  }
  return out;
}

struct GoldenCase {
  Topology topology;
  TransitionModel model;
  const char* name;
  Fingerprints expected;
};

// Captured from the generic per-node on_round implementation that
// preceded the token-walk kernel.
const GoldenCase kGolden[] = {
    {Topology::kRegular, TransitionModel::kSimple, "regular/simple",
     {0x5800a2259ab1253aull, 0x00394f12678e80deull, 0x6e17d699ddf6cf9bull,
      0x54fef31ece8729cfull, 0x9328b80fc0ffb285ull, 0x5fc71c1be78e27abull,
      0x741e54458bf09d77ull, 0x946ebfad78b62bb4ull, 0x6365c8ddf654c4f4ull,
      0x6af5c470f1552386ull, 0xedbff76dc606c092ull}},
    {Topology::kRegular, TransitionModel::kLazy, "regular/lazy",
     {0x6717d95ab65b9c2full, 0xc86ec345c0ee8125ull, 0x947447076a4260c4ull,
      0xc72194ea0f0ce551ull, 0x28c5249e6b5d864dull, 0xb587c79b1445ff5full,
      0x10f51a81106a009aull, 0xcbf29ce484222325ull, 0x12b7525de8c83854ull,
      0xa9fce80fe16489cfull, 0x137c58825ef3c37bull}},
    {Topology::kRegular, TransitionModel::kMetropolisUniform,
     "regular/metropolis",
     {0x5800a2259ab1253aull, 0xc86ec345c0ee8125ull, 0x6e17d699ddf6cf9bull,
      0x54fef31ece8729cfull, 0x9328b80fc0ffb285ull, 0x5fc71c1be78e27abull,
      0x741e54458bf09d77ull, 0xcbf29ce484222325ull, 0x682e09a913079f21ull,
      0x6af5c470f1552386ull, 0xedbff76dc606c092ull}},
    {Topology::kCycle, TransitionModel::kSimple, "cycle/simple",
     {0xf924477cb4209f45ull, 0x55954e33248b850cull, 0x587edf9de0531dcfull,
      0x666683ec13048ed1ull, 0x92c5f9680cd4b860ull, 0x5f190a417df724edull,
      0x456ba852ce8b955aull, 0xeb3a63d46287a456ull, 0x894a322c364c1e62ull,
      0x0c78ba2a75adc479ull, 0xe41f5dcbb9532733ull}},
    {Topology::kCycle, TransitionModel::kLazy, "cycle/lazy",
     {0x4bce607fff8c752dull, 0x35da762063936645ull, 0x8c201f8c86ca0082ull,
      0xd57d1b23d0949216ull, 0xb2cfcdb5bbca804eull, 0x88492b8c396f3323ull,
      0xa2b886a891312b29ull, 0xcbf29ce484222325ull, 0x14cbb5cf2693f62dull,
      0xff0f246ba4954b76ull, 0x52e393c2feab880cull}},
    {Topology::kCycle, TransitionModel::kMetropolisUniform,
     "cycle/metropolis",
     {0xf924477cb4209f45ull, 0x35da762063936645ull, 0x587edf9de0531dcfull,
      0x666683ec13048ed1ull, 0x92c5f9680cd4b860ull, 0x5f190a417df724edull,
      0x456ba852ce8b955aull, 0xcbf29ce484222325ull, 0x3dbb7d0bd67ecb15ull,
      0x0c78ba2a75adc479ull, 0xe41f5dcbb9532733ull}},
    {Topology::kLollipop, TransitionModel::kSimple, "lollipop/simple",
     {0x7b1cc18265fd5682ull, 0xd5d3f068652c34efull, 0xbfa13370b7a64d12ull,
      0xd315efc835a06835ull, 0xf18f6bf5038377b8ull, 0x1228e0509401a0a7ull,
      0xe34968731337ef3bull, 0x8c11cd5a7a1a14beull, 0x6d794132482b502full,
      0xfbced6eeb552e20cull, 0x7650dc5123980cacull}},
    {Topology::kLollipop, TransitionModel::kLazy, "lollipop/lazy",
     {0x0a59c9d44a5df4beull, 0x35da762063936645ull, 0x39a6c0d6abc7a507ull,
      0x063edd04b2640e90ull, 0xa2517bf3795238daull, 0x164f2372f1cc92e6ull,
      0xa18c31d2eb937e90ull, 0xcbf29ce484222325ull, 0x743050872122d022ull,
      0x3f6702f6809bdf7aull, 0x7fd09a1f1753984full}},
    {Topology::kLollipop, TransitionModel::kMetropolisUniform,
     "lollipop/metropolis",
     {0x897d5c9e02ce9ca2ull, 0x35da762063936645ull, 0xdc9cc1309fd075c5ull,
      0x6df5aab993bef26cull, 0x33c5a45441b19db8ull, 0x93e07e8484c3c051ull,
      0xf5303ff3dda702bbull, 0xcbf29ce484222325ull, 0x1c8292608718ccb8ull,
      0xfdee0cd93579430bull, 0x6b1b5cd085a839fcull}},
};

TEST(Golden, TokenWalkOutputsMatchPinnedFingerprints) {
  const unsigned kThreads[] = {1, 2, 8};
  const congest::Partition kPartitions[] = {congest::Partition::kEdgeWeighted,
                                            congest::Partition::kNodeCount};
  for (const GoldenCase& c : kGolden) {
    const Graph g = make_graph(c.topology);
    for (const unsigned threads : kThreads) {
      for (const congest::Partition partition : kPartitions) {
        const Fingerprints got = run_all(g, c.model, threads, partition);
        EXPECT_TRUE(got == c.expected)
            << c.name << " threads=" << threads << " partition="
            << (partition == congest::Partition::kNodeCount ? "nodes"
                                                             : "edges")
            << "\n  got " << describe(got);
      }
    }
  }
}

// ------------------------------------------------- width-1 stitch entry points
//
// The StitchEngine entry points that stitch one walk at a time on the
// network's own node streams: single_random_walk (non-deferred tail plus
// per-walk regeneration), a continue_walk chain (start_step > 0) and a
// width-1 WalkService serving two batches that mix record_positions on
// and off. Each stats fingerprint also folds in the walk counters, so the
// GET-MORE-WALKS / SAMPLE-DESTINATION bookkeeping is pinned too.

void add_counters(Fnv& fnv, const core::WalkCounters& c) {
  fnv.add(c.lambda);
  fnv.add(c.walks_prepared);
  fnv.add(c.stitches);
  fnv.add(c.sample_calls);
  fnv.add(c.get_more_walks_calls);
  fnv.add(c.naive_tail_steps);
  add_stats(fnv, c.phase1);
  add_stats(fnv, c.phase2);
  add_stats(fnv, c.regen);
}

struct StitchFingerprints {
  std::uint64_t single_destination = 0;
  std::uint64_t single_positions = 0;
  std::uint64_t single_stats = 0;
  std::uint64_t chain_destinations = 0;
  std::uint64_t chain_positions = 0;
  std::uint64_t chain_stats = 0;
  std::uint64_t service_destinations = 0;
  std::uint64_t service_paths = 0;
  std::uint64_t service_stats = 0;
  /// Not pinned: whether any workload fell back on GET-MORE-WALKS.
  std::uint64_t get_more_walks_calls = 0;

  bool operator==(const StitchFingerprints& o) const {
    return single_destination == o.single_destination &&
           single_positions == o.single_positions &&
           single_stats == o.single_stats &&
           chain_destinations == o.chain_destinations &&
           chain_positions == o.chain_positions &&
           chain_stats == o.chain_stats &&
           service_destinations == o.service_destinations &&
           service_paths == o.service_paths &&
           service_stats == o.service_stats;
  }
};

std::string describe(const StitchFingerprints& f) {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "{0x%016llxull, 0x%016llxull, 0x%016llxull, 0x%016llxull, "
                "0x%016llxull, 0x%016llxull, 0x%016llxull, 0x%016llxull, "
                "0x%016llxull}",
                static_cast<unsigned long long>(f.single_destination),
                static_cast<unsigned long long>(f.single_positions),
                static_cast<unsigned long long>(f.single_stats),
                static_cast<unsigned long long>(f.chain_destinations),
                static_cast<unsigned long long>(f.chain_positions),
                static_cast<unsigned long long>(f.chain_stats),
                static_cast<unsigned long long>(f.service_destinations),
                static_cast<unsigned long long>(f.service_paths),
                static_cast<unsigned long long>(f.service_stats));
  return buf;
}

StitchFingerprints run_stitch(const Graph& g, TransitionModel model,
                              unsigned threads,
                              congest::Partition partition) {
  const auto configure = [&](congest::Network& net) {
    net.set_threads(threads);
    net.set_partition(partition);
  };
  const std::uint32_t diameter = exact_diameter(g);
  const bool record = model == TransitionModel::kSimple;
  // Short lambda and half a short walk per edge endpoint: the walks below
  // revisit connectors often enough to drain their pools.
  core::Params params = core::Params::paper();
  params.lambda_override = 4;
  params.eta = 0.5;
  params.transition = model;
  params.record_trajectories = record;
  StitchFingerprints out;

  // single_random_walk: Phase 1, stitching, the non-deferred naive tail
  // and (simple walk) per-walk regeneration.
  {
    congest::Network net(g, 9101);
    configure(net);
    const core::SingleWalkOutput single =
        core::single_random_walk(net, 2, 150, params, diameter);
    Fnv destination;
    destination.add(single.result.destination);
    Fnv stats;
    add_stats(stats, single.result.stats);
    add_counters(stats, single.result.counters);
    out.single_destination = destination.value();
    out.single_positions = fingerprint(single.positions);
    out.single_stats = stats.value();
    out.get_more_walks_calls += single.result.counters.get_more_walks_calls;
  }

  // A continue_walk chain: one logical walk extended twice, each leg
  // starting at the previous destination with start_step > 0.
  {
    congest::Network net(g, 9102);
    configure(net);
    core::StitchEngine engine(net, params, diameter);
    engine.prepare(1, 80);
    std::vector<NodeId> destinations;
    Fnv stats;
    core::WalkResult leg = engine.walk(1, 50, 5);
    destinations.push_back(leg.destination);
    add_stats(stats, leg.stats);
    add_counters(stats, leg.counters);
    std::uint64_t step = 50;
    for (const std::uint64_t l : {80u, 33u}) {
      leg = engine.continue_walk(leg.destination, l, 5, step);
      step += l;
      destinations.push_back(leg.destination);
      add_stats(stats, leg.stats);
      add_counters(stats, leg.counters);
      out.get_more_walks_calls += leg.counters.get_more_walks_calls;
    }
    add_stats(stats, engine.total_stats());
    out.chain_destinations = fingerprint(destinations);
    out.chain_positions = fingerprint(engine.positions());
    out.chain_stats = stats.value();
  }

  // A width-1 WalkService: two batches (Phase 1, then inventory reuse with
  // replenishment) mixing recorded and unrecorded requests, walks too
  // short to stitch and a zero-length walk.
  {
    congest::Network net(g, 9103);
    configure(net);
    service::ServiceConfig config;
    config.params = params;
    config.enable_paths = record;
    config.mux_width = 1;
    service::WalkService svc(net, diameter, config);
    const std::size_t n = g.node_count();
    Fnv destinations;
    Fnv paths;
    Fnv stats;
    for (std::uint32_t batch = 0; batch < 2; ++batch) {
      const auto at = [&](std::uint32_t i) {
        return static_cast<NodeId>((i * 7 + batch * 3) % n);
      };
      const std::vector<service::WalkRequest> requests = {
          {at(0), 90, 2, record},
          {at(1), 64, 1, false},
          {at(2), 70, 1, record},
          {at(3), 5, 2, record},
          {at(4), 0, 1, record},
      };
      const service::BatchReport report = svc.serve(requests);
      for (const service::RequestResult& r : report.results) {
        EXPECT_TRUE(r.ok());
        destinations.add(fingerprint(r.destinations));
        paths.add(r.paths.size());
        for (const std::vector<NodeId>& path : r.paths) {
          paths.add(fingerprint(path));
        }
        add_stats(stats, r.stats);
        add_counters(stats, r.counters);
        out.get_more_walks_calls += r.counters.get_more_walks_calls;
      }
      add_stats(stats, report.stats);
      stats.add(report.stitches);
      stats.add(report.replenishments);
    }
    out.service_destinations = destinations.value();
    out.service_paths = paths.value();
    out.service_stats = stats.value();
  }
  return out;
}

struct StitchGoldenCase {
  Topology topology;
  TransitionModel model;
  const char* name;
  StitchFingerprints expected;
};

// Captured from the inline Phase-2 stitch loop that StitchEngine::walk_impl
// ran before width-1 walks were driven by the WalkTask state machine.
const StitchGoldenCase kStitchGolden[] = {
    {Topology::kRegular, TransitionModel::kSimple, "regular/simple",
     {0xe869de19d5203fc6ull, 0xa8e6da2357dce931ull, 0xb0a367bc9e356c82ull,
      0xe49d11fe96e10a68ull, 0x092dfde41ef68583ull, 0x47f734259f2cd1c5ull,
      0x68807822f2d2619dull, 0xe626f76bb4132247ull, 0x1435421c494bf3c9ull}},
    {Topology::kRegular, TransitionModel::kLazy, "regular/lazy",
     {0xf564bdddf7dcba38ull, 0xcbf29ce484222325ull, 0x1373d9aece53dca0ull,
      0x57a1ff49148b904cull, 0xcbf29ce484222325ull, 0xab1a1de92a8826b2ull,
      0x525c1cca6d776ce0ull, 0xf14b84b8290b8965ull, 0x76d66dbdbc31017dull}},
    {Topology::kCycle, TransitionModel::kSimple, "cycle/simple",
     {0x0de21504f16dc720ull, 0x5e33e3029aab10bdull, 0x4e045a1616a7c537ull,
      0xd45969620363c1d9ull, 0x02bbbcdfa2d14325ull, 0xe33b4661ef4c3f72ull,
      0xe33d8f84cc6d3a87ull, 0xfedc0252060bb459ull, 0xf8e14e163f7fcf4eull}},
    {Topology::kCycle, TransitionModel::kLazy, "cycle/lazy",
     {0x1c894c9eab51b351ull, 0xcbf29ce484222325ull, 0x8cc889ce2e238551ull,
      0x1ace682fe3551b70ull, 0xcbf29ce484222325ull, 0xb61f002d886bce89ull,
      0x5a5b6f118263500dull, 0xf14b84b8290b8965ull, 0x98d6c8c4b35dde3eull}},
    {Topology::kLollipop, TransitionModel::kSimple, "lollipop/simple",
     {0x2cdcdc0dfc5d1141ull, 0x47d0c507a90365f3ull, 0x37479c76a40759f8ull,
      0x2dacefb74d4adb49ull, 0x6427c3b1aa5bde9bull, 0x69b89868d6a7eb83ull,
      0x46b6af52ada83522ull, 0xa75d7cab21f5e2d5ull, 0x15cd9722b3486216ull}},
    {Topology::kLollipop, TransitionModel::kMetropolisUniform,
     "lollipop/metropolis",
     {0x62a8a26869b5f68bull, 0xcbf29ce484222325ull, 0x36b81a257ce8b6d9ull,
      0xf70820c70abf0de3ull, 0xcbf29ce484222325ull, 0x99c6dffb1329ecabull,
      0x1e43c33f34d4df1aull, 0xf14b84b8290b8965ull, 0x27ba526f857209f9ull}},
};

TEST(Golden, WidthOneStitchEntryPointsMatchPinnedFingerprints) {
  const unsigned kThreads[] = {1, 2, 8};
  const congest::Partition kPartitions[] = {congest::Partition::kEdgeWeighted,
                                            congest::Partition::kNodeCount};
  std::uint64_t get_more_walks_calls = 0;
  for (const StitchGoldenCase& c : kStitchGolden) {
    const Graph g = make_graph(c.topology);
    for (const unsigned threads : kThreads) {
      for (const congest::Partition partition : kPartitions) {
        const StitchFingerprints got =
            run_stitch(g, c.model, threads, partition);
        get_more_walks_calls += got.get_more_walks_calls;
        EXPECT_TRUE(got == c.expected)
            << c.name << " threads=" << threads << " partition="
            << (partition == congest::Partition::kNodeCount ? "nodes"
                                                             : "edges")
            << "\n  got " << describe(got);
      }
    }
  }
  EXPECT_GT(get_more_walks_calls, 0u)
      << "the workloads must exercise GET-MORE-WALKS";
}

// ------------------------------------------- width-4 multiplexed batch costs
//
// A WalkService at mux_width 4: stitch traversals of up to four walks share
// each wave's rounds, so the batch's cost is the per-wave group cost (rounds
// the max over its lanes, messages summed), not the sum of the walks' own.
// test_mux compares the multiplexed schedule against the same schedule run
// lane by lane, which move together; this pins the absolute batch
// accounting -- BatchReport.stats (with token_sends), stitches and the
// wave counters -- plus every request's destinations, paths, stats and
// counters.

struct MuxFingerprints {
  std::uint64_t destinations = 0;
  std::uint64_t requests = 0;
  std::uint64_t batches = 0;
  /// Not pinned: workload coverage checks.
  std::uint64_t get_more_walks_calls = 0;
  std::uint64_t mux_conflicts = 0;

  bool operator==(const MuxFingerprints& o) const {
    return destinations == o.destinations && requests == o.requests &&
           batches == o.batches;
  }
};

std::string describe(const MuxFingerprints& f) {
  char buf[128];
  std::snprintf(buf, sizeof buf, "{0x%016llxull, 0x%016llxull, 0x%016llxull}",
                static_cast<unsigned long long>(f.destinations),
                static_cast<unsigned long long>(f.requests),
                static_cast<unsigned long long>(f.batches));
  return buf;
}

MuxFingerprints run_mux_service(const Graph& g, TransitionModel model,
                                unsigned threads,
                                congest::Partition partition) {
  const std::uint32_t diameter = exact_diameter(g);
  const bool record = model == TransitionModel::kSimple;
  core::Params params = core::Params::paper();
  params.lambda_override = 4;
  params.eta = 0.5;
  params.transition = model;
  params.record_trajectories = record;

  congest::Network net(g, 9104);
  net.set_threads(threads);
  net.set_partition(partition);
  service::ServiceConfig config;
  config.params = params;
  config.enable_paths = record;
  config.mux_width = 4;
  service::WalkService svc(net, diameter, config);
  const std::size_t n = g.node_count();
  MuxFingerprints out;
  Fnv destinations;
  Fnv requests;
  Fnv batches;
  for (std::uint32_t batch = 0; batch < 2; ++batch) {
    const auto at = [&](std::uint32_t i) {
      return static_cast<NodeId>((i * 5 + batch * 2) % n);
    };
    // Repeated sources make co-scheduled walks share connectors, so the
    // conflict rule serializes some traversals.
    const std::vector<service::WalkRequest> batch_requests = {
        {at(0), 90, 3, record},
        {at(1), 64, 2, false},
        {at(0), 77, 2, record},
        {at(2), 70, 1, record},
        {at(3), 5, 2, record},
        {at(4), 0, 1, false},
    };
    const service::BatchReport report = svc.serve(batch_requests);
    for (const service::RequestResult& r : report.results) {
      EXPECT_TRUE(r.ok());
      destinations.add(fingerprint(r.destinations));
      destinations.add(r.paths.size());
      for (const std::vector<NodeId>& path : r.paths) {
        destinations.add(fingerprint(path));
      }
      add_stats(requests, r.stats);
      add_counters(requests, r.counters);
      out.get_more_walks_calls += r.counters.get_more_walks_calls;
    }
    add_stats(batches, report.stats);
    batches.add(report.stats.token_sends);
    batches.add(report.stitches);
    batches.add(report.mux_groups);
    batches.add(report.mux_lanes);
    batches.add(report.mux_conflicts);
    out.mux_conflicts += report.mux_conflicts;
  }
  out.destinations = destinations.value();
  out.requests = requests.value();
  out.batches = batches.value();
  return out;
}

struct MuxGoldenCase {
  Topology topology;
  TransitionModel model;
  const char* name;
  MuxFingerprints expected;
};

// Captured while every stitch traversal, the BFS flood and the commit
// broadcast included, was simulated as a lane of the wave's mux run.
const MuxGoldenCase kMuxGolden[] = {
    {Topology::kRegular, TransitionModel::kSimple, "regular/simple",
     {0x4f23a52137cd6f2eull, 0xb1efd4e095368b9full, 0xee6e8acad3f3f11eull}},
    {Topology::kRegular, TransitionModel::kLazy, "regular/lazy",
     {0xfec8a359480864d5ull, 0x3ec1dccb9ab04606ull, 0x7db91a33a228424aull}},
    {Topology::kCycle, TransitionModel::kSimple, "cycle/simple",
     {0xcf388aa900a442f2ull, 0x76fe8a05e9e80e1eull, 0x56b2d09ea3063645ull}},
    {Topology::kCycle, TransitionModel::kLazy, "cycle/lazy",
     {0xc98cbec67b135e94ull, 0xf97c90539ef17b18ull, 0xd709b93073086c3cull}},
    {Topology::kLollipop, TransitionModel::kSimple, "lollipop/simple",
     {0xf3bc1bc96b3f452full, 0x545c35195baa2b57ull, 0x0f8bf6fb3c505770ull}},
    {Topology::kLollipop, TransitionModel::kMetropolisUniform,
     "lollipop/metropolis",
     {0x40e7656653c948dcull, 0xe2ab5b9fc4673ce8ull, 0xe2ad3ec2b078e5d2ull}},
};

TEST(Golden, WidthFourServiceBatchAccountingMatchesPinnedFingerprints) {
  const unsigned kThreads[] = {1, 2, 8};
  const congest::Partition kPartitions[] = {congest::Partition::kEdgeWeighted,
                                            congest::Partition::kNodeCount};
  std::uint64_t get_more_walks_calls = 0;
  std::uint64_t mux_conflicts = 0;
  for (const MuxGoldenCase& c : kMuxGolden) {
    const Graph g = make_graph(c.topology);
    for (const unsigned threads : kThreads) {
      for (const congest::Partition partition : kPartitions) {
        const MuxFingerprints got =
            run_mux_service(g, c.model, threads, partition);
        get_more_walks_calls += got.get_more_walks_calls;
        mux_conflicts += got.mux_conflicts;
        EXPECT_TRUE(got == c.expected)
            << c.name << " threads=" << threads << " partition="
            << (partition == congest::Partition::kNodeCount ? "nodes"
                                                             : "edges")
            << "\n  got " << describe(got);
      }
    }
  }
  EXPECT_GT(get_more_walks_calls, 0u)
      << "the workloads must exercise GET-MORE-WALKS";
  EXPECT_GT(mux_conflicts, 0u) << "the workloads must exercise conflicts";
}

}  // namespace
}  // namespace drw
