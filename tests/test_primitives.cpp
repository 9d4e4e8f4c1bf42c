#include "congest/primitives.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <stdexcept>
#include <string>

#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "graph/markov.hpp"
#include "util/stats.hpp"

namespace drw::congest {
namespace {

TEST(BfsTreeProtocol, DepthsMatchBfsDistances) {
  Rng rng(3);
  const Graph g = gen::erdos_renyi_connected(50, 0.08, rng);
  Network net(g, 7);
  RunStats stats;
  const BfsTree tree = build_bfs_tree(net, 5, stats);
  const auto dist = bfs_distances(g, 5);
  EXPECT_EQ(tree.root, 5u);
  EXPECT_EQ(tree.parent[5], 5u);
  for (NodeId v = 0; v < g.node_count(); ++v) {
    EXPECT_EQ(tree.depth[v], dist[v]) << "node " << v;
    if (v != 5) {
      EXPECT_TRUE(g.has_edge(v, tree.parent[v]));
      EXPECT_EQ(tree.depth[v], tree.depth[tree.parent[v]] + 1);
    }
  }
  EXPECT_EQ(tree.height, eccentricity(g, 5));
  // BFS flooding takes ~height rounds (+1 for the join notifications).
  EXPECT_GE(stats.rounds, tree.height);
  EXPECT_LE(stats.rounds, static_cast<std::uint64_t>(tree.height) + 2);
}

TEST(BfsTreeProtocol, ChildrenAreConsistent) {
  const Graph g = gen::grid(5, 5);
  Network net(g, 9);
  RunStats stats;
  const BfsTree tree = build_bfs_tree(net, 0, stats);
  std::size_t child_links = 0;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    for (NodeId c : tree.children(v)) {
      EXPECT_EQ(tree.parent[c], v);
      ++child_links;
    }
  }
  EXPECT_EQ(child_links, g.node_count() - 1);
}

TEST(BroadcastProtocol, ReachesEveryNodeInHeightRounds) {
  const Graph g = gen::binary_tree(31);
  Network net(g, 11);
  RunStats stats;
  const BfsTree tree = build_bfs_tree(net, 0, stats);
  std::vector<int> received(g.node_count(), 0);
  BroadcastProtocol broadcast(
      tree, Message{0, {42, 0, 0, 0}},
      [&](NodeId v, const Message& m) {
        EXPECT_EQ(m.f[0], 42u);
        ++received[v];
      });
  const RunStats bstats = net.run(broadcast);
  for (NodeId v = 0; v < g.node_count(); ++v) EXPECT_EQ(received[v], 1);
  EXPECT_EQ(bstats.rounds, tree.height);  // one round per tree level
  EXPECT_EQ(bstats.messages, g.node_count() - 1);
}

// ------------------------------------------------------ charged tree sweeps
//
// charged_bfs_tree / charged_broadcast replace simulated runs of
// BfsTreeProtocol / BroadcastProtocol everywhere outside these tests, so
// their trees, callbacks and costs must equal the protocols' exactly, from
// every root and at executor widths 1 and 8.

struct SweepGraph {
  const char* name;
  Graph graph;
};

std::vector<SweepGraph> sweep_graphs() {
  Rng rng(2718);
  std::vector<SweepGraph> graphs;
  graphs.push_back({"random_regular(30,4)", gen::random_regular(30, 4, rng)});
  graphs.push_back({"cycle(9)", gen::cycle(9)});
  graphs.push_back({"cycle(10)", gen::cycle(10)});
  graphs.push_back({"path(7)", gen::path(7)});
  graphs.push_back({"star(9)", gen::star(9)});
  graphs.push_back({"lollipop(6,5)", gen::lollipop(6, 5)});
  graphs.push_back({"grid(4,5)", gen::grid(4, 5)});
  graphs.push_back({"complete(8)", gen::complete(8)});
  graphs.push_back({"path(1)", gen::path(1)});
  graphs.push_back({"path(2)", gen::path(2)});
  return graphs;
}

void expect_same_cost(const RunStats& charged, const RunStats& simulated,
                      const std::string& where) {
  EXPECT_EQ(charged.rounds, simulated.rounds) << where;
  EXPECT_EQ(charged.messages, simulated.messages) << where;
  EXPECT_EQ(charged.token_sends, simulated.token_sends) << where;
  EXPECT_EQ(charged.max_backlog, simulated.max_backlog) << where;
}

TEST(ChargedSweeps, BfsTreeEqualsTheProtocolFromEveryRoot) {
  for (const SweepGraph& sg : sweep_graphs()) {
    const Graph& g = sg.graph;
    BfsTree charged;  // reused across roots, as a walk reuses its tree
    for (NodeId root = 0; root < g.node_count(); ++root) {
      const RunStats cost = charged_bfs_tree(g, root, charged);
      EXPECT_EQ(cost.compute_ms + cost.transmit_ms + cost.merge_ms, 0.0);
      EXPECT_GE(cost.wall_ms, 0.0);
      for (const unsigned threads : {1u, 8u}) {
        const std::string where = std::string(sg.name) + " root=" +
                                  std::to_string(root) +
                                  " threads=" + std::to_string(threads);
        Network net(g, 41);
        net.set_threads(threads);
        BfsTreeProtocol protocol(g, root);
        const RunStats simulated = net.run(protocol);
        const BfsTree tree = protocol.take_tree();
        EXPECT_EQ(charged.root, tree.root) << where;
        EXPECT_EQ(charged.parent, tree.parent) << where;
        EXPECT_EQ(charged.depth, tree.depth) << where;
        EXPECT_EQ(charged.height, tree.height) << where;
        EXPECT_EQ(charged.child_begin, tree.child_begin) << where;
        EXPECT_EQ(charged.child_list, tree.child_list) << where;
        expect_same_cost(cost, simulated, where);
      }
    }
  }
}

TEST(ChargedSweeps, DisconnectedGraphThrowsLikeTheProtocol) {
  GraphBuilder builder(5);
  builder.add_edge(0, 1);
  builder.add_edge(1, 2);
  builder.add_edge(3, 4);
  const Graph g = builder.build();
  Network net(g, 43);
  BfsTreeProtocol protocol(g, 0);
  net.run(protocol);
  std::string simulated_what;
  try {
    protocol.take_tree();
  } catch (const std::runtime_error& e) {
    simulated_what = e.what();
  }
  std::string charged_what;
  BfsTree tree;
  try {
    charged_bfs_tree(g, 0, tree);
  } catch (const std::runtime_error& e) {
    charged_what = e.what();
  }
  EXPECT_FALSE(simulated_what.empty());
  EXPECT_EQ(charged_what, simulated_what);
}

TEST(ChargedSweeps, BroadcastEqualsTheProtocolFromEveryRoot) {
  // A payload that packs into a token and one that does not (a word above
  // 32 bits), so token_sends is checked both ways.
  const Message payloads[] = {Message{0, {5, 9, 0, 0}},
                              Message{3, {std::uint64_t{1} << 40, 0, 0, 7}}};
  for (const SweepGraph& sg : sweep_graphs()) {
    const Graph& g = sg.graph;
    const std::size_t n = g.node_count();
    BfsTree tree;
    for (NodeId root = 0; root < n; ++root) {
      charged_bfs_tree(g, root, tree);
      for (const Message& payload : payloads) {
        std::vector<std::vector<Message>> charged_got(n);
        const RunStats cost = charged_broadcast(
            tree, payload, [&](NodeId v, const Message& m) {
              charged_got[v].push_back(m);
            });
        EXPECT_EQ(charged_broadcast(tree, payload, nullptr).rounds,
                  cost.rounds);
        for (const unsigned threads : {1u, 8u}) {
          const std::string where = std::string(sg.name) + " root=" +
                                    std::to_string(root) +
                                    " threads=" + std::to_string(threads);
          Network net(g, 47);
          net.set_threads(threads);
          // Node-indexed writes only: the callback may run on any worker.
          std::vector<std::vector<Message>> got(n);
          BroadcastProtocol protocol(tree, payload,
                                     [&](NodeId v, const Message& m) {
                                       got[v].push_back(m);
                                     });
          const RunStats simulated = net.run(protocol);
          for (NodeId v = 0; v < n; ++v) {
            ASSERT_EQ(charged_got[v].size(), got[v].size())
                << where << " node " << v;
            for (std::size_t i = 0; i < got[v].size(); ++i) {
              EXPECT_EQ(charged_got[v][i].type, got[v][i].type) << where;
              EXPECT_EQ(charged_got[v][i].lane, got[v][i].lane) << where;
              EXPECT_EQ(charged_got[v][i].f, got[v][i].f) << where;
            }
          }
          expect_same_cost(cost, simulated, where);
        }
      }
    }
  }
}

TEST(ConvergecastSum, ComputesTotal) {
  Rng rng(5);
  const Graph g = gen::random_geometric(60, 0.25, rng);
  Network net(g, 13);
  RunStats stats;
  const BfsTree tree = build_bfs_tree(net, 3, stats);
  std::vector<std::uint64_t> values(g.node_count());
  std::iota(values.begin(), values.end(), 1);  // 1..n
  const std::uint64_t expected =
      g.node_count() * (g.node_count() + 1) / 2;
  ConvergecastSum sum(tree, values);
  const RunStats cstats = net.run(sum);
  EXPECT_EQ(sum.root_sum(), expected);
  EXPECT_LE(cstats.rounds, static_cast<std::uint64_t>(tree.height) + 1);
  EXPECT_EQ(cstats.messages, g.node_count() - 1);
}

TEST(ConvergecastSum, SingletonTreeNeedsNoRounds) {
  const Graph g = gen::path(2);
  Network net(g, 1);
  RunStats stats;
  const BfsTree tree = build_bfs_tree(net, 0, stats);
  ConvergecastSum sum(tree, {7, 5});
  net.run(sum);
  EXPECT_EQ(sum.root_sum(), 12u);
}

TEST(PipelinedVectorUpcast, SumsVectorsInHeightPlusKRounds) {
  const Graph g = gen::path(20);
  Network net(g, 17);
  RunStats stats;
  const BfsTree tree = build_bfs_tree(net, 0, stats);
  const std::size_t k = 12;
  std::vector<std::vector<std::uint64_t>> values(
      g.node_count(), std::vector<std::uint64_t>(k));
  for (NodeId v = 0; v < g.node_count(); ++v) {
    for (std::size_t i = 0; i < k; ++i) values[v][i] = v + i;
  }
  PipelinedVectorUpcast upcast(tree, values);
  const RunStats ustats = net.run(upcast);
  for (std::size_t i = 0; i < k; ++i) {
    std::uint64_t expected = 0;
    for (NodeId v = 0; v < g.node_count(); ++v) expected += v + i;
    EXPECT_EQ(upcast.root_vector()[i], expected) << "entry " << i;
  }
  // Pipelining: O(height + k), not O(height * k).
  EXPECT_LE(ustats.rounds, tree.height + k + 2);
  EXPECT_GE(ustats.rounds, std::max<std::uint64_t>(tree.height, k));
}

TEST(PipelinedVectorUpcast, RejectsRaggedInput) {
  const Graph g = gen::path(3);
  Network net(g, 1);
  RunStats stats;
  const BfsTree tree = build_bfs_tree(net, 0, stats);
  std::vector<std::vector<std::uint64_t>> ragged{{1, 2}, {1}, {1, 2}};
  EXPECT_THROW(PipelinedVectorUpcast(tree, ragged), std::invalid_argument);
}

TEST(PipelinedListUpcast, CollectsEveryRecordAtRoot) {
  Rng rng(7);
  const Graph g = gen::erdos_renyi_connected(30, 0.15, rng);
  Network net(g, 19);
  RunStats stats;
  const BfsTree tree = build_bfs_tree(net, 4, stats);
  std::vector<std::vector<PipelinedListUpcast::Record>> records(
      g.node_count());
  std::size_t total = 0;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    for (std::uint64_t i = 0; i <= v % 3; ++i) {
      records[v].push_back({v, i, v + i});
      ++total;
    }
  }
  PipelinedListUpcast collect(tree, records);
  const RunStats cstats = net.run(collect);
  EXPECT_EQ(collect.root_records().size(), total);
  // Every record arrives intact (multiset equality via sorting).
  auto received = collect.root_records();
  std::vector<PipelinedListUpcast::Record> expected;
  for (const auto& list : records) {
    expected.insert(expected.end(), list.begin(), list.end());
  }
  std::sort(received.begin(), received.end());
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(received, expected);
  // Pipelined: O(height + total records), not O(height * records).
  EXPECT_LE(cstats.rounds, tree.height + total + 2);
}

TEST(PipelinedListUpcast, EmptyRecordsQuiesceImmediately) {
  const Graph g = gen::path(6);
  Network net(g, 23);
  RunStats stats;
  const BfsTree tree = build_bfs_tree(net, 0, stats);
  PipelinedListUpcast collect(
      tree, std::vector<std::vector<PipelinedListUpcast::Record>>(
                g.node_count()));
  const RunStats cstats = net.run(collect);
  EXPECT_TRUE(collect.root_records().empty());
  EXPECT_EQ(cstats.rounds, 0u);
}

TEST(TokenWalk, EndpointsCountMatchesTokens) {
  Rng rng(19);
  const Graph g = gen::erdos_renyi_connected(30, 0.15, rng);
  Network net(g, 23);
  std::vector<std::vector<WalkToken>> initial(g.node_count());
  std::size_t total = 0;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    for (std::uint32_t i = 0; i <= v % 3; ++i) {
      initial[v].push_back(WalkToken{v, 5, 5});
      ++total;
    }
  }
  TokenWalkProtocol protocol(g, initial);
  net.run(protocol);
  std::size_t stored = 0;
  for (const auto& tokens : protocol.stored()) {
    for (const StoredToken& t : tokens) {
      EXPECT_EQ(t.length, 5u);
      stored += 1;
    }
  }
  EXPECT_EQ(stored, total);
}

TEST(TokenWalk, ZeroLengthTokenStaysAtSource) {
  const Graph g = gen::cycle(4);
  Network net(g, 29);
  std::vector<std::vector<WalkToken>> initial(g.node_count());
  initial[2].push_back(WalkToken{2, 0, 0});
  TokenWalkProtocol protocol(g, initial);
  const RunStats stats = net.run(protocol);
  EXPECT_EQ(protocol.stored()[2].size(), 1u);
  EXPECT_EQ(stats.messages, 0u);
}

TEST(TokenWalk, SingleTokenEndpointMatchesOracleDistribution) {
  // A single token of length l is a plain random walk; its endpoint must be
  // distributed as P^l e_s.
  const Graph g = gen::lollipop(4, 3);
  const MarkovOracle oracle(g);
  const std::uint64_t l = 6;
  const auto expected = oracle.distribution_after(0, l);

  std::vector<std::uint64_t> counts(g.node_count(), 0);
  const int runs = 4000;
  for (int r = 0; r < runs; ++r) {
    Network net(g, 1000 + r);
    std::vector<std::vector<WalkToken>> initial(g.node_count());
    initial[0].push_back(
        WalkToken{0, static_cast<std::uint32_t>(l),
                  static_cast<std::uint32_t>(l)});
    TokenWalkProtocol protocol(g, initial);
    net.run(protocol);
    for (NodeId v = 0; v < g.node_count(); ++v) {
      if (!protocol.stored()[v].empty()) ++counts[v];
    }
  }
  const auto result = chi_square_test(counts, expected);
  EXPECT_GT(result.p_value, 1e-4) << "chi2=" << result.statistic;
}

TEST(TokenWalk, ManyTokensCongestCost) {
  // q tokens crossing one bridge edge must serialize: rounds >= q.
  const Graph g = gen::path(2);
  Network net(g, 31);
  std::vector<std::vector<WalkToken>> initial(g.node_count());
  const std::uint32_t q = 25;
  for (std::uint32_t i = 0; i < q; ++i) {
    initial[0].push_back(WalkToken{0, 1, 1});
  }
  TokenWalkProtocol protocol(g, initial);
  const RunStats stats = net.run(protocol);
  EXPECT_EQ(protocol.stored()[1].size(), q);
  EXPECT_GE(stats.rounds, q);
}

}  // namespace
}  // namespace drw::congest
