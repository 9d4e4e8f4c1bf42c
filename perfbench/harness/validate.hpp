// Output validity checks applied to every result the benchmark receives,
// on traced and untraced runs alike. A violation is counted as a failed
// request (it feeds ok_frac and the run's `failed` count).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

/// What a request asked for, in the id space the result comes back in.
struct Expect {
  std::uint64_t source = 0;
  std::uint64_t length = 0;
  std::uint32_t count = 1;
  bool record = false;
};

/// The graph the results must live on, in the same id space.
struct GraphView {
  std::function<bool(std::uint64_t)> has_node;
  std::function<bool(std::uint64_t, std::uint64_t)> adjacent;
};

/// Returns "" when the result is valid, else the first violation found:
/// status not ok, wrong destination count, destination outside the graph,
/// missing or extra paths, a path of the wrong length, a path that does
/// not start at the source or end at its destination, or a hop between
/// two nodes that are not adjacent.
template <class Node>
std::string check_result(const Expect& want, bool status_ok,
                         const std::vector<Node>& destinations,
                         const std::vector<std::vector<Node>>& paths,
                         const GraphView& graph) {
  if (!status_ok) return "status";
  if (destinations.size() != want.count) return "count";
  for (const Node d : destinations) {
    if (!graph.has_node(d)) return "destination-range";
  }
  if (!want.record) return paths.empty() ? "" : "unexpected-paths";
  if (paths.size() != want.count) return "path-count";
  for (std::size_t w = 0; w < paths.size(); ++w) {
    const std::vector<Node>& path = paths[w];
    if (path.size() != want.length + 1) return "path-length";
    if (path.front() != want.source) return "path-start";
    if (path.back() != destinations[w]) return "path-end";
    for (std::size_t i = 1; i < path.size(); ++i) {
      if (!graph.adjacent(path[i - 1], path[i])) return "path-hop";
    }
  }
  return "";
}

}  // namespace perfbench
