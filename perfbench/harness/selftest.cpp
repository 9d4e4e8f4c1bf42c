// Self-test of the benchmark's validity checker: one clean result must
// pass, and one corrupted result of each kind must be caught with the
// expected reason. Exits 0 on success.
//
//   python3 perfbench/run.py --self-test
#include <cstdio>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "validate.hpp"

namespace {

using perfbench::check_result;
using perfbench::Expect;
using Path = std::vector<std::uint32_t>;

int failures = 0;

void expect(const char* what, const std::string& got,
            const std::string& want) {
  const bool ok = got == want;
  std::printf("%-34s %-18s %s\n", what, got.empty() ? "(valid)" : got.c_str(),
              ok ? "ok" : "FAIL");
  if (!ok) {
    std::printf("  expected %s\n", want.empty() ? "(valid)" : want.c_str());
    ++failures;
  }
}

}  // namespace

int main() {
  // A 6-cycle: 0-1-2-3-4-5-0.
  const drw::Graph g = drw::gen::cycle(6);
  const perfbench::GraphView view{
      [&](std::uint64_t v) { return v < g.node_count(); },
      [&](std::uint64_t u, std::uint64_t v) {
        return u < g.node_count() && v < g.node_count() &&
               g.has_edge(static_cast<drw::NodeId>(u),
                          static_cast<drw::NodeId>(v));
      }};

  const Expect plain{0, 3, 2, false};
  const Expect recorded{0, 3, 1, true};
  const std::vector<std::uint32_t> two{3, 1};
  const std::vector<Path> none;

  expect("clean destinations", check_result(plain, true, two, none, view),
         "");
  expect("clean path",
         check_result(recorded, true, std::vector<std::uint32_t>{3},
                      std::vector<Path>{{0, 1, 2, 3}}, view),
         "");

  expect("rejected status", check_result(plain, false, two, none, view),
         "status");
  expect("short destination list",
         check_result(plain, true, std::vector<std::uint32_t>{3}, none, view),
         "count");
  expect("destination out of range",
         check_result(plain, true, std::vector<std::uint32_t>{3, 6}, none,
                      view),
         "destination-range");
  expect("paths on a plain request",
         check_result(plain, true, two, std::vector<Path>{{0, 1, 2, 3}}, view),
         "unexpected-paths");
  expect("missing path",
         check_result(recorded, true, std::vector<std::uint32_t>{3}, none,
                      view),
         "path-count");
  expect("path of l nodes",
         check_result(recorded, true, std::vector<std::uint32_t>{2},
                      std::vector<Path>{{0, 1, 2}}, view),
         "path-length");
  expect("path not at source",
         check_result(recorded, true, std::vector<std::uint32_t>{4},
                      std::vector<Path>{{1, 2, 3, 4}}, view),
         "path-start");
  expect("path not at destination",
         check_result(recorded, true, std::vector<std::uint32_t>{5},
                      std::vector<Path>{{0, 1, 2, 3}}, view),
         "path-end");
  expect("non-adjacent hop",
         check_result(recorded, true, std::vector<std::uint32_t>{3},
                      std::vector<Path>{{0, 1, 4, 3}}, view),
         "path-hop");

  std::printf("selftest: %s (%d failure(s))\n", failures == 0 ? "PASS" : "FAIL",
              failures);
  return failures == 0 ? 0 : 1;
}
