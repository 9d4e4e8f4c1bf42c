// perfbench harness: runs one workload of the serving benchmark and prints
// every value it measured on one `RESULT {...}` line.
//
//   cold-batch    closed loop of one-shot jobs: a fresh WalkService per job
//                 serves one batch (in process).
//   steady-mixed  open loop through the real AdmissionQueue into one
//                 long-lived WalkService (in process).
//   live-paths    open loop over TCP against the shipped
//                 `drw serve --listen --paths`, spawned as a child process.
//
// perfbench/run.py builds this binary, passes the frozen parameters of the
// workload from perfbench/workloads.json, and turns the RESULT line into
// the benchmark's output. With --trace=1 the harness records its own spans
// around every call it makes into the library and reports per-layer
// values; span recording is off (a null log) otherwise.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "congest/network.hpp"
#include "core/params.hpp"
#include "graph/algorithms.hpp"
#include "graph/csr_file.hpp"
#include "graph/generators.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"
#include "service/admission.hpp"
#include "service/walk_service.hpp"
#include "util/rng.hpp"
#include "validate.hpp"

extern char** environ;

namespace perfbench {
namespace {

using namespace drw;
using Clock = std::chrono::steady_clock;
using service::WalkRequest;

const Clock::time_point kEpoch = Clock::now();

/// Set-ups per run (setup_s is their median) and warm-up requests served
/// in each set-up of the two long-lived workloads.
constexpr int kSetups = 5;
constexpr std::size_t kWarmup = 16;
/// Executor width of every workload. At width 1 the dispatch grain is
/// inert; wider, each Network draws it from a timing probe (README).
constexpr unsigned kWidth = 1;

double now_ms() {
  return std::chrono::duration<double, std::milli>(Clock::now() - kEpoch)
      .count();
}

void sleep_until_ms(double t) {
  std::this_thread::sleep_until(
      kEpoch + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double, std::milli>(t)));
}

/// Nearest-rank quantile (q in [0,1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * v.size()));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0
                   : std::accumulate(v.begin(), v.end(), 0.0) / v.size();
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

// ------------------------------------------------------------ child process

/// The serving child of live-paths; die() stops it so a failed run never
/// leaves a server behind.
pid_t g_child = -1;

[[noreturn]] void die(const std::string& why) {
  std::fprintf(stderr, "perfbench: error: %s\n", why.c_str());
  if (g_child > 0) {
    ::kill(g_child, SIGKILL);
    ::waitpid(g_child, nullptr, 0);
  }
  std::exit(2);
}

// ------------------------------------------------------------------ options

class Options {
 public:
  Options(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      const auto eq = a.find('=');
      if (a.rfind("--", 0) != 0 || eq == std::string::npos) {
        die("bad argument " + a + " (want --key=value)");
      }
      kv_[a.substr(2, eq - 2)] = a.substr(eq + 1);
    }
  }
  const std::string& str(const std::string& key) const {
    const auto it = kv_.find(key);
    if (it == kv_.end()) die("missing --" + key);
    return it->second;
  }
  double num(const std::string& key) const { return std::stod(str(key)); }
  std::uint64_t u64(const std::string& key) const {
    return std::stoull(str(key));
  }
  std::vector<double> list(const std::string& key) const {
    std::vector<double> out;
    std::stringstream ss(str(key));
    std::string item;
    while (std::getline(ss, item, ',')) out.push_back(std::stod(item));
    return out;
  }

 private:
  std::map<std::string, std::string> kv_;
};

// -------------------------------------------------------------------- spans

/// The benchmark's own spans: name, start, end, parent and request id, kept
/// in memory per thread and folded into per-name totals when the run ends.
/// A null log records nothing (untraced runs).
class SpanLog {
 public:
  struct Rec {
    const char* name;
    double start;
    double end;
    int parent;
    std::uint64_t request;
  };

  int open(const char* name, std::uint64_t request) {
    const int parent = stack_.empty() ? -1 : stack_.back();
    recs_.push_back(Rec{name, now_ms(), 0.0, parent, request});
    stack_.push_back(static_cast<int>(recs_.size()) - 1);
    return stack_.back();
  }
  void close(int id) {
    recs_[id].end = now_ms();
    stack_.pop_back();
  }
  const std::vector<Rec>& recs() const { return recs_; }

 private:
  std::vector<Rec> recs_;
  std::vector<int> stack_;
};

class Span {
 public:
  Span(SpanLog* log, const char* name, std::uint64_t request = 0)
      : log_(log), id_(log != nullptr ? log->open(name, request) : -1) {}
  ~Span() {
    if (log_ != nullptr) log_->close(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanLog* log_;
  int id_;
};

/// Per-name self time: a span's duration minus its children's.
std::map<std::string, double> self_times(
    const std::vector<const SpanLog*>& logs) {
  std::map<std::string, double> out;
  for (const SpanLog* log : logs) {
    const auto& recs = log->recs();
    std::vector<double> child_ms(recs.size(), 0.0);
    for (const auto& r : recs) {
      if (r.parent >= 0) child_ms[r.parent] += r.end - r.start;
    }
    for (std::size_t i = 0; i < recs.size(); ++i) {
      out[recs[i].name] += recs[i].end - recs[i].start - child_ms[i];
    }
  }
  return out;
}

/// Cost of recording one span, measured on a scratch log.
double span_cost_ms() {
  SpanLog scratch;
  constexpr int kSpans = 100000;
  const double t0 = now_ms();
  for (int i = 0; i < kSpans; ++i) Span s(&scratch, "calibrate", i);
  return (now_ms() - t0) / kSpans;
}

// ------------------------------------------------------------------ results

class Result {
 public:
  void set(const std::string& name, double value) { metrics_[name] = value; }
  void note(const std::string& line) {
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
  }
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::map<std::string, std::size_t> reasons;

  void print() const {
    std::string out = "RESULT {\"attempted\":" + std::to_string(attempted) +
                      ",\"failed\":" + std::to_string(failed) +
                      ",\"reasons\":{";
    bool first = true;
    for (const auto& [why, n] : reasons) {
      out += (first ? "\"" : ",\"") + why + "\":" + std::to_string(n);
      first = false;
    }
    out += "},\"metrics\":{";
    first = true;
    char buf[64];
    for (const auto& [name, value] : metrics_) {
      std::snprintf(buf, sizeof(buf), "%.17g",
                    std::isfinite(value) ? value : 0.0);
      out += (first ? "\"" : ",\"") + name + "\":" + buf;
      first = false;
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
  }

 private:
  std::map<std::string, double> metrics_;
};

// --------------------------------------------------------------- accounting

double tv_ms(const timeval& t) { return t.tv_sec * 1e3 + t.tv_usec / 1e3; }

double self_cpu_ms() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return tv_ms(ru.ru_utime) + tv_ms(ru.ru_stime);
}

double self_peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss / 1024.0;
}

/// CPU time (user + system) of a live child, from its /proc stat line.
double child_cpu_ms(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  std::getline(in, line);
  const auto close = line.rfind(')');
  if (close == std::string::npos) die("cannot read child CPU time");
  std::istringstream fields(line.substr(close + 2));
  std::string skip;
  // Fields 3..13 precede utime (14) and stime (15).
  for (int i = 3; i <= 13; ++i) fields >> skip;
  unsigned long long utime = 0, stime = 0;
  fields >> utime >> stime;
  return (utime + stime) * 1000.0 / ::sysconf(_SC_CLK_TCK);
}

// ------------------------------------------------------------------- layers

/// Per-layer attribution of served batches, read from what flush() returns:
/// Phase 1, stitching and regeneration from each request's WalkCounters;
/// the batch's shared tail run plus replenishment as the remainder.
struct Layers {
  congest::RunStats total, phase1, stitch, regen;
  std::uint64_t batches = 0, requests = 0, walks = 0, prepares = 0;
  std::uint64_t stitches = 0, gmw_calls = 0, hits = 0;
  std::uint64_t replenish_runs = 0, replenish_walks = 0;
  /// Batches that carried Phase 1 cost without a full prepare (or the
  /// reverse); the attribution above is only sound while this stays 0.
  std::uint64_t phase1_unmatched = 0;
  std::vector<double> flush_ms;

  void add(const service::BatchReport& r, double flush) {
    total += r.stats;
    std::uint64_t batch_phase1_rounds = 0;
    for (const service::RequestResult& res : r.results) {
      phase1 += res.counters.phase1;
      stitch += res.counters.phase2;
      regen += res.counters.regen;
      batch_phase1_rounds += res.counters.phase1.rounds;
    }
    if (r.full_prepare != (batch_phase1_rounds > 0)) ++phase1_unmatched;
    ++batches;
    requests += r.requests;
    walks += r.walks;
    prepares += r.full_prepare ? 1 : 0;
    stitches += r.stitches;
    gmw_calls += r.engine_gmw_calls;
    hits += r.inventory_hits;
    replenish_runs += r.replenishments;
    replenish_walks += r.replenished_walks;
    flush_ms.push_back(flush);
  }
  congest::RunStats tails_replenish() const {
    congest::RunStats t = total;
    t -= phase1;
    t -= stitch;
    t -= regen;
    return t;
  }
  double flush_total() const {
    return std::accumulate(flush_ms.begin(), flush_ms.end(), 0.0);
  }

  /// Emits the core / congest / service values, each divided by `per`
  /// (jobs on cold-batch, 1 for a timed window).
  void emit(Result& out, double per, double cpu_ms, double wall_ms) const {
    const auto put_run = [&](const std::string& name,
                             const congest::RunStats& s) {
      out.set(name + ".ms", s.wall_ms / per);
      out.set(name + ".rounds", s.rounds / per);
      out.set(name + ".messages", s.messages / per);
    };
    put_run("core.phase1", phase1);
    out.set("core.phase1.ns_per_msg", ratio(phase1.wall_ms * 1e6,
                                            double(phase1.messages)));
    out.set("core.phase1.prepares", prepares / per);
    out.set("core.phase1.unmatched", double(phase1_unmatched));
    put_run("core.stitch", stitch);
    out.set("core.stitch.stitches", stitches / per);
    out.set("core.stitch.gmw_calls", gmw_calls / per);
    out.set("core.stitch.hit_rate",
            stitches == 0 ? 1.0 : ratio(double(hits), double(stitches)));
    put_run("core.tails_replenish", tails_replenish());
    put_run("core.regen", regen);
    out.set("service.replenish.runs", replenish_runs / per);
    out.set("service.replenish.walks", replenish_walks / per);

    out.set("congest.compute_ms", total.compute_ms / per);
    out.set("congest.transmit_ms", total.transmit_ms / per);
    out.set("congest.merge_ms", total.merge_ms / per);
    out.set("congest.ms_per_round",
            ratio(total.wall_ms, double(total.rounds)));
    out.set("congest.ns_per_msg",
            ratio(total.wall_ms * 1e6, double(total.messages)));
    out.set("congest.token_send_frac",
            ratio(double(total.token_sends), double(total.messages)));
    out.set("congest.steals", total.steals / per);
    out.set("congest.cpu_util", ratio(cpu_ms, wall_ms * kWidth));

    out.set("service.flush_ms.p50", quantile(flush_ms, 0.5));
    out.set("service.flush_ms.p99", quantile(flush_ms, 0.99));
    out.set("service.host_ms", (flush_total() - total.wall_ms) / per);
    out.set("service.batch_requests", ratio(double(requests), double(batches)));
    out.set("service.batch_walks", ratio(double(walks), double(batches)));
  }
};

// ------------------------------------------------------------------- inputs

Graph build_graph(const std::string& spec, std::uint64_t seed) {
  const auto colon = spec.find(':');
  const std::string name = spec.substr(0, colon);
  std::size_t n = 0;
  unsigned d = 0;
  if (colon == std::string::npos ||
      std::sscanf(spec.c_str() + colon + 1, "%zu,%u", &n, &d) != 2) {
    die("bad graph spec " + spec);
  }
  Rng rng(seed);
  if (name == "regular") return gen::random_regular(n, d, rng);
  if (name == "powerlaw") return gen::power_law(n, d, rng);
  die("unsupported graph spec " + spec);
}

/// Request shape of one traffic class.
struct Mix {
  std::uint64_t lmin = 1;
  std::uint64_t lmax = 1;
  std::uint32_t count = 1;
  double record_frac = 0.0;
};

Mix parse_mix(const std::string& text) {
  // "LMIN-LMAX/COUNT[/RECORD_FRAC]"
  Mix m;
  unsigned long long lo = 0, hi = 0;
  unsigned count = 0;
  double rec = 0.0;
  const int got =
      std::sscanf(text.c_str(), "%llu-%llu/%u/%lf", &lo, &hi, &count, &rec);
  if (got < 3 || lo == 0 || hi < lo || count == 0) die("bad mix " + text);
  m.lmin = lo;
  m.lmax = hi;
  m.count = count;
  m.record_frac = got == 4 ? rec : 0.0;
  return m;
}

/// Zipf(s) over a seeded permutation of the nodes (s = 0: uniform).
class SourcePicker {
 public:
  SourcePicker(std::size_t n, double s, Rng& rng) : perm_(n) {
    std::iota(perm_.begin(), perm_.end(), 0);
    for (std::size_t i = n; i > 1; --i) {
      std::swap(perm_[i - 1], perm_[rng.next_below(i)]);
    }
    cdf_.resize(n);
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      acc += s == 0.0 ? 1.0 : 1.0 / std::pow(double(i + 1), s);
      cdf_[i] = acc;
    }
    for (double& c : cdf_) c /= acc;
  }
  NodeId pick(Rng& rng) const {
    const double u = rng.next_double();
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return perm_[std::min<std::size_t>(it - cdf_.begin(), perm_.size() - 1)];
  }

 private:
  std::vector<NodeId> perm_;
  std::vector<double> cdf_;
};

WalkRequest draw(Rng& rng, const Mix& mix, NodeId source) {
  WalkRequest r;
  r.source = source;
  r.length = mix.lmin + rng.next_below(mix.lmax - mix.lmin + 1);
  r.count = mix.count;
  r.record_positions =
      mix.record_frac > 0.0 && rng.next_double() < mix.record_frac;
  return r;
}

// ------------------------------------------------------------ open loop

/// Every request the load generator sends, with its due time and outcome.
/// Sized before sending; the completing thread writes an entry and then
/// publishes it through `completed`.
struct Book {
  struct Entry {
    WalkRequest request;
    std::uint32_t flow = 0;
    double due = 0.0;
    double done = 0.0;
    bool sent = false;
    bool failed = false;
  };
  std::vector<Entry> entries;
  std::atomic<std::size_t> sent{0};
  std::atomic<std::size_t> completed{0};
  std::mutex mu;
  std::map<std::string, std::size_t> reasons;

  /// Called just before entry `id` goes out.
  void mark_sent(std::size_t id) {
    entries[id].sent = true;
    sent.fetch_add(1, std::memory_order_relaxed);
  }
  void finish(std::size_t id, double t, const std::string& why) {
    Entry& e = entries[id];
    e.done = t;
    e.failed = !why.empty();
    if (e.failed) {
      std::lock_guard<std::mutex> lock(mu);
      ++reasons[why];
    }
    completed.fetch_add(1, std::memory_order_release);
  }
  void wait_all(double timeout_ms) {
    const double until = now_ms() + timeout_ms;
    while (completed.load(std::memory_order_acquire) <
           sent.load(std::memory_order_relaxed)) {
      if (now_ms() > until) die("requests never completed");
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  }
};

struct Step {
  double rate = 0.0;
  std::size_t first = 0;
  std::size_t sent = 0;
  bool aborted = false;
  std::size_t backlog = 0;  ///< sent but unanswered when sending ended
  double start = 0.0;
  double end = 0.0;         ///< last completion
  std::vector<double> lat;  ///< due -> validated result, ok requests
  std::size_t failed = 0;
  std::size_t walks = 0;
  bool pass = false;

  double achieved_rps() const {
    return ratio(double(lat.size()), (end - start) / 1e3);
  }
};

/// Sends entries [first, first + n) of `book` at `rate` requests/s, each at
/// its due time; stops early once `abort_backlog` requests are unanswered.
/// Waits for every sent request, then scores the step against the limit.
template <class Send>
Step run_step(Book& book, std::size_t first, std::size_t n, double rate,
              double limit_ms, std::size_t abort_backlog, Send&& send,
              std::vector<double>& late) {
  Step step;
  step.rate = rate;
  step.first = first;
  step.start = now_ms() + 2.0;
  for (std::size_t i = 0; i < n; ++i) {
    Book::Entry& e = book.entries[first + i];
    e.due = step.start + i * 1e3 / rate;
    sleep_until_ms(e.due);
    late.push_back(now_ms() - e.due);
    book.mark_sent(first + i);
    send(first + i);
    ++step.sent;
    if (book.sent.load() - book.completed.load() > abort_backlog) {
      step.aborted = true;
      break;
    }
  }
  step.backlog = book.sent.load() - book.completed.load();
  book.wait_all(120000.0);
  for (std::size_t id = first; id < first + step.sent; ++id) {
    const Book::Entry& e = book.entries[id];
    step.end = std::max(step.end, e.done);
    if (e.failed) {
      ++step.failed;
    } else {
      step.lat.push_back(e.done - e.due);
      step.walks += e.request.count;
    }
  }
  const double allowed = std::max(4.0, rate * limit_ms / 1e3);
  step.pass = !step.aborted && step.failed == 0 &&
              quantile(step.lat, 0.9) <= limit_ms &&
              double(step.backlog) <= allowed;
  return step;
}

/// The two open-loop steps of steady-mixed and live-paths: `low`, then
/// `high` requests/s, each for half the window, scored against `limit_ms`.
struct Rates {
  double low = 0.0;
  double high = 0.0;
  double limit_ms = 0.0;
  double step_s = 0.0;

  std::size_t requests() const {
    return static_cast<std::size_t>(low * step_s) +
           static_cast<std::size_t>(high * step_s);
  }
};

Rates read_rates(const Options& opt, double seconds) {
  Rates r;
  r.low = opt.num("low");
  r.high = opt.num("high");
  r.limit_ms = opt.num("limit_ms");
  if (!(0 < r.low && r.low < r.high)) die("want 0 < low < high");
  r.step_s = seconds / 2;
  return r;
}

/// Request shapes by flow, and the order in which arrivals cycle through
/// the flows.
struct Traffic {
  std::vector<Mix> mixes;
  std::vector<std::uint32_t> pattern;
};

/// Fills `book` entries [first, first + n): entry i belongs to flow
/// pattern[i % pattern.size()].
void fill_requests(Book& book, std::size_t first, std::size_t n,
                   const Traffic& traffic, const SourcePicker& pick,
                   Rng& rng) {
  const auto& mixes = traffic.mixes;
  for (std::size_t i = 0; i < n; ++i) {
    Book::Entry& e = book.entries[first + i];
    e.flow = traffic.pattern[i % traffic.pattern.size()];
    e.request = draw(rng, mixes[e.flow], pick.pick(rng));
  }
}

/// The set-up's warm-up requests: drawn like the traffic, except that the
/// first one is the longest request of the mix, so the Phase 1 it triggers
/// plans lambda for the longest walk the traffic asks for.
void fill_warmup(Book& book, std::size_t first, std::size_t n,
                 const Traffic& traffic, const SourcePicker& pick, Rng& rng) {
  fill_requests(book, first, n, traffic, pick, rng);
  const auto& mixes = traffic.mixes;
  std::uint32_t longest = 0;
  for (std::uint32_t f = 0; f < mixes.size(); ++f) {
    if (mixes[f].lmax > mixes[longest].lmax) longest = f;
  }
  Book::Entry& e = book.entries[first];
  e.flow = longest;
  e.request.length = mixes[longest].lmax;
  e.request.count = mixes[longest].count;
}

/// setup_s is the median of the run's set-ups; the note lists them all.
void report_setups(Result& out, const std::vector<double>& setup_s) {
  out.set("setup_s", quantile(setup_s, 0.5));
  std::string line = "set-ups (s):";
  char buf[32];
  for (double s : setup_s) {
    std::snprintf(buf, sizeof(buf), " %.3f", s);
    line += buf;
  }
  out.note(line);
}

/// Phase 1 of the set-up (the warm-up's prepare).
void emit_setup_phase1(Result& out, const congest::RunStats& phase1) {
  out.set("setup.phase1.ms", phase1.wall_ms);
  out.set("setup.phase1.messages", double(phase1.messages));
  out.set("setup.phase1.ns_per_msg",
          ratio(phase1.wall_ms * 1e6, double(phase1.messages)));
}

/// Runs the low step, then the high step, and reports their latencies.
/// sustained_rps is the achieved rate of the higher step that passes.
template <class Send>
std::vector<Step> run_steps(Book& book, std::size_t first, const Rates& r,
                            Send&& send, Result& out,
                            std::vector<double>& late) {
  std::vector<Step> steps;
  std::size_t at = first;
  double sustained = 0.0;
  for (const double rate : {r.low, r.high}) {
    const std::size_t n = static_cast<std::size_t>(rate * r.step_s);
    const std::size_t abort_backlog =
        static_cast<std::size_t>(std::max(64.0, rate * 4.0 * r.limit_ms / 1e3));
    Step s = run_step(book, at, n, rate, r.limit_ms, abort_backlog, send,
                      late);
    at += n;
    char line[256];
    std::snprintf(line, sizeof(line),
                  "step rate=%.1f req/s: sent=%zu ok=%zu failed=%zu "
                  "p50=%.2f ms p90=%.2f ms backlog=%zu achieved=%.1f req/s "
                  "%s%s",
                  rate, s.sent, s.lat.size(), s.failed, quantile(s.lat, 0.5),
                  quantile(s.lat, 0.9), s.backlog, s.achieved_rps(),
                  s.pass ? "PASS" : "FAIL", s.aborted ? " (aborted)" : "");
    out.note(line);
    const std::string tag = rate == r.low ? "low" : "high";
    out.set("lat_p50_ms." + tag, quantile(s.lat, 0.5));
    out.set("lat_p90_ms." + tag, quantile(s.lat, 0.9));
    out.set("samples." + tag, double(s.lat.size()));
    if (s.pass) sustained = s.achieved_rps();
    steps.push_back(std::move(s));
  }
  out.set("sustained_rps", sustained);
  return steps;
}

/// Counts the entries of [first, last) that were sent: a step that aborts
/// leaves the rest of its range unsent.
void count_outcomes(const Book& book, std::size_t first, std::size_t last,
                    Result& out) {
  for (std::size_t id = first; id < last; ++id) {
    if (!book.entries[id].sent) continue;
    ++out.attempted;
    if (book.entries[id].failed) ++out.failed;
  }
}

void report_generator(const std::vector<double>& late, Result& out) {
  const double p99 = quantile(late, 0.99);
  out.set("gen.late_ms.p99", p99);
  // A generator more than 5 ms late at p99 no longer offers the rate it
  // claims; the run is flagged rather than reported as clean.
  const bool behind = p99 > 5.0;
  out.set("gen.behind", behind ? 1.0 : 0.0);
  if (behind) {
    out.note("WARNING: load generator fell behind (late p99 " +
             std::to_string(p99) + " ms); latencies are not clean");
  }
}

/// Validates one in-process result against the request that produced it.
std::string check_in_process(const WalkRequest& want,
                             const service::RequestResult& got,
                             const GraphView& view) {
  return check_result(Expect{want.source, want.length, want.count,
                             want.record_positions},
                      got.ok(), got.destinations, got.paths, view);
}

GraphView view_of(const Graph& g) {
  return GraphView{
      [&g](std::uint64_t v) { return v < g.node_count(); },
      [&g](std::uint64_t u, std::uint64_t v) {
        return u < g.node_count() && v < g.node_count() &&
               g.has_edge(static_cast<NodeId>(u), static_cast<NodeId>(v));
      }};
}

service::ServiceConfig service_config(bool paths) {
  service::ServiceConfig c;
  c.params = core::Params::paper();
  c.threads = kWidth;
  c.enable_paths = paths;
  return c;
}

void report_host(Result& out) {
  out.set("host.nproc", std::thread::hardware_concurrency());
  out.set("host.width", kWidth);
  out.note("host: nproc=" +
           std::to_string(std::thread::hardware_concurrency()) +
           " executor_width=" + std::to_string(kWidth) +
           " compiler=" __VERSION__);
}

// --------------------------------------------------------------- cold-batch

void run_cold_batch(const Options& opt, std::uint64_t seed, double seconds,
                   SpanLog* log, Result& out) {
  const std::uint64_t k = opt.u64("k");
  const std::uint64_t l = opt.u64("l");
  report_host(out);

  Rng rng(seed);
  std::vector<WalkRequest> job_requests;
  Graph g;
  std::uint32_t diameter = 0;

  struct Job {
    double wall = 0, network = 0, construct = 0, flush = 0, check = 0;
    service::BatchReport report;
    std::size_t violations = 0;
  };
  std::map<std::string, std::size_t> reasons;
  // One job: a fresh Network and WalkService serve the batch. Every job of
  // a run repeats the same seeded batch, so counts repeat exactly.
  const auto run_job = [&](std::uint64_t job_seed) {
    Job j;
    Span job_span(log, "job");
    const double t0 = now_ms();
    std::unique_ptr<congest::Network> net;
    {
      Span s(log, "congest.network");
      net = std::make_unique<congest::Network>(g, job_seed);
    }
    const double t1 = now_ms();
    std::unique_ptr<service::WalkService> svc;
    {
      Span s(log, "service.construct");
      svc = std::make_unique<service::WalkService>(
          *net, diameter, service_config(false));
    }
    const double t2 = now_ms();
    {
      Span s(log, "service.flush");
      j.report = svc->serve(job_requests);
    }
    const double t3 = now_ms();
    {
      Span s(log, "check.validate");
      const GraphView view = view_of(g);
      for (std::size_t i = 0; i < job_requests.size(); ++i) {
        const std::string why =
            check_in_process(job_requests[i], j.report.results[i], view);
        if (!why.empty()) {
          ++j.violations;
          ++reasons[why];
        }
      }
    }
    const double t4 = now_ms();
    svc.reset();
    net.reset();
    j.network = t1 - t0;
    j.construct = t2 - t1;
    j.flush = t3 - t2;
    j.check = t4 - t3;
    j.wall = now_ms() - t0;
    return j;
  };

  // Set-up, repeated: graph + diameter. Every job builds its own Network
  // and WalkService, so nothing else outlives a job.
  std::vector<double> setup_s;
  for (int s = 0; s < kSetups; ++s) {
    const double t0 = now_ms();
    {
      Span sp(log, "graph.build");
      g = build_graph(opt.str("graph"), opt.u64("graph_seed"));
      diameter = exact_diameter(g);
    }
    setup_s.push_back((now_ms() - t0) / 1e3);
  }
  report_setups(out, setup_s);
  out.set("graph.load_ms", quantile(setup_s, 0.5) * 1e3);
  Rng req_rng(seed ^ 0x5eedULL);
  for (std::uint64_t i = 0; i < k; ++i) {
    WalkRequest r;
    r.source = static_cast<NodeId>(req_rng.next_below(g.node_count()));
    r.length = l;
    job_requests.push_back(r);
  }
  const std::uint64_t job_seed = rng();

  // Timed window: closed loop, one job at a time.
  Layers layers;
  std::vector<double> job_ms;
  double network_ms = 0, construct = 0, flush = 0, check = 0, wall = 0;
  const double cpu0 = self_cpu_ms();
  const double start = now_ms();
  const double stop = start + seconds * 1e3;
  std::size_t violations = 0;
  while (job_ms.empty() || now_ms() < stop) {
    const Job j = run_job(job_seed);
    layers.add(j.report, j.flush);
    job_ms.push_back(j.wall);
    violations += j.violations;
    network_ms += j.network;
    construct += j.construct;
    flush += j.flush;
    check += j.check;
    wall += j.wall;
  }
  const double window_ms = now_ms() - start;
  const double cpu_ms = self_cpu_ms() - cpu0;
  const double jobs = double(job_ms.size());

  out.attempted = layers.requests;
  out.failed = violations;
  out.reasons = reasons;
  const double walks = double(layers.walks);
  // Closed loop, one job at a time, so the jobs fill the window: throughput
  // and CPU per walk are window totals. Every request of a job completes
  // when its batch does, so request latency is job latency, and there is a
  // single load level.
  const double walks_per_s = walks / (window_ms / 1e3);
  out.set("walks_per_s", walks_per_s);
  for (const char* tag : {"low", "high"}) {
    out.set(std::string("lat_p50_ms.") + tag, quantile(job_ms, 0.5));
    out.set(std::string("lat_p90_ms.") + tag, quantile(job_ms, 0.9));
  }
  out.set("sustained_rps", walks_per_s);
  out.set("rounds_per_walk", ratio(double(layers.total.rounds), walks));
  out.set("messages_per_walk", ratio(double(layers.total.messages), walks));
  out.set("cpu_ms_per_walk", ratio(cpu_ms, walks));
  out.set("trace.cpu_ms_per_walk", ratio(cpu_ms, walks));
  out.set("peak_rss_mb", self_peak_rss_mb());
  out.set("ok_frac", 1.0 - ratio(double(out.failed), double(out.attempted)));

  layers.emit(out, jobs, cpu_ms, window_ms);
  out.set("congest.network_ms", network_ms / jobs);
  out.set("service.construct_ms", construct / jobs);
  // Shares of job wall time: the layers inside Network::run (Phase 1,
  // stitching, tails + replenishment, regeneration) together, and Phase 1
  // alone. What they leave is the host side: Network and WalkService
  // construction, flush bookkeeping and validation.
  const double phase1_share = ratio(layers.phase1.wall_ms, wall);
  out.set("trace.attributed_frac", ratio(layers.total.wall_ms, wall));
  out.set("core.phase1.share", phase1_share);
  out.set("samples.jobs", jobs);
  const double other_core = std::max(
      {layers.stitch.wall_ms, layers.tails_replenish().wall_ms,
       layers.regen.wall_ms, network_ms, construct, check,
       flush - layers.total.wall_ms});
  char line[256];
  std::snprintf(line, sizeof(line),
                "cold-batch: %zu jobs of %llu walks in %.1f s, job min/p50/max "
                "%.0f/%.0f/%.0f ms; Network::run %.1f%% of job wall, phase1 "
                "%.1f%% (%s layer)",
                job_ms.size(), static_cast<unsigned long long>(k),
                window_ms / 1e3, quantile(job_ms, 0.0), quantile(job_ms, 0.5),
                quantile(job_ms, 1.0),
                100.0 * ratio(layers.total.wall_ms, wall), 100.0 * phase1_share,
                layers.phase1.wall_ms > other_core ? "the largest"
                                                   : "NOT the largest");
  out.note(line);
}

// ------------------------------------------------------------- steady-mixed

void run_steady_mixed(const Options& opt, std::uint64_t seed, double seconds,
                     SpanLog* gen_log, SpanLog* serve_log, Result& out) {
  const Rates rates = read_rates(opt, seconds);
  Traffic traffic{{parse_mix(opt.str("long")), parse_mix(opt.str("short"))},
                {}};
  for (double f : opt.list("pattern")) {
    if (f < 0 || f >= traffic.mixes.size()) die("pattern names no flow");
    traffic.pattern.push_back(static_cast<std::uint32_t>(f));
  }
  report_host(out);

  Graph g;
  std::uint32_t diameter = 0;
  std::unique_ptr<congest::Network> net;
  std::unique_ptr<service::WalkService> svc;
  std::unique_ptr<service::AdmissionQueue> queue;
  std::uint32_t flow_class[2] = {0, 0};

  Book book;
  const std::size_t total = kWarmup * kSetups + rates.requests();
  book.entries.resize(total);
  Rng rng(seed);

  // Serving side: the loop of the shipped server -- drain one DRR batch,
  // submit in admitted order, flush, answer -- with validation.
  Layers layers;
  std::vector<double> wait_ms, drain_us;
  std::size_t rejected = 0;
  const auto serve_batch = [&](const GraphView& view) {
    std::vector<service::AdmissionReject> rejects;
    std::vector<service::PendingRequest> batch;
    {
      Span s(serve_log, "admission.drain");
      const double t = now_ms();
      batch = queue->drain(t, &rejects);
      drain_us.push_back((now_ms() - t) * 1e3);
    }
    for (const auto& rej : rejects) {
      ++rejected;
      book.finish(rej.request.tag, now_ms(), "rejected");
    }
    if (batch.empty()) return;
    const double drained = now_ms();
    for (const auto& p : batch) {
      wait_ms.push_back(drained - book.entries[p.tag].due);
      svc->submit(p.request);
    }
    service::BatchReport report;
    const double t = now_ms();
    {
      Span s(serve_log, "service.flush");
      report = svc->flush();
    }
    layers.add(report, now_ms() - t);
    Span s(serve_log, "check.validate");
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const std::size_t id = batch[i].tag;
      book.finish(id, now_ms(),
                  check_in_process(book.entries[id].request,
                                   report.results[i], view));
    }
  };
  const auto enqueue = [&](std::size_t id) {
    Span s(gen_log, "admission.enqueue", id);
    service::PendingRequest p;
    p.request = book.entries[id].request;
    p.user_source = p.request.source;
    p.flow = book.entries[id].flow;
    p.class_id = flow_class[p.flow];
    p.tag = id;
    p.arrival_ms = now_ms();
    if (queue->enqueue(p) != service::RequestStatus::kOk) {
      book.finish(id, now_ms(), "queue-full");
    }
  };

  // Set-up, repeated: graph + diameter, service, and warm-up requests
  // drained through admission so the inventory exists. The warm-up is
  // drawn from graph_seed, so every run sets up alike; --seed draws the
  // timed traffic.
  std::vector<double> setup_s, graph_ms, construct_ms;
  std::size_t next = 0;
  std::unique_ptr<SourcePicker> picker, warm_picker;
  const std::uint64_t fixed_seed = opt.u64("graph_seed");
  for (int s = 0; s < kSetups; ++s) {
    svc.reset();
    net.reset();
    const double t0 = now_ms();
    {
      Span sp(gen_log, "graph.build");
      g = build_graph(opt.str("graph"), opt.u64("graph_seed"));
      diameter = exact_diameter(g);
    }
    const double t1 = now_ms();
    {
      Span sp(gen_log, "service.construct");
      net = std::make_unique<congest::Network>(g, seed);
      svc = std::make_unique<service::WalkService>(
          *net, diameter, service_config(false));
    }
    construct_ms.push_back(now_ms() - t1);
    graph_ms.push_back(t1 - t0);
    queue = std::make_unique<service::AdmissionQueue>();
    flow_class[0] = queue->intern_class("long");
    flow_class[1] = queue->intern_class("short");
    if (!picker) {
      Rng pick_rng(seed ^ 0x21bfULL);
      picker = std::make_unique<SourcePicker>(g.node_count(),
                                              opt.num("zipf"), pick_rng);
      Rng warm_pick_rng(fixed_seed ^ 0x21bfULL);
      warm_picker = std::make_unique<SourcePicker>(
          g.node_count(), opt.num("zipf"), warm_pick_rng);
    }
    Rng warm_rng(fixed_seed ^ 0x3a7eULL);
    fill_warmup(book, next, kWarmup, traffic, *warm_picker, warm_rng);
    layers = Layers{};
    const GraphView view = view_of(g);
    // Closed loop, one request per batch: the warm-up batches (and so the
    // set-up work) are the same on every run.
    for (std::size_t i = 0; i < kWarmup; ++i) {
      book.entries[next + i].due = now_ms();
      book.mark_sent(next + i);
      enqueue(next + i);
      while (queue->depth() > 0) serve_batch(view);
    }
    next += kWarmup;
    setup_s.push_back((now_ms() - t0) / 1e3);
  }
  count_outcomes(book, 0, next, out);
  if (out.failed != 0) die("warm-up produced invalid results");
  const std::size_t warm_prepares = layers.prepares;
  emit_setup_phase1(out, layers.phase1);
  report_setups(out, setup_s);
  out.set("graph.load_ms", quantile(graph_ms, 0.5));
  out.set("service.construct_ms", quantile(construct_ms, 0.5));

  // Timed window: generator (this thread) and serving thread.
  layers = Layers{};
  wait_ms.clear();
  drain_us.clear();
  rejected = 0;
  const std::size_t first = next;
  fill_requests(book, first, total - first, traffic, *picker, rng);
  const GraphView view = view_of(g);
  std::thread server([&] {
    while (queue->wait_for_work()) serve_batch(view);
  });
  std::vector<double> late;
  const double cpu0 = self_cpu_ms();
  const double start = now_ms();
  const std::vector<Step> steps =
      run_steps(book, first, rates, enqueue, out, late);
  const double window_ms = now_ms() - start;
  const double cpu_ms = self_cpu_ms() - cpu0;
  queue->close();
  server.join();

  count_outcomes(book, first, total, out);
  out.reasons = book.reasons;
  std::size_t walks = 0;
  for (const Step& s : steps) walks += s.walks;
  const service::ServiceStats& life = svc->lifetime();
  out.set("walks_per_s", walks / (window_ms / 1e3));
  out.set("rounds_per_walk",
          ratio(double(life.stats.rounds), double(life.walks)));
  out.set("messages_per_walk",
          ratio(double(life.stats.messages), double(life.walks)));
  out.set("cpu_ms_per_walk", ratio(cpu_ms, double(walks)));
  out.set("trace.cpu_ms_per_walk", ratio(cpu_ms, double(walks)));
  out.set("peak_rss_mb", self_peak_rss_mb());
  out.set("ok_frac", 1.0 - ratio(double(out.failed), double(out.attempted)));
  report_generator(late, out);

  layers.emit(out, 1.0, cpu_ms, window_ms);
  out.set("service.admission.wait_ms.p50", quantile(wait_ms, 0.5));
  out.set("service.admission.wait_ms.p99", quantile(wait_ms, 0.99));
  out.set("service.admission.drain_us", mean(drain_us));
  out.set("service.admission.rejected", double(rejected));
  out.set("setup.phase1.prepares", double(warm_prepares));
  char line[200];
  std::snprintf(line, sizeof(line),
                "steady-mixed: %llu batches in the window, %llu re-prepares "
                "(%.1f ms of Phase 1), hit rate %.3f",
                static_cast<unsigned long long>(layers.batches),
                static_cast<unsigned long long>(layers.prepares),
                layers.phase1.wall_ms,
                ratio(double(layers.hits), double(layers.stitches)));
  out.note(line);
}

// --------------------------------------------------------------- live-paths

struct Child {
  pid_t pid = -1;
  int out_fd = -1;
  std::string pending;  ///< bytes read past the last returned line
};

Child spawn(const std::vector<std::string>& argv, const std::string& err_log) {
  int fds[2];
  if (::pipe(fds) != 0) die("pipe failed");
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_adddup2(&fa, fds[1], 1);
  posix_spawn_file_actions_addclose(&fa, fds[0]);
  posix_spawn_file_actions_addclose(&fa, fds[1]);
  posix_spawn_file_actions_addopen(&fa, 2, err_log.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  std::vector<char*> args;
  for (const std::string& a : argv) {
    args.push_back(const_cast<char*>(a.c_str()));
  }
  args.push_back(nullptr);
  Child c;
  if (posix_spawn(&c.pid, args[0], &fa, nullptr, args.data(), environ) != 0) {
    die("cannot start " + argv[0]);
  }
  posix_spawn_file_actions_destroy(&fa);
  ::close(fds[1]);
  c.out_fd = fds[0];
  g_child = c.pid;
  return c;
}

/// Reads one line of the child's stdout; "" on EOF or timeout.
std::string read_line(Child& c, double timeout_ms) {
  const double until = now_ms() + timeout_ms;
  for (;;) {
    const auto nl = c.pending.find('\n');
    if (nl != std::string::npos) {
      std::string line = c.pending.substr(0, nl);
      c.pending.erase(0, nl + 1);
      return line;
    }
    const double left = until - now_ms();
    if (left <= 0) return "";
    pollfd p{c.out_fd, POLLIN, 0};
    if (::poll(&p, 1, static_cast<int>(left) + 1) <= 0) continue;
    char buf[4096];
    const ssize_t n = ::read(c.out_fd, buf, sizeof(buf));
    if (n <= 0) return "";
    c.pending.append(buf, static_cast<std::size_t>(n));
  }
}

/// SIGTERM, wait (SIGKILL after 30 s), and return the child's rusage and
/// the rest of its stdout.
std::string stop(Child& c, rusage* ru) {
  ::kill(c.pid, SIGTERM);
  int status = 0;
  const double until = now_ms() + 30000.0;
  std::string rest;
  for (;;) {
    const pid_t r = ::wait4(c.pid, &status, WNOHANG, ru);
    if (r == c.pid) break;
    if (now_ms() > until) {
      ::kill(c.pid, SIGKILL);
      ::wait4(c.pid, &status, 0, ru);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  g_child = -1;
  for (std::string line; !(line = read_line(c, 200.0)).empty();) {
    rest += line + "\n";
  }
  ::close(c.out_fd);
  return rest;
}

struct LiveServer {
  Child child;
  std::vector<net::Socket> conns;
  std::vector<double> hello_rtt_ms;
};

/// The benchmark's degree-skewed graph, written as a text edge list with
/// shuffled user ids. Returns the user-space adjacency for validation.
struct UserGraph {
  Graph g;                      ///< generator ids
  std::vector<NodeId> to_user;  ///< generator id -> user id
  std::vector<NodeId> to_gen;   ///< user id -> generator id
};

UserGraph write_graph(const Options& opt, const std::string& path) {
  UserGraph ug;
  ug.g = build_graph(opt.str("graph"), opt.u64("graph_seed"));
  const std::size_t n = ug.g.node_count();
  ug.to_user.resize(n);
  std::iota(ug.to_user.begin(), ug.to_user.end(), 0);
  Rng rng(opt.u64("graph_seed") ^ 0x9b1dULL);
  for (std::size_t i = n; i > 1; --i) {
    std::swap(ug.to_user[i - 1], ug.to_user[rng.next_below(i)]);
  }
  ug.to_gen.resize(n);
  for (std::size_t v = 0; v < n; ++v) ug.to_gen[ug.to_user[v]] = v;
  std::ofstream out(path);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v : ug.g.neighbors(u)) {
      if (u < v) out << ug.to_user[u] << ' ' << ug.to_user[v] << '\n';
    }
  }
  if (!out) die("cannot write " + path);
  return ug;
}

void run_live_paths(const Options& opt, std::uint64_t seed, double seconds,
                   bool traced, SpanLog* send_log, SpanLog* recv_log,
                   Result& out) {
  const Rates rates = read_rates(opt, seconds);
  const std::vector<std::string> classes = {"light", "light", "heavy", "heavy"};
  const Mix light = parse_mix(opt.str("light"));
  const Mix heavy = parse_mix(opt.str("heavy"));
  const Traffic traffic{{light, light, heavy, heavy}, {0, 1, 2, 3}};
  const std::string dir = opt.str("workdir");
  const std::string graph_path = dir + "/live_graph.txt";
  const std::string log_path = dir + "/admission.log";
  report_host(out);

  const UserGraph ug = write_graph(opt, graph_path);
  const NodeId n = static_cast<NodeId>(ug.g.node_count());
  const GraphView view{
      [n](std::uint64_t v) { return v < n; },
      [&ug, n](std::uint64_t u, std::uint64_t v) {
        return u < n && v < n && ug.g.has_edge(ug.to_gen[u], ug.to_gen[v]);
      }};

  Book book;
  const std::size_t total = kWarmup * kSetups + rates.requests();
  book.entries.resize(total);
  Rng rng(seed);
  Rng pick_rng(seed ^ 0x21bfULL);
  const SourcePicker picker(n, 0.0, pick_rng);
  // The warm-up is drawn from graph_seed, so every run sets up alike.
  const std::uint64_t fixed_seed = opt.u64("graph_seed");
  Rng warm_pick_rng(fixed_seed ^ 0x21bfULL);
  const SourcePicker warm_picker(n, 0.0, warm_pick_rng);

  // Received responses, kept for the replay cross-check (traced runs).
  struct Received {
    std::uint64_t admission_index = net::kNotAdmitted;
    std::vector<std::uint32_t> destinations;
    std::vector<std::vector<std::uint32_t>> paths;
  };
  std::vector<Received> received(total);
  // Written by the sending thread (write_us) and the receiving thread (the
  // rest); read once that thread has been joined.
  std::vector<double> write_us;
  std::uint64_t response_bytes = 0;
  std::size_t responses = 0;
  double decode_total_us = 0.0;

  LiveServer live;
  const auto send = [&](std::size_t id) {
    const Book::Entry& e = book.entries[id];
    net::RequestFrame f;
    f.tag = id;
    f.source = e.request.source;
    f.length = e.request.length;
    f.count = e.request.count;
    f.record = e.request.record_positions;
    std::vector<std::uint8_t> payload;
    {
      Span s(send_log, "net.encode", id);
      payload = net::encode_request(f);
    }
    Span s(send_log, "net.write", id);
    const double t = now_ms();
    if (!net::write_frame(live.conns[e.flow], net::FrameType::kRequest,
                          payload, 10000)) {
      die("request write failed");
    }
    write_us.push_back((now_ms() - t) * 1e3);
  };
  // Receiver: one thread polls every connection.
  std::atomic<bool> stop_recv{false};
  const auto receive_loop = [&] {
    std::vector<pollfd> fds;
    for (const net::Socket& s : live.conns) fds.push_back({s.fd(), POLLIN, 0});
    while (!stop_recv.load()) {
      if (::poll(fds.data(), fds.size(), 20) <= 0) continue;
      for (std::size_t c = 0; c < fds.size(); ++c) {
        if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        net::FrameType type{};
        std::vector<std::uint8_t> payload;
        {
          Span s(recv_log, "net.read");
          if (!net::read_frame(live.conns[c], &type, &payload, 10000) ||
              type != net::FrameType::kResponse) {
            die("response read failed");
          }
        }
        const double t = now_ms();
        std::optional<net::ResponseFrame> f;
        {
          Span s(recv_log, "net.decode");
          f = net::decode_response(payload.data(), payload.size());
        }
        const double got = now_ms();
        decode_total_us += (got - t) * 1e3;
        response_bytes += payload.size() + 5;
        ++responses;
        if (!f || f->tag >= total) die("undecodable response");
        const std::size_t id = f->tag;
        const Book::Entry& e = book.entries[id];
        std::string why;
        {
          Span s(recv_log, "check.validate", id);
          why = check_result(
              Expect{e.request.source, e.request.length, e.request.count,
                     e.request.record_positions},
              f->status == 0, f->destinations, f->paths, view);
        }
        if (traced) {
          received[id].admission_index = f->admission_index;
          received[id].destinations = std::move(f->destinations);
          received[id].paths = std::move(f->paths);
        }
        book.finish(id, got, why);
      }
    }
  };

  // Set-up, repeated: spawn the server until `listening:`, connect and
  // HELLO on four connections, and serve the warm-up requests.
  std::vector<double> setup_s, graph_ms;
  std::size_t next = 0;
  std::size_t window_first_index = 0;
  for (int s = 0; s < kSetups; ++s) {
    if (live.child.pid > 0) {
      live.conns.clear();
      rusage ru{};
      stop(live.child, &ru);
    }
    live = LiveServer{};
    const double t0 = now_ms();
    std::vector<std::string> argv = {
        opt.str("drw"), "serve", "--graph=" + graph_path,
        "--seed=" + std::to_string(seed), "--threads=" + std::to_string(kWidth),
        "--paths", "--listen=127.0.0.1:0"};
    if (traced) argv.push_back("--admission-log=" + log_path);
    std::string line;
    {
      Span sp(send_log, "server.spawn");
      live.child = spawn(argv, dir + "/server.stderr");
      const double until = now_ms() + 60000.0;
      do {
        line = read_line(live.child, until - now_ms());
      } while (!line.empty() && line.rfind("listening: ", 0) != 0);
    }
    unsigned port = 0;
    if (std::sscanf(line.c_str(), "listening: %*[^:]:%u", &port) != 1) {
      die("server did not start: '" + line + "' (see " + dir +
          "/server.stderr)");
    }
    graph_ms.push_back(now_ms() - t0);
    for (const std::string& klass : classes) {
      net::Socket sock = net::tcp_connect("127.0.0.1", port, 10000);
      if (!sock.valid()) die("cannot connect to the server");
      const double h0 = now_ms();
      net::HelloFrame hello;
      hello.klass = klass;
      net::FrameType type{};
      std::vector<std::uint8_t> payload;
      if (!net::write_frame(sock, net::FrameType::kHello,
                            net::encode_hello(hello), 10000) ||
          !net::read_frame(sock, &type, &payload, 10000) ||
          type != net::FrameType::kHello) {
        die("HELLO failed");
      }
      const auto reply = net::decode_hello(payload.data(), payload.size());
      if (!reply || reply->node_count != n) die("HELLO reply mismatch");
      live.hello_rtt_ms.push_back(now_ms() - h0);
      live.conns.push_back(std::move(sock));
    }
    Rng warm_rng(fixed_seed ^ 0x3a7eULL);
    fill_warmup(book, next, kWarmup, traffic, warm_picker, warm_rng);
    stop_recv = false;
    std::thread receiver(receive_loop);
    // Closed loop, one request per batch: the warm-up batches (and so the
    // set-up work) are the same on every run.
    for (std::size_t i = 0; i < kWarmup; ++i) {
      book.entries[next + i].due = now_ms();
      book.mark_sent(next + i);
      send(next + i);
      book.wait_all(120000.0);
    }
    stop_recv = true;
    receiver.join();
    next += kWarmup;
    window_first_index = kWarmup;
    setup_s.push_back((now_ms() - t0) / 1e3);
  }
  count_outcomes(book, 0, next, out);
  if (out.failed != 0) die("warm-up produced invalid results");
  report_setups(out, setup_s);
  out.set("graph.load_ms", quantile(graph_ms, 0.5));
  out.set("net.hello_rtt_ms", quantile(live.hello_rtt_ms, 0.5));

  // Timed window.
  const std::size_t first = next;
  fill_requests(book, first, total - first, traffic, picker, rng);
  write_us.clear();
  response_bytes = 0;
  responses = 0;
  decode_total_us = 0.0;
  stop_recv = false;
  std::thread receiver(receive_loop);
  std::vector<double> late;
  const double cpu0 = child_cpu_ms(live.child.pid);
  const double start = now_ms();
  const std::vector<Step> steps =
      run_steps(book, first, rates, send, out, late);
  const double window_ms = now_ms() - start;
  const double cpu_ms = child_cpu_ms(live.child.pid) - cpu0;
  stop_recv = true;
  receiver.join();
  live.conns.clear();
  rusage ru{};
  const std::string summary = stop(live.child, &ru);

  count_outcomes(book, first, total, out);
  out.reasons = book.reasons;
  std::size_t walks = 0;
  for (const Step& s : steps) walks += s.walks;
  // Lifetime of the serving process (warm-up included), from the summary
  // `drw serve` prints when it stops.
  unsigned long long life_req = 0, life_walks = 0, life_batches = 0;
  unsigned long long life_rounds = 0, life_msgs = 0, life_phase1 = 0;
  const auto at = summary.find("served ");
  if (at == std::string::npos ||
      std::sscanf(summary.c_str() + at,
                  "served %llu requests (%llu walks) in %llu batches: "
                  "rounds=%llu messages=%llu | phase1=%llu",
                  &life_req, &life_walks, &life_batches, &life_rounds,
                  &life_msgs, &life_phase1) != 6) {
    die("no serve summary from the server");
  }
  out.set("walks_per_s", walks / (window_ms / 1e3));
  out.set("rounds_per_walk", ratio(double(life_rounds), double(life_walks)));
  out.set("messages_per_walk", ratio(double(life_msgs), double(life_walks)));
  out.set("cpu_ms_per_walk", ratio(cpu_ms, double(walks)));
  out.set("trace.cpu_ms_per_walk", ratio(cpu_ms, double(walks)));
  out.set("peak_rss_mb", ru.ru_maxrss / 1024.0);
  out.set("ok_frac", 1.0 - ratio(double(out.failed), double(out.attempted)));
  report_generator(late, out);

  out.set("net.response_bytes",
          ratio(double(response_bytes), double(responses)));
  out.set("net.decode_us", ratio(decode_total_us, double(responses)));
  out.set("net.write_us", mean(write_us));
  out.set("congest.cpu_util", ratio(cpu_ms, window_ms * kWidth));
  out.set("service.lifetime.prepares", double(life_phase1));

  if (!traced) return;

  // Replay the admission log in process (same graph file, seed and
  // configuration): per-layer attribution of every batch the server ran,
  // and a byte-for-byte cross-check of the live responses.
  const csr::LoadedGraph lg = csr::load_graph(graph_path, kWidth);
  std::vector<std::vector<WalkRequest>> batches;
  {
    std::ifstream in(log_path);
    std::vector<WalkRequest> batch;
    for (std::string line; std::getline(in, line);) {
      if (line.rfind("# batch", 0) == 0) {
        batches.push_back(std::move(batch));
        batch.clear();
        continue;
      }
      unsigned long long src = 0, len = 0;
      unsigned count = 0, rec = 0;
      if (std::sscanf(line.c_str(), "%llu %llu %u %u", &src, &len, &count,
                      &rec) != 4) {
        die("bad admission log line: " + line);
      }
      WalkRequest r;
      r.source = lg.to_internal(static_cast<NodeId>(src));
      r.length = len;
      r.count = count;
      r.record_positions = rec != 0;
      batch.push_back(r);
    }
  }
  congest::Network net(lg.graph, seed);
  service::WalkService svc(
      net, double_sweep_diameter_estimate(lg.graph, 0),
      service_config(true));
  // admission index -> book id, from the live responses to this server:
  // the last set-up's warm-up and every request of the window it sent.
  std::map<std::uint64_t, std::size_t> by_index;
  for (std::size_t id = next - kWarmup; id < total; ++id) {
    if (book.entries[id].sent) {
      by_index[received[id].admission_index] = id;
    }
  }
  Layers layers, warm_layers;
  std::vector<double> overhead;
  std::size_t mismatches = 0;
  std::uint64_t index = 0;
  const double replay_start = now_ms();
  for (const auto& batch : batches) {
    for (const WalkRequest& r : batch) svc.submit(r);
    const double t = now_ms();
    const service::BatchReport report = svc.flush();
    const double flush = now_ms() - t;
    const bool in_window = index >= window_first_index;
    (in_window ? layers : warm_layers).add(report, flush);
    for (const service::RequestResult& r : report.results) {
      const auto it = by_index.find(index++);
      if (it == by_index.end()) continue;
      const std::size_t id = it->second;
      std::vector<std::uint32_t> dests;
      for (NodeId d : r.destinations) dests.push_back(lg.to_user(d));
      std::vector<std::vector<std::uint32_t>> paths;
      for (const auto& p : r.paths) {
        std::vector<std::uint32_t> up;
        for (NodeId v : p) up.push_back(lg.to_user(v));
        paths.push_back(std::move(up));
      }
      if (dests != received[id].destinations || paths != received[id].paths) {
        ++mismatches;
        if (!book.entries[id].failed) {
          ++out.failed;
          ++out.reasons["replay-mismatch"];
        }
      }
      if (in_window && !book.entries[id].failed) {
        overhead.push_back(book.entries[id].done - book.entries[id].due -
                           flush);
      }
    }
  }
  out.set("replay.ms", now_ms() - replay_start);
  emit_setup_phase1(out, warm_layers.phase1);
  out.set("replay.mismatches", double(mismatches));
  out.set("ok_frac", 1.0 - ratio(double(out.failed), double(out.attempted)));
  layers.emit(out, 1.0, cpu_ms, window_ms);
  out.set("service.server.batches", double(layers.batches));
  out.set("service.server.batch_requests",
          ratio(double(layers.requests), double(layers.batches)));
  out.set("service.server.engine_ms", mean(layers.flush_ms));
  out.set("service.server.overhead_ms.p50", quantile(overhead, 0.5));
  out.set("service.server.overhead_ms.p99", quantile(overhead, 0.99));
  char line[200];
  std::snprintf(line, sizeof(line),
                "live-paths: %llu window batches replayed, %llu re-prepares, "
                "%zu replay mismatches",
                static_cast<unsigned long long>(layers.batches),
                static_cast<unsigned long long>(layers.prepares), mismatches);
  out.note(line);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  ::signal(SIGPIPE, SIG_IGN);
  const Options opt(argc, argv);
  const std::string workload = opt.str("workload");
  const std::uint64_t seed = opt.u64("seed");
  const double seconds = opt.num("seconds");
  const bool traced = opt.u64("trace") != 0;

  // One span log per thread that records spans.
  std::vector<std::unique_ptr<SpanLog>> logs;
  const auto new_log = [&]() -> SpanLog* {
    if (!traced) return nullptr;
    logs.push_back(std::make_unique<SpanLog>());
    return logs.back().get();
  };
  Result out;
  const double t0 = now_ms();
  if (workload == "cold-batch") {
    run_cold_batch(opt, seed, seconds, new_log(), out);
  } else if (workload == "steady-mixed") {
    SpanLog* gen = new_log();
    run_steady_mixed(opt, seed, seconds, gen, new_log(), out);
  } else if (workload == "live-paths") {
    SpanLog* send = new_log();
    run_live_paths(opt, seed, seconds, traced, send, new_log(), out);
  } else {
    die("unknown workload " + workload);
  }
  const double run_ms = now_ms() - t0;

  std::vector<const SpanLog*> views;
  std::size_t spans = 0;
  for (const auto& l : logs) {
    views.push_back(l.get());
    spans += l->recs().size();
  }
  for (const auto& [name, ms] : self_times(views)) {
    out.set("self_ms." + name, ms);
  }
  out.set("trace.spans", double(spans));
  out.set("trace.overhead_pct",
          traced ? 100.0 * spans * span_cost_ms() / run_ms : 0.0);
  out.print();
  return 0;
}
