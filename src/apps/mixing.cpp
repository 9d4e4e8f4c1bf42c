#include "apps/mixing.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <stdexcept>
#include <unordered_map>

#include "congest/primitives.hpp"
#include "core/random_walks.hpp"
#include "service/walk_service.hpp"

namespace drw::apps {

namespace {

/// Produces k endpoint samples of l-step walks from the estimator's source,
/// charging the cost to `stats`. Lets the estimator run over either raw
/// MANY-RANDOM-WALKS batches or a WalkService.
using WalkSampler = std::function<std::vector<NodeId>(
    std::uint64_t l, std::uint32_t k, congest::RunStats& stats)>;

/// Geometric bucket of a node with degree `deg` when 2m = `two_m`:
/// bucket(v) = floor(log_ratio(2m / d(v))), computable node-locally.
std::uint32_t bucket_of(std::uint64_t deg, std::uint64_t two_m,
                        double ratio) {
  const double x = static_cast<double>(two_m) / static_cast<double>(deg);
  return static_cast<std::uint32_t>(
      std::floor(std::log(x) / std::log(ratio)));
}

std::uint32_t bucket_count(std::uint64_t two_m, double ratio) {
  return bucket_of(1, two_m, ratio) + 1;
}

}  // namespace

ClosenessStats closeness_statistics(
    const std::vector<std::pair<std::uint64_t, std::uint64_t>>& dest_counts,
    std::uint64_t two_m, std::uint64_t sum_deg_sq, std::size_t n,
    std::uint64_t total, double bucket_ratio) {
  if (total < 2) throw std::invalid_argument("closeness_statistics: total<2");
  (void)bucket_ratio;  // bucket L1 needs the exact masses and is finalized
                       // by estimate_mixing_time; this computes the
                       // collision statistics.
  const double k = static_cast<double>(total);
  const double m2 = static_cast<double>(two_m);
  ClosenessStats out;

  // Collision-based unbiased estimate of ||X||_2^2: sum c_d (c_d - 1) over
  // distinct endpoints, divided by K (K - 1).
  double collisions = 0.0;
  double inner = 0.0;  // <X, Y> estimate: mean of pi(sample)
  for (const auto& [count, deg] : dest_counts) {
    const double c = static_cast<double>(count);
    collisions += c * (c - 1.0);
    inner += c * (static_cast<double>(deg) / m2);
  }
  const double x_norm_sq = collisions / (k * (k - 1.0));
  const double xy = inner / k;
  const double y_norm_sq =
      static_cast<double>(sum_deg_sq) / (m2 * m2);
  out.l2_squared = x_norm_sq - 2.0 * xy + y_norm_sq;
  out.l1_upper = std::sqrt(static_cast<double>(n) *
                           std::max(0.0, out.l2_squared));
  return out;
}

namespace {

MixingEstimate estimate_mixing_with_sampler(congest::Network& net,
                                            NodeId source,
                                            bool uniform_target,
                                            const MixingOptions& options,
                                            const WalkSampler& sampler) {
  const Graph& g = net.graph();
  const std::size_t n = g.node_count();
  if (n < 2) throw std::invalid_argument("estimate_mixing_time: n < 2");
  if (options.bucket_ratio <= 1.0) {
    throw std::invalid_argument("estimate_mixing_time: bucket_ratio <= 1");
  }

  MixingEstimate est;
  const double logn =
      std::log2(static_cast<double>(std::max<std::size_t>(n, 2)));
  est.samples =
      options.samples != 0
          ? options.samples
          : static_cast<std::uint32_t>(std::ceil(
                options.c_samples * std::sqrt(static_cast<double>(n)) *
                logn));
  const double threshold = options.pass_threshold != 0.0
                               ? options.pass_threshold
                               : 1.0 / (2.0 * std::exp(1.0));
  const std::uint64_t max_length =
      options.max_length != 0
          ? options.max_length
          : static_cast<std::uint64_t>(n) * n * n;

  // Infrastructure: BFS tree from the source; learn the total stationary
  // weight W and sum of squared weights so pi(v) = w(v)/W and ||pi||_2^2
  // are known; broadcast W so every node can bucket itself. The weight is
  // deg(v) for the simple/lazy chains (pi = deg/2m) and 1 for
  // Metropolis-Hastings (pi uniform) -- node-local either way.
  auto weight_of = [&](NodeId v) -> std::uint64_t {
    return uniform_target ? 1 : g.degree(v);
  };
  congest::BfsTree tree = congest::build_bfs_tree(net, source, est.stats);
  std::vector<std::uint64_t> degrees(n);
  std::vector<std::uint64_t> degrees_sq(n);
  for (NodeId v = 0; v < n; ++v) {
    degrees[v] = weight_of(v);
    degrees_sq[v] = weight_of(v) * weight_of(v);
  }
  congest::ConvergecastSum degree_sum(tree, degrees);
  est.stats += net.run(degree_sum);
  const std::uint64_t two_m = degree_sum.root_sum();
  congest::ConvergecastSum degree_sq_sum(tree, degrees_sq);
  est.stats += net.run(degree_sq_sum);
  const std::uint64_t sum_deg_sq = degree_sq_sum.root_sum();
  est.stats += congest::charged_broadcast(
      tree, congest::Message{0, {two_m, 0, 0, 0}}, nullptr);

  const std::uint32_t buckets = bucket_count(two_m, options.bucket_ratio);
  est.buckets = buckets;

  // Exact bucket masses of pi via one pipelined vector upcast of per-node
  // degree indicators (integer-exact), O(D + #buckets) rounds.
  std::vector<std::vector<std::uint64_t>> indicator(
      n, std::vector<std::uint64_t>(buckets, 0));
  for (NodeId v = 0; v < n; ++v) {
    indicator[v][bucket_of(weight_of(v), two_m, options.bucket_ratio)] =
        weight_of(v);
  }
  congest::PipelinedVectorUpcast mass_upcast(tree, std::move(indicator));
  est.stats += net.run(mass_upcast);
  std::vector<double> masses(buckets, 0.0);
  for (std::uint32_t b = 0; b < buckets; ++b) {
    masses[b] = static_cast<double>(mass_upcast.root_vector()[b]) /
                static_cast<double>(two_m);
  }

  // One PASS/FAIL probe: K walks from the source; each endpoint holds its
  // sample count and sends one (node, count, degree) record up the tree.
  auto test_length = [&](std::uint64_t l) -> bool {
    const std::vector<NodeId> destinations =
        sampler(l, est.samples, est.stats);

    std::vector<std::uint64_t> per_node(n, 0);
    for (NodeId dest : destinations) ++per_node[dest];
    std::vector<std::vector<congest::PipelinedListUpcast::Record>> records(
        n);
    for (NodeId v = 0; v < n; ++v) {
      if (per_node[v] > 0) {
        records[v].push_back({v, per_node[v], weight_of(v)});
      }
    }
    congest::PipelinedListUpcast collect(tree, std::move(records));
    est.stats += net.run(collect);

    std::vector<std::pair<std::uint64_t, std::uint64_t>> dest_counts;
    std::vector<double> sampled_mass(buckets, 0.0);
    for (const auto& r : collect.root_records()) {
      dest_counts.emplace_back(r[1], r[2]);
      sampled_mass[bucket_of(r[2], two_m, options.bucket_ratio)] +=
          static_cast<double>(r[1]) / static_cast<double>(est.samples);
    }
    ClosenessStats stats = closeness_statistics(
        dest_counts, two_m, sum_deg_sq, n, est.samples,
        options.bucket_ratio);
    stats.bucket_l1 = 0.0;
    for (std::uint32_t b = 0; b < buckets; ++b) {
      stats.bucket_l1 += std::abs(sampled_mass[b] - masses[b]);
    }
    ++est.lengths_tested;
    return stats.bucket_l1 <= threshold && stats.l1_upper <= threshold;
  };

  // Doubling phase: bracket the crossover between FAIL and PASS.
  std::uint64_t l = 1;
  std::uint64_t first_pass = 0;
  while (true) {
    if (test_length(l)) {
      first_pass = l;
      est.converged = true;
      break;
    }
    est.last_fail = l;
    if (l > max_length) break;
    l *= 2;
  }

  if (!est.converged) {
    est.tau = l;
    return est;
  }

  if (options.binary_search) {
    // Monotonicity (Lemma 4.4) admits a binary search in (last_fail,
    // first_pass].
    std::uint64_t lo = est.last_fail;
    std::uint64_t hi = first_pass;
    while (lo + 1 < hi) {
      const std::uint64_t mid = lo + (hi - lo) / 2;
      if (test_length(mid)) {
        hi = mid;
      } else {
        lo = mid;
      }
    }
    est.tau = hi;
  } else {
    est.tau = first_pass;
  }

  // Derived global metrics (Section 4.2 closing remarks).
  const double tau = static_cast<double>(std::max<std::uint64_t>(est.tau, 1));
  const double ln_n = std::log(static_cast<double>(n));
  est.gap_lower = 1.0 / tau;
  est.gap_upper = std::min(1.0, ln_n / tau);
  est.conductance_lower = est.gap_lower / 2.0;
  est.conductance_upper = std::min(1.0, std::sqrt(2.0 * est.gap_upper));
  return est;
}

/// Shared expander-verdict derivation; `estimate` runs the estimator with
/// the capped options.
ExpanderVerdict expander_verdict(
    std::size_t n, double c_threshold, const MixingOptions& options,
    const std::function<MixingEstimate(const MixingOptions&)>& estimate) {
  const double logn =
      std::log2(static_cast<double>(std::max<std::size_t>(n, 2)));
  ExpanderVerdict verdict;
  verdict.threshold = c_threshold * logn * logn;

  MixingOptions capped = options;
  // No need to keep testing past the threshold: cap the doubling there.
  if (capped.max_length == 0) {
    capped.max_length =
        static_cast<std::uint64_t>(4.0 * verdict.threshold) + 2;
  }
  const MixingEstimate est = estimate(capped);
  verdict.tau = est.tau;
  verdict.stats = est.stats;
  verdict.is_expander =
      est.converged &&
      static_cast<double>(est.tau) <= verdict.threshold;
  verdict.gap_lower =
      est.tau > 0 ? 1.0 / static_cast<double>(est.tau) : 0.0;
  return verdict;
}

}  // namespace

MixingEstimate estimate_mixing_time(congest::Network& net, NodeId source,
                                    const core::Params& params,
                                    std::uint32_t diameter,
                                    const MixingOptions& options) {
  return estimate_mixing_with_sampler(
      net, source,
      params.transition == TransitionModel::kMetropolisUniform, options,
      [&](std::uint64_t l, std::uint32_t k, congest::RunStats& stats) {
        const std::vector<NodeId> sources(k, source);
        core::ManyWalksOutput walks =
            core::many_random_walks(net, sources, l, params, diameter);
        stats += walks.stats;
        return walks.destinations;
      });
}

MixingEstimate estimate_mixing_time_via_service(
    service::WalkService& service, NodeId source,
    const MixingOptions& options) {
  return estimate_mixing_with_sampler(
      service.network(), source,
      service.config().params.transition ==
          TransitionModel::kMetropolisUniform,
      options,
      [&service, source](std::uint64_t l, std::uint32_t k,
                         congest::RunStats& stats) {
        service::BatchReport report =
            service.serve({service::WalkRequest{source, l, k}});
        stats += report.stats;
        return std::move(report.results[0].destinations);
      });
}

ExpanderVerdict check_expander(congest::Network& net, NodeId source,
                               const core::Params& params,
                               std::uint32_t diameter, double c_threshold,
                               const MixingOptions& options) {
  return expander_verdict(
      net.graph().node_count(), c_threshold, options,
      [&](const MixingOptions& capped) {
        return estimate_mixing_time(net, source, params, diameter, capped);
      });
}

ExpanderVerdict check_expander_via_service(service::WalkService& service,
                                           NodeId source, double c_threshold,
                                           const MixingOptions& options) {
  return expander_verdict(
      service.network().graph().node_count(), c_threshold, options,
      [&](const MixingOptions& capped) {
        return estimate_mixing_time_via_service(service, source, capped);
      });
}

}  // namespace drw::apps
