// Deterministic random number generation for the whole library.
//
// Every stochastic component (graph generators, distributed protocols,
// benchmark workloads) draws from an Rng seeded from a single master seed, so
// all tests and experiments are exactly reproducible. Per-node randomness in
// distributed protocols uses `Rng::split`, which derives statistically
// independent child streams (SplitMix64 over the parent state), mirroring how
// each processor in the CONGEST model owns a private coin.
#pragma once

#include <array>
#include <bit>
#include <cassert>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

namespace drw {

/// xoshiro256** by Blackman & Vigna: fast, high-quality, 2^256-1 period.
/// Satisfies std::uniform_random_bit_generator so it composes with <random>.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four-word state from `seed` via SplitMix64 (recommended
  /// initialization; avoids the all-zero state for every seed).
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  /// Next 64 uniformly random bits. Defined inline, like next_below: the
  /// token-walk kernel draws once per hop and must not pay a call for it.
  result_type operator()() noexcept {
    const std::uint64_t result = std::rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = std::rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). Precondition: bound > 0.
  /// Uses Lemire's multiply-shift rejection method (unbiased).
  std::uint64_t next_below(std::uint64_t bound) noexcept {
    assert(bound > 0);
    std::uint64_t x = (*this)();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto low = static_cast<std::uint64_t>(m);
    if (low < bound) {
      const std::uint64_t threshold = (0 - bound) % bound;
      while (low < threshold) {
        x = (*this)();
        m = static_cast<__uint128_t>(x) * bound;
        low = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive. Precondition: lo <= hi.
  std::int64_t next_in(std::int64_t lo, std::int64_t hi) noexcept;

  /// Uniform double in [0, 1).
  double next_double() noexcept;

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool next_bool(double p) noexcept;

  /// Derives an independent child stream. Children of distinct calls are
  /// distinct; the parent advances so repeated splits differ.
  Rng split() noexcept;

  /// Derives a child stream keyed by `key` *without* advancing the parent.
  /// Used to give node i of a network its own stream: `master.split_key(i)`.
  Rng split_key(std::uint64_t key) const noexcept;

  /// Uniformly samples an index by nonnegative weights; sum must be > 0.
  std::size_t pick_weighted(std::span<const double> weights) noexcept;

  /// The raw four-word generator state, for checkpointing (drw::resil).
  /// Restoring it with set_state() resumes the stream exactly where the
  /// snapshot left it.
  const std::array<std::uint64_t, 4>& state() const noexcept { return state_; }

  /// Restores a previously captured state. The all-zero state is a fixed
  /// point of xoshiro256** and is rejected by falling back to reseeding
  /// (it can only come from a corrupt snapshot, which the checksum layer
  /// should already have caught).
  void set_state(const std::array<std::uint64_t, 4>& state) noexcept {
    if (state[0] == 0 && state[1] == 0 && state[2] == 0 && state[3] == 0) {
      *this = Rng();
      return;
    }
    state_ = state;
  }

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) noexcept {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = next_below(i);
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

 private:
  std::array<std::uint64_t, 4> state_{};
};

/// SplitMix64 step: the canonical 64-bit mixer used for seeding.
std::uint64_t splitmix64(std::uint64_t& state) noexcept;

}  // namespace drw
