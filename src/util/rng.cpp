#include "util/rng.hpp"

#include <cassert>

namespace drw {

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t s = seed;
  for (auto& word : state_) word = splitmix64(s);
  // xoshiro's state must not be all zero; splitmix64 cannot emit four zero
  // words in a row, so no further handling is required.
}

std::int64_t Rng::next_in(std::int64_t lo, std::int64_t hi) noexcept {
  assert(lo <= hi);
  const auto range = static_cast<std::uint64_t>(hi - lo) + 1;
  if (range == 0) return static_cast<std::int64_t>((*this)());  // full range
  return lo + static_cast<std::int64_t>(next_below(range));
}

double Rng::next_double() noexcept {
  // 53 random bits scaled into [0,1); standard xoshiro recipe.
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

bool Rng::next_bool(double p) noexcept {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return next_double() < p;
}

Rng Rng::split() noexcept {
  Rng child(0);
  std::uint64_t s = (*this)();
  for (auto& word : child.state_) word = splitmix64(s);
  return child;
}

Rng Rng::split_key(std::uint64_t key) const noexcept {
  // Mix the parent state with the key; the parent is not advanced so the
  // mapping key -> stream is stable for a given parent state.
  std::uint64_t s = state_[0] ^ (key * 0x9e3779b97f4a7c15ULL) ^ state_[3];
  Rng child(0);
  for (auto& word : child.state_) word = splitmix64(s);
  return child;
}

std::size_t Rng::pick_weighted(std::span<const double> weights) noexcept {
  double total = 0.0;
  for (double w : weights) {
    assert(w >= 0.0);
    total += w;
  }
  assert(total > 0.0);
  double r = next_double() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    r -= weights[i];
    if (r < 0.0) return i;
  }
  // Floating-point slack: fall back to the last positive weight.
  for (std::size_t i = weights.size(); i-- > 0;) {
    if (weights[i] > 0.0) return i;
  }
  return weights.size() - 1;
}

}  // namespace drw
