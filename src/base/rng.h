// Deterministic random number generation.
//
// Every stochastic element of the simulation (background load, network
// jitter, random placement, arrival processes) draws from an explicitly
// seeded generator so that experiments are bit-for-bit reproducible.
// xoshiro256** with a splitmix64 seeder; no global RNG state.
#pragma once

#include <cstdint>
#include <vector>

namespace legion {

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  // Uniform 64-bit value.
  std::uint64_t Next();

  // Uniform in [0, bound) without modulo bias (Lemire's method).
  std::uint64_t NextBelow(std::uint64_t bound);

  // Uniform integer in [lo, hi] inclusive.
  std::int64_t UniformInt(std::int64_t lo, std::int64_t hi);

  // Uniform double in [0, 1).
  double UniformDouble();

  // Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  // Bernoulli trial with probability p.
  bool Bernoulli(double p);

  // Exponential with the given mean (> 0).
  double Exponential(double mean);

  // Standard normal via polar Box-Muller (cached spare value).
  double Normal(double mean = 0.0, double stddev = 1.0);

  // Picks an index in [0, n); undefined for n == 0.
  std::size_t Index(std::size_t n) {
    return static_cast<std::size_t>(NextBelow(n));
  }

  // Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = Index(i);
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

 private:
  std::uint64_t s_[4];
  double spare_normal_ = 0.0;
  bool has_spare_normal_ = false;
};

}  // namespace legion
