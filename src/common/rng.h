// Deterministic random number generation for reproducible traces and
// simulations. Every stochastic component takes an explicit Rng (or a seed)
// so that benches regenerate identical numbers run-to-run.
#pragma once

#include <cstdint>
#include <memory>
#include <random>
#include <vector>

namespace muri {

// Derives an independent substream seed from (seed, salt) via a SplitMix64
// finalizer. Components that own one stream per entity (per job, per
// machine) key it this way so that adding or removing entity k never
// perturbs the draws of entity k+1. The engine seeds each job's
// Mt64Substream (below) with it.
inline std::uint64_t substream_seed(std::uint64_t seed,
                                    std::uint64_t salt) noexcept {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// A per-entity substream that yields std::mt19937_64(seed)'s raw 64-bit
// words, draw for draw, without the engine's 2.5 KB state while it is
// short. For k < 156, output k of a freshly seeded mt19937_64 is the
// tempered twist of seed words x[k], x[k+1] and x[k+156] alone (the first
// half of the first twist reads no word it has already rewritten), so two
// cursors over the seeding recurrence produce it. Draw 156 on come from a
// real std::mt19937_64(seed), built and advanced 156 draws only then.
//
// Identity contract: the raw words equal std::mt19937_64's, which the
// standard fixes on every platform. A <random> distribution drawn over
// them (e.g. std::exponential_distribution) gives what it gives over
// std::mt19937_64 with the same standard library. Construction stores
// the seed only.
class Mt64Substream {
 public:
  using result_type = std::uint64_t;

  explicit Mt64Substream(std::uint64_t seed = std::mt19937_64::default_seed)
      noexcept
      : seed_(seed) {}

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() {
    if (k_ >= kLazyDraws) return tail_draw();
    if (k_ == 0) {
      lo_ = seed_;
      hi_ = seed_;
      for (std::uint64_t i = 1; i <= kShift; ++i) hi_ = seed_step(hi_, i);
    }
    // One step of the first twist, on x[k] (lo_), x[k+1] and x[k+156]
    // (hi_); both cursors then advance one word. After the last lazy draw
    // hi_ steps past x[311]; that word is never read.
    const std::uint64_t next = seed_step(lo_, k_ + 1);
    const std::uint64_t y = (lo_ & kUpperMask) | (next & ~kUpperMask);
    std::uint64_t z = hi_ ^ (y >> 1) ^ ((y & 1) != 0 ? Engine::xor_mask : 0);
    lo_ = next;
    hi_ = seed_step(hi_, k_ + kShift + 1);
    ++k_;
    z ^= (z >> Engine::tempering_u) & Engine::tempering_d;
    z ^= (z << Engine::tempering_s) & Engine::tempering_b;
    z ^= (z << Engine::tempering_t) & Engine::tempering_c;
    return z ^ (z >> Engine::tempering_l);
  }

 private:
  using Engine = std::mt19937_64;
  static constexpr std::uint64_t kShift = Engine::shift_size;  // 156
  static constexpr std::uint64_t kLazyDraws = Engine::state_size - kShift;
  static constexpr std::uint64_t kUpperMask = ~std::uint64_t{0}
                                              << Engine::mask_bits;

  // Seed word i from word i-1 (the engine's seeding recurrence).
  static std::uint64_t seed_step(std::uint64_t x, std::uint64_t i) {
    return Engine::initialization_multiplier * (x ^ (x >> 62)) + i;
  }
  result_type tail_draw();

  std::uint64_t seed_;
  std::uint64_t lo_ = 0;  // seed word x[k]
  std::uint64_t hi_ = 0;  // seed word x[k + 156]
  std::uint64_t k_ = 0;   // draws taken, up to kLazyDraws
  std::unique_ptr<Engine> tail_;  // draws kLazyDraws on
};

// Thin wrapper over a fixed-algorithm engine (mt19937_64). Its raw words
// are the same on every platform; the <random> distributions below are the
// standard library's own, so uniform, uniform_int, exponential, normal and
// lognormal values are stable for one library (the goldens pin libstdc++
// with g++ 12), not across libraries.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 42) : engine_(seed) {}

  // Uniform in [0, 1).
  double uniform() { return unit_(engine_); }

  // Uniform in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  // Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    std::uniform_int_distribution<std::int64_t> d(lo, hi);
    return d(engine_);
  }

  // Exponential with the given rate (events per unit time).
  double exponential(double rate) {
    std::exponential_distribution<double> d(rate);
    return d(engine_);
  }

  // Log-normal with the given parameters of the underlying normal.
  double lognormal(double mu, double sigma) {
    std::lognormal_distribution<double> d(mu, sigma);
    return d(engine_);
  }

  double normal(double mean, double stddev) {
    std::normal_distribution<double> d(mean, stddev);
    return d(engine_);
  }

  bool bernoulli(double p) { return uniform() < p; }

  // Samples an index in [0, weights.size()) proportionally to weights.
  // Precondition: weights non-empty with non-negative entries, positive sum.
  std::size_t weighted_index(const std::vector<double>& weights);

  // Splits off an independent sub-stream; used to give each component its
  // own generator so adding draws in one place does not perturb another.
  Rng fork() { return Rng(engine_()); }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
  std::uniform_real_distribution<double> unit_{0.0, 1.0};
};

}  // namespace muri
