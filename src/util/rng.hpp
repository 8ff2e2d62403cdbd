// Deterministic random number generation.
//
// All stochastic behaviour in the simulators (traffic arrivals, fading,
// thermal noise, payload bits) flows through this generator so that every
// experiment in the paper reproduction is bit-for-bit repeatable from a seed.
// The engine is xoshiro256** (Blackman & Vigna) seeded via SplitMix64; it is
// much faster than std::mt19937_64 and has no observable linear artifacts in
// the outputs we use.
#pragma once

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>

namespace speccal::util {

/// SplitMix64 step; used for seeding and as a cheap stateless hash.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t& state) noexcept;

namespace detail {

/// Ziggurat tables for f(x) = exp(-x^2/2): 256 layers of equal area. x[0]
/// is the base layer's width (rectangle plus tail), x[1] = R, x[i] falls
/// towards x[256] = 0; ratio[i] = x[i+1] / x[i] is the fraction of layer i
/// lying wholly under the curve and f[i] = f(x[i]). Built once, at static
/// initialisation, in rng.cpp.
struct ZigguratTables {
  static constexpr int kLayers = 256;
  static constexpr double kR = 3.6541528853610088;
  static constexpr double kV = 0.00492867323399;

  std::array<double, kLayers + 1> x{};
  std::array<double, kLayers + 1> f{};
  std::array<double, kLayers> ratio{};

  ZigguratTables() noexcept;
};

extern const ZigguratTables kZiggurat;

}  // namespace detail

/// xoshiro256** PRNG with convenience distributions.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull) noexcept;

  /// Next raw 64-bit value. Inline so per-sample loops keep the state in
  /// registers.
  [[nodiscard]] std::uint64_t next() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  // UniformRandomBitGenerator interface so Rng works with <algorithm>.
  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~0ull; }
  result_type operator()() noexcept { return next(); }

  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform() noexcept;

  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) noexcept;

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  [[nodiscard]] std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept;

  /// Standard normal via Box-Muller (cached second variate). Scenario
  /// draws (tracks, offsets, `poisson`'s approximation) use this stream.
  [[nodiscard]] double normal() noexcept;

  /// Standard normal via a 256-layer ziggurat (Marsaglia & Tsang 2000, in
  /// Doornik's layout). About 98.5% of calls take one `next()` and no libm
  /// call; the wedge and tail fall back to exp/log. Per-sample noise uses
  /// this stream; it is independent of `normal()`'s cached variate.
  [[nodiscard]] double ziggurat_normal() noexcept {
    // One draw feeds both the layer (low 8 bits) and a signed uniform in
    // [-1, 1) from the top 53 bits; the two bit ranges do not overlap.
    const auto& zig = detail::kZiggurat;
    const std::uint64_t bits = next();
    const auto layer = static_cast<std::size_t>(bits % zig.kLayers);
    const double u = static_cast<double>(static_cast<std::int64_t>(bits) >> 11) * 0x1.0p-52;
    if (std::fabs(u) < zig.ratio[layer]) return u * zig.x[layer];
    return ziggurat_edge(layer, u);
  }

  /// Normal with mean/stddev.
  [[nodiscard]] double normal(double mean, double stddev) noexcept;

  /// Exponential with the given rate (events per unit).
  [[nodiscard]] double exponential(double rate) noexcept;

  /// Poisson-distributed count with the given mean (Knuth for small means,
  /// normal approximation above 64).
  [[nodiscard]] std::uint32_t poisson(double mean) noexcept;

  /// Bernoulli trial.
  [[nodiscard]] bool chance(double probability) noexcept;

  /// Fork an independent child stream (stable function of parent state
  /// and `stream_id`, does not advance this generator).
  [[nodiscard]] Rng fork(std::uint64_t stream_id) const noexcept;

 private:
  [[nodiscard]] static std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  /// The ziggurat's slow path: the base layer's tail or a layer's wedge,
  /// redrawing until a sample is accepted.
  [[nodiscard]] double ziggurat_edge(std::size_t layer, double u) noexcept;

  std::array<std::uint64_t, 4> state_{};
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace speccal::util
