#include "util/rng.hpp"

#include <cmath>

#include "util/units.hpp"

namespace speccal::util {

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

namespace detail {

ZigguratTables::ZigguratTables() noexcept {
  double fx = std::exp(-0.5 * kR * kR);
  x[0] = kV / fx;
  x[1] = kR;
  for (int i = 2; i < kLayers; ++i) {
    x[i] = std::sqrt(-2.0 * std::log(kV / x[i - 1] + fx));
    fx = std::exp(-0.5 * x[i] * x[i]);
  }
  x[kLayers] = 0.0;
  for (int i = 0; i <= kLayers; ++i) f[i] = std::exp(-0.5 * x[i] * x[i]);
  for (int i = 0; i < kLayers; ++i) ratio[i] = x[i + 1] / x[i];
}

const ZigguratTables kZiggurat;

}  // namespace detail

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t s = seed;
  for (auto& word : state_) word = splitmix64(s);
}

double Rng::uniform() noexcept {
  // 53 random mantissa bits -> [0, 1).
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * uniform();
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<std::int64_t>(next());  // full range
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = max() - max() % span;
  std::uint64_t v = next();
  while (v >= limit) v = next();
  return lo + static_cast<std::int64_t>(v % span);
}

double Rng::normal() noexcept {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = uniform();
  while (u1 <= 0.0) u1 = uniform();
  const double u2 = uniform();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double angle = 2.0 * kPi * u2;
  cached_normal_ = radius * std::sin(angle);
  has_cached_normal_ = true;
  return radius * std::cos(angle);
}

double Rng::ziggurat_edge(std::size_t layer, double u) noexcept {
  constexpr double kR = detail::ZigguratTables::kR;
  if (layer == 0) {
    // Tail beyond R (Marsaglia 1964).
    double tx = 0.0, ty = 0.0;
    do {
      double u1 = uniform();
      while (u1 <= 0.0) u1 = uniform();
      double u2 = uniform();
      while (u2 <= 0.0) u2 = uniform();
      tx = std::log(u1) / kR;
      ty = std::log(u2);
    } while (-2.0 * ty < tx * tx);
    return u < 0.0 ? tx - kR : kR - tx;
  }
  // Wedge: accept x when a uniform height within the layer lies under f;
  // otherwise start over with a fresh draw.
  const auto& zig = detail::kZiggurat;
  const double x = u * zig.x[layer];
  const double height = zig.f[layer] + uniform() * (zig.f[layer + 1] - zig.f[layer]);
  if (height < std::exp(-0.5 * x * x)) return x;
  return ziggurat_normal();
}

double Rng::normal(double mean, double stddev) noexcept {
  return mean + stddev * normal();
}

double Rng::exponential(double rate) noexcept {
  double u = uniform();
  while (u <= 0.0) u = uniform();
  return -std::log(u) / rate;
}

std::uint32_t Rng::poisson(double mean) noexcept {
  if (mean <= 0.0) return 0;
  if (mean < 64.0) {
    // Knuth's multiplication method.
    const double limit = std::exp(-mean);
    double product = uniform();
    std::uint32_t count = 0;
    while (product > limit) {
      ++count;
      product *= uniform();
    }
    return count;
  }
  // Normal approximation with continuity correction for large means.
  const double sample = normal(mean, std::sqrt(mean));
  return sample <= 0.0 ? 0u : static_cast<std::uint32_t>(sample + 0.5);
}

bool Rng::chance(double probability) noexcept {
  if (probability <= 0.0) return false;
  if (probability >= 1.0) return true;
  return uniform() < probability;
}

Rng Rng::fork(std::uint64_t stream_id) const noexcept {
  std::uint64_t s = state_[0] ^ rotl(state_[3], 13) ^ (stream_id * 0xD1B54A32D192ED03ull);
  Rng child(0);
  for (auto& word : child.state_) word = splitmix64(s);
  return child;
}

}  // namespace speccal::util
