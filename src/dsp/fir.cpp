#include "dsp/fir.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

#include "dsp/simd.hpp"

namespace speccal::dsp {

namespace {
[[nodiscard]] double sinc(double x) noexcept {
  if (std::fabs(x) < 1e-12) return 1.0;
  const double px = std::numbers::pi * x;
  return std::sin(px) / px;
}
}  // namespace

std::vector<double> design_lowpass(double sample_rate_hz, double cutoff_hz,
                                   std::size_t taps, WindowType window) {
  if (sample_rate_hz <= 0.0 || cutoff_hz <= 0.0 || cutoff_hz >= sample_rate_hz / 2.0)
    throw std::invalid_argument("design_lowpass: cutoff must be in (0, fs/2)");
  if (taps < 3) throw std::invalid_argument("design_lowpass: need >= 3 taps");
  if (taps % 2 == 0) ++taps;  // force odd length for a symmetric type-I filter

  const double fc = cutoff_hz / sample_rate_hz;  // normalized (cycles/sample)
  const auto win = make_window(window, taps);
  const double mid = static_cast<double>(taps - 1) / 2.0;

  std::vector<double> h(taps);
  double gain = 0.0;
  for (std::size_t i = 0; i < taps; ++i) {
    const double n = static_cast<double>(i) - mid;
    h[i] = 2.0 * fc * sinc(2.0 * fc * n) * win[i];
    gain += h[i];
  }
  for (auto& v : h) v /= gain;  // unity DC gain
  return h;
}

std::vector<std::complex<double>> design_bandpass(double sample_rate_hz, double low_hz,
                                                  double high_hz, std::size_t taps,
                                                  WindowType window) {
  if (high_hz <= low_hz)
    throw std::invalid_argument("design_bandpass: high must exceed low");
  const double width = high_hz - low_hz;
  const double center = (high_hz + low_hz) / 2.0;
  if (width / 2.0 >= sample_rate_hz / 2.0)
    throw std::invalid_argument("design_bandpass: band wider than Nyquist");

  const auto proto = design_lowpass(sample_rate_hz, width / 2.0, taps, window);
  const double mid = static_cast<double>(proto.size() - 1) / 2.0;
  const double w0 = 2.0 * std::numbers::pi * center / sample_rate_hz;

  std::vector<std::complex<double>> h(proto.size());
  for (std::size_t i = 0; i < proto.size(); ++i) {
    const double phase = w0 * (static_cast<double>(i) - mid);
    h[i] = proto[i] * std::complex<double>(std::cos(phase), std::sin(phase));
  }
  return h;
}

FirFilter::FirFilter(std::vector<std::complex<double>> taps) : taps_(std::move(taps)) {
  if (taps_.empty()) throw std::invalid_argument("FirFilter: empty taps");
  rev_taps_.assign(taps_.rbegin(), taps_.rend());
  delay_.assign(2 * taps_.size(), {0.0, 0.0});
}

// One streaming step: write the sample into both images of the doubled
// delay line, then take the contiguous window [pos_+1, pos_+n] (oldest to
// newest) against the reversed taps.
std::complex<double> FirFilter::step(std::complex<float> s) noexcept {
  const std::size_t n = rev_taps_.size();
  const std::complex<double> x(s.real(), s.imag());
  delay_[pos_] = x;
  delay_[pos_ + n] = x;
  const auto acc = simd::cdot(rev_taps_.data(), delay_.data() + pos_ + 1, n);
  pos_ = (pos_ + 1 == n) ? 0 : pos_ + 1;
  return acc;
}

void FirFilter::filter_into(std::span<const std::complex<float>> in,
                            std::span<std::complex<float>> out) {
  if (out.size() != in.size())
    throw std::invalid_argument("FirFilter::filter_into: out size must match in size");
  for (std::size_t i = 0; i < in.size(); ++i) {
    const auto acc = step(in[i]);
    out[i] = {static_cast<float>(acc.real()), static_cast<float>(acc.imag())};
  }
}

void FirFilter::reset() noexcept {
  for (auto& v : delay_) v = {0.0, 0.0};
  pos_ = 0;
}

double FirFilter::magnitude_at(double freq_hz, double sample_rate_hz) const noexcept {
  const double w = 2.0 * std::numbers::pi * freq_hz / sample_rate_hz;
  std::complex<double> acc(0.0, 0.0);
  for (std::size_t t = 0; t < taps_.size(); ++t) {
    const double phase = -w * static_cast<double>(t);
    acc += taps_[t] * std::complex<double>(std::cos(phase), std::sin(phase));
  }
  return std::abs(acc);
}

}  // namespace speccal::dsp
