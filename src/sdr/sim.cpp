#include "sdr/sim.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "obs/metrics.hpp"
#include "prop/pathloss.hpp"
#include "util/units.hpp"

namespace speccal::sdr {

SimulatedSdr::SimulatedSdr(DeviceInfo info, RxEnvironment rx, util::Rng rng)
    : info_(std::move(info)), rx_(rx), rng_(rng) {}

DeviceInfo SimulatedSdr::bladerf_like_info() {
  DeviceInfo d;
  d.driver = "sim-bladerf";
  d.min_freq_hz = 70e6;
  d.max_freq_hz = 6e9;
  d.max_sample_rate_hz = 61.44e6;
  d.noise_figure_db = 7.0;
  d.full_scale_input_dbm = -10.0;
  d.adc_bits = 12;
  return d;
}

void SimulatedSdr::add_source(std::shared_ptr<SignalSource> source) {
  sources_.push_back(std::move(source));
}

bool SimulatedSdr::tune(double center_freq_hz, double sample_rate_hz) {
  tuned_ok_ = center_freq_hz >= info_.min_freq_hz && center_freq_hz <= info_.max_freq_hz &&
              sample_rate_hz > 0.0 && sample_rate_hz <= info_.max_sample_rate_hz;
  // The synthesizer locks to (1 + ppm/1e6) * requested; the device still
  // *reports* the requested frequency (real hardware does not know its own
  // reference error). The world renders relative to the actual LO, so every
  // signal appears shifted by -ppm * f / 1e6 in the capture.
  center_freq_hz_ = center_freq_hz;
  actual_center_freq_hz_ = center_freq_hz * (1.0 + info_.lo_error_ppm * 1e-6);
  sample_rate_hz_ = sample_rate_hz;
  return tuned_ok_;
}

dsp::Buffer SimulatedSdr::capture(std::size_t count) {
  dsp::Buffer buf(count);
  capture_into(buf);
  return buf;
}

void SimulatedSdr::capture_into(std::span<dsp::Sample> out) {
  const std::size_t count = out.size();
  // Two relaxed atomic adds per capture block — the whole per-capture cost
  // of the observability layer on this path (bench/obs_overhead pins it).
  static obs::Counter& captures =
      obs::Registry::global().counter("speccal_sdr_captures_total");
  static obs::Counter& samples =
      obs::Registry::global().counter("speccal_sdr_samples_total");
  captures.add();
  samples.add(count);
  std::fill(out.begin(), out.end(), dsp::Sample{0.0f, 0.0f});
  if (tuned_ok_) {
    CaptureContext ctx;
    ctx.center_freq_hz = actual_center_freq_hz_;
    ctx.sample_rate_hz = sample_rate_hz_;
    ctx.start_time_s = stream_time_s_;
    ctx.sample_count = count;
    ctx.rx = &rx_;
    for (auto& src : sources_) src->render(ctx, out);
    if (info_.frontend_loss_db != 0.0) {
      const float atten =
          static_cast<float>(util::db_to_amplitude(-info_.frontend_loss_db));
      for (auto& s : out) s *= atten;
    }
  }
  add_thermal_noise(out);

  double gain = gain_db_;
  if (gain_mode_ == GainMode::kAgc) {
    // Measure antenna-port power (sqrt-mW units -> dBm) and pick the gain
    // that puts it at the AGC target.
    const double power_dbm = dsp::mean_power_dbfs(out);  // dB rel. 1 mW here
    gain = agc_target_dbfs_ + info_.full_scale_input_dbm - power_dbm;
    gain = std::clamp(gain, 0.0, 70.0);
    gain_db_ = gain;  // expose what the AGC chose
  }

  // sqrt-mW -> full-scale units.
  const float scale =
      static_cast<float>(util::db_to_amplitude(gain - info_.full_scale_input_dbm));
  for (auto& s : out) s *= scale;

  quantize(out, info_.adc_bits);
  stream_time_s_ += static_cast<double>(count) / sample_rate_hz_;
}

void SimulatedSdr::add_thermal_noise(std::span<dsp::Sample> buf) {
  // Noise power over the capture bandwidth (complex baseband: B = fs).
  const double noise_dbm =
      prop::noise_floor_dbm(sample_rate_hz_, info_.noise_figure_db);
  // Per-component std dev so that E|n|^2 equals the noise power in mW.
  const double sigma = std::sqrt(util::dbm_to_watts(noise_dbm) * 1e3 / 2.0);
  for (auto& s : buf) {
    const auto re = static_cast<float>(sigma * rng_.ziggurat_normal());
    const auto im = static_cast<float>(sigma * rng_.ziggurat_normal());
    s += dsp::Sample(re, im);
  }
}

void quantize(std::span<dsp::Sample> buf, int adc_bits) noexcept {
  const double levels = static_cast<double>(1 << (adc_bits - 1));
  const double step = 1.0 / levels;  // a power of two: exact
  auto q = [&](float v) {
    // x = clamp(v) * levels is exact (a float times a power of two), so
    // |x| + 0.5 is exact too and truncating it rounds half away from zero
    // exactly as std::round does, without the libm call. Only NaN fails
    // the range test; it passes through as NaN * step, as in std::round.
    const double x = std::clamp(static_cast<double>(v), -1.0, 1.0) * levels;
    const double ax = std::fabs(x);
    if (!(ax <= levels)) return static_cast<float>(x * step);
    const auto whole = static_cast<double>(static_cast<std::int64_t>(ax + 0.5));
    return static_cast<float>(std::copysign(whole, x) * step);
  };
  for (auto& s : buf) s = dsp::Sample(q(s.real()), q(s.imag()));
}

}  // namespace speccal::sdr
