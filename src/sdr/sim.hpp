// Simulated SDR front end and the emitter plug-in interface.
//
// `SimulatedSdr` renders the RF world into I/Q buffers:
//   1. every registered SignalSource adds its contribution (already carrying
//      link-budget amplitude) in sqrt-milliwatt units,
//   2. thermal noise (kTB * NF over the capture bandwidth) is added,
//   3. gain (manual or AGC) maps antenna-port power to ADC full scale,
//   4. the ADC quantizes and clips.
// Sample amplitude convention: during accumulation 1.0 = sqrt(1 mW), so a
// source received at P dBm renders with RMS amplitude 10^(P/20) relative to
// 1 mW. After gain g dB, the recorded dBFS of a signal equals
// P_dBm + g - full_scale_input_dbm.
#pragma once

#include <memory>
#include <vector>

#include "dsp/iq.hpp"
#include "geo/wgs84.hpp"
#include "sdr/device.hpp"
#include "sdr/rx_environment.hpp"
#include "util/rng.hpp"

namespace speccal::sdr {

/// Parameters of one capture request handed to each source.
struct CaptureContext {
  double center_freq_hz = 0.0;
  double sample_rate_hz = 0.0;
  double start_time_s = 0.0;
  std::size_t sample_count = 0;
  const RxEnvironment* rx = nullptr;
};

/// A transmitter (or population of transmitters) that can render its
/// antenna-port contribution into a capture buffer.
class SignalSource {
 public:
  virtual ~SignalSource() = default;

  /// Add this source's samples into `accum` (size = ctx.sample_count).
  /// Implementations must handle being entirely out of band (no-op).
  virtual void render(const CaptureContext& ctx, std::span<dsp::Sample> accum) = 0;
};

/// The ADC: clip each component to [-1, 1] and round it half away from
/// zero to the nearest of 2^(adc_bits-1) levels per unit. Bitwise equal to
/// `std::round(clamp(v) * levels) / levels` for every non-signaling input.
void quantize(std::span<dsp::Sample> buf, int adc_bits) noexcept;

/// Software model of a wide-band receiver (defaults match a BladeRF-class
/// device: 70 MHz - 6 GHz, 61.44 Msps max, 12-bit ADC).
class SimulatedSdr final : public Device, public SimControl {
 public:
  SimulatedSdr(DeviceInfo info, RxEnvironment rx, util::Rng rng);

  /// Convenience: BladeRF-like defaults.
  [[nodiscard]] static DeviceInfo bladerf_like_info();

  void add_source(std::shared_ptr<SignalSource> source);

  // Device interface -------------------------------------------------------
  [[nodiscard]] DeviceInfo info() const override { return info_; }
  [[nodiscard]] geo::Geodetic position() const override { return rx_.position; }
  [[nodiscard]] SimControl* sim_control() noexcept override { return this; }
  bool tune(double center_freq_hz, double sample_rate_hz) override;
  void set_gain_mode(GainMode mode) override { gain_mode_ = mode; }
  void set_gain_db(double gain_db) override { gain_db_ = gain_db; }
  [[nodiscard]] double gain_db() const override { return gain_db_; }
  [[nodiscard]] dsp::Buffer capture(std::size_t count) override;
  /// Native zero-allocation capture: renders, adds noise, gains and
  /// quantizes entirely inside `out` (sources reuse their own
  /// RenderScratch pools, so steady-state calls never touch the heap).
  void capture_into(std::span<dsp::Sample> out) override;
  [[nodiscard]] double stream_time_s() const override { return stream_time_s_; }
  [[nodiscard]] double center_freq_hz() const override { return center_freq_hz_; }
  [[nodiscard]] double sample_rate_hz() const override { return sample_rate_hz_; }

  // SimControl interface ---------------------------------------------------
  [[nodiscard]] const RxEnvironment& rx_environment() const noexcept override {
    return rx_;
  }
  void advance_time(double seconds) noexcept override { stream_time_s_ += seconds; }

  // Simulation extras ------------------------------------------------------
  /// AGC target output power [dBFS].
  void set_agc_target_dbfs(double dbfs) noexcept { agc_target_dbfs_ = dbfs; }

 private:
  void add_thermal_noise(std::span<dsp::Sample> buf);

  DeviceInfo info_;
  RxEnvironment rx_;
  util::Rng rng_;
  std::vector<std::shared_ptr<SignalSource>> sources_;

  double center_freq_hz_ = 100e6;        // what the caller asked for
  double actual_center_freq_hz_ = 100e6;  // where the (imperfect) LO locked
  double sample_rate_hz_ = 2.4e6;
  double gain_db_ = 30.0;
  GainMode gain_mode_ = GainMode::kManual;
  double agc_target_dbfs_ = -12.0;
  double stream_time_s_ = 0.0;
  bool tuned_ok_ = true;
};

}  // namespace speccal::sdr
