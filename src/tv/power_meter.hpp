// Broadcast-TV channel power meter — the paper's GNU Radio measurement.
//
// Pipeline (quoting §3.2): fixed SDR gain (no AGC), band-pass filter the
// desired ATSC channel, then "apply Parseval's identity" by running the
// magnitude-squared time-domain samples through a very long moving-average
// filter. The average spans the whole capture past the filter warm-up, so
// its one output is the block's mean power. The result is reported in
// dBFS, as in Figure 4.
//
// The meter is plan-based: the band-pass FIR is designed once at
// construction and applied through the overlap-save dsp::FftConvolver; the
// filter/scratch buffers are reused across measurements, so a sweep's
// steady state performs no per-channel design work. A second integration
// method (Method::kSpectral) computes the same in-band power from a
// plan-cached Welch PSD — Parseval's identity makes the two agree, and the
// spectral path shares its FFT plan with every other measurement in the
// process.
#pragma once

#include <vector>

#include "dsp/convolver.hpp"
#include "dsp/goertzel.hpp"
#include "dsp/welch.hpp"
#include "sdr/device.hpp"
#include "tv/channels.hpp"

namespace speccal::tv {

/// ATSC pilot fast-path gate (DESIGN.md §14): before paying for the full
/// integration, a three-bin Goertzel over a short capture prefix tests the
/// pilot bin against two nearby reference bins. Channels with no pilot
/// (vacant, or not ATSC) short-circuit to an abbreviated integration over
/// `skip_fraction` of the capture — the reading keeps its absolute
/// calibration (same estimator, fewer samples), at a fraction of the cost.
/// Skip rates are published as speccal_gate_tv_pilot_{pass,skip}_total.
struct PilotGateConfig {
  bool enabled = true;
  /// Expected pilot placement relative to the tuned channel center.
  double pilot_offset_hz = kPilotOffsetFromCenterHz;
  /// Reference (noise-floor) bins sit this far either side of the pilot.
  double ref_spacing_hz = 250e3;
  /// Pass when the pilot bin clears the mean reference bin by this margin.
  double min_snr_db = 6.0;
  /// Fraction of the capture the gate inspects.
  double gate_fraction = 0.1;
  /// Fraction of the capture integrated when the gate skips.
  double skip_fraction = 0.1;
};

/// Validation contract (enforced by PowerMeter's constructor; violations
/// throw std::invalid_argument naming the offending parameter):
///   - sample_rate_hz must be positive;
///   - capture_duration_s must be positive;
///   - filter_taps must be >= 3 (the FIR design needs a real prototype);
///   - measure_bandwidth_hz must be positive and smaller than
///     sample_rate_hz (the band-pass must fit inside Nyquist);
///   - welch (used by Method::kSpectral) follows the WelchConfig contract;
///   - pilot_gate.gate_fraction / skip_fraction must be in (0, 1];
///   - pilot_gate.ref_spacing_hz must be positive and the pilot/reference
///     bins must fit inside Nyquist.
struct PowerMeterConfig {
  double sample_rate_hz = 8e6;     // must cover one 6 MHz channel
  double fixed_gain_db = 20.0;     // paper: fixed to keep readings comparable.
                                   // Low enough that strong locals don't clip,
                                   // high enough that weak channels stay above
                                   // the ADC quantization floor.
  std::size_t filter_taps = 129;
  /// Capture length [s]; the average spans the whole capture minus the
  /// filter warm-up.
  double capture_duration_s = 0.02;
  /// Pass-band width measured inside the channel (8VSB occupies ~5.38 MHz).
  double measure_bandwidth_hz = 5.38e6;

  /// How the in-band power is integrated.
  enum class Method {
    /// Band-pass FIR + mean |x|^2 (the paper's whole-capture moving
    /// average) — the paper's GNU Radio pipeline and the default.
    kTimeDomain,
    /// Plan-based Welch PSD + band integration over the measurement
    /// bandwidth. Parseval's identity makes this agree with kTimeDomain;
    /// it reuses the shared FFT plan and is the natural choice when a
    /// node also reports PSDs.
    kSpectral,
  };
  Method method = Method::kTimeDomain;
  /// Welch settings for Method::kSpectral.
  dsp::WelchConfig welch;
  /// Pilot presence fast-path (see PilotGateConfig).
  PilotGateConfig pilot_gate;
};

struct ChannelPowerReading {
  int rf_channel = 0;
  double center_hz = 0.0;
  double power_dbfs = -200.0;   // what Figure 4 plots
  double power_dbm = -200.0;    // referred to the antenna port via gain
  bool tune_ok = false;
  std::size_t samples_used = 0;
  /// True when the pilot gate found no pilot and the reading was integrated
  /// over the abbreviated capture prefix.
  bool gated = false;
  /// Normalized lag-1 autocorrelation of the raw (pre-filter) capture —
  /// the anomaly detector's occupancy cross-check (~0.4 for ATSC, ~1 for a
  /// CW interferer parked in the channel, ~0 for noise or a jammer wider
  /// than the capture). In-memory only: report JSON serializes the same
  /// channel/freq/power triple as always, so clean runs stay byte-stable.
  double autocorr_rho = 0.0;
};

/// Measures one or more ATSC channels through a Device (simulated or real).
/// Filter state and scratch are reused across measurements, so a single
/// instance must not measure concurrently from multiple threads; the
/// fleet engine gives each worker its own meter.
class PowerMeter {
 public:
  /// Validates the config (see PowerMeterConfig) and designs the band-pass
  /// filter once. Throws std::invalid_argument on contract violations.
  explicit PowerMeter(PowerMeterConfig config = {});

  /// Tune, capture, filter, integrate. The device is left in manual gain.
  [[nodiscard]] ChannelPowerReading measure_channel(sdr::Device& device, int rf_channel) const;

  /// Sweep a list of channels.
  [[nodiscard]] std::vector<ChannelPowerReading> sweep(sdr::Device& device,
                                                       const std::vector<int>& channels) const;

  [[nodiscard]] const PowerMeterConfig& config() const noexcept { return config_; }

 private:
  [[nodiscard]] double integrate_time_domain(std::span<const dsp::Sample> capture,
                                             std::size_t& samples_used) const;
  [[nodiscard]] double integrate_spectral(std::span<const dsp::Sample> capture,
                                          std::size_t& samples_used) const;
  [[nodiscard]] bool pilot_present(std::span<const dsp::Sample> capture) const;

  PowerMeterConfig config_;
  // Per-measurement scratch (reset/reused each call); mutable so the
  // measurement API stays const like every other read-only evaluator.
  mutable dsp::FftConvolver filter_;
  mutable dsp::Buffer filtered_;
  mutable dsp::WelchEstimator welch_;
  mutable dsp::WelchResult psd_;
  mutable dsp::Goertzel pilot_probe_;
};

}  // namespace speccal::tv
