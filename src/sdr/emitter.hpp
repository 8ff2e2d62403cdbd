// Generic fixed terrestrial emitter rendered as band-limited noise.
//
// Scrambled digital broadcast signals (8VSB, OFDM downlinks) are
// statistically white inside their channel mask; for power measurements —
// which is what the paper's frequency-response technique performs — a
// band-shaped Gaussian process with the correct received power and an
// optional pilot tone is an accurate stand-in. The emitter computes its
// received power through the shared link-budget machinery, so obstruction
// and antenna effects appear exactly as they would for a real signal.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "dsp/convolver.hpp"
#include "geo/wgs84.hpp"
#include "prop/linkbudget.hpp"
#include "sdr/render_scratch.hpp"
#include "sdr/sim.hpp"
#include "util/rng.hpp"

namespace speccal::sdr {

struct EmitterConfig {
  std::uint64_t emitter_id = 0;
  geo::Geodetic position;
  double carrier_hz = 600e6;     // channel centre
  double bandwidth_hz = 6e6;     // occupied bandwidth
  double eirp_dbm = 70.0;
  prop::LinkParams link;         // large-scale model for this service
  /// Pilot tone offset from the carrier/centre frequency (ATSC 8VSB:
  /// -2.690559 MHz, i.e. 309.441 kHz above the 6 MHz channel's lower
  /// edge — tv::kPilotOffsetFromCenterHz); nullopt disables the pilot.
  std::optional<double> pilot_offset_hz;
  /// Pilot power relative to total signal power [dB] (ATSC: ~ -11.3 dB).
  double pilot_rel_db = -11.3;
};

class FixedEmitterSource final : public SignalSource {
 public:
  FixedEmitterSource(EmitterConfig config, util::Rng rng) noexcept
      : config_(config), rng_(rng) {}

  void render(const CaptureContext& ctx, std::span<dsp::Sample> accum) override;

  [[nodiscard]] const EmitterConfig& config() const noexcept { return config_; }

  /// Received total in-channel power [dBm] at the given receiver
  /// environment — the model-level answer the waveform realizes.
  [[nodiscard]] double received_power_dbm(const RxEnvironment& rx) const noexcept;

  /// Times the channel shaper was (re)designed — one per distinct tuning
  /// (filter-key cache; see tests).
  [[nodiscard]] std::size_t shaper_rebuilds() const noexcept { return shaper_rebuilds_; }

  /// Render-buffer pool statistics (zero-allocation assertions in tests).
  [[nodiscard]] RenderScratch::Stats render_scratch_stats() const noexcept {
    return scratch_.stats();
  }
  /// Bytes reserved inside the FFT convolver's scratch (0 until the first
  /// render; monotone afterwards).
  [[nodiscard]] std::size_t convolver_scratch_bytes() const noexcept {
    return fft_shaper_ ? fft_shaper_->scratch_capacity_bytes() : 0;
  }

 private:
  EmitterConfig config_;
  util::Rng rng_;
  // Cached channel-shaping filter, rebuilt when the tuning changes. The
  // taps are designed once per tuning; the FFT convolver is built lazily
  // from them on the first render.
  struct FilterKey {
    double sample_rate_hz = 0.0;
    double low_hz = 0.0;
    double high_hz = 0.0;
    bool operator==(const FilterKey&) const = default;
  };
  FilterKey filter_key_;
  std::vector<std::complex<double>> shaper_taps_;
  std::unique_ptr<dsp::FftConvolver> fft_shaper_;
  RenderScratch scratch_;
  std::size_t shaper_rebuilds_ = 0;
};

}  // namespace speccal::sdr
