// Unit tests: ATSC channel plan and the band-pass + Parseval power meter.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>

#include "dsp/fir.hpp"
#include "dsp/iq.hpp"
#include "prop/pathloss.hpp"
#include "sdr/emitter.hpp"
#include "sdr/sim.hpp"
#include "tv/channels.hpp"
#include "tv/power_meter.hpp"
#include "util/rng.hpp"

namespace tv = speccal::tv;
namespace s = speccal::sdr;
namespace g = speccal::geo;
using speccal::util::Rng;

// --------------------------------------------------------------- channels ----

TEST(Channels, PaperFigure4Frequencies) {
  // The six centre frequencies of Figure 4 map to these RF channels.
  EXPECT_DOUBLE_EQ(tv::channel_center_hz(13).value(), 213e6);
  EXPECT_DOUBLE_EQ(tv::channel_center_hz(14).value(), 473e6);
  EXPECT_DOUBLE_EQ(tv::channel_center_hz(22).value(), 521e6);
  EXPECT_DOUBLE_EQ(tv::channel_center_hz(26).value(), 545e6);
  EXPECT_DOUBLE_EQ(tv::channel_center_hz(33).value(), 587e6);
  EXPECT_DOUBLE_EQ(tv::channel_center_hz(36).value(), 605e6);
}

TEST(Channels, BandStructure) {
  EXPECT_DOUBLE_EQ(tv::channel_lower_edge_hz(2).value(), 54e6);
  EXPECT_DOUBLE_EQ(tv::channel_lower_edge_hz(7).value(), 174e6);
  EXPECT_DOUBLE_EQ(tv::channel_lower_edge_hz(14).value(), 470e6);
  EXPECT_FALSE(tv::channel_lower_edge_hz(1).has_value());
  EXPECT_FALSE(tv::channel_lower_edge_hz(37).has_value());
}

TEST(Channels, FrequencyLookupInvertsTable) {
  for (int ch = 2; ch <= 36; ++ch) {
    const auto center = tv::channel_center_hz(ch);
    ASSERT_TRUE(center.has_value());
    EXPECT_EQ(tv::channel_for_frequency(*center).value(), ch);
  }
  EXPECT_FALSE(tv::channel_for_frequency(100e6).has_value());  // FM band gap
  EXPECT_FALSE(tv::channel_for_frequency(1e9).has_value());
}

// ------------------------------------------------------------ power meter ----

namespace {
/// One station + simulated SDR, open-sky receiver.
struct MeterFixture {
  s::RxEnvironment rx;
  std::shared_ptr<s::FixedEmitterSource> source;
  std::unique_ptr<s::SimulatedSdr> device;

  explicit MeterFixture(int channel, double range_m = 30e3, double erp_dbm = 80.0) {
    rx.position = {37.87, -122.27, 10.0};
    s::EmitterConfig cfg;
    cfg.emitter_id = 50;
    cfg.position = g::destination(rx.position, 270.0, range_m);
    cfg.position.alt_m = 250.0;
    cfg.carrier_hz = tv::channel_center_hz(channel).value();
    cfg.bandwidth_hz = 5.38e6;
    cfg.eirp_dbm = erp_dbm;
    cfg.link.model = speccal::prop::PathModel::kTwoSlope;
    cfg.link.n1 = 2.0;
    cfg.link.n2 = 3.5;
    cfg.link.breakpoint_m = 10e3;
    cfg.pilot_offset_hz = tv::kPilotOffsetHz;
    source = std::make_shared<s::FixedEmitterSource>(cfg, Rng(60));
    device = std::make_unique<s::SimulatedSdr>(s::SimulatedSdr::bladerf_like_info(),
                                               rx, Rng(61));
    device->add_source(source);
  }
};
}  // namespace

TEST(PowerMeter, MeasuresKnownPowerThroughFullPipeline) {
  MeterFixture fix(22);
  const double expected_dbm = fix.source->received_power_dbm(fix.rx);

  tv::PowerMeterConfig config;
  config.fixed_gain_db = 10.0;
  const tv::PowerMeter meter(config);
  const auto reading = meter.measure_channel(*fix.device, 22);

  ASSERT_TRUE(reading.tune_ok);
  EXPECT_EQ(reading.rf_channel, 22);
  EXPECT_DOUBLE_EQ(reading.center_hz, 521e6);
  EXPECT_GT(reading.samples_used, 10000u);
  // Full waveform path should land within ~1.5 dB of the link budget.
  EXPECT_NEAR(reading.power_dbm, expected_dbm, 1.5);
  EXPECT_NEAR(reading.power_dbfs, expected_dbm + 10.0 + 10.0, 1.5);
}

TEST(PowerMeter, FixedGainIsHonored) {
  MeterFixture fix(22);
  tv::PowerMeterConfig lo;
  lo.fixed_gain_db = 5.0;
  tv::PowerMeterConfig hi;
  hi.fixed_gain_db = 25.0;
  const auto r_lo = tv::PowerMeter(lo).measure_channel(*fix.device, 22);
  const auto r_hi = tv::PowerMeter(hi).measure_channel(*fix.device, 22);
  // dBFS shifts by the gain difference; dBm referred to the port does not.
  EXPECT_NEAR(r_hi.power_dbfs - r_lo.power_dbfs, 20.0, 1.0);
  EXPECT_NEAR(r_hi.power_dbm, r_lo.power_dbm, 1.0);
  EXPECT_DOUBLE_EQ(fix.device->gain_db(), 25.0);  // left in manual gain
}

TEST(PowerMeter, EmptyChannelReadsNoiseFloor) {
  MeterFixture fix(22);
  tv::PowerMeterConfig config;
  // Enough gain that the thermal floor sits above the ADC quantization
  // step; at very low gain the 12-bit converter crushes the noise.
  config.fixed_gain_db = 30.0;
  const tv::PowerMeter meter(config);
  const auto occupied = meter.measure_channel(*fix.device, 22);
  const auto vacant = meter.measure_channel(*fix.device, 30);  // nothing there
  EXPECT_GT(occupied.power_dbfs, vacant.power_dbfs + 20.0);
  // Vacant channel: thermal noise in 5.38 MHz + NF + gain - full scale.
  const double floor_dbm = speccal::prop::noise_floor_dbm(5.38e6, 7.0);
  EXPECT_NEAR(vacant.power_dbm, floor_dbm, 2.5);
}

TEST(PowerMeter, SweepCoversAllChannels) {
  MeterFixture fix(22);
  tv::PowerMeterConfig config;
  config.fixed_gain_db = 10.0;
  const tv::PowerMeter meter(config);
  const auto readings = meter.sweep(*fix.device, {13, 14, 22});
  ASSERT_EQ(readings.size(), 3u);
  EXPECT_EQ(readings[0].rf_channel, 13);
  EXPECT_EQ(readings[2].rf_channel, 22);
  // Only channel 22 carries our station.
  EXPECT_GT(readings[2].power_dbfs, readings[0].power_dbfs + 15.0);
}

TEST(PowerMeter, InvalidChannelReportsFailure) {
  MeterFixture fix(22);
  const tv::PowerMeter meter;
  const auto reading = meter.measure_channel(*fix.device, 99);
  EXPECT_FALSE(reading.tune_ok);
  EXPECT_EQ(reading.samples_used, 0u);
}

TEST(PowerMeter, ValidationNamesOffendingParameter) {
  const auto expect_throw_naming = [](tv::PowerMeterConfig cfg, const char* param) {
    try {
      tv::PowerMeter meter(cfg);
      FAIL() << "expected std::invalid_argument naming " << param;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(param), std::string::npos)
          << "message was: " << e.what();
    }
  };

  tv::PowerMeterConfig cfg;
  cfg.sample_rate_hz = 0.0;
  expect_throw_naming(cfg, "sample_rate_hz");

  cfg = {};
  cfg.capture_duration_s = -1.0;
  expect_throw_naming(cfg, "capture_duration_s");

  cfg = {};
  cfg.filter_taps = 2;
  expect_throw_naming(cfg, "filter_taps");

  cfg = {};
  cfg.measure_bandwidth_hz = cfg.sample_rate_hz;  // must fit inside Nyquist
  expect_throw_naming(cfg, "measure_bandwidth_hz");

  // The spectral method's Welch settings follow the WelchConfig contract.
  cfg = {};
  cfg.method = tv::PowerMeterConfig::Method::kSpectral;
  cfg.welch.segment_size = 1000;
  expect_throw_naming(cfg, "segment_size");
}

TEST(PowerMeter, SpectralMethodAgreesWithTimeDomain) {
  // Parseval's identity: band-passed time-domain power equals the Welch
  // PSD integrated over the same band. The two integration methods must
  // agree on a real 8VSB-like channel to within a fraction of a dB.
  MeterFixture fix(22);
  tv::PowerMeterConfig time_cfg;
  time_cfg.fixed_gain_db = 10.0;
  tv::PowerMeterConfig spec_cfg = time_cfg;
  spec_cfg.method = tv::PowerMeterConfig::Method::kSpectral;

  const auto time_reading = tv::PowerMeter(time_cfg).measure_channel(*fix.device, 22);
  const auto spec_reading = tv::PowerMeter(spec_cfg).measure_channel(*fix.device, 22);
  ASSERT_TRUE(time_reading.tune_ok);
  ASSERT_TRUE(spec_reading.tune_ok);
  EXPECT_GT(spec_reading.samples_used, 10000u);
  EXPECT_NEAR(spec_reading.power_dbfs, time_reading.power_dbfs, 0.75);
  EXPECT_NEAR(spec_reading.power_dbm, time_reading.power_dbm, 0.75);
}

TEST(PowerMeter, MatchesDirectFirReference) {
  // The meter filters through the overlap-save FftConvolver; the paper's
  // pipeline is a direct FIR plus a whole-block average. Re-capture the
  // same samples from an identically seeded twin device, filter them
  // through the direct double-accumulation FirFilter and average past the
  // warm-up: the readings must agree to 1e-4 dB, on an occupied channel
  // over the full capture and on a vacant one over the pilot-gated prefix.
  // (The fixture's pilot sits off the gate's pilot bin, so the occupied
  // case turns the gate off to integrate the whole capture.)
  struct Case {
    int channel;
    double gain_db;
    bool gate_enabled;
  };
  for (const Case c : {Case{22, 10.0, false}, Case{30, 30.0, true}}) {
    tv::PowerMeterConfig config;
    config.fixed_gain_db = c.gain_db;
    config.pilot_gate.enabled = c.gate_enabled;
    MeterFixture fix(22);
    const auto reading = tv::PowerMeter(config).measure_channel(*fix.device, c.channel);
    ASSERT_TRUE(reading.tune_ok);
    EXPECT_EQ(reading.gated, c.gate_enabled) << "ch " << c.channel;

    MeterFixture twin(22);
    twin.device->set_gain_mode(s::GainMode::kManual);
    twin.device->set_gain_db(config.fixed_gain_db);
    ASSERT_TRUE(twin.device->tune(tv::channel_center_hz(c.channel).value(),
                                  config.sample_rate_hz));
    const auto capture = twin.device->capture(
        static_cast<std::size_t>(config.capture_duration_s * config.sample_rate_hz));
    const std::size_t warmup = config.filter_taps;
    const auto block =
        std::span<const speccal::dsp::Sample>(capture).first(reading.samples_used + warmup);

    speccal::dsp::FirFilter direct(speccal::dsp::design_bandpass(
        config.sample_rate_hz, -config.measure_bandwidth_hz / 2.0,
        config.measure_bandwidth_hz / 2.0, config.filter_taps));
    speccal::dsp::Buffer filtered(block.size());
    direct.filter_into(block, filtered);
    const double want_dbfs = 10.0 * std::log10(speccal::dsp::mean_power(
                                        std::span(filtered).subspan(warmup)));
    EXPECT_NEAR(reading.power_dbfs, want_dbfs, 1e-4) << "ch " << c.channel;
  }
}

TEST(PowerMeter, ObstructionAttenuatesReading) {
  // Same station measured through a 20 dB wall: the reading drops ~20 dB.
  MeterFixture clear_fix(22);
  MeterFixture blocked_fix(22);
  speccal::prop::ObstructionMap wall;
  wall.set_omni_loss(20.0, 0.0);
  // Rebuild the blocked device with the wall in its environment.
  auto rx = blocked_fix.rx;
  rx.obstructions = &wall;
  s::SimulatedSdr blocked_dev(s::SimulatedSdr::bladerf_like_info(), rx, Rng(62));
  blocked_dev.add_source(blocked_fix.source);

  tv::PowerMeterConfig config;
  config.fixed_gain_db = 10.0;
  const tv::PowerMeter meter(config);
  const auto clear_reading = meter.measure_channel(*clear_fix.device, 22);
  const auto blocked_reading = meter.measure_channel(blocked_dev, 22);
  EXPECT_NEAR(clear_reading.power_dbfs - blocked_reading.power_dbfs, 20.0, 2.0);
}
