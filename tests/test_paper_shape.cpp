// Paper shape across sky realizations, not for one seed only.
//
// Repeats EXPERIMENTS.md's "10 sky realizations" sweep — the seeds
// 101 * k, k = 1..10, of fig1_adsb_directionality's repetition sweep, at
// link-budget fidelity — through the full calibration pipeline, and checks
// on every seed the relations of the single-seed tests (test_pipeline,
// seed 2023) that hold on all ten:
//   * Figure 1: more ADS-B aircraft received on the rooftop than behind
//     the window, and more than indoors;
//   * Figure 4: the window's ch14 and ch33 more than 10 dB below the
//     rooftop.
// Two seed-2023 relations do not hold on every realization and are open
// reproduction findings (ROADMAP.md), not assertions:
//   * window > indoor ADS-B reception fails on seed 808 (5 vs 6 aircraft);
//   * the window's ch22 within 4 dB of the rooftop (the paper's 521 MHz
//     anomaly) fails on seed 101 (window 4.01 dB above the rooftop) and on
//     seed 808 (14.4 dB above: the rooftop reads -28.7 dBFS there).
#include <gtest/gtest.h>

#include <string>

#include "scenario/testbed.hpp"

namespace cal = speccal::calib;
namespace sc = speccal::scenario;

namespace {

cal::CalibrationReport calibrate(sc::Site site, std::uint64_t seed) {
  cal::PipelineConfig cfg;
  cfg.survey.fidelity = cal::Fidelity::kLinkBudget;
  cfg.survey.duration_s = 30.0;
  cal::NodeClaims claims;
  claims.node_id = sc::site_name(site);
  claims.min_freq_hz = 100e6;
  claims.max_freq_hz = 6e9;
  claims.claims_outdoor = site == sc::Site::kRooftop;

  const auto world = sc::make_world(seed);
  const auto setup = sc::make_site(site, seed);  // the device points into it
  auto device = sc::make_node(setup, world, seed);
  return cal::CalibrationPipeline(world, cfg).calibrate(*device, claims);
}

double power_dbfs(const cal::CalibrationReport& report, int channel) {
  for (const auto& reading : report.tv_readings)
    if (reading.rf_channel == channel) return reading.power_dbfs;
  ADD_FAILURE() << "no reading for ch" << channel;
  return -999.0;
}

}  // namespace

TEST(PaperShape, HoldsOnEverySkyRealization) {
  for (std::uint64_t k = 1; k <= 10; ++k) {
    const std::uint64_t seed = 101 * k;
    SCOPED_TRACE("seed " + std::to_string(seed));
    const auto rooftop = calibrate(sc::Site::kRooftop, seed);
    const auto window = calibrate(sc::Site::kWindow, seed);
    const auto indoor = calibrate(sc::Site::kIndoor, seed);

    EXPECT_GT(rooftop.survey.received_count(), window.survey.received_count());
    EXPECT_GT(rooftop.survey.received_count(), indoor.survey.received_count());
    EXPECT_LT(power_dbfs(window, 14), power_dbfs(rooftop, 14) - 10.0);
    EXPECT_LT(power_dbfs(window, 33), power_dbfs(rooftop, 33) - 10.0);
  }
}
