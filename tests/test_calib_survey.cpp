// Tests: the ADS-B survey procedure (§3.1) in both fidelity modes.
#include <gtest/gtest.h>

#include "airtraffic/adsb_source.hpp"
#include "calib/survey.hpp"
#include "prop/obstruction.hpp"
#include "sdr/antenna.hpp"

namespace cal = speccal::calib;
namespace at = speccal::airtraffic;
namespace g = speccal::geo;
namespace s = speccal::sdr;
using speccal::util::Rng;

namespace {

constexpr g::Geodetic kSensor{37.87, -122.27, 15.0};

/// Handcrafted sky: one strong close aircraft east, one far aircraft west,
/// one beyond the ground-truth radius.
std::shared_ptr<at::SkySimulator> tiny_sky() {
  std::vector<at::AircraftSpec> fleet;
  at::AircraftSpec close_east;
  close_east.icao = 0x000001;
  close_east.callsign = "EAST";
  close_east.start = g::destination(kSensor, 90.0, 15e3);
  close_east.start.alt_m = 8000.0;
  close_east.ground_speed_kt = 300.0;
  close_east.track_deg = 0.0;
  close_east.position_phase_s = 0.05;
  close_east.velocity_phase_s = 0.22;
  close_east.ident_phase_s = 0.8;
  fleet.push_back(close_east);

  at::AircraftSpec far_west = close_east;
  far_west.icao = 0x000002;
  far_west.callsign = "WEST";
  far_west.start = g::destination(kSensor, 270.0, 80e3);
  far_west.start.alt_m = 11000.0;
  far_west.position_phase_s = 0.15;
  far_west.velocity_phase_s = 0.37;
  far_west.ident_phase_s = 2.3;
  fleet.push_back(far_west);

  at::AircraftSpec outside = close_east;
  outside.icao = 0x000003;
  outside.callsign = "OUT";
  outside.start = g::destination(kSensor, 0.0, 115e3);
  outside.start.alt_m = 12000.0;
  outside.position_phase_s = 0.29;
  outside.velocity_phase_s = 0.44;
  outside.ident_phase_s = 3.7;
  fleet.push_back(outside);

  return std::make_shared<at::SkySimulator>(kSensor, std::move(fleet));
}

struct NodeFixture {
  std::shared_ptr<at::SkySimulator> sky = tiny_sky();
  s::AntennaModel antenna = s::AntennaModel::isotropic();
  std::shared_ptr<speccal::prop::ObstructionMap> obstructions;
  std::unique_ptr<s::SimulatedSdr> device;
  std::unique_ptr<at::GroundTruthService> gt;

  explicit NodeFixture(std::shared_ptr<speccal::prop::ObstructionMap> obs = nullptr)
      : obstructions(std::move(obs)) {
    s::RxEnvironment rx;
    rx.position = kSensor;
    rx.antenna = &antenna;
    rx.obstructions = obstructions.get();
    device = std::make_unique<s::SimulatedSdr>(s::SimulatedSdr::bladerf_like_info(),
                                               rx, Rng(77));
    device->add_source(std::make_shared<at::AdsbSignalSource>(sky));
    gt = std::make_unique<at::GroundTruthService>(*sky, 0.0);
  }
};

}  // namespace

TEST(Survey, WaveformModeSeesBothAircraftInRadius) {
  NodeFixture fix;
  cal::SurveyConfig cfg;
  cfg.duration_s = 3.0;
  cfg.ground_truth_query_at_s = 1.5;
  cal::AdsbSurvey survey(cfg);
  const auto result = survey.run(*fix.device, *fix.sky, *fix.gt);

  ASSERT_EQ(result.observations.size(), 2u);  // OUT is beyond 100 km
  EXPECT_EQ(result.received_count(), 2u);
  EXPECT_EQ(result.unmatched_receptions, 0u);  // OUT cleared by extended query
  EXPECT_GT(result.total_frames_decoded, 10u);
  for (const auto& obs : result.observations) {
    EXPECT_GT(obs.messages, 0u);
    EXPECT_GT(obs.best_rssi_dbfs, -200.0);
  }
}

TEST(Survey, ObservationGeometryMatchesGroundTruth) {
  NodeFixture fix;
  cal::SurveyConfig cfg;
  cfg.duration_s = 2.0;
  cfg.ground_truth_query_at_s = 1.0;
  const auto result = cal::AdsbSurvey(cfg).run(*fix.device, *fix.sky, *fix.gt);
  for (const auto& obs : result.observations) {
    if (obs.icao == 1) {
      EXPECT_NEAR(obs.azimuth_deg, 90.0, 2.0);
      EXPECT_NEAR(obs.range_km, 15.0, 2.0);
      EXPECT_EQ(obs.callsign, "EAST");
    } else if (obs.icao == 2) {
      EXPECT_NEAR(obs.azimuth_deg, 270.0, 2.0);
      EXPECT_NEAR(obs.range_km, 80.0, 2.0);
    }
  }
}

TEST(Survey, ObstructionCreatesMisses) {
  auto wall = std::make_shared<speccal::prop::ObstructionMap>();
  speccal::prop::Screen screen;
  screen.sector = {180.0, 360.0};  // block the west half
  screen.loss_at_1ghz_db = 45.0;
  screen.loss_slope_db_per_decade = 0.0;
  wall->set_leakage_ceiling_db(45.0);
  wall->add_screen(screen);
  NodeFixture fix(wall);

  cal::SurveyConfig cfg;
  cfg.duration_s = 3.0;
  cfg.ground_truth_query_at_s = 1.5;
  const auto result = cal::AdsbSurvey(cfg).run(*fix.device, *fix.sky, *fix.gt);
  ASSERT_EQ(result.observations.size(), 2u);
  for (const auto& obs : result.observations) {
    if (obs.icao == 1) {
      EXPECT_TRUE(obs.received) << "east should pass";
    }
    if (obs.icao == 2) {
      EXPECT_FALSE(obs.received) << "west 80 km blocked";
    }
  }
}

TEST(Survey, LinkBudgetModeAgreesWithWaveform) {
  // Both fidelity levels must tell the same macro story on the tiny sky.
  auto wall = std::make_shared<speccal::prop::ObstructionMap>();
  speccal::prop::Screen screen;
  screen.sector = {180.0, 360.0};
  screen.loss_at_1ghz_db = 45.0;
  wall->add_screen(screen);

  cal::SurveyConfig cfg;
  cfg.duration_s = 3.0;
  cfg.ground_truth_query_at_s = 1.5;

  NodeFixture wf(wall);
  auto wf_result = cal::AdsbSurvey(cfg).run(*wf.device, *wf.sky, *wf.gt);

  cfg.fidelity = cal::Fidelity::kLinkBudget;
  NodeFixture lb(wall);
  auto lb_result = cal::AdsbSurvey(cfg).run(*lb.device, *lb.sky, *lb.gt);

  ASSERT_EQ(wf_result.observations.size(), lb_result.observations.size());
  for (std::size_t i = 0; i < wf_result.observations.size(); ++i) {
    EXPECT_EQ(wf_result.observations[i].received, lb_result.observations[i].received)
        << "icao " << wf_result.observations[i].icao;
  }
}

TEST(Survey, LinkBudgetModeIsDeterministic) {
  cal::SurveyConfig cfg;
  cfg.fidelity = cal::Fidelity::kLinkBudget;
  cfg.duration_s = 5.0;
  NodeFixture a, b;
  const auto ra = cal::AdsbSurvey(cfg).run(*a.device, *a.sky, *a.gt);
  const auto rb = cal::AdsbSurvey(cfg).run(*b.device, *b.sky, *b.gt);
  EXPECT_EQ(ra.total_frames_decoded, rb.total_frames_decoded);
  EXPECT_EQ(ra.received_count(), rb.received_count());
}

TEST(Survey, DecodedPositionsMatchTruth) {
  NodeFixture fix;
  cal::SurveyConfig cfg;
  cfg.duration_s = 3.0;
  cfg.ground_truth_query_at_s = 1.5;
  const auto result = cal::AdsbSurvey(cfg).run(*fix.device, *fix.sky, *fix.gt);
  int checked = 0;
  for (const auto& obs : result.observations) {
    if (!obs.decoded_position) continue;
    // Ground truth has zero latency here; aircraft move <1 km in the gap
    // between fix time and query time.
    EXPECT_LT(g::haversine_m(obs.position, *obs.decoded_position), 2000.0);
    ++checked;
  }
  EXPECT_GE(checked, 1);
}

TEST(Survey, CountersConsistent) {
  NodeFixture fix;
  cal::SurveyConfig cfg;
  cfg.duration_s = 2.0;
  cfg.ground_truth_query_at_s = 1.0;
  const auto result = cal::AdsbSurvey(cfg).run(*fix.device, *fix.sky, *fix.gt);
  EXPECT_EQ(result.received_count() + result.missed_count(),
            result.observations.size());
  EXPECT_DOUBLE_EQ(result.duration_s, 2.0);
  EXPECT_LE(result.frames_crc_repaired, result.total_frames_decoded);
}
