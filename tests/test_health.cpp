// Tests: calib::HealthMonitor — per-node health scores from fault history
// plus consensus divergence against the fleet's per-band medians.
//
// Locks the contracts DESIGN.md §15 documents:
//   * separation guarantee: on a chaos run every faulted node scores
//     strictly below every clean node (the default weights make clean-node
//     penalties top out at 15 while any fault costs at least 20);
//   * golden health JSON schema (v1) — exact key sets;
//   * clean-run annotate() is a byte-for-byte no-op on the reports, which
//     preserves the fleet's bitwise parallel==serial invariant.
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "calib/fleet.hpp"
#include "calib/health.hpp"
#include "json_reader.hpp"
#include "obs/metrics.hpp"
#include "scenario/testbed.hpp"
#include "sdr/fault.hpp"

namespace cal = speccal::calib;
namespace sc = speccal::scenario;
namespace sdr = speccal::sdr;
namespace obs = speccal::obs;
namespace tj = speccal::testjson;

namespace {

constexpr std::uint64_t kSeed = 77;

cal::PipelineConfig chaos_config() {
  cal::PipelineConfig cfg;
  cfg.survey.fidelity = cal::Fidelity::kLinkBudget;
  cfg.survey.duration_s = 10.0;
  cfg.retry.max_attempts = 4;
  cfg.retry.quarantine = true;
  return cfg;
}

std::vector<cal::FleetJob> fleet_jobs(const cal::WorldModel& world,
                                      std::size_t count,
                                      const sdr::FaultProfile& profile) {
  std::vector<cal::FleetJob> jobs;
  for (std::size_t i = 0; i < count; ++i) {
    const auto site = static_cast<sc::Site>(i % 3);
    cal::FleetJob job;
    job.claims.node_id = "node-" + std::to_string(i);
    job.claims.claims_outdoor = site == sc::Site::kRooftop;
    job.claims.claims_omnidirectional = false;
    job.make_device = [&world, &profile, site, i]() {
      return profile.wrap(sc::make_owned_node(site, world, kSeed), i,
                          "node-" + std::to_string(i));
    };
    jobs.push_back(std::move(job));
  }
  return jobs;
}

/// One calibrated 20-node registry, with or without the flaky20 chaos
/// profile, shared across the tests in this file.
cal::RunConfig chaos_run(const sdr::FaultProfile& profile) {
  cal::RunConfig run;
  run.pipeline = chaos_config();
  if (profile.retry_max_attempts > 0)
    run.pipeline.retry.max_attempts = profile.retry_max_attempts;
  if (profile.initial_backoff_s > 0.0)
    run.pipeline.retry.initial_backoff_s = profile.initial_backoff_s;
  run.executor.threads = 2;
  return run;
}

cal::NodeRegistry& registry_for(bool chaos) {
  static cal::NodeRegistry clean_registry;
  static cal::NodeRegistry chaos_registry;
  static bool ran = false;
  if (!ran) {
    ran = true;
    const auto world = sc::make_world(kSeed);
    const auto profile = sdr::make_fault_profile("flaky20");
    const sdr::FaultProfile no_faults;
    for (const bool use_faults : {false, true}) {
      cal::FleetCalibrator calibrator(world, chaos_run(profile));
      const auto summary = calibrator.run(
          fleet_jobs(world, 20, use_faults ? profile : no_faults),
          use_faults ? chaos_registry : clean_registry);
      EXPECT_EQ(summary.failed, 0u);
    }
  }
  return chaos ? chaos_registry : clean_registry;
}

std::string report_json(const cal::CalibrationReport& report) {
  std::ostringstream os;
  report.write_json(os);
  return os.str();
}

}  // namespace

// --- config validation ------------------------------------------------------

TEST(HealthConfig, ValidateNamesTheOffendingField) {
  cal::HealthConfig cfg;
  EXPECT_NO_THROW(cfg.validate());

  cfg.retry_penalty = -1.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = {};
  cfg.divergence_full_scale_db = 0.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = {};
  cfg.min_band_population = 1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  // Weight layouts that break the separation guarantee are rejected: the
  // clean-node penalty ceiling must stay under the smallest fault penalty.
  cfg = {};
  cfg.crc_penalty_max = 15.0;
  cfg.divergence_penalty_max = 5.0;  // 15 + 5 >= retry_penalty (20)
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  EXPECT_THROW(cal::HealthMonitor bad(cfg), std::invalid_argument);
}

// --- scoring on the flaky20 chaos fleet -------------------------------------

TEST(HealthMonitor, Flaky20FaultedNodesScoreStrictlyBelowEveryCleanNode) {
  const cal::HealthMonitor monitor;
  const cal::HealthReport health = monitor.evaluate(registry_for(true));
  ASSERT_EQ(health.nodes.size(), 20u);

  // flaky20 scripts nodes 2, 7, 12 as transient (recover on retry) and
  // node 5 as dead (every capture throws -> quarantined stage).
  const std::set<std::string> faulted{"node-2", "node-5", "node-7", "node-12"};
  double worst_clean = 101.0, best_faulted = -1.0;
  for (const auto& n : health.nodes) {
    if (faulted.count(n.node_id)) {
      best_faulted = std::max(best_faulted, n.score);
      EXPECT_TRUE(n.unhealthy) << n.node_id;
      EXPECT_FALSE(n.aborted);
    } else {
      worst_clean = std::min(worst_clean, n.score);
      EXPECT_TRUE(n.recovered_stages == 0 && n.quarantined_stages == 0)
          << n.node_id;
      EXPECT_FALSE(n.unhealthy) << n.node_id;
    }
  }
  EXPECT_LT(best_faulted, worst_clean);  // the separation guarantee
  EXPECT_LE(best_faulted, 80.0);
  EXPECT_GE(worst_clean, 85.0);
  EXPECT_EQ(health.unhealthy_count, faulted.size());

  // Worst-first ordering with the quarantined node at the very top, and
  // node-id tiebreaks keeping equal scores deterministic.
  EXPECT_EQ(health.nodes.front().node_id, "node-5");
  EXPECT_GE(health.nodes.front().quarantined_stages, 1);
  for (std::size_t k = 1; k < health.nodes.size(); ++k) {
    const auto& prev = health.nodes[k - 1];
    const auto& cur = health.nodes[k];
    EXPECT_TRUE(prev.score < cur.score ||
                (prev.score == cur.score && prev.node_id < cur.node_id));
  }

  // find() resolves ids and misses return null.
  ASSERT_NE(health.find("node-5"), nullptr);
  EXPECT_EQ(health.find("node-5")->node_id, "node-5");
  EXPECT_EQ(health.find("nope"), nullptr);
}

TEST(HealthMonitor, CleanFleetScoresHighAndFlagsNothing) {
  const cal::HealthMonitor monitor;
  const cal::HealthReport health = monitor.evaluate(registry_for(false));
  ASSERT_EQ(health.nodes.size(), 20u);
  EXPECT_EQ(health.unhealthy_count, 0u);
  for (const auto& n : health.nodes) {
    EXPECT_GE(n.score, 85.0) << n.node_id;
    EXPECT_FALSE(n.unhealthy);
    EXPECT_DOUBLE_EQ(n.fault_penalty, 0.0);
  }
}

// --- golden health JSON schema (v1) -----------------------------------------

TEST(HealthMonitor, GoldenHealthJsonSchema) {
  const cal::HealthMonitor monitor;
  const cal::HealthReport health = monitor.evaluate(registry_for(true));
  std::ostringstream os;
  health.write_json(os);
  const auto doc = tj::parse(os.str());

  std::set<std::string> top_keys;
  for (const auto& [k, v] : doc.object()) top_keys.insert(k);
  const std::set<std::string> expected_top{
      "schema_version", "unhealthy_threshold", "unhealthy_count", "nodes"};
  EXPECT_EQ(top_keys, expected_top);  // schema lock: exactly these fields
  EXPECT_EQ(doc.at("schema_version").number(), 1.0);
  EXPECT_DOUBLE_EQ(doc.at("unhealthy_threshold").number(),
                   monitor.config().unhealthy_threshold);
  EXPECT_EQ(doc.at("unhealthy_count").number(), 4.0);

  const auto& nodes = doc.at("nodes").array();
  ASSERT_EQ(nodes.size(), 20u);
  const std::set<std::string> expected_node{
      "node",           "score",
      "unhealthy",      "aborted",
      "recovered_stages", "quarantined_stages",
      "crc_repair_rate", "divergence_db",
      "penalties"};
  const std::set<std::string> expected_penalties{"fault", "crc", "divergence"};
  double prev_score = -1.0;
  for (const auto& n : nodes) {
    std::set<std::string> keys;
    for (const auto& [k, v] : n.object()) keys.insert(k);
    EXPECT_EQ(keys, expected_node);
    std::set<std::string> pkeys;
    for (const auto& [k, v] : n.at("penalties").object()) pkeys.insert(k);
    EXPECT_EQ(pkeys, expected_penalties);
    EXPECT_GE(n.at("score").number(), prev_score);  // worst-first order
    prev_score = n.at("score").number();
  }
  EXPECT_EQ(nodes.front().at("node").str(), "node-5");
  EXPECT_TRUE(nodes.front().at("unhealthy").boolean());
}

// --- gauge publication ------------------------------------------------------

TEST(HealthMonitor, PublishesPerNodeGauges) {
  const cal::HealthMonitor monitor;
  const cal::HealthReport health = monitor.evaluate(registry_for(true));
  obs::Registry reg;  // isolated registry: exact values, no cross-test noise
  monitor.publish(health, reg);

  for (const auto& n : health.nodes)
    EXPECT_DOUBLE_EQ(
        reg.gauge("speccal_node_health", {{"node", n.node_id}}).value(),
        n.score)
        << n.node_id;
  EXPECT_DOUBLE_EQ(reg.gauge("speccal_health_unhealthy_nodes").value(), 4.0);
  EXPECT_EQ(reg.size(), health.nodes.size() + 1);
}

// --- annotate: flagged nodes gain a finding, clean runs stay bitwise --------

TEST(HealthMonitor, AnnotateTouchesOnlyUnhealthyNodes) {
  // Fresh registries (the shared ones must stay unannotated for the other
  // tests): one clean, one chaos, built the same way as registry_for().
  const auto world = sc::make_world(kSeed);
  const auto profile = sdr::make_fault_profile("flaky20");
  const sdr::FaultProfile no_faults;
  const cal::RunConfig run = chaos_run(profile);

  cal::NodeRegistry clean;
  {
    cal::FleetCalibrator calibrator(world, run);
    (void)calibrator.run(fleet_jobs(world, 20, no_faults), clean);
  }
  const cal::HealthMonitor monitor;

  // Clean fleet: nothing is flagged, so annotate must not change a byte of
  // any report — the bitwise parallel==serial invariant survives health
  // monitoring being switched on.
  std::vector<std::string> before;
  clean.for_each_report([&](const cal::CalibrationReport& r) {
    before.push_back(report_json(r));
  });
  monitor.annotate(clean, monitor.evaluate(clean));
  std::size_t i = 0;
  clean.for_each_report([&](const cal::CalibrationReport& r) {
    EXPECT_EQ(report_json(r), before[i++]) << r.claims.node_id;
  });

  // Chaos fleet: exactly the unhealthy nodes gain one kWarning finding.
  cal::NodeRegistry chaos;
  {
    cal::FleetCalibrator calibrator(world, run);
    (void)calibrator.run(fleet_jobs(world, 20, profile), chaos);
  }
  const cal::HealthReport health = monitor.evaluate(chaos);
  monitor.annotate(chaos, health);
  chaos.for_each_report([&](const cal::CalibrationReport& r) {
    std::size_t health_findings = 0;
    for (const auto& f : r.trust.findings)
      if (f.severity == cal::Severity::kWarning &&
          f.description.find("health score") != std::string::npos)
        ++health_findings;
    const auto* h = health.find(r.claims.node_id);
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(health_findings, h->unhealthy ? 1u : 0u) << r.claims.node_id;
  });
}
