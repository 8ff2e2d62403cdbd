// Tests: calib::AnomalyDetector — fleet-consensus RF anomaly detection fed
// by the adversary scenario pack (scenario/adversary.hpp).
//
// Locks the contracts DESIGN.md §16 documents:
//   * seeded scenario regression: on the "mixed" adversary fleet every
//     scripted victim is flagged (100% recall) with the right typed kind,
//     and no clean node is flagged (zero false positives);
//   * golden findings JSON schema (v1) — exact key sets, worst-first order;
//   * arming the anomaly scan on a clean fleet leaves every calibration
//     report byte-identical to an unarmed run (measurement content only),
//     and annotate() is a byte-for-byte no-op on unflagged nodes;
//   * a jammed-but-healthy node is flagged by the anomaly stage while its
//     health score stays at or above the clean floor — RF attacks are not
//     device faults and must not masquerade as them.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "calib/anomaly.hpp"
#include "calib/fleet.hpp"
#include "calib/health.hpp"
#include "json_reader.hpp"
#include "obs/metrics.hpp"
#include "scenario/adversary.hpp"
#include "scenario/testbed.hpp"

namespace cal = speccal::calib;
namespace sc = speccal::scenario;
namespace obs = speccal::obs;
namespace tj = speccal::testjson;

namespace {

constexpr std::uint64_t kSeed = 13;

// The "mixed" built-in scripts these victims (all indices < 20).
const std::map<std::string, cal::AnomalyKind>& expected_victims() {
  static const std::map<std::string, cal::AnomalyKind> kVictims{
      {"node-2", cal::AnomalyKind::kWidebandJammer},
      {"node-5", cal::AnomalyKind::kWidebandJammer},  // swept types as jammer
      {"node-7", cal::AnomalyKind::kSpuriousEmitter},
      {"node-11", cal::AnomalyKind::kIntermodPair},
      {"node-13", cal::AnomalyKind::kGhostAdsb},
      {"node-17", cal::AnomalyKind::kRoguePss},
  };
  return kVictims;
}

cal::PipelineConfig fleet_config(bool armed) {
  cal::PipelineConfig cfg;
  cfg.survey.fidelity = cal::Fidelity::kLinkBudget;
  cfg.survey.duration_s = 10.0;
  if (armed) {
    cfg.anomaly_scan.enabled = true;
    cfg.anomaly_scan.bands = sc::standard_watchlist();
  }
  return cfg;
}

std::vector<cal::FleetJob> fleet_jobs(const cal::WorldModel& world,
                                      std::size_t count,
                                      const sc::AdversaryProfile& profile) {
  std::vector<cal::FleetJob> jobs;
  for (std::size_t i = 0; i < count; ++i) {
    const auto site = static_cast<sc::Site>(i % 3);
    cal::FleetJob job;
    job.claims.node_id = "node-" + std::to_string(i);
    job.claims.claims_outdoor = site == sc::Site::kRooftop;
    job.claims.claims_omnidirectional = false;
    job.make_device = [&world, &profile, site, i]() {
      return sc::make_owned_node(site, world, kSeed, profile.sources_for(i));
    };
    jobs.push_back(std::move(job));
  }
  return jobs;
}

void calibrate(cal::NodeRegistry& registry, bool armed,
               const sc::AdversaryProfile& profile) {
  const auto world = sc::make_world(kSeed);
  cal::RunConfig run;
  run.pipeline = fleet_config(armed);
  run.executor.threads = 2;
  cal::FleetCalibrator calibrator(world, run);
  const auto summary = calibrator.run(fleet_jobs(world, 20, profile), registry);
  EXPECT_EQ(summary.failed, 0u);
}

enum class Fleet { kCleanUnarmed, kCleanArmed, kMixed };

/// Three calibrated 20-node registries shared across this file's tests:
/// clean with the scan disarmed, clean with it armed, and armed with the
/// "mixed" adversary profile (every kind, six victims).
cal::NodeRegistry& registry_for(Fleet which) {
  static cal::NodeRegistry clean_unarmed;
  static cal::NodeRegistry clean_armed;
  static cal::NodeRegistry mixed;
  static bool ran = false;
  if (!ran) {
    ran = true;
    const sc::AdversaryProfile no_adversaries;
    calibrate(clean_unarmed, false, no_adversaries);
    calibrate(clean_armed, true, no_adversaries);
    calibrate(mixed, true, sc::make_adversary_profile("mixed"));
  }
  switch (which) {
    case Fleet::kCleanUnarmed: return clean_unarmed;
    case Fleet::kCleanArmed: return clean_armed;
    default: return mixed;
  }
}

std::string report_json(const cal::CalibrationReport& report,
                        bool include_stage_metrics = true) {
  std::ostringstream os;
  report.write_json(os, include_stage_metrics);
  return os.str();
}

}  // namespace

// --- config validation ------------------------------------------------------

TEST(AnomalyConfig, ValidateNamesTheOffendingField) {
  cal::AnomalyConfig cfg;
  EXPECT_NO_THROW(cfg.validate());

  cfg.residual_threshold_db = 0.0;
  try {
    cfg.validate();
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("residual_threshold_db"),
              std::string::npos);
  }
  cfg = {};
  cfg.distance_sigma_m = -1.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = {};
  cfg.min_band_population = 1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = {};
  cfg.min_neighbor_weight = 0.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = {};
  cfg.cw_rho_threshold = 1.5;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = {};
  cfg.jammer_min_bands = 1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  EXPECT_THROW(cal::AnomalyDetector bad(cfg), std::invalid_argument);
}

// --- seeded scenario regression: the mixed adversary fleet -----------------

TEST(AnomalyDetector, MixedFleetFullRecallZeroFalsePositives) {
  const cal::AnomalyDetector detector;
  const cal::AnomalyReport report = detector.evaluate(registry_for(Fleet::kMixed));

  EXPECT_EQ(report.nodes_evaluated, 20u);
  EXPECT_TRUE(report.geo_weighted);
  EXPECT_DOUBLE_EQ(report.residual_threshold_db,
                   detector.config().residual_threshold_db);

  // 100% recall with the right typed kind per victim...
  const auto& victims = expected_victims();
  for (const auto& [node, kind] : victims) {
    const cal::AnomalyFinding* f = report.find(node);
    ASSERT_NE(f, nullptr) << node << " was not flagged (missed detection)";
    EXPECT_EQ(f->kind, kind) << node;
    EXPECT_GE(f->worst_residual_db, detector.config().residual_threshold_db)
        << node;
  }
  // ...and zero false positives.
  EXPECT_EQ(report.findings.size(), victims.size());
  EXPECT_EQ(report.flagged_nodes, victims.size());
  for (const auto& f : report.findings)
    EXPECT_TRUE(victims.count(f.node_id))
        << f.node_id << " flagged as " << cal::to_string(f.kind)
        << " (false positive)";

  // Per-kind signatures the typing rules key on.
  EXPECT_GT(report.find("node-7")->max_rho, 0.9);   // CW: coherent
  EXPECT_EQ(report.find("node-7")->bands.size(), 1u);
  EXPECT_EQ(report.find("node-11")->bands.size(), 2u);  // intermod pair
  EXPECT_GT(report.find("node-11")->max_rho, 0.9);
  EXPECT_GE(report.find("node-2")->bands.size(), 3u);   // wideband
  EXPECT_GE(report.find("node-5")->bands.size(), 3u);   // swept
  EXPECT_EQ(report.find("node-13")->bands,
            std::vector<std::string>{"watch:adsb-1090"});
  EXPECT_EQ(report.find("node-17")->bands,
            std::vector<std::string>{"watch:cell-2145"});

  // Worst-first ordering (the parked CW carrier towers over everything)
  // with deterministic tiebreaks.
  EXPECT_EQ(report.findings.front().node_id, "node-7");
  for (std::size_t k = 1; k < report.findings.size(); ++k)
    EXPECT_GE(report.findings[k - 1].worst_residual_db,
              report.findings[k].worst_residual_db);

  // find()/flagged() resolve ids; misses return null/false.
  EXPECT_TRUE(report.flagged("node-2"));
  EXPECT_FALSE(report.flagged("node-0"));
  EXPECT_EQ(report.find("nope"), nullptr);
}

TEST(AnomalyDetector, ArmedCleanFleetFlagsNothing) {
  const cal::AnomalyDetector detector;
  const cal::AnomalyReport report =
      detector.evaluate(registry_for(Fleet::kCleanArmed));
  EXPECT_EQ(report.nodes_evaluated, 20u);
  EXPECT_TRUE(report.findings.empty());
  EXPECT_EQ(report.flagged_nodes, 0u);
  EXPECT_GT(report.bands_evaluated, 0u);
}

// --- satellite: RF attacks are not device faults ----------------------------

TEST(AnomalyDetector, JammedNodeStaysHealthyButGetsFlagged) {
  // A jammer raises a node's RF readings, not its fault history: the health
  // monitor must keep every victim at or above the clean floor while the
  // anomaly stage flags it. The two reports answer different questions.
  const cal::HealthMonitor health_monitor;
  const cal::HealthReport health =
      health_monitor.evaluate(registry_for(Fleet::kMixed));
  ASSERT_EQ(health.nodes.size(), 20u);
  EXPECT_EQ(health.unhealthy_count, 0u);
  for (const auto& n : health.nodes) {
    EXPECT_GE(n.score, 85.0) << n.node_id;
    EXPECT_FALSE(n.unhealthy) << n.node_id;
  }

  const cal::AnomalyDetector detector;
  const cal::AnomalyReport report = detector.evaluate(registry_for(Fleet::kMixed));
  for (const auto& [node, kind] : expected_victims())
    EXPECT_TRUE(report.flagged(node)) << node;
}

// --- golden findings JSON schema (v1) ---------------------------------------

TEST(AnomalyDetector, GoldenFindingsJsonSchema) {
  const cal::AnomalyDetector detector;
  const cal::AnomalyReport report = detector.evaluate(registry_for(Fleet::kMixed));
  std::ostringstream os;
  report.write_json(os);
  ASSERT_FALSE(os.str().empty());
  EXPECT_EQ(os.str().back(), '\n');
  const auto doc = tj::parse(os.str());

  std::set<std::string> top_keys;
  for (const auto& [k, v] : doc.object()) top_keys.insert(k);
  const std::set<std::string> expected_top{
      "schema_version",  "residual_threshold_db", "geo_weighted",
      "nodes_evaluated", "bands_evaluated",       "flagged_nodes",
      "findings"};
  EXPECT_EQ(top_keys, expected_top);  // schema lock: exactly these fields
  EXPECT_EQ(doc.at("schema_version").number(), 1.0);
  EXPECT_TRUE(doc.at("geo_weighted").boolean());
  EXPECT_EQ(doc.at("nodes_evaluated").number(), 20.0);
  EXPECT_EQ(doc.at("flagged_nodes").number(), 6.0);

  const auto& findings = doc.at("findings").array();
  ASSERT_EQ(findings.size(), 6u);
  const std::set<std::string> expected_finding{
      "node", "kind", "worst_residual_db", "max_rho", "bands"};
  const std::set<std::string> known_kinds{
      "wideband-jammer", "spurious-emitter", "intermod-pair", "ghost-adsb",
      "rogue-pss"};
  double prev = 1e9;
  for (const auto& f : findings) {
    std::set<std::string> keys;
    for (const auto& [k, v] : f.object()) keys.insert(k);
    EXPECT_EQ(keys, expected_finding);
    EXPECT_TRUE(known_kinds.count(f.at("kind").str())) << f.at("kind").str();
    EXPECT_LE(f.at("worst_residual_db").number(), prev);  // worst-first
    prev = f.at("worst_residual_db").number();
    EXPECT_FALSE(f.at("bands").array().empty());
  }
  EXPECT_EQ(findings.front().at("node").str(), "node-7");
  EXPECT_EQ(findings.front().at("kind").str(), "spurious-emitter");
}

// --- metric publication -----------------------------------------------------

TEST(AnomalyDetector, PublishesFindingsMetrics) {
  const cal::AnomalyDetector detector;
  const cal::AnomalyReport report = detector.evaluate(registry_for(Fleet::kMixed));
  obs::Registry reg;  // isolated registry: exact values, no cross-test noise
  detector.publish(report, reg);

  EXPECT_DOUBLE_EQ(reg.counter("speccal_anomaly_findings_total").value(), 6.0);
  EXPECT_DOUBLE_EQ(reg.gauge("speccal_anomaly_flagged_nodes").value(), 6.0);
  EXPECT_DOUBLE_EQ(reg.gauge("speccal_anomaly_bands_evaluated").value(),
                   static_cast<double>(report.bands_evaluated));
  const auto kind_gauge = [&reg](const char* kind) {
    return reg.gauge("speccal_anomaly_findings", {{"kind", kind}}).value();
  };
  EXPECT_DOUBLE_EQ(kind_gauge("wideband-jammer"), 2.0);
  EXPECT_DOUBLE_EQ(kind_gauge("spurious-emitter"), 1.0);
  EXPECT_DOUBLE_EQ(kind_gauge("intermod-pair"), 1.0);
  EXPECT_DOUBLE_EQ(kind_gauge("ghost-adsb"), 1.0);
  EXPECT_DOUBLE_EQ(kind_gauge("rogue-pss"), 1.0);
}

// --- annotate + the clean-run bitwise guarantee -----------------------------

TEST(AnomalyDetector, ArmedCleanRunReportsStayBitwise) {
  // Arming the scan on a clean fleet must not change a byte of any report's
  // measurement content: the scan stage runs after every calibration
  // capture and its result is never serialized. (Stage metrics are wall
  // clock and are excluded, as in the decode-farm round-trip gate.)
  std::map<std::string, std::string> unarmed;
  registry_for(Fleet::kCleanUnarmed)
      .for_each_report([&](const cal::CalibrationReport& r) {
        unarmed[r.claims.node_id] = report_json(r, false);
      });
  std::size_t compared = 0;
  registry_for(Fleet::kCleanArmed)
      .for_each_report([&](const cal::CalibrationReport& r) {
        const auto it = unarmed.find(r.claims.node_id);
        ASSERT_NE(it, unarmed.end());
        EXPECT_EQ(report_json(r, false), it->second) << r.claims.node_id;
        ++compared;
      });
  EXPECT_EQ(compared, 20u);
}

TEST(AnomalyDetector, AnnotateTouchesOnlyFlaggedNodes) {
  // Fresh registries (the shared ones must stay unannotated for the other
  // tests): one clean armed, one mixed.
  const cal::AnomalyDetector detector;

  cal::NodeRegistry clean;
  calibrate(clean, true, sc::AdversaryProfile{});
  std::vector<std::string> before;
  clean.for_each_report([&](const cal::CalibrationReport& r) {
    before.push_back(report_json(r));
  });
  detector.annotate(clean, detector.evaluate(clean));
  std::size_t i = 0;
  clean.for_each_report([&](const cal::CalibrationReport& r) {
    EXPECT_EQ(report_json(r), before[i++]) << r.claims.node_id;
  });

  cal::NodeRegistry mixed;
  calibrate(mixed, true, sc::make_adversary_profile("mixed"));
  const cal::AnomalyReport report = detector.evaluate(mixed);
  detector.annotate(mixed, report);
  mixed.for_each_report([&](const cal::CalibrationReport& r) {
    std::size_t anomaly_findings = 0;
    for (const auto& f : r.trust.findings)
      if (f.severity == cal::Severity::kWarning &&
          f.description.find("anomaly:") != std::string::npos)
        ++anomaly_findings;
    EXPECT_EQ(anomaly_findings, report.flagged(r.claims.node_id) ? 1u : 0u)
        << r.claims.node_id;
  });
}
