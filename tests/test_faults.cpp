// Deterministic chaos suite: the fault-injecting SDR layer and the
// calibration engine's retry/backoff/deadline/quarantine machinery.
// Runs under ASan/UBSan via ctest and under TSan in the dedicated CI job.
//
// Determinism contract under test (DESIGN.md §11): same seed + same fault
// schedule => the same faults fire at the same op indices, the same stages
// retry/quarantine, and untouched nodes produce byte-identical reports.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "calib/fleet.hpp"
#include "calib/retry.hpp"
#include "json_reader.hpp"
#include "obs/metrics.hpp"
#include "scenario/testbed.hpp"
#include "sdr/fault.hpp"

namespace cal = speccal::calib;
namespace sc = speccal::scenario;
namespace sdr = speccal::sdr;
namespace obs = speccal::obs;
namespace dsp = speccal::dsp;

namespace {

constexpr std::uint64_t kSeed = 77;

/// Pipeline config with the cheap link-budget survey plus the chaos-grade
/// retry policy (4 attempts, quarantine on).
cal::PipelineConfig chaos_config() {
  cal::PipelineConfig cfg;
  cfg.survey.fidelity = cal::Fidelity::kLinkBudget;
  cfg.survey.duration_s = 10.0;
  cfg.retry.max_attempts = 4;
  cfg.retry.quarantine = true;
  return cfg;
}

/// Minimal stub: capture() derives every sample from the running call
/// index, so two identically-constructed stubs replay the same stream.
/// Deliberately does NOT override capture_into — it exercises the default
/// fallback-to-capture() adapter in sdr::Device.
class StubDevice : public sdr::Device {
 public:
  [[nodiscard]] sdr::DeviceInfo info() const override {
    sdr::DeviceInfo info;
    info.driver = "stub";
    return info;
  }
  [[nodiscard]] speccal::geo::Geodetic position() const override {
    return sc::testbed_origin();
  }
  bool tune(double f, double sr) override {
    freq_ = f;
    rate_ = sr;
    return true;
  }
  void set_gain_mode(sdr::GainMode) override {}
  void set_gain_db(double g) override { gain_db_ = g; }
  [[nodiscard]] double gain_db() const override { return gain_db_; }
  [[nodiscard]] dsp::Buffer capture(std::size_t count) override {
    dsp::Buffer buf(count);
    for (std::size_t k = 0; k < count; ++k)
      buf[k] = dsp::Sample(static_cast<float>(calls_) + 0.25f,
                           -static_cast<float>(k));
    ++calls_;
    stream_time_s_ += rate_ > 0.0 ? static_cast<double>(count) / rate_ : 0.0;
    return buf;
  }
  [[nodiscard]] double stream_time_s() const override { return stream_time_s_; }
  [[nodiscard]] double center_freq_hz() const override { return freq_; }
  [[nodiscard]] double sample_rate_hz() const override { return rate_; }

  [[nodiscard]] int capture_calls() const noexcept { return calls_; }

 private:
  double freq_ = 100e6;
  double rate_ = 2e6;
  double gain_db_ = 0.0;
  double stream_time_s_ = 0.0;
  int calls_ = 0;
};

/// A StubDevice that throws on its first `fail_count` captures — drives
/// RetryRunner directly without a full pipeline.
class FlakyStubDevice final : public StubDevice {
 public:
  explicit FlakyStubDevice(int fail_count) : fail_count_(fail_count) {}
  [[nodiscard]] dsp::Buffer capture(std::size_t count) override {
    if (attempts_++ < fail_count_) throw std::runtime_error("usb glitch");
    return StubDevice::capture(count);
  }

 private:
  int fail_count_;
  int attempts_ = 0;
};

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
      return profile.wrap(sc::make_owned_node(site, world, kSeed), i);
    };
    jobs.push_back(std::move(job));
  }
  return jobs;
}

std::string report_json(const cal::CalibrationReport& report) {
  std::ostringstream os;
  report.write_json(os);
  return os.str();
}

/// Report JSON with the trailing "stage_metrics" object (wall-clock stage
/// timings — the one legitimately nondeterministic section) removed, for
/// bitwise determinism comparisons of the measurement payload.
std::string report_json_sans_timing(const cal::CalibrationReport& report) {
  std::string json = report_json(report);
  const auto pos = json.find(",\"stage_metrics\"");
  if (pos != std::string::npos) json = json.substr(0, pos) + "}";
  return json;
}

std::uint64_t counter_value(const char* name) {
  return obs::Registry::global().counter(name).value();
}

}  // namespace

// --- Device::capture_into default adapter (device.hpp) ----------------------

TEST(CaptureIntoAdapter, DefaultFallbackMatchesCaptureBitwise) {
  StubDevice a;
  StubDevice b;
  const dsp::Buffer expect = a.capture(256);
  dsp::Buffer out(256);
  b.capture_into(out);  // default adapter: capture() + copy
  ASSERT_EQ(expect.size(), out.size());
  for (std::size_t k = 0; k < out.size(); ++k) EXPECT_EQ(expect[k], out[k]);
  EXPECT_EQ(a.capture_calls(), b.capture_calls());
  EXPECT_DOUBLE_EQ(a.stream_time_s(), b.stream_time_s());
}

TEST(CaptureIntoAdapter, EmptySpanIsSafeNoOp) {
  StubDevice dev;
  dsp::Buffer out;
  dev.capture_into(std::span<dsp::Sample>(out.data(), 0));
  // The adapter still routes through capture(0): one call, zero samples,
  // zero stream-time advance, no write.
  EXPECT_EQ(dev.capture_calls(), 1);
  EXPECT_DOUBLE_EQ(dev.stream_time_s(), 0.0);
}

TEST(CaptureIntoAdapter, RepeatedRoundTripsStayAligned) {
  // Property-style: for several sizes, twin stubs driven through the two
  // paths never diverge.
  StubDevice a;
  StubDevice b;
  for (const std::size_t n : {1u, 7u, 64u, 1000u}) {
    const dsp::Buffer expect = a.capture(n);
    dsp::Buffer out(n);
    b.capture_into(out);
    ASSERT_EQ(expect.size(), out.size());
    for (std::size_t k = 0; k < n; ++k) ASSERT_EQ(expect[k], out[k]);
  }
}

// --- FaultInjectingDevice ---------------------------------------------------

TEST(FaultDevice, TransparentWhenScheduleIsEmpty) {
  const auto world = sc::make_world(kSeed);
  auto raw = sc::make_owned_node(sc::Site::kRooftop, world, kSeed);
  sdr::FaultInjectingDevice wrapped(
      sc::make_owned_node(sc::Site::kRooftop, world, kSeed), {}, 123);

  EXPECT_EQ(raw->info().driver, wrapped.info().driver);
  EXPECT_EQ(raw->tune(545e6, 2.4e6), wrapped.tune(545e6, 2.4e6));
  raw->set_gain_db(21.0);
  wrapped.set_gain_db(21.0);
  EXPECT_DOUBLE_EQ(raw->gain_db(), wrapped.gain_db());
  EXPECT_NE(wrapped.sim_control(), nullptr);

  for (int round = 0; round < 3; ++round) {
    const dsp::Buffer a = raw->capture(2048);
    const dsp::Buffer b = wrapped.capture(2048);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t k = 0; k < a.size(); ++k) ASSERT_EQ(a[k], b[k]);
  }
  dsp::Buffer a_into(512);
  dsp::Buffer b_into(512);
  raw->capture_into(a_into);
  wrapped.capture_into(b_into);
  for (std::size_t k = 0; k < a_into.size(); ++k)
    ASSERT_EQ(a_into[k], b_into[k]);

  EXPECT_DOUBLE_EQ(raw->stream_time_s(), wrapped.stream_time_s());
  EXPECT_DOUBLE_EQ(raw->center_freq_hz(), wrapped.center_freq_hz());
  EXPECT_EQ(wrapped.injected_count(), 0u);
}

TEST(FaultDevice, InjectsScriptedCaptureFaults) {
  std::vector<sdr::FaultSpec> schedule{
      {sdr::FaultOp::kCapture, sdr::FaultKind::kThrow, 0, 1, 0.0, 1.0},
      {sdr::FaultOp::kCapture, sdr::FaultKind::kShortRead, 1, 1, 0.5, 1.0},
      {sdr::FaultOp::kCapture, sdr::FaultKind::kNanBurst, 2, 1, 0.0, 1.0},
      {sdr::FaultOp::kCapture, sdr::FaultKind::kSaturate, 3, 1, 0.0, 1.0},
  };
  sdr::FaultInjectingDevice dev(std::make_unique<StubDevice>(),
                                std::move(schedule), 1);

  EXPECT_THROW((void)dev.capture(128), std::runtime_error);  // op 0
  const dsp::Buffer short_read = dev.capture(128);           // op 1
  EXPECT_EQ(short_read.size(), 64u);
  const dsp::Buffer nans = dev.capture(128);  // op 2
  ASSERT_EQ(nans.size(), 128u);
  for (const auto& s : nans) {
    EXPECT_TRUE(std::isnan(s.real()));
    EXPECT_TRUE(std::isnan(s.imag()));
  }
  const dsp::Buffer sat = dev.capture(128);  // op 3
  for (const auto& s : sat) EXPECT_EQ(s, dsp::Sample(1.0f, 1.0f));
  const dsp::Buffer clean = dev.capture(128);  // op 4: schedule exhausted
  EXPECT_FALSE(std::isnan(clean.front().real()));
  EXPECT_EQ(dev.injected_count(), 4u);
  EXPECT_EQ(dev.capture_ops(), 5u);
}

TEST(FaultDevice, ShortReadOnCaptureIntoLeavesTailStale) {
  std::vector<sdr::FaultSpec> schedule{
      {sdr::FaultOp::kCapture, sdr::FaultKind::kShortRead, 0, 1, 0.25, 1.0}};
  sdr::FaultInjectingDevice dev(std::make_unique<StubDevice>(),
                                std::move(schedule), 1);
  const dsp::Sample sentinel(-42.0f, 42.0f);
  dsp::Buffer out(100, sentinel);
  dev.capture_into(out);
  // Head (25%) freshly written, tail still holds the caller's stale data.
  EXPECT_NE(out[0], sentinel);
  for (std::size_t k = 25; k < out.size(); ++k) ASSERT_EQ(out[k], sentinel);
}

TEST(FaultDevice, TuneRefusalAndSilentGainDrift) {
  std::vector<sdr::FaultSpec> schedule{
      {sdr::FaultOp::kTune, sdr::FaultKind::kTuneRefuse, 1, 2, 0.0, 1.0},
      {sdr::FaultOp::kGain, sdr::FaultKind::kGainDriftDb, 0, -1, 6.0, 1.0},
  };
  sdr::FaultInjectingDevice dev(std::make_unique<StubDevice>(),
                                std::move(schedule), 1);

  EXPECT_TRUE(dev.tune(100e6, 2e6));   // op 0: fine
  EXPECT_FALSE(dev.tune(200e6, 2e6));  // ops 1-2: PLL refuses
  EXPECT_FALSE(dev.tune(200e6, 2e6));
  EXPECT_TRUE(dev.tune(200e6, 2e6));   // op 3: recovered

  dev.set_gain_db(30.0);
  EXPECT_DOUBLE_EQ(dev.gain_db(), 30.0);          // the lie
  EXPECT_DOUBLE_EQ(dev.inner().gain_db(), 36.0);  // the truth
}

TEST(FaultDevice, ProbabilisticFaultsAreSeedDeterministic) {
  auto run = [](std::uint64_t seed) {
    std::vector<sdr::FaultSpec> schedule{
        {sdr::FaultOp::kCapture, sdr::FaultKind::kThrow, 0, -1, 0.0, 0.5}};
    sdr::FaultInjectingDevice dev(std::make_unique<StubDevice>(), schedule,
                                  seed);
    std::string pattern;
    for (int i = 0; i < 32; ++i) {
      try {
        (void)dev.capture(16);
        pattern.push_back('.');
      } catch (const std::runtime_error&) {
        pattern.push_back('X');
      }
    }
    return pattern;
  };
  const std::string a = run(7);
  EXPECT_EQ(a, run(7));            // same seed, same faults
  EXPECT_NE(a, std::string(32, '.'));
  EXPECT_NE(a, std::string(32, 'X'));
}

// --- Fault profiles ---------------------------------------------------------

TEST(FaultProfile, BuiltinsAndJsonRoundTrip) {
  const auto flaky = sdr::make_fault_profile("flaky20");
  EXPECT_EQ(flaky.name, "flaky20");
  EXPECT_EQ(flaky.expected_quarantined_nodes, 1u);
  EXPECT_NE(flaky.faults_for(5), nullptr);
  EXPECT_EQ(flaky.faults_for(0), nullptr);

  const auto custom = sdr::make_fault_profile(
      R"({"name":"mini","seed":9,"retry_max_attempts":3,
          "expected_quarantined_nodes":1,
          "nodes":[{"index":2,"faults":[
            {"op":"capture","kind":"throw","first":0,"count":-1},
            {"op":"tune","kind":"tune_refuse","first":1,"count":2,
             "probability":0.5}]}]})");
  EXPECT_EQ(custom.name, "mini");
  EXPECT_EQ(custom.seed, 9u);
  EXPECT_EQ(custom.retry_max_attempts, 3);
  ASSERT_NE(custom.faults_for(2), nullptr);
  ASSERT_EQ(custom.faults_for(2)->size(), 2u);
  EXPECT_EQ(custom.faults_for(2)->at(0).count, -1);
  EXPECT_EQ(custom.faults_for(2)->at(1).kind, sdr::FaultKind::kTuneRefuse);

  EXPECT_THROW((void)sdr::make_fault_profile("bogus"), std::invalid_argument);
  EXPECT_THROW((void)sdr::make_fault_profile("{\"nope\":1}"),
               std::invalid_argument);
}

// --- Retry / backoff / deadline / quarantine --------------------------------

TEST(Retry, PassthroughPolicyPropagatesLikeSeedBehaviour) {
  // Default policy: the exception flies, the fleet engine turns it into an
  // abort — exactly the pre-retry failure model.
  const auto world = sc::make_world(kSeed);
  cal::PipelineConfig cfg;
  cfg.survey.fidelity = cal::Fidelity::kLinkBudget;
  cfg.survey.duration_s = 10.0;
  cal::CalibrationPipeline pipeline(world, cfg);
  sdr::FaultInjectingDevice dev(
      sc::make_owned_node(sc::Site::kRooftop, world, kSeed),
      {{sdr::FaultOp::kCapture, sdr::FaultKind::kThrow, 0, -1, 0.0, 1.0}}, 1);
  cal::NodeClaims claims;
  claims.node_id = "passthrough";
  EXPECT_THROW((void)pipeline.calibrate(dev, claims), std::runtime_error);
}

TEST(Retry, FlakyCaptureRecoversAfterRetries) {
  const auto world = sc::make_world(kSeed);
  cal::CalibrationPipeline pipeline(world, chaos_config());
  // First two captures throw; the TV sweep (the first capturing stage under
  // link-budget fidelity) needs exactly 3 attempts.
  sdr::FaultInjectingDevice dev(
      sc::make_owned_node(sc::Site::kRooftop, world, kSeed),
      {{sdr::FaultOp::kCapture, sdr::FaultKind::kThrow, 0, 2, 0.0, 1.0}}, 1);
  cal::NodeClaims claims;
  claims.node_id = "flaky";
  claims.claims_outdoor = true;

  const std::uint64_t retries_before = counter_value("speccal_retry_attempts_total");
  const std::uint64_t recovered_before =
      counter_value("speccal_retry_recovered_total");
  const cal::CalibrationReport report = pipeline.calibrate(dev, claims);

  EXPECT_FALSE(report.aborted());
  EXPECT_FALSE(report.quarantined());
  ASSERT_EQ(report.fault_records.size(), 1u);
  const cal::FaultRecord& fr = report.fault_records.front();
  EXPECT_EQ(fr.stage, cal::Stage::kTvSweep);
  EXPECT_EQ(fr.outcome, cal::FaultOutcome::kRecovered);
  EXPECT_EQ(fr.attempts, 3);
  EXPECT_FALSE(fr.degraded);
  EXPECT_GT(fr.backoff_total_s, 0.0);
  EXPECT_NE(fr.last_error.find("injected fault"), std::string::npos);
  EXPECT_GE(counter_value("speccal_retry_attempts_total"), retries_before + 2);
  EXPECT_GE(counter_value("speccal_retry_recovered_total"), recovered_before + 1);
  EXPECT_GT(report.trust.score, 0.0);  // recovered nodes keep their trust
}

TEST(Retry, BackoffJitterIsDeterministicPerNode) {
  cal::RetryPolicy policy;
  policy.max_attempts = 3;
  policy.quarantine = true;

  auto run_node = [&](const std::string& node_id) {
    FlakyStubDevice dev(2);
    cal::RetryRunner runner(policy, node_id, &dev, nullptr);
    std::vector<cal::FaultRecord> records;
    const bool ok = runner.run(
        cal::Stage::kTvSweep, records, [] {}, [&] { (void)dev.capture(8); });
    EXPECT_TRUE(ok);
    EXPECT_EQ(records.size(), 1u);
    return records.front().backoff_total_s;
  };

  const double a1 = run_node("node-a");
  const double a2 = run_node("node-a");
  const double b = run_node("node-b");
  EXPECT_DOUBLE_EQ(a1, a2);  // same node id => identical jitter stream
  EXPECT_NE(a1, b);          // different node => independent stream
}

TEST(Retry, DeadNodeIsQuarantinedNotAborted) {
  const auto world = sc::make_world(kSeed);
  cal::CalibrationPipeline pipeline(world, chaos_config());
  sdr::FaultInjectingDevice dev(
      sc::make_owned_node(sc::Site::kWindow, world, kSeed),
      {{sdr::FaultOp::kCapture, sdr::FaultKind::kThrow, 0, -1, 0.0, 1.0}}, 1);
  cal::NodeClaims claims;
  claims.node_id = "dead";

  const std::uint64_t quarantined_before =
      counter_value("speccal_fault_quarantined_stages_total");
  const cal::CalibrationReport report = pipeline.calibrate(dev, claims);

  EXPECT_FALSE(report.aborted());  // no abort: the run completed, degraded
  EXPECT_TRUE(report.quarantined());
  ASSERT_FALSE(report.fault_records.empty());
  for (const auto& fr : report.fault_records) {
    EXPECT_EQ(fr.outcome, cal::FaultOutcome::kQuarantined);
    EXPECT_EQ(fr.attempts, 4);
    EXPECT_TRUE(fr.degraded);
  }
  // Quarantined stages left no partial outputs behind.
  EXPECT_TRUE(report.tv_readings.empty());
  // Trust collapsed and carries the quarantine violations.
  bool saw_quarantine_finding = false;
  for (const auto& f : report.trust.findings)
    if (f.severity == cal::Severity::kViolation &&
        f.description.find("quarantined") != std::string::npos)
      saw_quarantine_finding = true;
  EXPECT_TRUE(saw_quarantine_finding);
  EXPECT_GE(counter_value("speccal_fault_quarantined_stages_total"),
            quarantined_before + 1);
}

TEST(Retry, DeadlineExpiryOnStallingCapture) {
  const auto world = sc::make_world(kSeed);
  cal::PipelineConfig cfg = chaos_config();
  cfg.retry.stage_deadline_s = 0.01;  // 10 ms budget per stage
  cal::CalibrationPipeline pipeline(world, cfg);
  // Every capture stalls 50 ms then times out: the first failed attempt
  // already blows the deadline, so the stage gives up without retrying.
  sdr::FaultInjectingDevice dev(
      sc::make_owned_node(sc::Site::kRooftop, world, kSeed),
      {{sdr::FaultOp::kCapture, sdr::FaultKind::kStall, 0, -1, 0.05, 1.0}}, 1);
  cal::NodeClaims claims;
  claims.node_id = "staller";

  const cal::CalibrationReport report = pipeline.calibrate(dev, claims);
  EXPECT_FALSE(report.aborted());
  EXPECT_TRUE(report.quarantined());
  ASSERT_FALSE(report.fault_records.empty());
  for (const auto& fr : report.fault_records) {
    EXPECT_EQ(fr.outcome, cal::FaultOutcome::kDeadlineExpired);
    EXPECT_EQ(fr.attempts, 1);  // deadline beat the retry budget
  }
  EXPECT_GT(dev.stalled_s(), 0.0);
}

TEST(Retry, NanAndSaturatedBuffersNeverReachClassifierOutput) {
  const auto world = sc::make_world(kSeed);
  cal::CalibrationPipeline pipeline(world, chaos_config());

  for (const sdr::FaultKind kind :
       {sdr::FaultKind::kNanBurst, sdr::FaultKind::kSaturate}) {
    sdr::FaultInjectingDevice dev(
        sc::make_owned_node(sc::Site::kRooftop, world, kSeed),
        {{sdr::FaultOp::kCapture, kind, 0, -1, 0.0, 1.0}}, 1);
    cal::NodeClaims claims;
    claims.node_id = kind == sdr::FaultKind::kNanBurst ? "nan" : "saturated";
    const cal::CalibrationReport report = pipeline.calibrate(dev, claims);

    // Corrupt buffers degrade the data; they must never poison the outputs.
    EXPECT_FALSE(report.aborted());
    EXPECT_TRUE(std::isfinite(report.trust.score));
    EXPECT_TRUE(std::isfinite(report.classification.confidence));
    EXPECT_TRUE(std::isfinite(report.frequency_response.mean_attenuation_db));
    for (const auto& band : report.frequency_response.bands)
      EXPECT_TRUE(std::isfinite(band.mean_attenuation_db));
    for (const auto& reading : report.tv_readings)
      EXPECT_TRUE(std::isfinite(reading.power_dbfs));
    // And the JSON export stays strictly parseable (writer emits no NaN).
    EXPECT_NO_THROW((void)speccal::testjson::parse(report_json(report)));
  }
}

// --- Fleet-level chaos ------------------------------------------------------

TEST(ChaosFleet, DeadNodeQuarantinedWhileHealthyNodesStayBitwiseIdentical) {
  const auto world = sc::make_world(kSeed);
  constexpr std::size_t kFleet = 20;
  constexpr std::size_t kDeadIndex = 5;

  sdr::FaultProfile no_faults;  // empty: every node gets the bare device
  sdr::FaultProfile one_dead;
  one_dead.name = "one-dead";
  one_dead.nodes.push_back(
      {kDeadIndex,
       {{sdr::FaultOp::kCapture, sdr::FaultKind::kThrow, 0, -1, 0.0, 1.0}}});

  auto run_fleet = [&](const sdr::FaultProfile& profile) {
    cal::RunConfig run;
    run.pipeline = chaos_config();
    run.executor.threads = 4;
    cal::FleetCalibrator calibrator(world, run);
    auto registry = std::make_unique<cal::NodeRegistry>();
    const auto summary =
        calibrator.run(fleet_jobs(world, kFleet, profile), *registry);
    return std::make_pair(summary, std::move(registry));
  };

  const auto [clean_summary, clean_registry] = run_fleet(no_faults);
  const auto [chaos_summary, chaos_registry] = run_fleet(one_dead);

  EXPECT_EQ(clean_summary.failed, 0u);
  EXPECT_EQ(clean_summary.faults.quarantined, 0u);
  EXPECT_EQ(chaos_summary.calibrated, kFleet);
  EXPECT_EQ(chaos_summary.failed, 0u);       // quarantine, not abort
  EXPECT_EQ(chaos_summary.faults.quarantined, 1u);  // exactly the dead node

  for (std::size_t i = 0; i < kFleet; ++i) {
    const std::string id = "node-" + std::to_string(i);
    const auto* clean = clean_registry->find(id);
    const auto* chaos = chaos_registry->find(id);
    ASSERT_NE(clean, nullptr);
    ASSERT_NE(chaos, nullptr);
    if (i == kDeadIndex) {
      EXPECT_TRUE(chaos->quarantined());
      EXPECT_LT(chaos->trust.score, clean->trust.score);
      continue;
    }
    // The 19 untouched nodes: reports byte-identical to the fault-free run
    // (stage wall-times aside — those are real clock readings).
    EXPECT_EQ(report_json_sans_timing(*clean), report_json_sans_timing(*chaos))
        << id;
  }
}

TEST(ChaosFleet, Flaky20ProfileRecoversAndQuarantinesAsScripted) {
  const auto world = sc::make_world(kSeed);
  const auto profile = sdr::make_fault_profile("flaky20");

  cal::RunConfig run;
  run.pipeline = chaos_config();
  run.pipeline.retry.max_attempts = profile.retry_max_attempts;
  run.pipeline.retry.initial_backoff_s = profile.initial_backoff_s;
  run.executor.threads = 4;
  cal::FleetCalibrator calibrator(world, run);
  cal::NodeRegistry registry;
  const std::uint64_t retries_before = counter_value("speccal_retry_attempts_total");
  const auto summary = calibrator.run(fleet_jobs(world, 20, profile), registry);

  EXPECT_EQ(summary.calibrated, 20u);
  EXPECT_EQ(summary.failed, 0u);
  EXPECT_EQ(summary.faults.quarantined, profile.expected_quarantined_nodes);
  EXPECT_EQ(summary.faults.recovered, 3u);  // nodes 2, 7, 12 recover on retry
  EXPECT_GE(counter_value("speccal_retry_attempts_total"), retries_before + 6);

  const auto* dead = registry.find("node-5");
  ASSERT_NE(dead, nullptr);
  EXPECT_TRUE(dead->quarantined());
  const auto* flaky = registry.find("node-2");
  ASSERT_NE(flaky, nullptr);
  EXPECT_FALSE(flaky->quarantined());
  ASSERT_FALSE(flaky->fault_records.empty());
  EXPECT_EQ(flaky->fault_records.front().outcome, cal::FaultOutcome::kRecovered);
}

// --- Golden FaultRecord JSON schema -----------------------------------------

TEST(GoldenReport, FaultRecordSchemaRoundTripsThroughJson) {
  const auto world = sc::make_world(kSeed);
  cal::CalibrationPipeline pipeline(world, chaos_config());
  sdr::FaultInjectingDevice dev(
      sc::make_owned_node(sc::Site::kIndoor, world, kSeed),
      {{sdr::FaultOp::kCapture, sdr::FaultKind::kThrow, 0, -1, 0.0, 1.0}}, 1);
  cal::NodeClaims claims;
  claims.node_id = "golden-faulty";
  const cal::CalibrationReport report = pipeline.calibrate(dev, claims);
  ASSERT_TRUE(report.quarantined());

  const auto doc = speccal::testjson::parse(report_json(report));
  EXPECT_EQ(doc.at("node_id").str(), "golden-faulty");
  EXPECT_FALSE(doc.at("aborted").boolean());
  EXPECT_TRUE(doc.at("quarantined").boolean());

  ASSERT_TRUE(doc.has("fault_records"));
  const auto& records = doc.at("fault_records").array();
  ASSERT_FALSE(records.empty());
  const std::set<std::string> expected_keys{"stage",    "attempts",
                                            "outcome",  "degraded",
                                            "backoff_total_s", "error"};
  const std::set<std::string> known_stages{"survey",   "fov",  "cell_scan",
                                           "tv_sweep", "fuse", "lo_calibration"};
  for (const auto& rec : records) {
    std::set<std::string> keys;
    for (const auto& [k, v] : rec.object()) keys.insert(k);
    EXPECT_EQ(keys, expected_keys);  // schema lock: exactly these fields
    EXPECT_TRUE(known_stages.count(rec.at("stage").str())) << rec.at("stage").str();
    EXPECT_GE(rec.at("attempts").number(), 1.0);
    EXPECT_EQ(rec.at("outcome").str(), "quarantined");
    EXPECT_TRUE(rec.at("degraded").boolean());
    EXPECT_GE(rec.at("backoff_total_s").number(), 0.0);
    EXPECT_NE(rec.at("error").str().find("injected fault"), std::string::npos);
  }

  // A clean report advertises the same top-level schema with no records.
  auto clean_device = sc::make_owned_node(sc::Site::kIndoor, world, kSeed);
  cal::NodeClaims clean_claims;
  clean_claims.node_id = "golden-clean";
  const auto clean_doc = speccal::testjson::parse(
      report_json(pipeline.calibrate(*clean_device, clean_claims)));
  EXPECT_FALSE(clean_doc.at("quarantined").boolean());
  EXPECT_FALSE(clean_doc.has("fault_records"));
}
