// Tests: the observability layer — metrics registry (counters, gauges,
// histograms, exposition formats), trace sessions/spans and their Chrome
// trace_event export, StageTimer's exception-safety contract, and the
// fleet-level wiring. The concurrency cases are built to run clean under
// ThreadSanitizer (the CI TSan job builds this binary).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "calib/fleet.hpp"
#include "calib/metrics.hpp"
#include "dsp/plan.hpp"
#include "json_reader.hpp"
#include "obs/eventlog.hpp"
#include "obs/metrics.hpp"
#include "obs/sampler.hpp"
#include "obs/trace.hpp"
#include "scenario/testbed.hpp"

namespace obs = speccal::obs;
namespace cal = speccal::calib;
namespace sc = speccal::scenario;
namespace tj = speccal::testjson;

// ------------------------------------------------------------- registry ----

TEST(Registry, GetOrCreateReturnsStableHandles) {
  obs::Registry reg;
  obs::Counter& a = reg.counter("speccal_test_events_total");
  obs::Counter& b = reg.counter("speccal_test_events_total");
  EXPECT_EQ(&a, &b);  // one series per name, shared by all call sites
  a.add(2);
  b.add(3);
  EXPECT_EQ(a.value(), 5u);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(Registry, KindMismatchThrows) {
  obs::Registry reg;
  (void)reg.counter("speccal_test_thing_total");
  EXPECT_THROW((void)reg.gauge("speccal_test_thing_total"),
               std::invalid_argument);
  EXPECT_THROW((void)reg.histogram("speccal_test_thing_total",
                                   obs::default_duration_bounds_ms()),
               std::invalid_argument);
}

TEST(Registry, RejectsInvalidNames) {
  obs::Registry reg;
  EXPECT_THROW((void)reg.counter(""), std::invalid_argument);
  EXPECT_THROW((void)reg.counter("has space"), std::invalid_argument);
  EXPECT_THROW((void)reg.counter("dash-not-allowed"), std::invalid_argument);
  (void)reg.counter("ok_name:with_colon_09");
}

TEST(Registry, CounterConcurrencyExactTotal) {
  obs::Registry reg;
  obs::Counter& c = reg.counter("speccal_test_hammer_total");
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 100000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t)
    workers.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.add();
    });
  for (auto& w : workers) w.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);  // no lost updates, ever
}

TEST(Registry, GaugeSetAndAdd) {
  obs::Registry reg;
  obs::Gauge& g = reg.gauge("speccal_test_level");
  g.set(4.0);
  g.add(1.5);
  g.add(-2.0);
  EXPECT_DOUBLE_EQ(g.value(), 3.5);
}

TEST(Registry, KillSwitchSilencesFastPath) {
  obs::Registry reg;
  obs::Counter& c = reg.counter("speccal_test_gated_total");
  c.add();
  obs::set_metrics_enabled(false);
  c.add(100);
  obs::set_metrics_enabled(true);
  c.add();
  EXPECT_EQ(c.value(), 2u);
}

// ------------------------------------------------------------ histogram ----

TEST(Histogram, BucketBoundariesUseLeSemantics) {
  obs::Registry reg;
  const double bounds[] = {1.0, 2.0, 5.0};
  obs::Histogram& h = reg.histogram("speccal_test_latency_ms", bounds);
  // v lands in the first bucket with v <= bound: exact bounds stay low.
  h.observe(0.5);   // bucket 0
  h.observe(1.0);   // bucket 0 (le)
  h.observe(1.001); // bucket 1
  h.observe(2.0);   // bucket 1 (le)
  h.observe(5.0);   // bucket 2 (le)
  h.observe(5.001); // +Inf overflow
  h.observe(-3.0);  // below every bound -> bucket 0
  EXPECT_EQ(h.bucket_count(0), 3u);
  EXPECT_EQ(h.bucket_count(1), 2u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_EQ(h.bucket_count(3), 1u);  // +Inf
  EXPECT_EQ(h.count(), 7u);
  EXPECT_NEAR(h.sum(), 0.5 + 1.0 + 1.001 + 2.0 + 5.0 + 5.001 - 3.0, 1e-9);
}

TEST(Histogram, RejectsBadBounds) {
  obs::Registry reg;
  EXPECT_THROW((void)reg.histogram("speccal_test_empty_ms", {}),
               std::invalid_argument);
  const double unsorted[] = {2.0, 1.0};
  EXPECT_THROW((void)reg.histogram("speccal_test_unsorted_ms", unsorted),
               std::invalid_argument);
  const double repeated[] = {1.0, 1.0};
  EXPECT_THROW((void)reg.histogram("speccal_test_repeated_ms", repeated),
               std::invalid_argument);
}

TEST(Histogram, ConcurrentObserveKeepsTotals) {
  obs::Registry reg;
  const double bounds[] = {10.0, 20.0};
  obs::Histogram& h = reg.histogram("speccal_test_conc_ms", bounds);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t)
    workers.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i)
        h.observe(static_cast<double>(t * 10));  // 0,10 -> b0; 20 -> b1; 30 -> inf
    });
  for (auto& w : workers) w.join();
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(h.bucket_count(0), 2u * kPerThread);
  EXPECT_EQ(h.bucket_count(1), 1u * kPerThread);
  EXPECT_EQ(h.bucket_count(2), 1u * kPerThread);
}

// ----------------------------------------------------------- exposition ----

TEST(Exposition, JsonParsesAndCarriesCumulativeBuckets) {
  obs::Registry reg;
  reg.counter("speccal_test_a_total").add(7);
  reg.gauge("speccal_test_b").set(-2.5);
  const double bounds[] = {1.0, 10.0};
  obs::Histogram& h = reg.histogram("speccal_test_c_ms", bounds);
  h.observe(0.5);
  h.observe(5.0);
  h.observe(50.0);

  std::ostringstream os;
  reg.write_json(os);
  const tj::Value doc = tj::parse(os.str());
  const auto& metrics = doc.at("metrics").array();
  ASSERT_EQ(metrics.size(), 3u);

  // std::map keeps exposition name-ordered: a, b, c.
  EXPECT_EQ(metrics[0].at("name").str(), "speccal_test_a_total");
  EXPECT_EQ(metrics[0].at("type").str(), "counter");
  EXPECT_DOUBLE_EQ(metrics[0].at("value").number(), 7.0);

  EXPECT_EQ(metrics[1].at("type").str(), "gauge");
  EXPECT_DOUBLE_EQ(metrics[1].at("value").number(), -2.5);

  EXPECT_EQ(metrics[2].at("type").str(), "histogram");
  EXPECT_DOUBLE_EQ(metrics[2].at("count").number(), 3.0);
  const auto& buckets = metrics[2].at("buckets").array();
  ASSERT_EQ(buckets.size(), 3u);
  EXPECT_DOUBLE_EQ(buckets[0].at("le").number(), 1.0);
  EXPECT_DOUBLE_EQ(buckets[0].at("count").number(), 1.0);
  EXPECT_DOUBLE_EQ(buckets[1].at("count").number(), 2.0);  // cumulative
  EXPECT_EQ(buckets[2].at("le").str(), "+Inf");
  EXPECT_DOUBLE_EQ(buckets[2].at("count").number(), 3.0);
}

TEST(Exposition, TextFormatHasTypeLinesAndInfBucket) {
  obs::Registry reg;
  reg.counter("speccal_test_a_total").add();
  const double bounds[] = {1.0};
  reg.histogram("speccal_test_c_ms", bounds).observe(2.0);

  std::ostringstream os;
  reg.write_text(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("# TYPE speccal_test_a_total counter"), std::string::npos);
  EXPECT_NE(text.find("# TYPE speccal_test_c_ms histogram"), std::string::npos);
  EXPECT_NE(text.find("speccal_test_c_ms_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("speccal_test_c_ms_count 1"), std::string::npos);
}

// ---------------------------------------------------------------- spans ----

namespace {

/// Parse a session's export and return the ph:"X" events in document order.
std::vector<tj::Value> exported_spans(const obs::TraceSession& session) {
  std::ostringstream os;
  session.write_chrome_trace(os);
  const tj::Value doc = tj::parse(os.str());
  std::vector<tj::Value> spans;
  for (const auto& ev : doc.at("traceEvents").array())
    if (ev.at("ph").str() == "X") spans.push_back(ev);
  return spans;
}

}  // namespace

TEST(Trace, NestedSpansAreTimeContainedOnOneTrack) {
  obs::TraceSession session;
  {
    obs::Span outer(&session, "outer", "test");
    {
      obs::Span inner(&session, "inner", "test");
      inner.arg("depth", std::int64_t{2});
    }
  }
  const auto spans = exported_spans(session);
  ASSERT_EQ(spans.size(), 2u);
  // Sorted by ts: outer opened first.
  EXPECT_EQ(spans[0].at("name").str(), "outer");
  EXPECT_EQ(spans[1].at("name").str(), "inner");
  EXPECT_EQ(spans[0].at("tid").number(), spans[1].at("tid").number());
  const double o0 = spans[0].at("ts").number();
  const double o1 = o0 + spans[0].at("dur").number();
  const double i0 = spans[1].at("ts").number();
  const double i1 = i0 + spans[1].at("dur").number();
  EXPECT_GE(i0, o0);  // RAII scoping == time containment == viewer nesting
  EXPECT_LE(i1, o1);
  EXPECT_DOUBLE_EQ(spans[1].at("args").at("depth").number(), 2.0);
}

TEST(Trace, ThreadsGetDistinctTracksWithMetadata) {
  obs::TraceSession session;
  {
    obs::Span main_span(&session, "main_work", "test");
    std::thread worker([&session] {
      obs::Span s(&session, "worker_work", "test");
    });
    worker.join();
  }
  std::ostringstream os;
  session.write_chrome_trace(os);
  const tj::Value doc = tj::parse(os.str());
  double main_tid = -1.0, worker_tid = -1.0;
  std::size_t thread_names = 0;
  for (const auto& ev : doc.at("traceEvents").array()) {
    if (ev.at("ph").str() == "M" && ev.at("name").str() == "thread_name")
      ++thread_names;
    if (ev.at("ph").str() != "X") continue;
    if (ev.at("name").str() == "main_work") main_tid = ev.at("tid").number();
    if (ev.at("name").str() == "worker_work") worker_tid = ev.at("tid").number();
  }
  EXPECT_GE(main_tid, 0.0);
  EXPECT_GE(worker_tid, 0.0);
  EXPECT_NE(main_tid, worker_tid);
  EXPECT_EQ(thread_names, 2u);
}

TEST(Trace, SpanNamesAndArgsSurviveEscaping) {
  obs::TraceSession session;
  {
    obs::Span s(&session, "na\"me\\with\ncontrol", "test");
    s.arg("note", "line1\nline2\t\"quoted\"");
    s.arg("ratio", 0.5);
    s.arg("ok", true);
  }
  const auto spans = exported_spans(session);  // parse() throws if malformed
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].at("name").str(), "na\"me\\with\ncontrol");
  EXPECT_EQ(spans[0].at("args").at("note").str(), "line1\nline2\t\"quoted\"");
  EXPECT_TRUE(spans[0].at("args").at("ok").boolean());
}

TEST(Trace, NullSessionSpanIsInert) {
  obs::Span s(nullptr, "never_recorded");
  EXPECT_FALSE(s.active());
  s.arg("k", "v");
  s.end();  // must be a harmless no-op
}

TEST(Trace, MoveTransfersOwnershipWithoutDoubleRecord) {
  obs::TraceSession session;
  {
    obs::Span a(&session, "moved", "test");
    obs::Span b(std::move(a));
    EXPECT_FALSE(a.active());  // NOLINT(bugprone-use-after-move): testing it
    EXPECT_TRUE(b.active());
  }
  EXPECT_EQ(session.event_count(), 1u);
}

// ----------------------------------------------------------- StageTimer ----

TEST(StageTimer, RecordsOnExceptionUnwind) {
  cal::StageMetrics metrics;
  obs::TraceSession session;
  EXPECT_THROW(
      {
        cal::StageTimer timer(metrics, cal::Stage::kSurvey, &session,
                              "exploding-node");
        throw std::runtime_error("device died mid-stage");
      },
      std::runtime_error);
  EXPECT_TRUE(metrics.at(cal::Stage::kSurvey).ran);
  EXPECT_GE(metrics.at(cal::Stage::kSurvey).wall_ms, 0.0);
  // The unwound stage still produced its span, tagged with the node id.
  const auto spans = exported_spans(session);
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].at("name").str(), "survey");
  EXPECT_EQ(spans[0].at("args").at("node").str(), "exploding-node");
}

TEST(StageTimer, FeedsTheGlobalStageHistogram) {
  obs::Histogram& h = obs::Registry::global().histogram(
      "speccal_calib_stage_fuse_ms", obs::default_duration_bounds_ms());
  const std::uint64_t before = h.count();
  cal::StageMetrics metrics;
  { cal::StageTimer timer(metrics, cal::Stage::kFuse); }
  EXPECT_EQ(h.count(), before + 1);
  EXPECT_TRUE(metrics.at(cal::Stage::kFuse).ran);
}

// ---------------------------------------------------------- integration ----

TEST(Integration, PlanCachePublishesRegistryTwins) {
  obs::Counter& hits =
      obs::Registry::global().counter("speccal_dsp_plan_cache_hits_total");
  obs::Counter& misses =
      obs::Registry::global().counter("speccal_dsp_plan_cache_misses_total");
  auto& cache = speccal::dsp::PlanCache::shared();
  (void)cache.plan_f32(4096);  // warm: miss or hit depending on test order
  const std::uint64_t h0 = hits.value(), m0 = misses.value();
  (void)cache.plan_f32(4096);
  EXPECT_EQ(hits.value(), h0 + 1);  // second lookup of a cached size is a hit
  EXPECT_EQ(misses.value(), m0);
  EXPECT_GE(obs::Registry::global().gauge("speccal_dsp_plan_cache_entries").value(),
            1.0);
}

TEST(Integration, FleetRunEmitsNestedSpanTreeAndCounters) {
  const auto world = sc::make_world(2023);
  cal::PipelineConfig cfg;
  cfg.survey.fidelity = cal::Fidelity::kLinkBudget;
  cfg.survey.duration_s = 10.0;

  obs::TraceSession session;
  cal::RunConfig run;
  run.pipeline = cfg;
  run.executor.threads = 2;
  run.executor.trace = &session;
  cal::FleetCalibrator calibrator(world, run);

  obs::Counter& nodes =
      obs::Registry::global().counter("speccal_fleet_nodes_total");
  const std::uint64_t nodes_before = nodes.value();

  std::vector<cal::FleetJob> jobs;
  for (int i = 0; i < 2; ++i) {
    cal::FleetJob job;
    job.claims.node_id = "obs-node-" + std::to_string(i);
    job.make_device = [&world]() {
      return sc::make_owned_node(sc::Site::kRooftop, world, 2023);
    };
    jobs.push_back(std::move(job));
  }
  cal::NodeRegistry registry;
  const auto summary = calibrator.run(std::move(jobs), registry);
  EXPECT_EQ(summary.calibrated, 2u);
  EXPECT_EQ(nodes.value(), nodes_before + 2);
  const std::size_t planned_stages = calibrator.pipeline().stage_plan().size();
  EXPECT_EQ(summary.executor.tasks_run, 2u * (planned_stages + 2));

  // Span tree: one fleet_run root, one "task" span per graph task (acquire
  // + one per stage + finalize, per node), and each pipeline stage span
  // time-contained in a task span on the same worker track.
  const auto spans = exported_spans(session);
  std::size_t fleet_spans = 0, task_spans = 0, stage_spans = 0;
  for (const auto& s : spans) {
    const std::string& cat = s.at("cat").str();
    if (cat == "fleet") ++fleet_spans;
    if (cat == "task") ++task_spans;
    if (cat == "stage") ++stage_spans;
  }
  EXPECT_EQ(fleet_spans, 1u);
  EXPECT_EQ(task_spans, 2u * (planned_stages + 2));
  EXPECT_EQ(stage_spans, 2u * planned_stages);

  for (const auto& stage : spans) {
    if (stage.at("cat").str() != "stage") continue;
    const double s0 = stage.at("ts").number();
    const double s1 = s0 + stage.at("dur").number();
    const double tid = stage.at("tid").number();
    const std::string& node_id = stage.at("args").at("node").str();
    bool contained = false;
    for (const auto& task : spans) {
      if (task.at("cat").str() != "task") continue;
      if (task.at("tid").number() != tid) continue;
      // Task labels are "<node>/<stage>"; this stage's own task starts
      // with the node id.
      if (task.at("name").str().rfind(node_id + "/", 0) != 0) continue;
      const double t0 = task.at("ts").number();
      const double t1 = t0 + task.at("dur").number();
      if (s0 >= t0 && s1 <= t1) contained = true;
    }
    EXPECT_TRUE(contained) << "stage span of " << node_id
                           << " not inside any of its task spans";
  }

  // And the whole global registry still exports parseable JSON.
  std::ostringstream os;
  obs::Registry::global().write_json(os);
  EXPECT_TRUE(tj::parse(os.str()).at("metrics").is_array());
}

// --------------------------------------------------------------- labels ----

TEST(RegistryLabels, LabelOrderIsCanonicalAndHandlesAreStable) {
  obs::Registry reg;
  obs::Gauge& a =
      reg.gauge("speccal_test_health", {{"node", "n1"}, {"zone", "a"}});
  obs::Gauge& b =
      reg.gauge("speccal_test_health", {{"zone", "a"}, {"node", "n1"}});
  EXPECT_EQ(&a, &b);  // label order never splits a series
  obs::Gauge& c =
      reg.gauge("speccal_test_health", {{"node", "n2"}, {"zone", "a"}});
  EXPECT_NE(&a, &c);
  EXPECT_EQ(reg.size(), 2u);
}

TEST(RegistryLabels, RejectsInvalidAndDuplicateLabelNames) {
  obs::Registry reg;
  EXPECT_THROW((void)reg.counter("speccal_test_l_total", {{"bad-name", "v"}}),
               std::invalid_argument);
  EXPECT_THROW((void)reg.counter("speccal_test_l_total", {{"0digit", "v"}}),
               std::invalid_argument);
  EXPECT_THROW((void)reg.counter("speccal_test_l_total", {{"", "v"}}),
               std::invalid_argument);
  EXPECT_THROW(
      (void)reg.counter("speccal_test_l_total", {{"dup", "a"}, {"dup", "b"}}),
      std::invalid_argument);
  // Values are unconstrained: dashes, spaces, anything (escaped at export).
  (void)reg.counter("speccal_test_l_total", {{"_ok_09", "dave-rooftop x"}});
}

TEST(RegistryLabels, KindIsSharedAcrossEveryLabelSetOfOneName) {
  obs::Registry reg;
  (void)reg.counter("speccal_test_mixed_total", {{"node", "a"}});
  EXPECT_THROW((void)reg.gauge("speccal_test_mixed_total", {{"node", "b"}}),
               std::invalid_argument);
  EXPECT_THROW((void)reg.gauge("speccal_test_mixed_total"),
               std::invalid_argument);
}

TEST(RegistryLabels, TextExpositionEscapesValuesAndDedupesTypeLines) {
  obs::Registry reg;
  reg.gauge("speccal_test_escape", {{"node", "a\\b\"c\nd"}}).set(1.0);
  reg.gauge("speccal_test_escape", {{"node", "plain"}}).set(2.0);
  std::ostringstream os;
  reg.write_text(os);
  const std::string text = os.str();
  // Backslash, quote and newline escape per the Prometheus text format.
  EXPECT_NE(text.find("speccal_test_escape{node=\"a\\\\b\\\"c\\nd\"} 1"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("speccal_test_escape{node=\"plain\"} 2"),
            std::string::npos);
  // One TYPE line covers every label set of the name.
  const std::string type_line = "# TYPE speccal_test_escape gauge";
  const auto first = text.find(type_line);
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(text.find(type_line, first + 1), std::string::npos);
}

TEST(RegistryLabels, JsonExpositionCarriesLabelsAndStaysParseable) {
  obs::Registry reg;
  reg.gauge("speccal_test_jlabel", {{"node", "x\"y"}}).set(3.5);
  std::ostringstream os;
  reg.write_json(os);
  const auto doc = tj::parse(os.str());
  const auto& rows = doc.at("metrics").array();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].at("name").str(), "speccal_test_jlabel");
  EXPECT_EQ(rows[0].at("labels").at("node").str(), "x\"y");
  EXPECT_DOUBLE_EQ(rows[0].at("value").number(), 3.5);
}

TEST(Registry, TextExpositionRendersNonFiniteValues) {
  obs::Registry reg;
  reg.gauge("speccal_test_nanval").set(std::nan(""));
  reg.gauge("speccal_test_posinf").set(std::numeric_limits<double>::infinity());
  reg.gauge("speccal_test_neginf").set(-std::numeric_limits<double>::infinity());
  std::ostringstream os;
  reg.write_text(os);
  const std::string text = os.str();
  // Prometheus text-format spellings, not ostream's locale-y nan/inf.
  EXPECT_NE(text.find("speccal_test_nanval NaN"), std::string::npos) << text;
  EXPECT_NE(text.find("speccal_test_posinf +Inf"), std::string::npos);
  EXPECT_NE(text.find("speccal_test_neginf -Inf"), std::string::npos);
  // The JSON exposition of the same registry must stay strictly parseable
  // (the writer maps non-finite to null).
  std::ostringstream js;
  reg.write_json(js);
  EXPECT_NO_THROW((void)tj::parse(js.str()));
}

TEST(Registry, ScalarSamplesFlattenEverySeries) {
  obs::Registry reg;
  reg.counter("speccal_test_c_total").add(3);
  reg.gauge("speccal_test_g", {{"node", "x"}}).set(7.5);
  obs::Histogram& h =
      reg.histogram("speccal_test_h_ms", obs::default_duration_bounds_ms());
  h.observe(2.0);
  h.observe(3.0);

  const auto samples = reg.scalar_samples();
  auto find = [&](const std::string& series) -> const obs::ScalarSample* {
    for (const auto& s : samples)
      if (s.series == series) return &s;
    return nullptr;
  };
  const auto* c = find("speccal_test_c_total");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->kind, obs::MetricKind::kCounter);
  EXPECT_DOUBLE_EQ(c->value, 3.0);
  const auto* g = find("speccal_test_g{node=\"x\"}");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->kind, obs::MetricKind::kGauge);
  EXPECT_DOUBLE_EQ(g->value, 7.5);
  // Histograms flatten to monotonic _count/_sum rows.
  const auto* hc = find("speccal_test_h_ms_count");
  const auto* hs = find("speccal_test_h_ms_sum");
  ASSERT_NE(hc, nullptr);
  ASSERT_NE(hs, nullptr);
  EXPECT_EQ(hc->kind, obs::MetricKind::kCounter);
  EXPECT_DOUBLE_EQ(hc->value, 2.0);
  EXPECT_DOUBLE_EQ(hs->value, 5.0);
}

// ------------------------------------------------------------- eventlog ----

TEST(EventLog, CapacityIsValidated) {
  EXPECT_THROW(obs::EventLog bad(0), std::invalid_argument);
}

TEST(EventLog, RingWrapKeepsNewestAndSeqSurvives) {
  obs::EventLog log(4);
  for (int i = 0; i < 10; ++i)
    log.log(obs::EventSeverity::kInfo, "evt", "node-a", "tv_sweep",
            {obs::SpanArg::integer("i", i)});
  EXPECT_EQ(log.size(), 4u);
  EXPECT_EQ(log.capacity(), 4u);
  EXPECT_EQ(log.total_appended(), 10u);
  EXPECT_EQ(log.dropped(), 6u);
  const auto snap = log.snapshot();
  ASSERT_EQ(snap.size(), 4u);
  // Oldest-first, densely numbered, ending at the newest append.
  EXPECT_EQ(snap.front().seq, 6u);
  EXPECT_EQ(snap.back().seq, 9u);
  for (std::size_t k = 1; k < snap.size(); ++k) {
    EXPECT_EQ(snap[k].seq, snap[k - 1].seq + 1);
    EXPECT_GE(snap[k].t_ms, snap[k - 1].t_ms);
  }
  log.clear();
  EXPECT_EQ(log.size(), 0u);
  log.log(obs::EventSeverity::kWarning, "after_clear");
  EXPECT_EQ(log.snapshot().front().seq, 10u);  // numbering keeps going
}

TEST(EventLog, KillSwitchSilencesAppends) {
  obs::EventLog log(8);
  obs::set_events_enabled(false);
  log.log(obs::EventSeverity::kError, "dropped_event");
  obs::set_events_enabled(true);
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.total_appended(), 0u);
  log.log(obs::EventSeverity::kError, "kept_event");
  EXPECT_EQ(log.size(), 1u);
}

TEST(EventLog, JsonlExportOmitsEmptyFieldsAndEscapes) {
  obs::EventLog log(8);
  log.log(obs::EventSeverity::kError, "stage_quarantined", "dave\"rooftop",
          "tv_sweep",
          {obs::SpanArg::integer("attempts", 4),
           obs::SpanArg::str("last_error", "usb \"glitch\"")});
  log.log(obs::EventSeverity::kInfo, "bare_event");
  std::ostringstream os;
  log.write_jsonl(os);
  const std::string text = os.str();
  std::vector<std::string> lines;
  for (std::size_t pos = 0; pos < text.size();) {
    const auto nl = text.find('\n', pos);
    lines.push_back(text.substr(pos, nl - pos));
    pos = nl + 1;
  }
  ASSERT_EQ(lines.size(), 2u);
  // Every line parses standalone; the full one carries node/stage/args.
  const auto full = tj::parse(lines[0]);
  EXPECT_EQ(full.at("seq").number(), 0.0);
  EXPECT_EQ(full.at("severity").str(), "error");
  EXPECT_EQ(full.at("event").str(), "stage_quarantined");
  EXPECT_EQ(full.at("node").str(), "dave\"rooftop");
  EXPECT_EQ(full.at("stage").str(), "tv_sweep");
  EXPECT_EQ(full.at("args").at("attempts").number(), 4.0);
  EXPECT_EQ(full.at("args").at("last_error").str(), "usb \"glitch\"");
  // The bare one omits node/stage/args entirely.
  const auto bare = tj::parse(lines[1]);
  EXPECT_EQ(bare.at("event").str(), "bare_event");
  EXPECT_FALSE(bare.has("node"));
  EXPECT_FALSE(bare.has("stage"));
  EXPECT_FALSE(bare.has("args"));
}

TEST(EventLog, ConcurrentAppendHammerLosesNothing) {
  // Sized to run clean under TSan in the dedicated CI job: N writer threads
  // race appends through the one mutex; totals must be exact and the ring
  // must end dense (every surviving seq consecutive).
  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  obs::EventLog log(256);
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    writers.emplace_back([&log, t] {
      for (int i = 0; i < kPerThread; ++i)
        log.log(obs::EventSeverity::kInfo, "hammer",
                "node-" + std::to_string(t), "stage",
                {obs::SpanArg::integer("i", i)});
    });
  for (auto& w : writers) w.join();

  EXPECT_EQ(log.total_appended(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(log.size(), 256u);
  EXPECT_EQ(log.dropped(), log.total_appended() - 256u);
  const auto snap = log.snapshot();
  for (std::size_t k = 1; k < snap.size(); ++k)
    ASSERT_EQ(snap[k].seq, snap[k - 1].seq + 1);
}

// -------------------------------------------------------------- sampler ----

TEST(Sampler, MaxFramesIsValidated) {
  obs::Registry reg;
  EXPECT_THROW(obs::Sampler bad(reg, 0), std::invalid_argument);
}

TEST(Sampler, RecordsOnlyChangedSeriesPerFrame) {
  obs::Registry reg;
  obs::Counter& c = reg.counter("speccal_test_sampled_total");
  obs::Gauge& g = reg.gauge("speccal_test_sampled_depth");
  (void)reg.gauge("speccal_test_sampled_idle");  // stays 0 forever
  obs::Sampler sampler(reg);

  c.add(5);
  g.set(2.0);
  EXPECT_EQ(sampler.sample(), 2u);  // frame 0: the two nonzero series
  EXPECT_EQ(sampler.sample(), 0u);  // nothing moved
  c.add(1);
  g.set(1.5);
  EXPECT_EQ(sampler.sample(), 2u);

  const auto frames = sampler.frames();
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(frames[0].tick, 0u);
  EXPECT_TRUE(frames[1].points.empty());
  for (const auto& p : frames[2].points) {
    if (p.series == "speccal_test_sampled_total") {
      EXPECT_DOUBLE_EQ(p.value, 6.0);
      EXPECT_DOUBLE_EQ(p.delta, 1.0);
    } else {
      EXPECT_EQ(p.series, "speccal_test_sampled_depth");
      EXPECT_DOUBLE_EQ(p.value, 1.5);
      EXPECT_DOUBLE_EQ(p.delta, -0.5);  // gauges move both ways
    }
  }
}

TEST(Sampler, FrameRingEvictsOldestAndExportParses) {
  obs::Registry reg;
  obs::Counter& c = reg.counter("speccal_test_ring_total");
  obs::Sampler sampler(reg, 3);
  for (int i = 0; i < 5; ++i) {
    c.add(1);
    (void)sampler.sample();
  }
  EXPECT_EQ(sampler.frame_count(), 3u);
  EXPECT_EQ(sampler.dropped_frames(), 2u);
  const auto frames = sampler.frames();
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(frames.front().tick, 2u);  // oldest surviving tick
  EXPECT_EQ(frames.back().tick, 4u);

  std::ostringstream os;
  sampler.write_json(os);
  const auto doc = tj::parse(os.str());
  EXPECT_EQ(doc.at("schema_version").number(), 1.0);
  EXPECT_EQ(doc.at("dropped_frames").number(), 2.0);
  ASSERT_EQ(doc.at("frames").array().size(), 3u);
  const auto& pts = doc.at("frames").array().back().at("points").array();
  ASSERT_EQ(pts.size(), 1u);
  EXPECT_EQ(pts[0].at("series").str(), "speccal_test_ring_total");
  EXPECT_EQ(pts[0].at("kind").str(), "counter");
  EXPECT_DOUBLE_EQ(pts[0].at("delta").number(), 1.0);
}

// ----------------------------------------------------------- SLO tracker ----

TEST(SloTracker, BudgetsAreValidatedAndFastPathIsSilent) {
  obs::Registry reg;
  obs::SloTracker slo(reg);
  EXPECT_THROW(slo.set_budget("survey", 0.0), std::invalid_argument);
  EXPECT_THROW(slo.set_budget("survey", -1.0), std::invalid_argument);
  slo.observe("survey", 100.0);  // no budget armed: pure no-op
  EXPECT_TRUE(slo.snapshot().empty());
  EXPECT_EQ(reg.size(), 0u);  // nothing registered either
}

TEST(SloTracker, TracksBreachesAndPublishesBurnRate) {
  obs::Registry reg;
  obs::SloTracker slo(reg);
  slo.set_budget("tv_sweep", 10.0);
  slo.observe("tv_sweep", 5.0);    // under budget
  slo.observe("tv_sweep", 15.0);   // breach, 5 ms over
  slo.observe("tv_sweep", 10.0);   // exactly at budget: not a breach
  slo.observe("cell_scan", 99.0);  // un-budgeted stage stays invisible

  const auto snap = slo.snapshot();
  ASSERT_EQ(snap.size(), 1u);
  const auto& row = snap.front();
  EXPECT_EQ(row.stage, "tv_sweep");
  EXPECT_EQ(row.observed, 3u);
  EXPECT_EQ(row.breaches, 1u);
  EXPECT_DOUBLE_EQ(row.total_ms, 30.0);
  EXPECT_DOUBLE_EQ(row.total_over_ms, 5.0);
  EXPECT_DOUBLE_EQ(row.burn_rate(), 1.0);  // 30 / (10 * 3): at budget overall

  EXPECT_EQ(
      reg.counter("speccal_slo_stage_observed_total", {{"stage", "tv_sweep"}})
          .value(),
      3u);
  EXPECT_EQ(
      reg.counter("speccal_slo_stage_breaches_total", {{"stage", "tv_sweep"}})
          .value(),
      1u);
  EXPECT_DOUBLE_EQ(
      reg.gauge("speccal_slo_stage_burn_rate", {{"stage", "tv_sweep"}}).value(),
      1.0);

  slo.clear();
  slo.observe("tv_sweep", 100.0);  // disarmed again
  EXPECT_TRUE(slo.snapshot().empty());
}

TEST(SloTracker, StageTimerFeedsGlobalTracker) {
  // Arm a generous budget on the survey stage, run a StageTimer through its
  // normal RAII cycle, and confirm the observation landed.
  auto& slo = obs::SloTracker::global();
  slo.set_budget("survey", 60000.0);
  const auto observed_before = [&] {
    for (const auto& row : slo.snapshot())
      if (row.stage == "survey") return row.observed;
    return std::uint64_t{0};
  }();
  {
    cal::StageMetrics metrics;
    cal::StageTimer timer(metrics, cal::Stage::kSurvey);
  }
  std::uint64_t observed_after = 0;
  for (const auto& row : slo.snapshot())
    if (row.stage == "survey") observed_after = row.observed;
  EXPECT_EQ(observed_after, observed_before + 1);
  slo.clear();  // leave the global tracker disarmed for other tests
}
