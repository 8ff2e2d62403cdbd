#include "calib/fleet.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>

#include "obs/eventlog.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace speccal::calib {

namespace {

PipelineConfig validated_pipeline(const RunConfig& run) {
  run.validate();
  return run.pipeline;
}

}  // namespace

FleetCalibrator::FleetCalibrator(CalibrationPipeline pipeline, FleetConfig config)
    : pipeline_(std::move(pipeline)), config_(std::move(config)) {}

FleetCalibrator::FleetCalibrator(WorldModel world, RunConfig run,
                                 FleetConfig fleet)
    : pipeline_(std::move(world), validated_pipeline(run)),
      config_(std::move(fleet)),
      threads_(run.executor.threads) {
  if (config_.trace == nullptr) config_.trace = run.executor.trace;
}

unsigned FleetCalibrator::effective_threads(std::size_t jobs) const noexcept {
  unsigned threads = threads_;
  if (threads == 0) threads = std::max(1u, std::thread::hardware_concurrency());
  return static_cast<unsigned>(
      std::min<std::size_t>(threads, std::max<std::size_t>(jobs, 1)));
}

FleetSummary FleetCalibrator::run(std::vector<FleetJob> jobs, NodeRegistry& registry) {
  using clock = std::chrono::steady_clock;
  cancel_.store(false, std::memory_order_relaxed);

  FleetSummary summary;
  summary.total = jobs.size();
  if (jobs.empty()) return summary;

  obs::Registry::global().counter("speccal_fleet_batches_total").add();
  const unsigned threads = effective_threads(jobs.size());
  obs::Span run_span(config_.trace, "fleet_run", "fleet");
  run_span.arg("jobs", static_cast<std::int64_t>(jobs.size()));
  run_span.arg("threads", static_cast<std::int64_t>(threads));

  const auto t0 = clock::now();

  // Per-node mutable state, owned here so task closures can capture raw
  // references. `failed` is the only field two stage tasks of one node can
  // touch concurrently (e.g. fov ∥ cell_scan both racing to report an
  // error): the first CAS winner writes `error`, everyone else only reads
  // the flag. `skipped`/`plan`/`device` are written by the acquire task,
  // which every other task of the node orders after via graph edges.
  struct NodeState {
    std::unique_ptr<sdr::Device> device;
    CalibrationReport report;
    std::optional<NodeTaskSet> plan;
    std::atomic<bool> failed{false};
    std::string error;
    bool skipped = false;
  };
  std::vector<NodeState> states(jobs.size());
  const auto fail = [](NodeState& st, std::string what) {
    bool expected = false;
    if (st.failed.compare_exchange_strong(expected, true,
                                          std::memory_order_acq_rel))
      st.error = std::move(what);
  };

  // Guards the batch bookkeeping below and serializes the progress callback.
  std::mutex book_mutex;
  std::size_t completed = 0;
  std::vector<StageMetrics> fleet_metrics;
  fleet_metrics.reserve(jobs.size());

  const std::vector<StageSpec> specs = pipeline_.stage_plan();

  // One subgraph per node: acquire -> stage tasks (stage_plan edges) ->
  // finalize. The admission window chains acquire_i after
  // finalize_{i - 2*threads}: at most ~2 devices per worker are ever live,
  // cancellation (checked in acquire) takes effect promptly, and the
  // executor still always has a window's worth of nodes to interleave.
  TaskGraph graph;
  std::vector<TaskGraph::TaskId> finalize_ids(jobs.size());
  const std::size_t admit_window = std::size_t{2} * threads;

  for (std::size_t i = 0; i < jobs.size(); ++i) {
    FleetJob& job = jobs[i];
    NodeState& st = states[i];

    const TaskGraph::TaskId acquire = graph.add(
        job.claims.node_id + "/acquire", [this, &job, &st, &fail] {
          if (cancel_.load(std::memory_order_relaxed)) {
            st.skipped = true;
            return;
          }
          try {
            if (!job.make_device)
              throw std::invalid_argument("fleet job carries no device factory");
            st.device = job.make_device();
            if (st.device == nullptr)
              throw std::runtime_error("device factory returned null");
            st.plan.emplace(
                pipeline_.plan(*st.device, job.claims, st.report, config_.trace));
          } catch (const std::exception& e) {
            fail(st, e.what());
          } catch (...) {
            fail(st, "unknown exception during calibration");
          }
        });
    if (i >= admit_window) graph.depends(acquire, finalize_ids[i - admit_window]);

    std::array<TaskGraph::TaskId, kStageCount> stage_ids{};
    for (std::size_t k = 0; k < specs.size(); ++k) {
      const StageSpec& spec = specs[k];
      const TaskGraph::TaskId tid = graph.add(
          job.claims.node_id + "/" + to_string(spec.stage), [&st, &fail, k] {
            if (st.skipped || !st.plan ||
                st.failed.load(std::memory_order_acquire))
              return;
            try {
              st.plan->tasks()[k].run();
            } catch (const std::exception& e) {
              fail(st, e.what());
            } catch (...) {
              fail(st, "unknown exception during calibration");
            }
          });
      stage_ids[static_cast<std::size_t>(spec.stage)] = tid;
      graph.depends(tid, acquire);
      for (const Stage dep : spec.deps)
        graph.depends(tid, stage_ids[static_cast<std::size_t>(dep)]);
    }

    finalize_ids[i] = graph.add(
        job.claims.node_id + "/finalize",
        [&job, &st, &registry, &book_mutex, &completed, &fleet_metrics,
         &summary, &config = config_, total = jobs.size()] {
          if (st.skipped) {
            st.plan.reset();
            st.device.reset();
            return;
          }
          const bool ok = !st.failed.load(std::memory_order_acquire);
          if (st.plan) st.plan->finalize(/*aborted=*/!ok);
          obs::Registry::global().counter("speccal_fleet_nodes_total").add();
          if (!ok) {
            obs::Registry::global().counter("speccal_fleet_aborts_total").add();
            obs::EventLog::global().log(
                obs::EventSeverity::kError, "node_aborted", job.claims.node_id,
                {}, {obs::SpanArg::str("error", st.error)});
            // Failure isolation: the node still gets a (flagged, zero-trust)
            // report; the batch carries on.
            st.report.claims = job.claims;
            st.report.abort_reason = st.error;
            st.report.trust.score = 0.0;
            st.report.trust.findings.push_back(
                {Severity::kViolation, "calibration aborted: " + st.error});
          }

          const StageMetrics metrics = st.report.metrics;
          const bool node_quarantined = st.report.quarantined();
          FaultTally node_tally;
          node_tally.note(st.report.fault_records);
          if (node_quarantined) {
            obs::Registry::global()
                .counter("speccal_fault_quarantined_nodes_total")
                .add();
            obs::EventLog::global().log(
                obs::EventSeverity::kError, "node_quarantined",
                job.claims.node_id, {},
                {obs::SpanArg::integer(
                    "fault_records",
                    static_cast<std::int64_t>(st.report.fault_records.size()))});
          }
          registry.record(std::move(st.report));
          st.plan.reset();
          st.device.reset();

          const std::scoped_lock lock(book_mutex);
          ++completed;
          fleet_metrics.push_back(metrics);
          if (!ok) {
            ++summary.failed;
            summary.failures.push_back({job.claims.node_id, st.error});
          }
          summary.faults += node_tally;
          if (config.on_progress) {
            FleetProgress progress;
            progress.completed = completed;
            progress.total = total;
            progress.node_id = job.claims.node_id;
            progress.ok = ok;
            progress.quarantined = node_quarantined;
            config.on_progress(progress);
          }
        });
    graph.depends(finalize_ids[i], acquire);
    for (std::size_t k = 0; k < specs.size(); ++k)
      graph.depends(finalize_ids[i],
                    stage_ids[static_cast<std::size_t>(specs[k].stage)]);
  }

  StageExecutor executor(ExecutorConfig{threads, config_.trace});
  summary.executor = executor.run(graph);

  summary.calibrated = completed;
  summary.skipped = jobs.size() - completed;
  summary.wall_s =
      std::chrono::duration<double>(clock::now() - t0).count();
  summary.nodes_per_s =
      summary.wall_s > 0.0 ? static_cast<double>(completed) / summary.wall_s : 0.0;

  std::vector<const StageMetrics*> views;
  views.reserve(fleet_metrics.size());
  for (const StageMetrics& m : fleet_metrics) views.push_back(&m);
  summary.stage_stats = aggregate_stage_metrics(views);
  return summary;
}

}  // namespace speccal::calib
