// Fleet-calibration benchmark driver.
//
// Runs one workload (closed batches: every node submitted at once) for a
// time budget and prints one raw JSON document on stdout: the run manifest,
// set-up timings, per-batch wall/CPU time, peak RSS and per-node latencies,
// the output checks, and -- on a traced run -- counter deltas, bench-timed
// layer calls and the path of the Chrome trace it wrote. perfbench/run.py
// turns that document into the benchmark's named metrics.
//
// Every layer is measured from outside the library: a TimedDevice
// decorator around each node's sdr::Device (installed through
// FleetJob::make_device) times capture calls, the bench times the public
// calls it makes itself, and obs::Registry counters are read as deltas
// around the timed batches. Nothing under src/ knows it is being measured.
//
// Usage:
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    --out DIR [--threads N]
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <ctime>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>
#include <thread>
#include <vector>

#include "calib/anomaly.hpp"
#include "calib/fleet.hpp"
#include "calib/health.hpp"
#include "dsp/simd.hpp"
#include "net/decode_farm.hpp"
#include "net/queue.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "scenario/testbed.hpp"
#include "sdr/segmentize.hpp"
#include "sdr/sim.hpp"
#include "util/json.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace speccal;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Reset the process's peak RSS to its current RSS (Linux clear_refs "5"),
/// so the next peak_rss_mb() reads the peak of what ran in between. Where
/// the reset is refused, peak_rss_mb() keeps reading the process-wide peak.
void reset_peak_rss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

/// Peak RSS (VmHWM) since the last reset_peak_rss(), or since start.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

// ------------------------------------------------------------- workloads ----

enum class Kind { kFleet, kFarm };

/// One benchmark workload. Why each exists is in perfbench/README.md.
struct Workload {
  std::string_view name;
  Kind kind;
  calib::Fidelity fidelity;  // ADS-B survey; its window is the paper's 30 s
  unsigned threads;         // executor workers (calibration)
  unsigned decode_threads;  // farm decode workers (kFarm only)
  std::size_t nodes;        // per batch; a multiple of 3 (one per site)
};

/// Set-up is repeated at least this many times, and until this much set-up
/// time has passed, so a short set-up still gets a median of several
/// samples; run.py reports the median.
constexpr int kSetupMinRepeats = 3;
constexpr double kSetupMinSeconds = 3.0;

constexpr Workload kWorkloads[] = {
    {"fleet_linkbudget", Kind::kFleet, calib::Fidelity::kLinkBudget, 2, 0, 12},
    {"fleet_waveform", Kind::kFleet, calib::Fidelity::kWaveform, 1, 0, 3},
    {"farm_replay", Kind::kFarm, calib::Fidelity::kLinkBudget, 2, 2, 9},
};

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : kWorkloads)
    if (w.name == name) return &w;
  return nullptr;
}

// ------------------------------------------------------------------- CLI ----

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  unsigned seconds = 0;
  bool trace = false;
  unsigned threads = 0;  // 0 = the workload's own count
  std::string out_dir;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench_driver: " << why << "\n"
            << "usage: perfbench_driver --workload NAME --seed N --seconds S"
               " --trace 0|1 --out DIR [--threads N]\n"
            << "  NAME: ";
  for (const Workload& w : kWorkloads) std::cerr << w.name << " ";
  std::cerr << "\n  N: 0..2^63-1   S: 1..600   --threads: 1..64\n";
  std::exit(2);
}

/// Whole decimal number in [lo, hi]; anything else (sign, fraction,
/// trailing text, overflow) is a usage error -- no atoi-style coercion.
std::uint64_t parse_uint(std::string_view flag, std::string_view text,
                         std::uint64_t lo, std::uint64_t hi) {
  std::uint64_t value = 0;
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (text.empty() || ec != std::errc() || end != text.data() + text.size() ||
      value < lo || value > hi)
    usage(std::string(flag) + " wants a whole number in [" + std::to_string(lo) +
          ", " + std::to_string(hi) + "], got '" + std::string(text) + "'");
  return value;
}

Options parse_options(int argc, char** argv) {
  Options opt;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; i += 2) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + std::string(flag));
    const std::string_view value = argv[i + 1];
    if (flag == "--workload") {
      opt.workload = find_workload(value);
      if (opt.workload == nullptr) usage("unknown workload '" + std::string(value) + "'");
    } else if (flag == "--seed") {
      opt.seed = parse_uint(flag, value, 0, (std::uint64_t{1} << 63) - 1);
      have_seed = true;
    } else if (flag == "--seconds") {
      opt.seconds = static_cast<unsigned>(parse_uint(flag, value, 1, 600));
      have_seconds = true;
    } else if (flag == "--trace") {
      opt.trace = parse_uint(flag, value, 0, 1) == 1;
      have_trace = true;
    } else if (flag == "--threads") {
      opt.threads = static_cast<unsigned>(parse_uint(flag, value, 1, 64));
    } else if (flag == "--out") {
      opt.out_dir = value;
    } else {
      usage("unknown option '" + std::string(flag) + "'");
    }
  }
  if (opt.workload == nullptr || !have_seed || !have_seconds || !have_trace ||
      opt.out_dir.empty())
    usage("--workload, --seed, --seconds, --trace and --out are required");
  return opt;
}

// ------------------------------------------------------- layer: sdr ---------

/// Transparent decorator timing every capture of the wrapped device (the
/// sdr layer: emitter render, thermal noise, quantization). Records one
/// "sdr.capture" span per call into `trace`, on the calling thread, so the
/// span nests inside the stage span that asked for the samples.
class TimedDevice final : public sdr::Device {
 public:
  TimedDevice(std::unique_ptr<sdr::Device> inner, obs::TraceSession& trace,
              std::string node_id)
      : inner_(std::move(inner)), trace_(trace), node_id_(std::move(node_id)) {}

  [[nodiscard]] sdr::DeviceInfo info() const override { return inner_->info(); }
  [[nodiscard]] geo::Geodetic position() const override { return inner_->position(); }
  [[nodiscard]] sdr::SimControl* sim_control() noexcept override {
    return inner_->sim_control();
  }
  bool tune(double center_freq_hz, double sample_rate_hz) override {
    return inner_->tune(center_freq_hz, sample_rate_hz);
  }
  void set_gain_mode(sdr::GainMode mode) override { inner_->set_gain_mode(mode); }
  void set_gain_db(double gain_db) override { inner_->set_gain_db(gain_db); }
  [[nodiscard]] double gain_db() const override { return inner_->gain_db(); }
  [[nodiscard]] dsp::Buffer capture(std::size_t count) override {
    const auto start = Clock::now();
    dsp::Buffer out = inner_->capture(count);
    note(start, Clock::now(), count);
    return out;
  }
  void capture_into(std::span<dsp::Sample> out) override {
    const auto start = Clock::now();
    inner_->capture_into(out);
    note(start, Clock::now(), out.size());
  }
  [[nodiscard]] double stream_time_s() const override { return inner_->stream_time_s(); }
  [[nodiscard]] double center_freq_hz() const override { return inner_->center_freq_hz(); }
  [[nodiscard]] double sample_rate_hz() const override { return inner_->sample_rate_hz(); }

 private:
  void note(Clock::time_point start, Clock::time_point end, std::size_t samples) {
    trace_.record_complete("sdr.capture", "sdr", start, end,
                           {obs::SpanArg::str("node", node_id_),
                            obs::SpanArg::integer("samples",
                                                  static_cast<std::int64_t>(samples))});
  }

  std::unique_ptr<sdr::Device> inner_;
  obs::TraceSession& trace_;
  std::string node_id_;
};

// ------------------------------------------------------------ the fleet ----

scenario::Site site_of(std::size_t i) { return static_cast<scenario::Site>(i % 3); }

std::string node_id(std::size_t i) { return "node-" + std::to_string(i); }

/// Per-node device seed: distinct per node, a pure function of the run seed.
std::uint64_t node_seed(std::uint64_t seed, std::size_t i) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (i + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return (z ^ (z >> 31)) & ((std::uint64_t{1} << 62) - 1);
}

calib::NodeClaims claims_for(std::size_t i) {
  calib::NodeClaims claims;
  claims.node_id = node_id(i);
  claims.min_freq_hz = 100e6;
  claims.max_freq_hz = 6e9;
  claims.claims_outdoor = site_of(i) != scenario::Site::kIndoor;
  claims.claims_omnidirectional = i % 5 == 0;
  return claims;
}

calib::RunConfig run_config(const Workload& w, unsigned threads,
                            obs::TraceSession* trace) {
  calib::RunConfig run;
  run.pipeline.survey.fidelity = w.fidelity;
  run.executor.threads = threads;
  run.executor.trace = trace;
  return run;
}

/// Deterministic measurement content of a report (stage timings excluded).
std::string fingerprint(const calib::CalibrationReport& report) {
  std::ostringstream os;
  report.write_json(os, /*include_stage_metrics=*/false);
  return os.str();
}

std::vector<std::string> fingerprints(const calib::NodeRegistry& registry) {
  std::vector<std::string> out;
  registry.for_each_report(
      [&](const calib::CalibrationReport& r) { out.push_back(fingerprint(r)); });
  return out;
}

// ---------------------------------------------------------------- checks ----

struct Check {
  std::string name;
  bool ok = true;
  std::string detail;
};

class Checks {
 public:
  /// Keep the first failure of each named check (and one row per name).
  void note(const std::string& name, bool ok, const std::string& detail = {}) {
    for (Check& c : checks_) {
      if (c.name != name) continue;
      if (c.ok && !ok) c = {name, false, detail};
      return;
    }
    checks_.push_back({name, ok, detail});
  }
  [[nodiscard]] const std::vector<Check>& rows() const { return checks_; }

 private:
  std::vector<Check> checks_;
};

bool finite_report(const calib::CalibrationReport& r) {
  bool ok = std::isfinite(r.trust.score) && std::isfinite(r.fov.open_fraction_deg) &&
            std::isfinite(r.frequency_response.mean_attenuation_db) &&
            std::isfinite(r.frequency_response.attenuation_slope_db_per_decade) &&
            std::isfinite(r.lo_calibration.ppm);
  for (const auto& reading : r.tv_readings)
    ok = ok && std::isfinite(reading.power_dbfs) && std::isfinite(reading.power_dbm);
  for (const auto& cell : r.cell_scan)
    ok = ok && std::isfinite(cell.rsrp_dbm) && std::isfinite(cell.sinr_db);
  return ok;
}

/// Fleet-output checks shared by every workload: all nodes reported, no
/// report aborted or non-finite, and the paper's site ordering of the FoV
/// open fraction (rooftop > indoor strictly, window in between).
void check_reports(const calib::NodeRegistry& registry, std::size_t nodes,
                   Checks& checks) {
  checks.note("all_nodes_reported", registry.size() == nodes,
              std::to_string(registry.size()) + " of " + std::to_string(nodes));
  double fov_sum[3] = {0, 0, 0};
  std::size_t fov_n[3] = {0, 0, 0};
  for (std::size_t i = 0; i < nodes; ++i) {
    const calib::CalibrationReport* r = registry.find(node_id(i));
    if (r == nullptr) continue;
    checks.note("no_report_aborted", !r->aborted(), node_id(i) + ": " + r->abort_reason);
    checks.note("reports_finite", finite_report(*r), node_id(i));
    const auto s = static_cast<std::size_t>(site_of(i));
    fov_sum[s] += r->fov.open_fraction_deg;
    ++fov_n[s];
  }
  double mean[3];
  for (int s = 0; s < 3; ++s) mean[s] = fov_n[s] ? fov_sum[s] / fov_n[s] : 0.0;
  std::ostringstream detail;
  detail << "rooftop " << mean[0] << ", window " << mean[1] << ", indoor " << mean[2];
  checks.note("fov_site_order", mean[0] > mean[2] && mean[0] >= mean[1] && mean[1] >= mean[2],
              detail.str());
}

std::size_t count_failed(const calib::NodeRegistry& registry, std::size_t nodes) {
  std::size_t failed = 0;
  for (std::size_t i = 0; i < nodes; ++i) {
    const calib::CalibrationReport* r = registry.find(node_id(i));
    if (r == nullptr || r->aborted() || r->quarantined()) ++failed;
  }
  return failed;
}

// -------------------------------------------------------------- counters ----

/// Registry counters read as deltas around the timed batches.
constexpr const char* kCounters[] = {
    "speccal_dsp_plan_cache_hits_total",      "speccal_dsp_plan_cache_misses_total",
    "speccal_dsp_scratch_grow_events_total",  "speccal_gate_tv_pilot_pass_total",
    "speccal_gate_tv_pilot_skip_total",       "speccal_gate_lo_refine_pass_total",
    "speccal_gate_lo_refine_skip_total",      "speccal_adsb_frames_attempted_total",
    "speccal_adsb_frames_decoded_total",      "speccal_executor_tasks_total",
    "speccal_executor_steals_total",          "speccal_net_decode_errors_total",
    "speccal_sdr_samples_total",
};

std::map<std::string, std::uint64_t> read_counters() {
  std::map<std::string, std::uint64_t> out;
  for (const char* name : kCounters)
    out[name] = obs::Registry::global().counter(name).value();
  return out;
}

void add_delta(std::map<std::string, std::uint64_t>& acc,
               const std::map<std::string, std::uint64_t>& before,
               const std::map<std::string, std::uint64_t>& after) {
  for (const auto& [name, value] : after) acc[name] += value - before.at(name);
}

// --------------------------------------------------------------- batches ----

struct Batch {
  bool traced = false;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::size_t nodes = 0;
  std::size_t failed = 0;
  std::vector<double> node_ms;     // per-node latency (see README)
  std::uint64_t ingest_bytes = 0;  // IQ bytes turned into reports
  double peak_rss_mb = 0.0;        // process peak RSS while the batch ran
};

/// State shared by the batches of one run.
struct Run {
  const Workload* w = nullptr;
  Options opt;
  unsigned threads = 0;
  calib::WorldModel world;
  Checks checks;
  std::vector<std::string> reference;  // fingerprints every batch must match
  // Traced-batch layer observations.
  std::map<std::string, std::uint64_t> counters;
  std::vector<double> consensus_ms;
  std::size_t traced_nodes = 0;
  // farm_replay: the producer's wire stream and reports.
  std::vector<net::Segment> wire;
  std::uint64_t wire_bytes = 0;
  std::size_t queue_peak_depth = 0;
};

void check_against_reference(Run& run, const calib::NodeRegistry& registry,
                             const char* check_name) {
  const auto prints = fingerprints(registry);
  if (run.reference.empty()) {
    run.reference = prints;
    return;
  }
  run.checks.note(check_name, prints == run.reference);
}

/// Health plus anomaly consensus over the batch's registry, timed by the
/// bench around the two public evaluate() calls.
double time_consensus(const calib::NodeRegistry& registry, Checks& checks) {
  const calib::HealthMonitor health;
  const calib::AnomalyDetector anomaly;
  const auto start = Clock::now();
  const calib::HealthReport h = health.evaluate(registry);
  const calib::AnomalyReport a = anomaly.evaluate(registry);
  const double ms = std::chrono::duration<double, std::milli>(Clock::now() - start).count();
  checks.note("consensus_covers_fleet",
              h.nodes.size() == registry.size() && a.nodes_evaluated == registry.size());
  return ms;
}

/// One closed batch. A traced batch (`trace` non-null) also records the
/// per-layer observations into `run`.
Batch run_fleet_batch(Run& run, obs::TraceSession* trace, unsigned threads,
                      const char* identity_check = "batches_bitwise_identical") {
  const Workload& w = *run.w;
  const std::size_t n = w.nodes;
  std::vector<Clock::time_point> started(n), finished(n);

  std::vector<calib::FleetJob> jobs;
  for (std::size_t i = 0; i < n; ++i) {
    calib::FleetJob job;
    job.claims = claims_for(i);
    job.make_device = [&, i]() -> std::unique_ptr<sdr::Device> {
      started[i] = Clock::now();
      auto device = scenario::make_owned_node(site_of(i), run.world,
                                              node_seed(run.opt.seed, i));
      if (trace == nullptr) return device;
      return std::make_unique<TimedDevice>(std::move(device), *trace,
                                           node_id(i));
    };
    jobs.push_back(std::move(job));
  }
  calib::FleetConfig fleet;
  fleet.on_progress = [&](const calib::FleetProgress& p) {
    const std::size_t i = std::stoul(p.node_id.substr(5));
    finished[i] = Clock::now();
  };
  calib::FleetCalibrator calibrator(run.world, run_config(w, threads, trace), fleet);
  calib::NodeRegistry registry;

  const auto before = read_counters();
  const double cpu0 = process_cpu_s();
  const auto t0 = Clock::now();
  const calib::FleetSummary summary = calibrator.run(std::move(jobs), registry);
  const auto t1 = Clock::now();
  const double cpu1 = process_cpu_s();
  const auto after = read_counters();

  Batch b;
  b.traced = trace != nullptr;
  b.wall_s = seconds_between(t0, t1);
  b.cpu_s = cpu1 - cpu0;
  b.nodes = n;
  b.failed = count_failed(registry, n);
  for (std::size_t i = 0; i < n; ++i) {
    b.node_ms.push_back(1e3 * seconds_between(started[i], finished[i]));
    const calib::CalibrationReport* r = registry.find(node_id(i));
    if (r) b.ingest_bytes += r->metrics.total_samples_captured() * sizeof(dsp::Sample);
  }
  check_reports(registry, n, run.checks);
  run.checks.note("executor_ran_every_task", summary.executor.tasks_failed == 0,
                  summary.executor.first_error);
  check_against_reference(run, registry, identity_check);
  const double consensus = time_consensus(registry, run.checks);
  if (trace != nullptr) {
    add_delta(run.counters, before, after);
    run.consensus_ms.push_back(consensus);
    run.traced_nodes += n;
  }
  return b;
}

/// Survey window of the warm-up node. Plan and scratch sizes follow the
/// processing chunk, not the window, so a short window initialises the
/// same state as the paper's 30 s one at a fraction of the cost (0.4 s
/// instead of 5 s per waveform warm-up).
constexpr double kWarmUpSurveyS = 2.0;

/// Fleet set-up after the world build: calibrate node 0 once, untimed by
/// the batches, so lazy initialisation (FFT plans, scratch buffers, metric
/// handles) is not charged to the first timed batch.
void warm_up(Run& run) {
  calib::FleetJob job;
  job.claims = claims_for(0);
  job.make_device = [&run] {
    return scenario::make_owned_node(site_of(0), run.world, node_seed(run.opt.seed, 0));
  };
  std::vector<calib::FleetJob> jobs;
  jobs.push_back(std::move(job));
  calib::RunConfig config = run_config(*run.w, run.threads, nullptr);
  config.pipeline.survey.duration_s = kWarmUpSurveyS;
  config.pipeline.survey.ground_truth_query_at_s = kWarmUpSurveyS / 2;
  calib::FleetCalibrator calibrator(run.world, config);
  calib::NodeRegistry registry;
  (void)calibrator.run(std::move(jobs), registry);
  const calib::CalibrationReport* r = registry.find(node_id(0));
  run.checks.note("warm_up_clean", r != nullptr && !r->aborted() && finite_report(*r));
}

/// farm_replay set-up: the producer fleet calibrates in-process while
/// SegmentizingDevice records every capture as float32 wire segments.
void record_producer(Run& run) {
  const Workload& w = *run.w;
  run.wire.clear();
  run.wire.shrink_to_fit();
  std::mutex wire_mutex;
  std::vector<net::Segment> wire;
  std::vector<calib::FleetJob> jobs;
  for (std::size_t i = 0; i < w.nodes; ++i) {
    calib::FleetJob job;
    job.claims = claims_for(i);
    job.make_device = [&, i] {
      return std::make_unique<sdr::SegmentizingDevice>(
          scenario::make_owned_node(site_of(i), run.world, node_seed(run.opt.seed, i)),
          net::SegmentWriterConfig{}, static_cast<std::uint32_t>(i),
          [&](net::Segment&& s) {
            const std::scoped_lock lock(wire_mutex);
            wire.push_back(std::move(s));
          });
    };
    jobs.push_back(std::move(job));
  }
  calib::FleetCalibrator producer(run.world, run_config(w, run.threads, nullptr));
  calib::NodeRegistry registry;
  (void)producer.run(std::move(jobs), registry);
  check_reports(registry, w.nodes, run.checks);
  const auto prints = fingerprints(registry);
  if (!run.reference.empty())
    run.checks.note("producer_deterministic", prints == run.reference);
  run.reference = prints;
  run.wire = std::move(wire);
  run.wire_bytes = 0;
  for (const auto& s : run.wire) run.wire_bytes += s.size();
}

Batch run_farm_batch(Run& run, obs::TraceSession* trace) {
  const Workload& w = *run.w;
  net::SegmentQueue queue(run.wire.size() + 1);
  for (const net::Segment& s : run.wire) queue.push(net::Segment(s));
  queue.close();

  net::DecodeFarm farm(run.world, run_config(w, run.threads, trace),
                       net::DecodeFarmConfig{w.decode_threads});
  // Manifest rx environments point into these site models, which must
  // outlive farm.run().
  std::vector<scenario::SiteSetup> sites;
  for (std::size_t i = 0; i < w.nodes; ++i) {
    sites.push_back(scenario::make_site(site_of(i), node_seed(run.opt.seed, i)));
    net::NodeManifest manifest;
    manifest.claims = claims_for(i);
    manifest.info = sdr::SimulatedSdr::bladerf_like_info();
    manifest.position = sites.back().position;
    manifest.rx = sites.back().rx_environment();
    farm.register_node(static_cast<std::uint32_t>(i), manifest);
  }
  calib::NodeRegistry registry;

  const auto before = read_counters();
  const double cpu0 = process_cpu_s();
  const auto t0 = Clock::now();
  const net::DecodeFarmStats stats = farm.run(queue, registry);
  const auto t1 = Clock::now();
  const double cpu1 = process_cpu_s();
  const auto after = read_counters();

  Batch b;
  b.traced = trace != nullptr;
  b.wall_s = seconds_between(t0, t1);
  b.cpu_s = cpu1 - cpu0;
  b.nodes = w.nodes;
  b.failed = count_failed(registry, w.nodes);
  b.ingest_bytes = stats.bytes;
  for (std::size_t i = 0; i < w.nodes; ++i) {
    const calib::CalibrationReport* r = registry.find(node_id(i));
    // The farm's fleet engine is internal: its progress callback is out of
    // reach, so a node's latency here is its stage-wall sum (no queueing).
    b.node_ms.push_back(r ? r->metrics.total_wall_ms() : 0.0);
  }
  if (trace != nullptr) {
    trace->record_complete("farm.run", "farm", t0, t1);
    trace->record_complete(
        "farm.decode", "farm", t0,
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(stats.decode_wall_s)));
  }
  check_reports(registry, w.nodes, run.checks);
  run.checks.note("farm_streams_complete",
                  stats.nodes_calibrated == w.nodes && stats.nodes_incomplete == 0 &&
                      stats.decode_errors == 0 && stats.unknown_streams == 0,
                  std::to_string(stats.nodes_calibrated) + " calibrated, " +
                      std::to_string(stats.decode_errors) + " decode errors");
  run.checks.note("farm_wire_bytes_match", stats.bytes == run.wire_bytes);
  // The round-trip gate: float32 is lossless, so every farm report must be
  // byte-identical to the producer's own.
  run.checks.note("farm_reports_match_producer", fingerprints(registry) == run.reference);
  const double consensus = time_consensus(registry, run.checks);
  if (trace != nullptr) {
    add_delta(run.counters, before, after);
    run.consensus_ms.push_back(consensus);
    run.queue_peak_depth = std::max(run.queue_peak_depth, queue.stats().peak_depth);
    run.traced_nodes += w.nodes;
  }
  return b;
}

Batch run_batch(Run& run, obs::TraceSession* trace) {
  reset_peak_rss();
  Batch b = run.w->kind == Kind::kFleet ? run_fleet_batch(run, trace, run.threads)
                                        : run_farm_batch(run, trace);
  b.peak_rss_mb = peak_rss_mb();
  return b;
}

/// Bench-timed codec pass: parse + decode every recorded segment on one
/// thread, exactly the inner loop of one DecodeFarm worker.
double time_codec_pass(const Run& run, Checks& checks) {
  dsp::Buffer scratch;
  std::uint64_t samples = 0;
  bool ok = true;
  const auto start = Clock::now();
  for (const net::Segment& seg : run.wire) {
    net::SegmentView view;
    if (net::parse_segment(seg.bytes, view) != net::DecodeStatus::kOk) {
      ok = false;
      continue;
    }
    net::decode_payload(view, scratch);
    samples += scratch.size();
  }
  const double s = seconds_between(start, Clock::now());
  checks.note("codec_pass_clean", ok && samples > 0);
  return s;
}

// ---------------------------------------------------------------- output ----

void write_doubles(util::JsonWriter& w, const char* key, const std::vector<double>& xs) {
  w.key(key);
  w.begin_array();
  for (double x : xs) w.value(x);
  w.end_array();
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_options(argc, argv);
  Run run;
  run.w = opt.workload;
  run.opt = opt;
  run.threads = opt.threads ? opt.threads : opt.workload->threads;
  const Workload& w = *run.w;

  try {
    // ---- set-up: world build (+ producer recording on farm_replay) ----
    std::vector<double> setup_s;
    double setup_total_s = 0.0;
    while (setup_s.size() < kSetupMinRepeats || setup_total_s < kSetupMinSeconds) {
      const auto t0 = Clock::now();
      run.world = scenario::make_world(opt.seed);
      if (w.kind == Kind::kFarm)
        record_producer(run);
      else
        warm_up(run);
      setup_s.push_back(seconds_between(t0, Clock::now()));
      setup_total_s += setup_s.back();
    }

    // ---- timed batches ----
    // A unit (one batch, or an untraced + traced pair) that has started
    // always finishes. The next one starts only if it is expected to end
    // nearer the budget than stopping now would, so a run whose units take
    // a large share of the budget (fleet_waveform) does not overrun it by
    // a whole unit.
    obs::TraceSession session;
    std::vector<Batch> batches;
    const double budget_s = opt.seconds;
    const auto start = Clock::now();
    const auto keep_going = [&](Clock::time_point unit_start) {
      const auto now = Clock::now();
      return seconds_between(start, now) + 0.5 * seconds_between(unit_start, now) < budget_s;
    };
    double codec_s = 0.0;
    if (!opt.trace) {
      for (auto unit_start = start;; unit_start = Clock::now()) {
        batches.push_back(run_batch(run, nullptr));
        if (!keep_going(unit_start)) break;
      }
    } else {
      // Untraced and traced batches alternate, so the trace overhead is
      // measured under the same host conditions.
      for (auto unit_start = start;; unit_start = Clock::now()) {
        batches.push_back(run_batch(run, nullptr));
        batches.push_back(run_batch(run, &session));
        if (!keep_going(unit_start)) break;
      }
      if (w.kind == Kind::kFleet && run.threads > 1) {
        // Determinism self-check: a serial run must reproduce the
        // multi-threaded fingerprints bitwise.
        (void)run_fleet_batch(run, nullptr, 1, "serial_matches_parallel");
      }
      if (w.kind == Kind::kFarm) codec_s = time_codec_pass(run, run.checks);
    }

    std::string trace_path;
    if (opt.trace) {
      trace_path = opt.out_dir + "/" + std::string(w.name) + "-seed" +
                   std::to_string(opt.seed) + ".trace.json";
      std::ofstream os(trace_path);
      if (!os) throw std::runtime_error("cannot write " + trace_path);
      session.write_chrome_trace(os);
      if (!os) throw std::runtime_error("write failed: " + trace_path);
    }

    // ---- raw document ----
    util::JsonWriter out(std::cout);
    out.begin_object();
    out.key("manifest");
    out.begin_object();
    out.key("workload");
    out.value(w.name);
    out.key("seed");
    out.value(static_cast<std::int64_t>(opt.seed));
    out.key("build_type");
    out.value(PERFBENCH_BUILD_TYPE);
    out.key("simd_backend");
    out.value(dsp::simd::backend_name());
    out.key("hardware_threads");
    out.value(static_cast<std::size_t>(std::thread::hardware_concurrency()));
    out.key("worker_threads");
    out.value(static_cast<std::size_t>(run.threads));
    out.key("decode_threads");
    out.value(static_cast<std::size_t>(w.decode_threads));
    out.key("nodes_per_batch");
    out.value(w.nodes);
    out.key("fidelity");
    out.value(w.fidelity == calib::Fidelity::kWaveform ? "waveform" : "link_budget");
    out.key("survey_duration_s");
    out.value(calib::SurveyConfig{}.duration_s);
    out.end_object();

    write_doubles(out, "setup_s", setup_s);

    out.key("batches");
    out.begin_array();
    for (const Batch& b : batches) {
      out.begin_object();
      out.key("traced");
      out.value(b.traced);
      out.key("wall_s");
      out.value(b.wall_s);
      out.key("cpu_s");
      out.value(b.cpu_s);
      out.key("nodes");
      out.value(b.nodes);
      out.key("failed");
      out.value(b.failed);
      out.key("ingest_bytes");
      out.value(static_cast<std::int64_t>(b.ingest_bytes));
      out.key("peak_rss_mb");
      out.value(b.peak_rss_mb);
      write_doubles(out, "node_ms", b.node_ms);
      out.end_object();
    }
    out.end_array();

    out.key("checks");
    out.begin_array();
    for (const Check& c : run.checks.rows()) {
      out.begin_object();
      out.key("name");
      out.value(c.name);
      out.key("ok");
      out.value(c.ok);
      out.key("detail");
      out.value(c.detail);
      out.end_object();
    }
    out.end_array();

    if (opt.trace) {
      out.key("layers");
      out.begin_object();
      out.key("trace_file");
      out.value(trace_path);
      out.key("traced_nodes");
      out.value(run.traced_nodes);
      out.key("counters");
      out.begin_object();
      for (const auto& [name, value] : run.counters) {
        out.key(name);
        out.value(static_cast<std::int64_t>(value));
      }
      out.end_object();
      write_doubles(out, "consensus_ms", run.consensus_ms);
      out.key("wire_bytes");
      out.value(static_cast<std::int64_t>(run.wire_bytes));
      out.key("codec_s");
      out.value(codec_s);
      out.key("queue_peak_depth");
      out.value(run.queue_peak_depth);
      out.end_object();
    }
    out.end_object();
    std::cout << "\n";
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
