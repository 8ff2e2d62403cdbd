// Example: the Electrosense+ split, end to end — a fleet of cheap sensors
// encodes its IQ into wire segments, a bounded queue plays transport, and
// the backend decode farm reconstructs every stream and calibrates it with
// the ordinary fleet engine.
//
// Two calibration runs happen: the producer fleet calibrates in-process
// while its devices record themselves onto the wire (SegmentizingDevice is
// a transparent decorator), then the farm replays the decoded streams
// through the same pipeline. With --encoding=float32 the two reports must
// match byte for byte (stage wall-clock timings excluded) — the binary
// exits 2 on any mismatch, which is the round-trip gate CI runs. Lossy
// encodings skip the gate and report the per-node trust-score deltas
// instead, showing what 2-4x wire compression costs in calibration terms.
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "calib/fleet.hpp"
#include "net/decode_farm.hpp"
#include "net/queue.hpp"
#include "scenario/testbed.hpp"
#include "sdr/segmentize.hpp"
#include "sdr/sim.hpp"
#include "util/table.hpp"

#include "cli_number.hpp"

using namespace speccal;

namespace {

constexpr std::uint64_t kSeed = 29;

struct Options {
  std::size_t nodes = 20;
  net::Encoding encoding = net::Encoding::kFloat32;
  unsigned decode_threads = 2;
  unsigned calibrate_threads = 2;
  std::size_t queue_capacity = 0;  // 0 = sized to hold the whole stream
};

constexpr const char* kUsage =
    "usage: decode_farm [--nodes=N] [--encoding=float32|float16|fixed8|fixed12]\n"
    "                   [--decode-threads=N] [--calibrate-threads=N]\n"
    "                   [--queue-capacity=N]\n";

/// Reports a bad command line and returns the usage exit code (2).
int usage_error(const std::string& why) {
  std::cerr << "decode_farm: " << why << "\n" << kUsage;
  return 2;
}

bool parse_encoding(const std::string& name, net::Encoding& out) {
  if (name == "float32") out = net::Encoding::kFloat32;
  else if (name == "float16") out = net::Encoding::kFloat16;
  else if (name == "fixed8") out = net::Encoding::kFixed8;
  else if (name == "fixed12") out = net::Encoding::kFixed12;
  else return false;
  return true;
}

/// Deterministic measurement content of a report (timings excluded).
std::string report_fingerprint(const calib::CalibrationReport& report) {
  std::ostringstream os;
  report.write_json(os, /*include_stage_metrics=*/false);
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  // Command line: see kUsage. Malformed numbers, unknown encodings and
  // unknown flags print the usage and exit 2. Nodes and decode threads
  // need >= 1; calibrate threads take 0 (hardware concurrency) and queue
  // capacity takes 0 (sized to hold the whole stream).
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--nodes=", 0) == 0) {
      const auto value = cli::parse_number<std::size_t>(arg.substr(8));
      if (!value || *value == 0)
        return usage_error("--nodes wants a whole number >= 1, got '" +
                           arg.substr(8) + "'");
      opt.nodes = *value;
    } else if (arg.rfind("--encoding=", 0) == 0) {
      if (!parse_encoding(arg.substr(11), opt.encoding))
        return usage_error("unknown encoding '" + arg.substr(11) + "'");
    } else if (arg.rfind("--decode-threads=", 0) == 0) {
      const auto value = cli::parse_number<unsigned>(arg.substr(17));
      if (!value || *value == 0)
        return usage_error("--decode-threads wants a whole number >= 1, got '" +
                           arg.substr(17) + "'");
      opt.decode_threads = *value;
    } else if (arg.rfind("--calibrate-threads=", 0) == 0) {
      const auto value = cli::parse_number<unsigned>(arg.substr(20));
      if (!value)
        return usage_error("--calibrate-threads wants a whole number >= 0, got '" +
                           arg.substr(20) + "'");
      opt.calibrate_threads = *value;
    } else if (arg.rfind("--queue-capacity=", 0) == 0) {
      const auto value = cli::parse_number<std::size_t>(arg.substr(17));
      if (!value)
        return usage_error("--queue-capacity wants a whole number >= 0, got '" +
                           arg.substr(17) + "'");
      opt.queue_capacity = *value;
    } else {
      return usage_error("unknown flag " + arg);
    }
  }

  const auto world = scenario::make_world(kSeed);
  calib::RunConfig run;
  run.pipeline.survey.fidelity = calib::Fidelity::kLinkBudget;
  run.pipeline.survey.duration_s = 10.0;
  run.executor.threads = opt.calibrate_threads;

  // In this demo the whole stream is buffered before the farm drains it
  // (a live deployment would run producers and farm concurrently), so the
  // default queue capacity must hold every segment or pushes would block
  // with nobody popping.
  const std::size_t capacity =
      opt.queue_capacity ? opt.queue_capacity : opt.nodes * 4096;
  net::SegmentQueue queue(capacity);

  std::cout << "decode_farm: " << opt.nodes << " nodes, encoding "
            << net::to_string(opt.encoding) << ", queue capacity " << capacity
            << "\n";

  // Site models shared by producer devices and replay manifests; must
  // outlive both calibration runs.
  std::vector<scenario::SiteSetup> sites;
  for (std::size_t i = 0; i < opt.nodes; ++i)
    sites.push_back(
        scenario::make_site(static_cast<scenario::Site>(i % 3), kSeed));

  // --- producer fleet: calibrate in-process, recording onto the wire -----
  calib::NodeRegistry baseline;
  {
    calib::FleetCalibrator producer(world, run);
    std::vector<calib::FleetJob> jobs;
    for (std::size_t i = 0; i < opt.nodes; ++i) {
      const auto site = static_cast<scenario::Site>(i % 3);
      calib::FleetJob job;
      job.claims.node_id = "node-" + std::to_string(i);
      job.claims.claims_outdoor = site != scenario::Site::kIndoor;
      job.claims.claims_omnidirectional = false;
      job.make_device = [&world, &queue, &opt, site, i] {
        net::SegmentWriterConfig wcfg;
        wcfg.encoding = opt.encoding;
        return std::make_unique<sdr::SegmentizingDevice>(
            scenario::make_owned_node(site, world, kSeed), wcfg,
            static_cast<std::uint32_t>(i),
            [&queue](net::Segment&& s) { queue.push(std::move(s)); });
      };
      jobs.push_back(std::move(job));
    }
    const auto summary = producer.run(std::move(jobs), baseline);
    std::cout << "producer fleet: " << summary.calibrated << " calibrated, "
              << summary.failed << " failed, " << queue.size()
              << " segments on the wire\n";
    if (summary.failed != 0) return 1;
  }
  queue.close();

  // --- backend: decode farm over the recorded wire stream ----------------
  net::DecodeFarm farm(world, run,
                       net::DecodeFarmConfig{opt.decode_threads});
  for (std::size_t i = 0; i < opt.nodes; ++i) {
    const auto site = static_cast<scenario::Site>(i % 3);
    net::NodeManifest manifest;
    manifest.claims.node_id = "node-" + std::to_string(i);
    manifest.claims.claims_outdoor = site != scenario::Site::kIndoor;
    manifest.claims.claims_omnidirectional = false;
    manifest.info = sdr::SimulatedSdr::bladerf_like_info();
    manifest.position = sites[i].position;
    manifest.rx = sites[i].rx_environment();
    farm.register_node(static_cast<std::uint32_t>(i), manifest);
  }

  calib::NodeRegistry decoded;
  const auto stats = farm.run(queue, decoded);

  util::Table table({"metric", "value"});
  table.add_row({"segments decoded", std::to_string(stats.segments)});
  table.add_row({"wire MB", std::to_string(stats.bytes / 1000000)});
  table.add_row({"captures reassembled", std::to_string(stats.captures)});
  table.add_row({"decode errors", std::to_string(stats.decode_errors)});
  table.add_row({"decode wall s", std::to_string(stats.decode_wall_s)});
  table.add_row({"decode MB/s", std::to_string(stats.mbytes_per_s)});
  table.add_row({"nodes calibrated", std::to_string(stats.nodes_calibrated)});
  table.add_row({"nodes incomplete", std::to_string(stats.nodes_incomplete)});
  table.add_row({"quarantined", std::to_string(stats.faults.quarantined)});
  table.print(std::cout);

  if (stats.nodes_calibrated != opt.nodes || stats.decode_errors != 0) {
    std::cerr << "decode_farm: FAIL — not every node made it through the "
                 "farm\n";
    return 2;
  }

  if (opt.encoding == net::Encoding::kFloat32) {
    // The round-trip gate: float32 is lossless, so the farm's reports must
    // be byte-identical to the producer's own.
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < opt.nodes; ++i) {
      const std::string id = "node-" + std::to_string(i);
      const auto* a = baseline.find(id);
      const auto* b = decoded.find(id);
      if (!a || !b || report_fingerprint(*a) != report_fingerprint(*b)) {
        std::cerr << "MISMATCH: " << id << "\n";
        ++mismatches;
      }
    }
    if (mismatches != 0) {
      std::cerr << "decode_farm: FAIL — " << mismatches << " of " << opt.nodes
                << " round-trip reports differ from the in-process run\n";
      return 2;
    }
    std::cout << "round-trip gate: all " << opt.nodes
              << " float32 reports bitwise-identical to the in-process run\n";
  } else {
    // Lossy encodings: show what the compression cost in trust terms.
    util::Table deltas({"node", "trust in-process", "trust round-trip", "delta"});
    double worst = 0.0;
    for (std::size_t i = 0; i < opt.nodes; ++i) {
      const std::string id = "node-" + std::to_string(i);
      const auto* a = baseline.find(id);
      const auto* b = decoded.find(id);
      if (!a || !b) continue;
      const double delta = b->trust.score - a->trust.score;
      worst = std::max(worst, std::abs(delta));
      deltas.add_row({id, std::to_string(a->trust.score),
                      std::to_string(b->trust.score), std::to_string(delta)});
    }
    deltas.print(std::cout);
    std::cout << net::to_string(opt.encoding)
              << ": worst trust-score delta " << worst << " ("
              << net::bytes_per_sample(opt.encoding)
              << " B/sample vs 8 B/sample on the wire)\n";
  }
  return 0;
}
