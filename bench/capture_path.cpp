// Capture-path stage benchmark: pre/post samples-per-second for each stage
// of the simulated capture hot path, written to BENCH_capture.json (schema
// in DESIGN.md "Capture-path performance"), plus the FftConvolver-vs-
// FirFilter equivalence self-check (nonzero exit on failure — CI gates on
// it).
//
// "pre" variants are verbatim copies of the earlier implementations kept
// inside this bench (direct double-accumulation FIR with per-render buffer
// allocation; sin/cos-per-sample NCO; Box-Muller thermal noise; std::round
// ADC quantizer), so the comparison stays honest after the library paths
// were rebuilt.
//
// Usage: capture_path [--json=PATH] [--iters=N]
//   --json defaults to BENCH_capture.json; --iters caps each variant's
//   timing loop (0 = auto-calibrate to ~0.25 s per variant; CI passes a
//   small fixed count).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <complex>
#include <fstream>
#include <iostream>
#include <memory>
#include <numbers>
#include <string>
#include <vector>

#include "dsp/convolver.hpp"
#include "dsp/fir.hpp"
#include "dsp/iq.hpp"
#include "dsp/nco.hpp"
#include "dsp/simd.hpp"
#include "sdr/emitter.hpp"
#include "sdr/sim.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

using namespace speccal;

namespace {

constexpr std::size_t kBlock = 65536;  // one capture block (~8 ms at 8 Msps)

// ------------------------------------------------------------ pre-PR ref ----

namespace legacy {

/// The pre-PR NCO, verbatim: a sin/cos pair per sample.
class SinCosNco {
 public:
  SinCosNco(double freq_hz, double sample_rate_hz) noexcept
      : phase_step_(2.0 * std::numbers::pi * freq_hz / sample_rate_hz) {}

  [[nodiscard]] std::complex<float> next() noexcept {
    const std::complex<float> out(static_cast<float>(std::cos(phase_)),
                                  static_cast<float>(std::sin(phase_)));
    phase_ += phase_step_;
    if (phase_ > std::numbers::pi * 2.0) phase_ -= std::numbers::pi * 2.0;
    if (phase_ < -std::numbers::pi * 2.0) phase_ += std::numbers::pi * 2.0;
    return out;
  }

  void set_phase(double radians) noexcept { phase_ = radians; }

 private:
  double phase_step_;
  double phase_ = 0.0;
};

/// The pre-PR shaped-emitter render body, verbatim in structure: two fresh
/// dsp::Buffer allocations per call, direct time-domain convolution through
/// FirFilter::filter_into, power normalization over the whole block (warm-up
/// transient included), sin/cos pilot NCO.
class Renderer {
 public:
  Renderer(double sample_rate_hz, double low_hz, double high_hz,
           double target_mw, double pilot_freq_hz, double pilot_rel_db,
           std::uint64_t seed)
      : rng_(seed),
        shaper_(std::make_unique<dsp::FirFilter>(
            dsp::design_bandpass(sample_rate_hz, low_hz, high_hz, 127))),
        sample_rate_hz_(sample_rate_hz),
        target_mw_(target_mw),
        pilot_freq_hz_(pilot_freq_hz),
        pilot_rel_db_(pilot_rel_db) {}

  void render(double start_time_s, std::span<dsp::Sample> accum) {
    shaper_->reset();
    const std::size_t n = accum.size();
    dsp::Buffer white(n);
    for (auto& s : white)
      s = dsp::Sample(static_cast<float>(rng_.normal()),
                      static_cast<float>(rng_.normal()));
    dsp::Buffer shaped(n);
    shaper_->filter_into(white, shaped);

    const double fraction_in_band = 1.0 - util::db_to_ratio(pilot_rel_db_);
    const double shaped_power = dsp::mean_power(shaped);
    if (shaped_power <= 0.0) return;
    const float scale = static_cast<float>(
        std::sqrt(target_mw_ * fraction_in_band / shaped_power));
    for (std::size_t i = 0; i < n; ++i) accum[i] += shaped[i] * scale;

    const double pilot_mw = target_mw_ * util::db_to_ratio(pilot_rel_db_);
    const float amp = static_cast<float>(std::sqrt(pilot_mw));
    SinCosNco nco(pilot_freq_hz_, sample_rate_hz_);
    nco.set_phase(2.0 * util::kPi * std::fmod(pilot_freq_hz_ * start_time_s, 1.0));
    for (std::size_t i = 0; i < n; ++i) accum[i] += nco.next() * amp;
  }

 private:
  util::Rng rng_;
  std::unique_ptr<dsp::FirFilter> shaper_;
  double sample_rate_hz_;
  double target_mw_;
  double pilot_freq_hz_;
  double pilot_rel_db_;
};

/// The earlier SimulatedSdr thermal-noise loop, verbatim: two Box-Muller
/// draws (log, sqrt, sin, cos per pair) per complex sample.
void add_thermal_noise(std::span<dsp::Sample> buf, double sigma, util::Rng& rng) {
  for (auto& s : buf)
    s += dsp::Sample(static_cast<float>(rng.normal(0.0, sigma)),
                     static_cast<float>(rng.normal(0.0, sigma)));
}

/// The earlier SimulatedSdr quantizer, verbatim: two std::round calls per
/// complex sample.
void quantize(std::span<dsp::Sample> buf, int adc_bits) noexcept {
  const double levels = static_cast<double>(1 << (adc_bits - 1));
  auto q = [&](float v) {
    const double clipped = std::clamp(static_cast<double>(v), -1.0, 1.0);
    return static_cast<float>(std::round(clipped * levels) / levels);
  };
  for (auto& s : buf) s = dsp::Sample(q(s.real()), q(s.imag()));
}

}  // namespace legacy

// ---------------------------------------------------------------- timing ----

struct Row {
  std::string name;
  std::string variant;
  std::size_t iterations = 0;
  double wall_s = 0.0;
  double samples_per_s = 0.0;
};

/// Time `fn` (one kBlock-sample stage pass per call). iters == 0
/// auto-calibrates to ~0.25 s per variant.
template <typename Fn>
Row time_variant(const std::string& name, const std::string& variant,
                 std::size_t iters, Fn&& fn) {
  using clock = std::chrono::steady_clock;
  if (iters == 0) {
    std::size_t batch = 1;
    for (;;) {
      const auto t0 = clock::now();
      for (std::size_t i = 0; i < batch; ++i) fn();
      const double s = std::chrono::duration<double>(clock::now() - t0).count();
      if (s >= 0.025 || batch > (1u << 16)) break;
      batch *= 2;
    }
    iters = batch * 10;
  }
  const auto t0 = clock::now();
  for (std::size_t i = 0; i < iters; ++i) fn();
  const double wall = std::chrono::duration<double>(clock::now() - t0).count();
  Row row;
  row.name = name;
  row.variant = variant;
  row.iterations = iters;
  row.wall_s = wall;
  row.samples_per_s =
      wall > 0.0 ? static_cast<double>(iters) * static_cast<double>(kBlock) / wall
                 : 0.0;
  return row;
}

std::vector<dsp::Sample> noise_block(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<dsp::Sample> block(n);
  for (auto& v : block)
    v = {static_cast<float>(rng.normal()), static_cast<float>(rng.normal())};
  return block;
}

// A fixed TV-emitter scene shared by the pre/post render variants.
struct Scene {
  sdr::EmitterConfig cfg;
  sdr::RxEnvironment rx;
  const sdr::AntennaModel antenna = sdr::AntennaModel::isotropic();

  Scene() {
    cfg.emitter_id = 1;
    cfg.position = geo::destination({37.87, -122.27, 10.0}, 90.0, 15e3);
    cfg.position.alt_m = 180.0;
    cfg.carrier_hz = 521e6;
    cfg.bandwidth_hz = 5.38e6;
    cfg.eirp_dbm = 82.0;
    cfg.link.model = prop::PathModel::kFreeSpace;
    cfg.pilot_offset_hz = -2690559.0;
    rx.position = {37.87, -122.27, 10.0};
    rx.antenna = &antenna;
  }
};

// ----------------------------------------------------- equivalence check ----

struct Equivalence {
  double max_abs_error = 0.0;
  double tolerance = dsp::kConvolverEquivalenceTolerance;
  bool ok = false;
};

Equivalence equivalence_self_check() {
  const auto taps = dsp::design_bandpass(8e6, -2.69e6, 2.69e6, 127);
  const auto in = noise_block(kBlock, 101);

  dsp::FirFilter direct(taps);
  std::vector<dsp::Sample> want(in.size());
  direct.filter_into(in, want);

  dsp::FftConvolver conv(taps);
  std::vector<dsp::Sample> got(in.size());
  conv.filter_into(in, got);

  Equivalence eq;
  for (std::size_t i = 0; i < in.size(); ++i)
    eq.max_abs_error =
        std::max(eq.max_abs_error, static_cast<double>(std::abs(want[i] - got[i])));
  eq.ok = eq.max_abs_error <= eq.tolerance;
  return eq;
}

/// One dispatched-vs-scalar SIMD kernel check (DESIGN.md §14). Elementwise
/// kernels must agree bitwise (tolerance 0); reductions carry the
/// documented tolerance. Any failure exits nonzero — CI gates on it.
struct KernelCheck {
  std::string name;
  double max_abs_error = 0.0;
  double tolerance = 0.0;
  bool ok = false;
};

std::vector<KernelCheck> simd_equivalence_checks() {
  // Odd length so every kernel's vector tail runs too.
  constexpr std::size_t kN = 4097;
  const auto x = noise_block(kN, 201);
  const auto y = noise_block(kN, 202);
  std::vector<float> window(kN);
  {
    util::Rng rng(203);
    for (auto& v : window) v = static_cast<float>(rng.normal());
  }
  std::vector<KernelCheck> checks;
  const auto push = [&checks](const std::string& name, double err, double tol) {
    checks.push_back({name, err, tol, err <= tol});
  };

  {
    std::vector<float> got(kN), want(kN);
    dsp::simd::magnitude_squared(x.data(), got.data(), kN);
    dsp::simd::scalar::magnitude_squared(x.data(), want.data(), kN);
    double err = 0.0;
    for (std::size_t i = 0; i < kN; ++i)
      err = std::max(err, static_cast<double>(std::fabs(got[i] - want[i])));
    push("magnitude_squared", err, 0.0);
  }
  {
    std::vector<dsp::Sample> got(kN), want(kN);
    dsp::simd::apply_window(x.data(), window.data(), got.data(), kN);
    dsp::simd::scalar::apply_window(x.data(), window.data(), want.data(), kN);
    double err = 0.0;
    for (std::size_t i = 0; i < kN; ++i)
      err = std::max(err, static_cast<double>(std::abs(got[i] - want[i])));
    push("apply_window", err, 0.0);
  }
  {
    auto got = x;
    auto want = x;
    dsp::simd::cmul_inplace(got.data(), y.data(), kN);
    dsp::simd::scalar::cmul_inplace(want.data(), y.data(), kN);
    double err = 0.0;
    for (std::size_t i = 0; i < kN; ++i)
      err = std::max(err, static_cast<double>(std::abs(got[i] - want[i])));
    push("cmul_inplace", err, 0.0);
  }
  {
    const double got = dsp::simd::sum_power(x.data(), kN);
    const double want = dsp::simd::scalar::sum_power(x.data(), kN);
    push("sum_power", std::fabs(got - want) / std::max(1.0, std::fabs(want)),
         dsp::simd::kSimdEquivalenceTolerance);
  }
  {
    const auto got = dsp::simd::dot_conj(x.data(), y.data(), kN);
    const auto want = dsp::simd::scalar::dot_conj(x.data(), y.data(), kN);
    push("dot_conj", std::abs(got - want) / std::max(1.0, std::abs(want)),
         dsp::simd::kSimdEquivalenceTolerance);
  }
  {
    // Block NCO vs the per-sample recurrence it replaced in the renderer.
    dsp::Nco block_nco(-2.69e6, 8e6);
    dsp::Nco ref_nco(-2.69e6, 8e6);
    std::vector<dsp::Sample> got(kN), want(kN);
    block_nco.add_tone(got, 0.7f);
    for (auto& v : want) v += ref_nco.next() * 0.7f;
    double err = 0.0;
    for (std::size_t i = 0; i < kN; ++i)
      err = std::max(err, static_cast<double>(std::abs(got[i] - want[i])));
    push("nco_add_tone", err, dsp::simd::kSimdEquivalenceTolerance);
  }
  return checks;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_capture.json";
  std::size_t iters = 0;  // auto-calibrate
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--json=", 0) == 0) json_path = arg.substr(7);
    if (arg.rfind("--iters=", 0) == 0)
      iters = static_cast<std::size_t>(std::stoull(arg.substr(8)));
  }

  const Scene scene;
  std::vector<Row> rows;
  std::vector<std::pair<std::string, double>> speedups;

  // Stage 1: shaped-emitter render — the acceptance headline (>= 5x).
  {
    sdr::FixedEmitterSource probe(scene.cfg, util::Rng(21));
    const double rx_dbm = probe.received_power_dbm(scene.rx);
    const double target_mw = util::dbm_to_watts(rx_dbm) * 1e3;
    const double low = -scene.cfg.bandwidth_hz / 2.0;
    const double high = scene.cfg.bandwidth_hz / 2.0;

    legacy::Renderer before(8e6, low, high, target_mw, *scene.cfg.pilot_offset_hz,
                            scene.cfg.pilot_rel_db, 21);
    dsp::Buffer accum(kBlock);
    double t = 0.0;
    const auto pre = time_variant("shaped_render", "pre_direct_fir", iters, [&] {
      before.render(t, accum);
      t += static_cast<double>(kBlock) / 8e6;
    });

    sdr::FixedEmitterSource after(scene.cfg, util::Rng(21));
    sdr::CaptureContext ctx;
    ctx.center_freq_hz = scene.cfg.carrier_hz;
    ctx.sample_rate_hz = 8e6;
    ctx.sample_count = kBlock;
    ctx.rx = &scene.rx;
    const auto post =
        time_variant("shaped_render", "post_overlap_save", iters, [&] {
          after.render(ctx, accum);
          ctx.start_time_s += static_cast<double>(kBlock) / 8e6;
        });

    rows.push_back(pre);
    rows.push_back(post);
    speedups.emplace_back("shaped_render", post.samples_per_s / pre.samples_per_s);
  }

  // Stage 2: 127-tap channel shaper alone — direct vs overlap-save.
  {
    const auto taps = dsp::design_bandpass(8e6, -2.69e6, 2.69e6, 127);
    const auto in = noise_block(kBlock, 5);
    std::vector<dsp::Sample> out(in.size());

    dsp::FirFilter direct(taps);
    const auto pre = time_variant("fir_127tap", "pre_direct_fir", iters, [&] {
      direct.filter_into(in, out);
    });

    dsp::FftConvolver conv(taps);
    const auto post = time_variant("fir_127tap", "post_overlap_save", iters, [&] {
      conv.filter_into(in, out);
    });

    rows.push_back(pre);
    rows.push_back(post);
    speedups.emplace_back("fir_127tap", post.samples_per_s / pre.samples_per_s);
  }

  // Stage 3: pilot NCO — sin/cos per sample vs phasor recurrence.
  {
    dsp::Buffer accum(kBlock);
    legacy::SinCosNco before(-2.69e6, 8e6);
    const auto pre = time_variant("nco_pilot", "pre_sincos", iters, [&] {
      for (auto& s : accum) s += before.next() * 0.01f;
    });

    dsp::Nco after(-2.69e6, 8e6);
    const auto post = time_variant("nco_pilot", "post_phasor", iters, [&] {
      for (auto& s : accum) s += after.next() * 0.01f;
    });

    rows.push_back(pre);
    rows.push_back(post);
    speedups.emplace_back("nco_pilot", post.samples_per_s / pre.samples_per_s);

    // Stage 3b: the SIMD-era block API against the per-sample phasor loop
    // it replaced in the emitter render path.
    dsp::Nco block_nco(-2.69e6, 8e6);
    const auto block_post = time_variant("nco_pilot_block", "post_add_tone",
                                         iters, [&] {
                                           block_nco.add_tone(accum, 0.01f);
                                         });
    rows.push_back(block_post);
    speedups.emplace_back("nco_pilot_block",
                          block_post.samples_per_s / post.samples_per_s);
  }

  // Stage 4: thermal noise -- Box-Muller vs the ziggurat. The post loop is
  // SimulatedSdr::add_thermal_noise's body (the method is private).
  {
    constexpr double kSigma = 1e-6;  // ~ -104 dBm over 8 MHz, in sqrt-mW
    dsp::Buffer accum(kBlock);
    util::Rng pre_rng(31), post_rng(31);
    const auto pre = time_variant("thermal_noise", "pre_box_muller", iters, [&] {
      legacy::add_thermal_noise(accum, kSigma, pre_rng);
    });
    const auto post = time_variant("thermal_noise", "post_ziggurat", iters, [&] {
      for (auto& s : accum) {
        const auto re = static_cast<float>(kSigma * post_rng.ziggurat_normal());
        const auto im = static_cast<float>(kSigma * post_rng.ziggurat_normal());
        s += dsp::Sample(re, im);
      }
    });
    rows.push_back(pre);
    rows.push_back(post);
    speedups.emplace_back("thermal_noise", post.samples_per_s / pre.samples_per_s);
  }

  // Stage 5: 12-bit ADC quantizer -- std::round vs the inline rounding. Both
  // run on a fresh copy of one noise block at about -12 dBFS, so every
  // pass sees the same unclipped, unquantized input.
  {
    auto in = noise_block(kBlock, 9);
    for (auto& v : in) v *= 0.18f;
    dsp::Buffer buf(kBlock);
    const auto pre = time_variant("quantize", "pre_std_round", iters, [&] {
      std::copy(in.begin(), in.end(), buf.begin());
      legacy::quantize(buf, 12);
    });
    const auto post = time_variant("quantize", "post_inline_round", iters, [&] {
      std::copy(in.begin(), in.end(), buf.begin());
      sdr::quantize(buf, 12);
    });
    rows.push_back(pre);
    rows.push_back(post);
    speedups.emplace_back("quantize", post.samples_per_s / pre.samples_per_s);
  }

  // Stage 6: the full simulated capture (render + noise + gain + ADC),
  // post only — the end-to-end number fleet nodes actually pay.
  {
    sdr::SimulatedSdr dev(sdr::SimulatedSdr::bladerf_like_info(), scene.rx,
                          util::Rng(7));
    dev.add_source(std::make_shared<sdr::FixedEmitterSource>(scene.cfg,
                                                             util::Rng(21)));
    dev.set_gain_mode(sdr::GainMode::kManual);
    dev.set_gain_db(20.0);
    if (!dev.tune(521e6, 8e6)) {
      std::cerr << "capture_path: tune failed\n";
      return 1;
    }
    dsp::Buffer buf(kBlock);
    rows.push_back(time_variant("sdr_capture", "post_capture_into", iters,
                                [&] { dev.capture_into(buf); }));
  }

  const Equivalence eq = equivalence_self_check();
  const auto kernel_checks = simd_equivalence_checks();

  // ------------------------------------------------------------- report ----
  util::Table table({"stage", "variant", "Msamples/s"});
  for (const auto& row : rows)
    table.add_row({row.name, row.variant,
                   util::format_fixed(row.samples_per_s / 1e6, 2)});
  table.set_title("Capture-path stage throughput (" + std::to_string(kBlock) +
                  "-sample blocks)");
  table.print(std::cout);
  for (const auto& [name, x] : speedups)
    std::cout << name << " speedup: " << util::format_fixed(x, 2) << "x\n";
  std::cout << "convolver equivalence: max |err| = " << eq.max_abs_error
            << " (tolerance " << eq.tolerance << ") -> "
            << (eq.ok ? "ok" : "FAIL") << "\n";
  std::cout << "simd backend: " << dsp::simd::backend_name() << "\n";
  for (const auto& c : kernel_checks)
    std::cout << "simd " << c.name << ": err = " << c.max_abs_error
              << " (tolerance " << c.tolerance << ") -> "
              << (c.ok ? "ok" : "FAIL") << "\n";

  std::ofstream os(json_path);
  if (!os) {
    std::cerr << "capture_path: cannot write " << json_path << "\n";
    return 1;
  }
  util::JsonWriter w(os);
  w.begin_object();
  w.key("bench");
  w.value("capture_path");
  w.key("schema_version");
  w.value(2);
  w.key("simd_backend");
  w.value(dsp::simd::backend_name());
  w.key("block_size");
  w.value(kBlock);
  w.key("results");
  w.begin_array();
  for (const auto& row : rows) {
    w.begin_object();
    w.key("name");
    w.value(row.name);
    w.key("variant");
    w.value(row.variant);
    w.key("iterations");
    w.value(row.iterations);
    w.key("wall_s");
    w.value(row.wall_s);
    w.key("samples_per_s");
    w.value(row.samples_per_s);
    w.end_object();
  }
  w.end_array();
  w.key("speedup");
  w.begin_object();
  for (const auto& [name, x] : speedups) {
    w.key(name);
    w.value(x);
  }
  w.end_object();
  w.key("equivalence");
  w.begin_object();
  w.key("max_abs_error");
  w.value(eq.max_abs_error);
  w.key("tolerance");
  w.value(eq.tolerance);
  w.key("ok");
  w.value(eq.ok);
  w.end_object();
  w.key("simd_equivalence");
  w.begin_array();
  for (const auto& c : kernel_checks) {
    w.begin_object();
    w.key("name");
    w.value(c.name);
    w.key("max_abs_error");
    w.value(c.max_abs_error);
    w.key("tolerance");
    w.value(c.tolerance);
    w.key("ok");
    w.value(c.ok);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  os << "\n";

  if (!eq.ok) {
    std::cerr << "FAIL: FftConvolver diverged from FirFilter beyond the "
                 "documented tolerance\n";
    return 1;
  }
  for (const auto& c : kernel_checks) {
    if (!c.ok) {
      std::cerr << "FAIL: SIMD kernel " << c.name
                << " diverged from its scalar reference\n";
      return 1;
    }
  }
  return 0;
}
