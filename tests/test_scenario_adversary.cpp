// Tests: scenario:: adversary pack — RF-level attack sources, profile
// parsing/validation, and the world-seed emitter contract the
// fleet-consensus detector depends on.
//
// Each adversary is exercised at the waveform level (render through the
// same CaptureContext the simulated SDR uses) so the tests lock RF
// signatures, not detector behavior: band placement, coherence (lag-1
// rho), burst presence, PSS correlation. Detector end-to-end coverage
// lives in test_anomaly.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "adsb/ppm.hpp"
#include "cellular/pss.hpp"
#include "dsp/iq.hpp"
#include "scenario/adversary.hpp"
#include "scenario/testbed.hpp"
#include "sdr/sim.hpp"
#include "tv/channels.hpp"

namespace sc = speccal::scenario;
namespace sd = speccal::sdr;
namespace d = speccal::dsp;
namespace tv = speccal::tv;
namespace cel = speccal::cellular;

namespace {

/// Accumulate every source into one zeroed capture buffer (the simulated
/// front end's render path, minus noise and quantization).
d::Buffer render_all(
    const std::vector<std::shared_ptr<sd::SignalSource>>& sources,
    double center_hz, double fs, std::size_t count,
    const sd::RxEnvironment& rx, double start_time_s = 0.0) {
  d::Buffer accum(count, {0.0f, 0.0f});
  sd::CaptureContext ctx;
  ctx.center_freq_hz = center_hz;
  ctx.sample_rate_hz = fs;
  ctx.start_time_s = start_time_s;
  ctx.sample_count = count;
  ctx.rx = &rx;
  for (const auto& source : sources) source->render(ctx, accum);
  return accum;
}

bool is_silent(const d::Buffer& buffer) {
  for (const auto& v : buffer)
    if (v.real() != 0.0f || v.imag() != 0.0f) return false;
  return true;
}

double ch_center(int channel) { return tv::channel_center_hz(channel).value(); }

/// Rooftop receive environment (kept alive by the returned SiteSetup).
struct RxFixture {
  sc::SiteSetup site = sc::make_site(sc::Site::kRooftop);
  sd::RxEnvironment rx = site.rx_environment();
};

}  // namespace

// --- profile resolution and validation --------------------------------------

TEST(AdversaryProfile, BuiltinsResolve) {
  EXPECT_TRUE(sc::make_adversary_profile("none").empty());

  for (const auto& [name, kind] :
       {std::pair{"jammer", sc::AdversaryKind::kWidebandJammer},
        std::pair{"swept", sc::AdversaryKind::kSweptJammer},
        std::pair{"cw", sc::AdversaryKind::kSpuriousCw},
        std::pair{"intermod", sc::AdversaryKind::kIntermodPair},
        std::pair{"ghost-adsb", sc::AdversaryKind::kGhostAdsb},
        std::pair{"rogue-pss", sc::AdversaryKind::kRoguePss}}) {
    const auto profile = sc::make_adversary_profile(name);
    ASSERT_EQ(profile.nodes.size(), 1u) << name;
    EXPECT_EQ(profile.nodes.front().index, 3u) << name;
    ASSERT_EQ(profile.nodes.front().adversaries.size(), 1u) << name;
    EXPECT_EQ(profile.nodes.front().adversaries.front().kind, kind) << name;
  }

  // "mixed" scripts all six kinds on six distinct victims, all < 20 so any
  // fleet of 20+ nodes can host the full pack.
  const auto mixed = sc::make_adversary_profile("mixed");
  ASSERT_EQ(mixed.nodes.size(), 6u);
  std::vector<std::size_t> indices;
  std::vector<sc::AdversaryKind> kinds;
  for (const auto& n : mixed.nodes) {
    EXPECT_LT(n.index, 20u);
    indices.push_back(n.index);
    ASSERT_EQ(n.adversaries.size(), 1u);
    kinds.push_back(n.adversaries.front().kind);
  }
  EXPECT_EQ(indices, (std::vector<std::size_t>{2, 5, 7, 11, 13, 17}));
  for (int k = 0; k < 6; ++k)
    EXPECT_NE(std::find(kinds.begin(), kinds.end(),
                        static_cast<sc::AdversaryKind>(k)),
              kinds.end())
        << "kind " << k << " missing from mixed";

  EXPECT_THROW(sc::make_adversary_profile("no-such-profile"),
               std::invalid_argument);
}

TEST(AdversaryProfile, InlineJsonParses) {
  const auto profile = sc::make_adversary_profile(
      R"({"name":"custom","seed":9,"nodes":[)"
      R"({"index":4,"adversaries":[{"kind":"spurious-cw","eirp_dbm":25,)"
      R"("range_m":200,"azimuth_deg":200}]},)"
      R"({"index":6,"adversaries":[{"kind":"ghost-adsb"},{"kind":"rogue-pss"}]}]})");
  EXPECT_EQ(profile.name, "custom");
  EXPECT_EQ(profile.seed, 9u);
  ASSERT_EQ(profile.nodes.size(), 2u);
  const auto& cw = profile.nodes[0].adversaries.front();
  EXPECT_EQ(cw.kind, sc::AdversaryKind::kSpuriousCw);
  EXPECT_DOUBLE_EQ(cw.eirp_dbm, 25.0);
  EXPECT_DOUBLE_EQ(cw.range_m, 200.0);
  EXPECT_DOUBLE_EQ(cw.azimuth_deg, 200.0);
  ASSERT_EQ(profile.nodes[1].adversaries.size(), 2u);
  EXPECT_EQ(profile.nodes[1].adversaries[1].kind,
            sc::AdversaryKind::kRoguePss);

  EXPECT_EQ(sc::make_adversary_profile("none").adversaries_for(4), nullptr);
  ASSERT_NE(profile.adversaries_for(4), nullptr);
  EXPECT_EQ(profile.adversaries_for(4)->size(), 1u);
  EXPECT_EQ(profile.adversaries_for(5), nullptr);
}

TEST(AdversaryProfile, MalformedJsonAndBadFieldsThrow) {
  // Parse errors carry the byte offset (fault-profile convention).
  try {
    (void)sc::make_adversary_profile(R"({"name":"x","nodes":[)");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("at byte"), std::string::npos);
  }
  EXPECT_THROW(sc::make_adversary_profile(
                   R"({"nodes":[{"index":0,"adversaries":[{"kind":"death-ray"}]}]})"),
               std::invalid_argument);

  // validate() names the offending field.
  sc::AdversaryProfile profile;
  profile.nodes.push_back(
      {0, {sc::AdversarySpec{sc::AdversaryKind::kSpuriousCw, 100.0}}});
  try {
    profile.validate();
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("eirp_dbm"), std::string::npos);
  }
  profile.nodes.front().adversaries.front() =
      sc::AdversarySpec{sc::AdversaryKind::kSpuriousCw,
                        std::numeric_limits<double>::quiet_NaN(), 0.0, 360.0};
  EXPECT_THROW(profile.validate(), std::invalid_argument);
  profile.nodes.front().adversaries.clear();
  EXPECT_THROW(profile.validate(), std::invalid_argument);
}

TEST(AdversaryProfile, SourcesAreSeededAndPerNode) {
  RxFixture fix;
  const auto a = sc::make_adversary_profile("jammer");
  const auto b = sc::make_adversary_profile("jammer");
  EXPECT_TRUE(a.sources_for(0).empty());  // unscripted node: no sources
  const auto sa = a.sources_for(3);
  const auto sb = b.sources_for(3);
  ASSERT_EQ(sa.size(), 1u);
  ASSERT_EQ(sb.size(), 1u);

  // Same profile, same node: bit-identical waveforms from two separately
  // constructed profile objects (worker-thread independence).
  const auto ca = render_all(sa, ch_center(22), 8e6, 8192, fix.rx);
  const auto cb = render_all(sb, ch_center(22), 8e6, 8192, fix.rx);
  ASSERT_EQ(ca.size(), cb.size());
  for (std::size_t i = 0; i < ca.size(); ++i) {
    ASSERT_EQ(ca[i].real(), cb[i].real()) << i;
    ASSERT_EQ(ca[i].imag(), cb[i].imag()) << i;
  }
  EXPECT_FALSE(is_silent(ca));

  // A different profile seed re-rolls the jammer's noise waveform.
  const char* json =
      R"({"name":"j","seed":%,"nodes":[{"index":3,"adversaries":[{"kind":"wideband-jammer"}]}]})";
  auto with_seed = [&](const char* seed) {
    std::string doc(json);
    doc.replace(doc.find('%'), 1, seed);
    return sc::make_adversary_profile(doc);
  };
  const auto c7 =
      render_all(with_seed("7").sources_for(3), ch_center(22), 8e6, 8192, fix.rx);
  const auto c8 =
      render_all(with_seed("8").sources_for(3), ch_center(22), 8e6, 8192, fix.rx);
  bool any_diff = false;
  for (std::size_t i = 0; i < c7.size(); ++i)
    any_diff |= c7[i] != c8[i];
  EXPECT_TRUE(any_diff);
}

// --- per-adversary RF signatures --------------------------------------------

TEST(AdversaryRf, SpuriousCwIsACoherentToneInsideChannel33) {
  RxFixture fix;
  const auto sources = sc::make_adversary_profile("cw").sources_for(3);
  ASSERT_EQ(sources.size(), 1u);
  const auto hit = render_all(sources, ch_center(33), 8e6, 16384, fix.rx);
  ASSERT_FALSE(is_silent(hit));
  EXPECT_GT(d::lag_autocorrelation(hit), 0.99);  // bare carrier
  EXPECT_GT(d::mean_power_dbfs(hit), -90.0);
  // Out of band: a capture of channel 22 never hears it.
  EXPECT_TRUE(is_silent(render_all(sources, ch_center(22), 8e6, 16384, fix.rx)));
}

TEST(AdversaryRf, SweptJammerDwellsOnEveryUhfTargetChannel) {
  RxFixture fix;
  const auto sources = sc::make_adversary_profile("swept").sources_for(3);
  ASSERT_EQ(sources.size(), 1u);
  // 5 ms = one full sweep cycle (1 ms dwell x 5 channels) at 8 Msps.
  constexpr std::size_t kCycle = 40000;
  for (int channel : {14, 22, 26, 33, 36}) {
    const auto cap = render_all(sources, ch_center(channel), 8e6, kCycle, fix.rx);
    EXPECT_FALSE(is_silent(cap)) << "channel " << channel;
    // The chirp decorrelates within a dwell: nothing CW-like.
    EXPECT_LT(d::lag_autocorrelation(cap), 0.9) << "channel " << channel;
  }
  // Channel 13 is VHF and deliberately outside the sweep plan.
  EXPECT_TRUE(is_silent(render_all(sources, ch_center(13), 8e6, kCycle, fix.rx)));
}

TEST(AdversaryRf, IntermodPairLandsInChannels14And36Only) {
  RxFixture fix;
  const auto sources = sc::make_adversary_profile("intermod").sources_for(3);
  ASSERT_EQ(sources.size(), 2u);  // 2f1-f2 and 2f2-f1
  for (int channel : {14, 36}) {
    const auto cap = render_all(sources, ch_center(channel), 8e6, 16384, fix.rx);
    EXPECT_FALSE(is_silent(cap)) << "channel " << channel;
    EXPECT_GT(d::lag_autocorrelation(cap), 0.99) << "channel " << channel;
  }
  for (int channel : {13, 22, 26, 33})
    EXPECT_TRUE(
        is_silent(render_all(sources, ch_center(channel), 8e6, 16384, fix.rx)))
        << "channel " << channel;
}

TEST(AdversaryRf, GhostAdsbTransmitsOnlyInThe1090Watchband) {
  RxFixture fix;
  const auto sources = sc::make_adversary_profile("ghost-adsb").sources_for(3);
  ASSERT_EQ(sources.size(), 1u);
  // 100 ms at the decoder rate: a 64-aircraft constellation squitters
  // tens of bursts in this window.
  const auto count =
      static_cast<std::size_t>(0.1 * speccal::adsb::kPpmSampleRateHz);
  const auto cap =
      render_all(sources, 1090e6, speccal::adsb::kPpmSampleRateHz, count, fix.rx);
  EXPECT_FALSE(is_silent(cap));
  // The modulator only renders at its native rate — any other capture
  // configuration hears nothing (that's what the watchlist is for).
  EXPECT_TRUE(is_silent(render_all(sources, 1090e6, 8e6, 16384, fix.rx)));
}

TEST(AdversaryRf, RoguePssCorrelatesAsAStandardsCorrectCell) {
  RxFixture fix;
  const auto sources = sc::make_adversary_profile("rogue-pss").sources_for(3);
  ASSERT_EQ(sources.size(), 1u);
  // 20 ms at the search rate covers four PSS half-frame repetitions (the
  // cell searcher's own capture length).
  const cel::PssSearchConfig search;
  const auto count =
      static_cast<std::size_t>(search.capture_duration_s * cel::kSearchRateHz);
  const auto cap = render_all(sources, 2145e6, cel::kSearchRateHz, count, fix.rx);
  ASSERT_FALSE(is_silent(cap));
  // pss_search reports the raw combined-correlation peak; the searcher's
  // threshold + PCI-consistency check is what declares sync.
  const auto detection = cel::pss_search(cap);
  EXPECT_GE(detection.metric, search.detection_threshold);
  EXPECT_EQ(detection.nid2, 499 % 3);  // PCI 499
  EXPECT_TRUE(is_silent(render_all(sources, 731e6, cel::kSearchRateHz, count, fix.rx)));
}

// --- world seeding (the consensus contract) ---------------------------------

TEST(Testbed, EmitterWaveformsDeriveFromWorldSeedNotNodeSeed) {
  // Two nodes of one fleet must hear the *same* broadcast waveforms — the
  // consensus detector compares their powers, so transmitter state has to
  // derive from the world seed. Node seeds may only vary receiver-local
  // state (thermal noise, dither).
  const auto world = sc::make_world(7);
  const auto site = sc::make_site(sc::Site::kRooftop);
  auto a = sc::make_node(site, world, 5);
  auto b = sc::make_node(site, world, 9);
  const auto capture_ch22 = [](sd::SimulatedSdr& dev) {
    dev.set_gain_mode(sd::GainMode::kManual);
    dev.set_gain_db(20.0);
    EXPECT_TRUE(dev.tune(521e6, 8e6));
    return dev.capture(16384);
  };
  const auto ca = capture_ch22(*a);
  const auto cb = capture_ch22(*b);
  const double signal_dbfs = d::mean_power_dbfs(ca);

  d::Buffer diff(ca.size());
  for (std::size_t i = 0; i < ca.size(); ++i) diff[i] = ca[i] - cb[i];
  // Shared world: the difference is receiver noise, tens of dB under the
  // broadcast. (Seed-split emitters would decorrelate and the difference
  // would carry the full signal power.)
  EXPECT_LT(d::mean_power_dbfs(diff), signal_dbfs - 30.0);

  // Control: a different world seed re-rolls the transmitters.
  const auto world2 = sc::make_world(8);
  auto c = sc::make_node(site, world2, 5);
  const auto cc = capture_ch22(*c);
  for (std::size_t i = 0; i < ca.size(); ++i) diff[i] = ca[i] - cc[i];
  EXPECT_GT(d::mean_power_dbfs(diff), signal_dbfs - 10.0);
}

TEST(Testbed, ExtraSourcesOverloadWithEmptyListIsByteIdentical) {
  const auto world = sc::make_world(7);
  auto plain = sc::make_owned_node(sc::Site::kWindow, world, 5);
  auto extra = sc::make_owned_node(sc::Site::kWindow, world, 5, {});
  for (auto* dev : {plain.get(), extra.get()}) {
    dev->set_gain_mode(sd::GainMode::kManual);
    dev->set_gain_db(20.0);
    ASSERT_TRUE(dev->tune(521e6, 8e6));
  }
  const auto ca = plain->capture(8192);
  const auto cb = extra->capture(8192);
  ASSERT_EQ(ca.size(), cb.size());
  for (std::size_t i = 0; i < ca.size(); ++i) {
    ASSERT_EQ(ca[i].real(), cb[i].real()) << i;
    ASSERT_EQ(ca[i].imag(), cb[i].imag()) << i;
  }
}
