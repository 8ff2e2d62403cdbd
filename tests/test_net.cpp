// Tests: the IQ segment wire format, its strict decoder (fuzz/adversarial
// inputs — runs under the CI sanitizer jobs), the SegmentQueue transport,
// the producer/replay devices, and a small end-to-end decode farm.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <sstream>
#include <thread>

#include "calib/ingest.hpp"
#include "net/decode_farm.hpp"
#include "net/queue.hpp"
#include "net/segment.hpp"
#include "scenario/testbed.hpp"
#include "sdr/fault.hpp"
#include "sdr/replay.hpp"
#include "sdr/segmentize.hpp"
#include "util/rng.hpp"

namespace net = speccal::net;
namespace cal = speccal::calib;
namespace sdr = speccal::sdr;
namespace sc = speccal::scenario;
namespace dsp = speccal::dsp;

namespace {

constexpr std::uint64_t kSeed = 2024;

dsp::Buffer make_samples(std::size_t count, std::uint64_t seed) {
  speccal::util::Rng rng(seed);
  dsp::Buffer buf(count);
  for (auto& s : buf)
    s = dsp::Sample(static_cast<float>(rng.normal(0.0, 0.3)),
                    static_cast<float>(rng.normal(0.0, 0.3)));
  return buf;
}

net::CaptureMeta test_meta() {
  net::CaptureMeta meta;
  meta.center_freq_hz = 605e6;
  meta.sample_rate_hz = 2.4e6;
  meta.gain_db = 30.0;
  meta.timestamp_s = 1.25;
  return meta;
}

/// Encode one capture into a single segment (fits one segment by
/// construction in these tests).
net::Segment encode_one(net::Encoding encoding, std::span<const dsp::Sample> samples,
                        std::uint32_t stream_id = 7) {
  net::SegmentWriterConfig cfg;
  cfg.encoding = encoding;
  net::SegmentWriter writer(cfg, stream_id);
  net::Segment out;
  writer.write_capture(test_meta(), samples, [&](net::Segment&& s) {
    out = std::move(s);
  });
  return out;
}

net::SegmentView parse_ok(const net::Segment& seg) {
  net::SegmentView view;
  const auto status = net::parse_segment(seg.bytes, view);
  EXPECT_EQ(status, net::DecodeStatus::kOk) << net::to_string(status);
  return view;
}

}  // namespace

// --------------------------------------------------------------- format ----

TEST(Segment, Float32RoundTripIsBitwise) {
  const auto samples = make_samples(1000, 1);
  const auto seg = encode_one(net::Encoding::kFloat32, samples);
  EXPECT_EQ(seg.size(), net::kHeaderSize + 8 * samples.size() + net::kCrcSize);

  const auto view = parse_ok(seg);
  EXPECT_EQ(view.header.version, net::kWireVersion);
  EXPECT_EQ(view.header.stream_id, 7u);
  EXPECT_EQ(view.header.sequence, 0u);
  EXPECT_EQ(view.header.sample_count, samples.size());
  EXPECT_EQ(view.header.center_freq_hz, 605e6);
  EXPECT_EQ(view.header.sample_rate_hz, 2.4e6);
  EXPECT_EQ(view.header.gain_db, 30.0);
  EXPECT_EQ(view.header.timestamp_s, 1.25);
  EXPECT_FALSE(view.header.end_of_stream());

  dsp::Buffer decoded;
  net::decode_payload(view, decoded);
  ASSERT_EQ(decoded.size(), samples.size());
  EXPECT_EQ(0, std::memcmp(decoded.data(), samples.data(),
                           samples.size() * sizeof(dsp::Sample)));
}

TEST(Segment, LossyEncodingsStayWithinDocumentedTolerance) {
  const auto samples = make_samples(4096, 2);
  float peak = 0.0f;
  for (const auto& s : samples)
    peak = std::max({peak, std::abs(s.real()), std::abs(s.imag())});

  struct Case {
    net::Encoding encoding;
    double tolerance;
  };
  // Documented worst-case error per reconstructed component (segment.hpp):
  // float16 is relative to magnitude (<= 2^-11 for |v| <= 1; our samples
  // stay within a few units), fixed-point is relative to the per-segment
  // scale plus a couple of ULPs of float rounding in the encode/decode
  // arithmetic (the documented bound is the real-arithmetic one).
  const double ulps = std::ldexp(static_cast<double>(peak), -22);
  const Case cases[] = {
      {net::Encoding::kFloat16, std::ldexp(1.0, -11) * std::max(1.0f, peak)},
      {net::Encoding::kFixed8, static_cast<double>(peak) / 254.0 + ulps},
      {net::Encoding::kFixed12, static_cast<double>(peak) / 4094.0 + ulps},
  };
  for (const Case& c : cases) {
    const auto seg = encode_one(c.encoding, samples);
    const auto view = parse_ok(seg);
    dsp::Buffer decoded;
    net::decode_payload(view, decoded);
    ASSERT_EQ(decoded.size(), samples.size()) << net::to_string(c.encoding);
    double worst = 0.0;
    for (std::size_t i = 0; i < samples.size(); ++i) {
      worst = std::max(worst,
                       static_cast<double>(std::abs(decoded[i].real() -
                                                    samples[i].real())));
      worst = std::max(worst,
                       static_cast<double>(std::abs(decoded[i].imag() -
                                                    samples[i].imag())));
    }
    EXPECT_LE(worst, c.tolerance) << net::to_string(c.encoding);
  }
}

TEST(Segment, WriterSplitsLargeCapturesAndCountsSequence) {
  net::SegmentWriterConfig cfg;
  cfg.max_samples_per_segment = 100;
  net::SegmentWriter writer(cfg, 3);
  const auto samples = make_samples(250, 3);

  std::vector<net::Segment> segments;
  writer.write_capture(test_meta(), samples,
                       [&](net::Segment&& s) { segments.push_back(std::move(s)); });
  writer.finish(test_meta(), [&](net::Segment&& s) { segments.push_back(std::move(s)); });

  ASSERT_EQ(segments.size(), 4u);  // 100 + 100 + 50 + EOS
  std::size_t total = 0;
  for (std::size_t i = 0; i < segments.size(); ++i) {
    const auto view = parse_ok(segments[i]);
    EXPECT_EQ(view.header.sequence, i);
    if (i < 3) {
      EXPECT_EQ(view.header.capture_index, 0u);  // one capture, three chunks
      EXPECT_FALSE(view.header.end_of_stream());
      // Chunk timestamps advance by offset / sample_rate.
      EXPECT_DOUBLE_EQ(view.header.timestamp_s,
                       1.25 + static_cast<double>(total) / 2.4e6);
      total += view.header.sample_count;
    } else {
      EXPECT_EQ(view.header.sample_count, 0u);
      EXPECT_TRUE(view.header.end_of_stream());
    }
  }
  EXPECT_EQ(total, 250u);
  EXPECT_EQ(writer.segments_written(), 4u);
}

TEST(Segment, HalfFloatConversions) {
  // Exact values survive; NaN stays NaN; overflow saturates to +-65504.
  EXPECT_EQ(net::half_to_float(net::float_to_half(0.0f)), 0.0f);
  EXPECT_EQ(net::half_to_float(net::float_to_half(1.0f)), 1.0f);
  EXPECT_EQ(net::half_to_float(net::float_to_half(-0.5f)), -0.5f);
  EXPECT_EQ(net::half_to_float(net::float_to_half(65504.0f)), 65504.0f);
  EXPECT_EQ(net::half_to_float(net::float_to_half(1e30f)), 65504.0f);
  EXPECT_EQ(net::half_to_float(net::float_to_half(-1e30f)), -65504.0f);
  EXPECT_TRUE(std::isnan(net::half_to_float(
      net::float_to_half(std::numeric_limits<float>::quiet_NaN()))));
  // Round-to-nearest-even on a value exactly between two halves.
  const float third = net::half_to_float(net::float_to_half(1.0f / 3.0f));
  EXPECT_NEAR(third, 1.0f / 3.0f, std::ldexp(1.0f, -11));
}

// -------------------------------------------------------------- decoder ----

TEST(SegmentDecoder, RejectsEveryTruncationCleanly) {
  const auto seg = encode_one(net::Encoding::kFixed12, make_samples(64, 4));
  // Every strict prefix must be rejected without UB (ASan/UBSan CI jobs
  // run this loop). Truncations that keep the total structurally
  // consistent do not exist: any byte removed breaks the length equation.
  for (std::size_t len = 0; len < seg.size(); ++len) {
    net::SegmentView view;
    const auto status = net::parse_segment(
        std::span<const std::uint8_t>(seg.bytes.data(), len), view);
    EXPECT_NE(status, net::DecodeStatus::kOk) << "accepted prefix " << len;
  }
}

TEST(SegmentDecoder, RejectsHeaderFieldLies) {
  const auto good = encode_one(net::Encoding::kFloat32, make_samples(32, 5));

  const auto mutated = [&](std::size_t offset, std::uint8_t value) {
    net::Segment seg = good;
    seg.bytes[offset] = value;
    net::SegmentView view;
    return net::parse_segment(seg.bytes, view);
  };

  EXPECT_EQ(mutated(0, 'X'), net::DecodeStatus::kBadMagic);
  EXPECT_EQ(mutated(4, 9), net::DecodeStatus::kBadVersion);   // version = 9
  EXPECT_EQ(mutated(6, 200), net::DecodeStatus::kBadEncoding);
  EXPECT_EQ(mutated(7, 0x80), net::DecodeStatus::kReservedFlags);
  // sample_count changed (offset 20) -> encoded size no longer matches.
  EXPECT_EQ(mutated(20, 33), net::DecodeStatus::kLengthMismatch);
  // payload_bytes changed (offset 24) -> length equation broken.
  EXPECT_EQ(mutated(24, 1), net::DecodeStatus::kLengthMismatch);
  // Payload byte flipped -> CRC catches it.
  EXPECT_EQ(mutated(net::kHeaderSize + 3, 0xFF), net::DecodeStatus::kCrcMismatch);
  // CRC byte flipped -> CRC mismatch.
  EXPECT_EQ(mutated(good.size() - 1, good.bytes.back() ^ 0xFF),
            net::DecodeStatus::kCrcMismatch);
}

TEST(SegmentDecoder, RejectsZeroSampleDataSegment) {
  // A zero-sample segment is only legal as the end-of-stream marker; forge
  // one without the flag (recompute the CRC so only the semantics are bad).
  net::SegmentWriterConfig cfg;
  net::SegmentWriter writer(cfg, 1);
  net::Segment seg;
  writer.finish(test_meta(), [&](net::Segment&& s) { seg = std::move(s); });
  seg.bytes[7] = 0;  // clear the end-of-stream flag
  const std::size_t body = seg.size() - net::kCrcSize;
  const std::uint32_t crc =
      net::crc32(std::span<const std::uint8_t>(seg.bytes.data(), body));
  std::memcpy(seg.bytes.data() + body, &crc, sizeof(crc));

  net::SegmentView view;
  EXPECT_EQ(net::parse_segment(seg.bytes, view),
            net::DecodeStatus::kBadSampleCount);

  // The unmodified marker parses.
  net::Segment eos;
  net::SegmentWriter writer2(cfg, 1);
  writer2.finish(test_meta(), [&](net::Segment&& s) { eos = std::move(s); });
  const auto ok = parse_ok(eos);
  EXPECT_TRUE(ok.header.end_of_stream());
  EXPECT_EQ(ok.header.sample_count, 0u);
}

TEST(SegmentDecoder, RejectsBadFixedPointScale) {
  auto forge_scale = [&](float scale) {
    auto seg = encode_one(net::Encoding::kFixed8, make_samples(16, 6));
    std::memcpy(seg.bytes.data() + 60, &scale, sizeof(scale));
    const std::size_t body = seg.size() - net::kCrcSize;
    const std::uint32_t crc =
        net::crc32(std::span<const std::uint8_t>(seg.bytes.data(), body));
    std::memcpy(seg.bytes.data() + body, &crc, sizeof(crc));
    net::SegmentView view;
    return net::parse_segment(seg.bytes, view);
  };
  EXPECT_EQ(forge_scale(0.0f), net::DecodeStatus::kBadScale);
  EXPECT_EQ(forge_scale(-1.0f), net::DecodeStatus::kBadScale);
  EXPECT_EQ(forge_scale(std::numeric_limits<float>::infinity()),
            net::DecodeStatus::kBadScale);
  EXPECT_EQ(forge_scale(std::numeric_limits<float>::quiet_NaN()),
            net::DecodeStatus::kBadScale);
}

TEST(SegmentDecoder, SeededMutationFuzz) {
  // 2000 random single/multi-byte corruptions over all four encodings: the
  // parser must never accept a corrupted segment as-is unless the flips
  // landed outside the checked bytes — which cannot happen, because every
  // byte is either header (validated + CRC'd) or payload/CRC (CRC'd). So:
  // accepted => the mutation recreated a valid segment (e.g. flipped a bit
  // twice); we only require no crash and consistent decode.
  speccal::util::Rng rng(kSeed);
  const net::Encoding encodings[] = {
      net::Encoding::kFloat32, net::Encoding::kFloat16, net::Encoding::kFixed8,
      net::Encoding::kFixed12};
  std::size_t rejected = 0, accepted = 0;
  for (int iter = 0; iter < 2000; ++iter) {
    const auto enc = encodings[iter % 4];
    auto seg = encode_one(enc, make_samples(1 + iter % 97, iter));
    const int flips = 1 + static_cast<int>(rng.uniform() * 4);
    for (int f = 0; f < flips; ++f) {
      const auto pos = static_cast<std::size_t>(rng.uniform() *
                                                static_cast<double>(seg.size()));
      seg.bytes[std::min(pos, seg.size() - 1)] ^=
          static_cast<std::uint8_t>(1 + rng.uniform() * 254);
    }
    net::SegmentView view;
    if (net::parse_segment(seg.bytes, view) == net::DecodeStatus::kOk) {
      ++accepted;
      dsp::Buffer decoded;
      net::decode_payload(view, decoded);  // must not crash either way
      EXPECT_EQ(decoded.size(), view.header.sample_count);
    } else {
      ++rejected;
    }
  }
  // CRC-32 makes surviving mutations vanishingly rare.
  EXPECT_GE(rejected, 1990u) << "accepted " << accepted;
}

TEST(SegmentDecoder, ConfigValidationNamesFields) {
  net::SegmentWriterConfig bad_enc;
  bad_enc.encoding = static_cast<net::Encoding>(42);
  EXPECT_THROW(
      {
        try {
          bad_enc.validate();
        } catch (const std::invalid_argument& e) {
          EXPECT_NE(std::string(e.what()).find("SegmentWriterConfig.encoding"),
                    std::string::npos);
          throw;
        }
      },
      std::invalid_argument);

  net::SegmentWriterConfig bad_max;
  bad_max.max_samples_per_segment = 0;
  EXPECT_THROW(bad_max.validate(), std::invalid_argument);
}

// ------------------------------------------------------------ transport ----

TEST(SegmentQueue, FifoAndStats) {
  net::SegmentQueue queue(4);
  EXPECT_EQ(queue.capacity(), 4u);
  for (std::uint8_t i = 0; i < 4; ++i) {
    net::Segment s;
    s.bytes = {i};
    EXPECT_TRUE(queue.try_push(std::move(s)));
  }
  net::Segment overflow;
  EXPECT_FALSE(queue.try_push(std::move(overflow)));  // full
  EXPECT_EQ(queue.size(), 4u);

  for (std::uint8_t i = 0; i < 4; ++i) {
    net::Segment out;
    ASSERT_TRUE(queue.try_pop(out));
    EXPECT_EQ(out.bytes[0], i);  // FIFO order
  }
  net::Segment empty;
  EXPECT_FALSE(queue.try_pop(empty));

  const auto stats = queue.stats();
  EXPECT_EQ(stats.pushed, 4u);
  EXPECT_EQ(stats.popped, 4u);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.peak_depth, 4u);
}

TEST(SegmentQueue, CloseDrainsThenEndsAndRefusesPush) {
  net::SegmentQueue queue(8);
  net::Segment s;
  s.bytes = {1, 2, 3};
  EXPECT_TRUE(queue.push(std::move(s)));
  queue.close();
  EXPECT_TRUE(queue.closed());

  net::Segment refused;
  EXPECT_FALSE(queue.push(std::move(refused)));  // closed: no new segments

  const auto drained = queue.pop();  // buffered segment still poppable
  ASSERT_TRUE(drained.has_value());
  EXPECT_EQ(drained->bytes.size(), 3u);
  EXPECT_FALSE(queue.pop().has_value());  // closed and drained
}

TEST(SegmentQueue, MpmcHammerDeliversEverySegmentOnce) {
  net::SegmentQueue queue(16);
  constexpr int kProducers = 3, kConsumers = 3, kPerProducer = 500;

  std::atomic<std::uint64_t> sum{0};
  std::atomic<int> received{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      while (auto seg = queue.pop()) {
        std::uint32_t value;
        std::memcpy(&value, seg->bytes.data(), sizeof(value));
        sum.fetch_add(value, std::memory_order_relaxed);
        received.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        const std::uint32_t value =
            static_cast<std::uint32_t>(p * kPerProducer + i);
        net::Segment s;
        s.bytes.resize(sizeof(value));
        std::memcpy(s.bytes.data(), &value, sizeof(value));
        EXPECT_TRUE(queue.push(std::move(s)));  // blocking: never dropped
      }
    });
  }
  for (int p = 0; p < kProducers; ++p) threads[static_cast<std::size_t>(kConsumers + p)].join();
  queue.close();
  for (int c = 0; c < kConsumers; ++c) threads[static_cast<std::size_t>(c)].join();

  const int total = kProducers * kPerProducer;
  EXPECT_EQ(received.load(), total);
  EXPECT_EQ(sum.load(), static_cast<std::uint64_t>(total) * (total - 1) / 2);
  EXPECT_EQ(queue.stats().pushed, static_cast<std::uint64_t>(total));
}

// ------------------------------------------------- record / replay ----------

TEST(Replay, SegmentizingDeviceIsTransparentAndReplayIsBitwise) {
  const auto world = sc::make_world(kSeed);
  const auto site = sc::make_site(sc::Site::kRooftop, kSeed);

  // Reference: bare device, a few captures.
  auto bare = sc::make_owned_node(sc::Site::kRooftop, world, kSeed);
  // Recorded: identical device wrapped in a SegmentizingDevice.
  std::vector<net::Segment> wire;
  net::SegmentWriterConfig wcfg;  // float32
  auto wrapped = std::make_unique<sdr::SegmentizingDevice>(
      sc::make_owned_node(sc::Site::kRooftop, world, kSeed), wcfg, 11,
      [&](net::Segment&& s) { wire.push_back(std::move(s)); });

  auto drive = [](sdr::Device& dev) {
    dev.set_gain_mode(sdr::GainMode::kManual);
    dev.set_gain_db(40.0);
    dsp::Buffer all;
    for (const double freq : {605e6, 521e6}) {
      EXPECT_TRUE(dev.tune(freq, 2.4e6));
      const auto buf = dev.capture(4096);
      all.insert(all.end(), buf.begin(), buf.end());
    }
    return all;
  };

  const auto reference = drive(*bare);
  const auto recorded = drive(*wrapped);
  ASSERT_EQ(reference.size(), recorded.size());
  // Transparent decorator: wrapped output bitwise equals bare output.
  EXPECT_EQ(0, std::memcmp(reference.data(), recorded.data(),
                           reference.size() * sizeof(dsp::Sample)));
  wrapped->finish();

  // Decode the wire stream back into capture records.
  auto records = std::make_shared<std::vector<sdr::CaptureRecord>>();
  dsp::Buffer scratch;
  for (const auto& seg : wire) {
    net::SegmentView view;
    ASSERT_EQ(net::parse_segment(seg.bytes, view), net::DecodeStatus::kOk);
    if (view.header.sample_count == 0) continue;  // EOS
    net::decode_payload(view, scratch);
    sdr::CaptureRecord rec;
    rec.center_freq_hz = view.header.center_freq_hz;
    rec.sample_rate_hz = view.header.sample_rate_hz;
    rec.gain_db = view.header.gain_db;
    rec.timestamp_s = view.header.timestamp_s;
    rec.samples = scratch;
    records->push_back(std::move(rec));
  }
  ASSERT_EQ(records->size(), 2u);

  // Replay serves the same bytes through the same device interface.
  sdr::ReplayDevice replay(bare->info(), bare->position(), records,
                           site.rx_environment());
  const auto replayed = drive(replay);
  ASSERT_EQ(replayed.size(), reference.size());
  EXPECT_EQ(0, std::memcmp(replayed.data(), reference.data(),
                           reference.size() * sizeof(dsp::Sample)));
  EXPECT_EQ(replay.records_consumed(), 2u);
  EXPECT_EQ(replay.records_remaining(), 0u);
}

TEST(Replay, DivergentReplayThrowsInsteadOfMiscalibrating) {
  auto records = std::make_shared<std::vector<sdr::CaptureRecord>>();
  sdr::CaptureRecord rec;
  rec.center_freq_hz = 605e6;
  rec.sample_rate_hz = 2.4e6;
  rec.timestamp_s = 0.0;
  rec.samples = make_samples(64, 9);
  records->push_back(std::move(rec));

  sdr::DeviceInfo info = sdr::SimulatedSdr::bladerf_like_info();
  sdr::ReplayDevice dev(info, speccal::geo::Geodetic{}, records);
  EXPECT_TRUE(dev.tune(521e6, 2.4e6));          // different frequency...
  EXPECT_THROW(dev.capture(64), std::runtime_error);

  sdr::ReplayDevice dev2(info, speccal::geo::Geodetic{}, records);
  EXPECT_TRUE(dev2.tune(605e6, 2.4e6));
  EXPECT_THROW(dev2.capture(63), std::runtime_error);  // wrong count
  const auto buf = dev2.capture(64);                   // correct request works
  EXPECT_EQ(buf.size(), 64u);
  EXPECT_THROW(dev2.capture(64), std::runtime_error);  // records exhausted
}

// ------------------------------------------------------------ the farm -----

TEST(DecodeFarm, EndToEndFloat32ReportsAreBitwiseIdentical) {
  const auto world = sc::make_world(kSeed);
  cal::RunConfig run;
  run.pipeline.survey.fidelity = cal::Fidelity::kLinkBudget;
  run.pipeline.survey.duration_s = 10.0;
  run.executor.threads = 2;

  constexpr std::size_t kNodes = 3;
  std::vector<sc::SiteSetup> sites;
  for (std::size_t i = 0; i < kNodes; ++i)
    sites.push_back(sc::make_site(static_cast<sc::Site>(i % 3), kSeed));

  // --- producer side: calibrate through segmentizing devices ------------
  // The whole stream is buffered before the farm drains it, so the queue
  // must hold every segment (blocking pushes would deadlock otherwise).
  net::SegmentQueue queue(4096);
  cal::NodeRegistry baseline;
  {
    cal::FleetCalibrator producer(world, run);
    std::vector<cal::FleetJob> jobs;
    for (std::size_t i = 0; i < kNodes; ++i) {
      cal::FleetJob job;
      job.claims.node_id = "node-" + std::to_string(i);
      job.claims.claims_omnidirectional = false;
      const auto site = static_cast<sc::Site>(i % 3);
      job.make_device = [&world, &queue, site, i] {
        net::SegmentWriterConfig wcfg;  // float32 passthrough
        return std::make_unique<sdr::SegmentizingDevice>(
            sc::make_owned_node(site, world, kSeed), wcfg,
            static_cast<std::uint32_t>(i),
            [&queue](net::Segment&& s) { queue.push(std::move(s)); });
      };
      jobs.push_back(std::move(job));
    }
    const auto summary = producer.run(std::move(jobs), baseline);
    ASSERT_EQ(summary.calibrated, kNodes);
    ASSERT_EQ(summary.failed, 0u);
  }
  queue.close();

  // --- backend side: decode farm over the recorded segments -------------
  net::DecodeFarm farm(world, run, net::DecodeFarmConfig{2});
  for (std::size_t i = 0; i < kNodes; ++i) {
    net::NodeManifest manifest;
    manifest.claims.node_id = "node-" + std::to_string(i);
    manifest.claims.claims_omnidirectional = false;
    manifest.info = sdr::SimulatedSdr::bladerf_like_info();
    manifest.position = sites[i].position;
    manifest.rx = sites[i].rx_environment();
    farm.register_node(static_cast<std::uint32_t>(i), manifest);
  }
  cal::NodeRegistry decoded;
  const auto stats = farm.run(queue, decoded);

  EXPECT_EQ(stats.decode_errors, 0u);
  EXPECT_EQ(stats.unknown_streams, 0u);
  EXPECT_EQ(stats.nodes_ready, kNodes);
  EXPECT_EQ(stats.nodes_incomplete, 0u);
  EXPECT_EQ(stats.nodes_calibrated, kNodes);
  EXPECT_EQ(stats.nodes_failed, 0u);
  EXPECT_GT(stats.captures, 0u);

  // The gate: float32 round-trip reports bitwise-identical to in-process
  // (wall-clock stage timings excluded — they are the one nondeterministic
  // field, which is exactly why write_json grew the flag).
  for (std::size_t i = 0; i < kNodes; ++i) {
    const std::string id = "node-" + std::to_string(i);
    const auto* a = baseline.find(id);
    const auto* b = decoded.find(id);
    ASSERT_NE(a, nullptr) << id;
    ASSERT_NE(b, nullptr) << id;
    EXPECT_EQ(0, std::memcmp(&a->trust.score, &b->trust.score, sizeof(double)))
        << id;
    std::ostringstream ja, jb;
    a->write_json(ja, /*include_stage_metrics=*/false);
    b->write_json(jb, /*include_stage_metrics=*/false);
    EXPECT_EQ(ja.str(), jb.str()) << id;
  }
}

TEST(DecodeFarm, IncompleteAndUnknownStreamsAreCountedNotCalibrated) {
  const auto world = sc::make_world(kSeed);
  cal::RunConfig run;
  run.pipeline.survey.fidelity = cal::Fidelity::kLinkBudget;
  run.pipeline.survey.duration_s = 10.0;
  run.executor.threads = 1;

  net::SegmentQueue queue(32);
  net::SegmentWriterConfig wcfg;
  // Stream 1 is registered but never sends EOS; stream 2 is unknown.
  net::SegmentWriter w1(wcfg, 1);
  net::SegmentWriter w2(wcfg, 2);
  const auto samples = make_samples(128, 10);
  auto push = [&](net::Segment&& s) { queue.push(std::move(s)); };
  w1.write_capture(test_meta(), samples, push);
  w2.write_capture(test_meta(), samples, push);
  w2.finish(test_meta(), push);
  // And one garbage blob.
  net::Segment garbage;
  garbage.bytes.assign(300, 0xAB);
  queue.push(std::move(garbage));
  queue.close();

  net::DecodeFarm farm(world, run);
  net::NodeManifest manifest;
  manifest.claims.node_id = "node-1";
  manifest.info = sdr::SimulatedSdr::bladerf_like_info();
  farm.register_node(1, manifest);

  cal::NodeRegistry registry;
  const auto stats = farm.run(queue, registry);
  EXPECT_EQ(stats.decode_errors, 1u);     // the garbage blob
  EXPECT_EQ(stats.unknown_streams, 2u);   // stream 2's capture + EOS
  EXPECT_EQ(stats.nodes_incomplete, 1u);  // stream 1 never finished
  EXPECT_EQ(stats.nodes_ready, 0u);
  EXPECT_EQ(stats.nodes_calibrated, 0u);
  EXPECT_EQ(registry.size(), 0u);
}

TEST(DecodeFarm, ConfigValidationNamesFields) {
  net::DecodeFarmConfig bad_threads;
  bad_threads.decode_threads = 0;
  try {
    bad_threads.validate();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("DecodeFarmConfig.decode_threads"),
              std::string::npos);
  }
  net::DecodeFarmConfig bad_bytes;
  bad_bytes.max_segment_bytes = 1;
  EXPECT_THROW(bad_bytes.validate(), std::invalid_argument);
}

// ------------------------------------------- validation conformance --------

TEST(Validation, EveryPublicConfigNamesTheOffendingField) {
  // The shared convention (DESIGN.md §13): validate() throws
  // std::invalid_argument whose message starts with ConfigName.field.
  const auto message_of = [](auto&& thrower) -> std::string {
    try {
      thrower();
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "";
  };

  cal::RunConfig bad_run;
  bad_run.pipeline.retry.max_attempts = 0;
  EXPECT_NE(message_of([&] { bad_run.validate(); })
                .find("RunConfig.pipeline.retry.max_attempts"),
            std::string::npos);

  sdr::FaultProfile bad_profile;
  bad_profile.retry_max_attempts = 0;
  EXPECT_NE(message_of([&] { bad_profile.validate(); })
                .find("FaultProfile.retry_max_attempts"),
            std::string::npos);
  sdr::FaultProfile bad_spec;
  bad_spec.nodes.push_back(
      {0, {sdr::FaultSpec{sdr::FaultOp::kCapture, sdr::FaultKind::kThrow, 0, 1,
                          0.0, 2.0}}});
  EXPECT_NE(message_of([&] { bad_spec.validate(); })
                .find("FaultProfile.nodes[0].faults[0].probability"),
            std::string::npos);

  net::SegmentWriterConfig bad_writer;
  bad_writer.max_samples_per_segment = net::kMaxSegmentSamples + 1;
  EXPECT_NE(message_of([&] { bad_writer.validate(); })
                .find("SegmentWriterConfig.max_samples_per_segment"),
            std::string::npos);

  net::DecodeFarmConfig bad_farm;
  bad_farm.decode_threads = 0;
  EXPECT_NE(message_of([&] { bad_farm.validate(); })
                .find("DecodeFarmConfig.decode_threads"),
            std::string::npos);

  EXPECT_NE(message_of([] { net::SegmentQueue queue(0); })
                .find("SegmentQueue.capacity"),
            std::string::npos);
}
