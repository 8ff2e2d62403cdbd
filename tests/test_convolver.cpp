// Unit tests: overlap-save FFT convolver equivalence against the direct FIR
// reference, streaming semantics, and the reference's own streaming state.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <vector>

#include "dsp/convolver.hpp"
#include "dsp/fir.hpp"
#include "util/rng.hpp"

namespace d = speccal::dsp;
using speccal::util::Rng;

namespace {

std::vector<std::complex<float>> noise(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::complex<float>> out(n);
  for (auto& v : out)
    v = {static_cast<float>(rng.normal()), static_cast<float>(rng.normal())};
  return out;
}

float max_abs_error(std::span<const std::complex<float>> a,
                    std::span<const std::complex<float>> b) {
  EXPECT_EQ(a.size(), b.size());
  float worst = 0.0f;
  for (std::size_t i = 0; i < a.size(); ++i)
    worst = std::max(worst, std::abs(a[i] - b[i]));
  return worst;
}

}  // namespace

// ----------------------------------------------------------- equivalence ----

TEST(FftConvolver, MatchesFirFilterWithinDocumentedTolerance) {
  // The contract from convolver.hpp: unit-RMS input, per-sample error
  // within kConvolverEquivalenceTolerance of the double-accumulation
  // direct convolution.
  for (const std::size_t taps_count : {127u, 33u}) {
    const auto taps = d::design_bandpass(8e6, -2.0e6, 2.4e6, taps_count);
    const auto in = noise(8192, 7);

    d::FirFilter direct(taps);
    std::vector<std::complex<float>> want(in.size());
    direct.filter_into(in, want);

    d::FftConvolver conv(taps);
    const auto got = conv.filter(in);

    EXPECT_LE(max_abs_error(want, got), d::kConvolverEquivalenceTolerance)
        << "taps=" << taps_count;
  }
}

TEST(FftConvolver, StreamingMatchesOneShot) {
  const auto taps = d::design_bandpass(8e6, -1.5e6, 1.5e6, 127);
  const auto in = noise(4096, 11);

  d::FftConvolver one_shot(taps);
  const auto want = one_shot.filter(in);

  // Feed the same stream in awkward chunk sizes, including chunks smaller
  // than the filter history.
  d::FftConvolver streamed(taps);
  std::vector<std::complex<float>> got(in.size());
  const std::size_t chunks[] = {1, 100, 63, 1000, 17, 2915};
  std::size_t pos = 0;
  for (std::size_t c : chunks) {
    streamed.filter_into(std::span(in).subspan(pos, c),
                         std::span(got).subspan(pos, c));
    pos += c;
  }
  ASSERT_EQ(pos, in.size());

  // Identical algorithm either way, but block boundaries move, so compare
  // within the equivalence tolerance rather than bitwise.
  EXPECT_LE(max_abs_error(want, got), d::kConvolverEquivalenceTolerance);
}

TEST(FftConvolver, ResetClearsHistory) {
  const auto taps = d::design_bandpass(8e6, -1.0e6, 1.0e6, 63);
  const auto in = noise(1024, 13);

  d::FftConvolver conv(taps);
  const auto first = conv.filter(in);
  conv.reset();
  const auto again = conv.filter(in);
  EXPECT_EQ(max_abs_error(first, again), 0.0f);  // bitwise: same blocks
}

TEST(FftConvolver, SteadyStateScratchStopsGrowing) {
  const auto taps = d::design_bandpass(8e6, -2.0e6, 2.0e6, 127);
  const auto in = noise(16384, 17);
  std::vector<std::complex<float>> out(in.size());

  d::FftConvolver conv(taps);
  conv.filter_into(in, out);
  const std::size_t after_first = conv.scratch_capacity_bytes();
  EXPECT_GT(after_first, 0u);
  for (int i = 0; i < 5; ++i) conv.filter_into(in, out);
  EXPECT_EQ(conv.scratch_capacity_bytes(), after_first);
}

TEST(FftConvolver, ValidatesArguments) {
  const auto taps = d::design_bandpass(8e6, -1.0e6, 1.0e6, 63);
  EXPECT_THROW(d::FftConvolver(std::span<const std::complex<double>>{}),
               std::invalid_argument);
  EXPECT_THROW(d::FftConvolver(taps, 100), std::invalid_argument);  // not 2^k
  EXPECT_THROW(d::FftConvolver(taps, 32), std::invalid_argument);   // < taps
  d::FftConvolver conv(taps);
  const auto in = noise(64, 19);
  std::vector<std::complex<float>> short_out(32);
  EXPECT_THROW(conv.filter_into(in, short_out), std::invalid_argument);
}

// ------------------------------------------------------- FirFilter into ----

TEST(FirFilter, FilterIntoCarriesStateAcrossCalls) {
  const auto taps = d::design_bandpass(8e6, -2.0e6, 2.0e6, 63);
  const auto in = noise(512, 29);

  d::FirFilter whole(taps);
  std::vector<std::complex<float>> want(in.size());
  whole.filter_into(in, want);

  d::FirFilter split(taps);
  std::vector<std::complex<float>> got(in.size());
  split.filter_into(std::span(in).first(100), std::span(got).first(100));
  split.filter_into(std::span(in).subspan(100), std::span(got).subspan(100));
  for (std::size_t i = 0; i < got.size(); ++i) EXPECT_EQ(want[i], got[i]);
}
