// Conformance harness for the runtime-dispatched SIMD kernels: every tier
// the host supports must be bit-identical to the scalar reference on every
// kernel, across randomized lengths, misaligned spans, short tails, and
// non-finite specials (DESIGN.md §16). A tier that drifts by even one ulp —
// e.g. from FMA contraction sneaking into a build — fails here before the
// full-pipeline differential ever runs.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include "rfdump/dsp/barker.hpp"
#include "rfdump/dsp/fir.hpp"
#include "rfdump/dsp/resampler.hpp"
#include "rfdump/dsp/simd.hpp"
#include "rfdump/dsp/types.hpp"
#include "rfdump/phyzigbee/phy.hpp"

namespace rfdump::dsp::simd {
namespace {

std::vector<Tier> SupportedTiers() {
  std::vector<Tier> tiers;
  for (int t = 0; t < kTierCount; ++t) {
    if (TierSupported(static_cast<Tier>(t))) {
      tiers.push_back(static_cast<Tier>(t));
    }
  }
  return tiers;
}

// Lengths that cover empty input, sub-register tails for both 4- and 8-wide
// tiers, exact register multiples, and off-by-one on either side.
constexpr std::size_t kLengths[] = {0,  1,  2,  3,  4,  5,  7,   8,  9,
                                    15, 16, 17, 31, 32, 33, 100, 257};

// Offsets into an oversized buffer so kernels see spans whose base address
// is not 32-byte (or even 8-byte) aligned.
constexpr std::size_t kOffsets[] = {0, 1, 2, 3};

/// Random samples with occasional non-finite and rail-level specials, so the
/// finite-power masking and health classification paths are exercised.
std::vector<cfloat> RandomSamples(std::mt19937& rng, std::size_t n,
                                  bool specials) {
  std::uniform_real_distribution<float> amp(-2.0f, 2.0f);
  std::uniform_int_distribution<int> pick(0, 19);
  std::vector<cfloat> x(n);
  for (auto& v : x) {
    v = cfloat(amp(rng), amp(rng));
    if (specials) {
      switch (pick(rng)) {
        case 0:
          v = cfloat(std::numeric_limits<float>::quiet_NaN(), amp(rng));
          break;
        case 1:
          v = cfloat(amp(rng), std::numeric_limits<float>::infinity());
          break;
        case 2:
          v = cfloat(64.0f, -64.0f);  // at the ADC rail
          break;
        case 3:
          v = cfloat(0.0f, -0.0f);
          break;
        default:
          break;
      }
    }
  }
  return x;
}

::testing::AssertionResult BitEqual(std::span<const float> a,
                                    std::span<const float> b,
                                    const char* what) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << what << ": size " << a.size() << " vs " << b.size();
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint32_t>(a[i]) !=
        std::bit_cast<std::uint32_t>(b[i])) {
      return ::testing::AssertionFailure()
             << what << "[" << i << "]: " << a[i] << " (0x" << std::hex
             << std::bit_cast<std::uint32_t>(a[i]) << ") vs " << b[i] << " (0x"
             << std::bit_cast<std::uint32_t>(b[i]) << ")";
    }
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult BitEqual(std::span<const cfloat> a,
                                    std::span<const cfloat> b,
                                    const char* what) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << what << ": size " << a.size() << " vs " << b.size();
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(a[i]) !=
        std::bit_cast<std::uint64_t>(b[i])) {
      return ::testing::AssertionFailure()
             << what << "[" << i << "]: (" << a[i].real() << "," << a[i].imag()
             << ") vs (" << b[i].real() << "," << b[i].imag() << ")";
    }
  }
  return ::testing::AssertionSuccess();
}

class DspSimdTierSweep : public ::testing::TestWithParam<int> {
 protected:
  Tier tier() const { return static_cast<Tier>(GetParam()); }
  void SetUp() override {
    if (!TierSupported(tier())) {
      GTEST_SKIP() << "tier " << TierName(tier())
                   << " not supported on this host";
    }
  }
};

TEST_P(DspSimdTierSweep, CorrelateChipsBitExact) {
  const Kernels& ref = Table(Tier::kScalar);
  const Kernels& vec = Table(tier());
  std::mt19937 rng(101);
  for (bool specials : {false, true}) {
    for (std::size_t off : kOffsets) {
      for (std::size_t len : kLengths) {
        const auto buf = RandomSamples(rng, off + len + 16, specials);
        const cfloat* x = buf.data() + off;
        for (std::span<const int> chips :
             {std::span<const int>(kBarker11), std::span<const int>(kBarker13)}) {
          if (len < chips.size()) continue;
          const std::size_t n_out = len - chips.size() + 1;
          std::vector<cfloat> a(n_out), b(n_out);
          ref.correlate_chips(x, n_out, chips.data(), chips.size(), a.data());
          vec.correlate_chips(x, n_out, chips.data(), chips.size(), b.data());
          ASSERT_TRUE(BitEqual(a, b, "correlate_chips"))
              << "tier=" << TierName(tier()) << " len=" << len
              << " off=" << off;
        }
      }
    }
  }
}

TEST_P(DspSimdTierSweep, FirComplexBitExact) {
  const Kernels& ref = Table(Tier::kScalar);
  const Kernels& vec = Table(tier());
  const auto taps = DesignLowPass(600e3, kSampleRateHz, 21);
  std::mt19937 rng(202);
  for (std::size_t off : kOffsets) {
    for (std::size_t len : kLengths) {
      const auto buf =
          RandomSamples(rng, off + len + taps.size() + 8, false);
      const cfloat* work = buf.data() + off;
      std::vector<cfloat> a(len), b(len);
      ref.fir_complex(work, len, taps.data(), taps.size(), a.data());
      vec.fir_complex(work, len, taps.data(), taps.size(), b.data());
      ASSERT_TRUE(BitEqual(a, b, "fir_complex"))
          << "tier=" << TierName(tier()) << " len=" << len << " off=" << off;
    }
  }
}

TEST_P(DspSimdTierSweep, PhaseDiffBitExact) {
  const Kernels& ref = Table(Tier::kScalar);
  const Kernels& vec = Table(tier());
  std::mt19937 rng(303);
  for (bool specials : {false, true}) {
    for (std::size_t off : kOffsets) {
      for (std::size_t len : kLengths) {
        if (len < 1) continue;
        const auto buf = RandomSamples(rng, off + len + 8, specials);
        const cfloat* x = buf.data() + off;
        std::vector<float> a(len - 1), b(len - 1);
        ref.phase_diff(x, len, a.data());
        vec.phase_diff(x, len, b.data());
        ASSERT_TRUE(BitEqual(a, b, "phase_diff"))
            << "tier=" << TierName(tier()) << " len=" << len << " off=" << off;
      }
    }
  }
}

TEST_P(DspSimdTierSweep, InstantPhaseBitExact) {
  const Kernels& ref = Table(Tier::kScalar);
  const Kernels& vec = Table(tier());
  std::mt19937 rng(404);
  for (bool specials : {false, true}) {
    for (std::size_t off : kOffsets) {
      for (std::size_t len : kLengths) {
        const auto buf = RandomSamples(rng, off + len + 8, specials);
        const cfloat* x = buf.data() + off;
        std::vector<float> a(len), b(len);
        ref.instant_phase(x, len, a.data());
        vec.instant_phase(x, len, b.data());
        ASSERT_TRUE(BitEqual(a, b, "instant_phase"))
            << "tier=" << TierName(tier()) << " len=" << len << " off=" << off;
      }
    }
  }
}

TEST_P(DspSimdTierSweep, SumFinitePowerBitExact) {
  const Kernels& ref = Table(Tier::kScalar);
  const Kernels& vec = Table(tier());
  std::mt19937 rng(505);
  for (bool specials : {false, true}) {
    for (std::size_t off : kOffsets) {
      for (std::size_t len : kLengths) {
        const auto buf = RandomSamples(rng, off + len + 8, specials);
        const cfloat* x = buf.data() + off;
        const double a = ref.sum_finite_power(x, len);
        const double b = vec.sum_finite_power(x, len);
        ASSERT_EQ(std::bit_cast<std::uint64_t>(a),
                  std::bit_cast<std::uint64_t>(b))
            << "tier=" << TierName(tier()) << " len=" << len << " off=" << off
            << " a=" << a << " b=" << b;
      }
    }
  }
}

TEST_P(DspSimdTierSweep, PowerPlaneBitExact) {
  const Kernels& ref = Table(Tier::kScalar);
  const Kernels& vec = Table(tier());
  std::mt19937 rng(606);
  for (bool specials : {false, true}) {
    for (std::size_t off : kOffsets) {
      for (std::size_t len : kLengths) {
        const auto buf = RandomSamples(rng, off + len + 8, specials);
        const cfloat* x = buf.data() + off;
        std::vector<float> a(len), b(len);
        ref.power_plane(x, len, a.data());
        vec.power_plane(x, len, b.data());
        ASSERT_TRUE(BitEqual(a, b, "power_plane"))
            << "tier=" << TierName(tier()) << " len=" << len << " off=" << off;
      }
    }
  }
}

TEST_P(DspSimdTierSweep, HealthScanCountsExact) {
  const Kernels& ref = Table(Tier::kScalar);
  const Kernels& vec = Table(tier());
  std::mt19937 rng(707);
  const float rails[] = {0.98f * 64.0f, 1.0f,
                         std::numeric_limits<float>::infinity()};
  for (float rail : rails) {
    for (std::size_t off : kOffsets) {
      for (std::size_t len : kLengths) {
        const auto buf = RandomSamples(rng, off + len + 8, true);
        const cfloat* x = buf.data() + off;
        std::uint64_t nf_a = 0, sat_a = 0, nf_b = 0, sat_b = 0;
        ref.health_scan(x, len, rail, &nf_a, &sat_a);
        vec.health_scan(x, len, rail, &nf_b, &sat_b);
        ASSERT_EQ(nf_a, nf_b) << "tier=" << TierName(tier()) << " len=" << len;
        ASSERT_EQ(sat_a, sat_b)
            << "tier=" << TierName(tier()) << " len=" << len << " rail=" << rail;
      }
    }
  }
}

TEST_P(DspSimdTierSweep, ConjMulSumBitExact) {
  const Kernels& ref = Table(Tier::kScalar);
  const Kernels& vec = Table(tier());
  std::mt19937 rng(808);
  for (std::size_t off : kOffsets) {
    for (std::size_t len : kLengths) {
      const auto buf = RandomSamples(rng, off + len + 8, false);
      const cfloat* x = buf.data() + off;
      const cfloat a = ref.conj_mul_sum(x, len);
      const cfloat b = vec.conj_mul_sum(x, len);
      ASSERT_EQ(std::bit_cast<std::uint64_t>(a),
                std::bit_cast<std::uint64_t>(b))
          << "tier=" << TierName(tier()) << " len=" << len << " off=" << off;
    }
  }
}

TEST_P(DspSimdTierSweep, SliceBytesBitExact) {
  const Kernels& vec = Table(tier());
  std::mt19937 rng(808);
  std::uniform_real_distribution<float> amp(-1.0f, 1.0f);
  for (bool specials : {false, true}) {
    for (std::size_t off : kOffsets) {
      for (std::size_t n_sym : {0u, 1u, 2u, 3u, 7u, 33u}) {
        std::vector<float> f(off + 8 * n_sym + 2);
        for (auto& v : f) v = amp(rng);
        if (specials) {
          for (std::size_t i = 0; i < f.size(); i += 5) {
            f[i] = i % 3 == 0 ? std::numeric_limits<float>::quiet_NaN()
                   : i % 3 == 1 ? -0.0f
                                : std::numeric_limits<float>::infinity();
          }
        }
        const float* base = f.data() + off + 1;
        std::vector<std::uint8_t> got(n_sym, 0xA5);
        vec.slice_bytes(base, n_sym, got.data());
        for (std::size_t m = 0; m < n_sym; ++m) {
          std::uint8_t expect = 0;
          for (std::size_t r = 0; r < 8; ++r) {
            const float* c = base + 8 * m + r;
            if (c[-1] + c[0] + c[1] > 0.0f) expect |= 1u << r;
          }
          ASSERT_EQ(got[m], expect)
              << "tier=" << TierName(tier()) << " m=" << m << " off=" << off
              << " specials=" << specials;
        }
      }
    }
  }
}

// --- polyphase_resample ------------------------------------------------------

/// The historical RationalResampler (per-sample window shift, one output at a
/// time, k ascending), kept verbatim as the bit-level reference every tier of
/// polyphase_resample and the kernel-backed RationalResampler must match.
class SeedResampler {
 public:
  SeedResampler(std::size_t interp, std::size_t decim,
                std::size_t taps_per_phase = 12)
      : interp_(interp), decim_(decim), taps_per_phase_(taps_per_phase) {
    const double composite_rate = static_cast<double>(interp);
    const double cutoff =
        0.5 / static_cast<double>(std::max(interp, decim)) * composite_rate;
    auto proto = DesignLowPass(cutoff, composite_rate,
                               interp * taps_per_phase,
                               WindowType::kBlackmanHarris);
    for (auto& t : proto) t *= static_cast<float>(interp);
    phases_.assign(interp, std::vector<float>(taps_per_phase, 0.0f));
    for (std::size_t i = 0; i < proto.size(); ++i) {
      phases_[i % interp][i / interp] = proto[i];
    }
    window_.assign(taps_per_phase_, cfloat{0.0f, 0.0f});
  }

  void Process(std::span<const cfloat> input, std::vector<cfloat>& out) {
    for (const cfloat x : input) {
      std::move(window_.begin() + 1, window_.end(), window_.begin());
      window_.back() = x;
      while (phase_acc_ < interp_) {
        const auto& taps = phases_[phase_acc_];
        cfloat acc{0.0f, 0.0f};
        for (std::size_t k = 0; k < taps_per_phase_; ++k) {
          acc += taps[k] * window_[taps_per_phase_ - 1 - k];
        }
        out.push_back(acc);
        phase_acc_ += decim_;
      }
      phase_acc_ -= interp_;
    }
  }

  /// Phase-major copy of the taps, the layout the kernel takes.
  std::vector<float> FlatTaps() const {
    std::vector<float> flat;
    for (const auto& phase : phases_) {
      flat.insert(flat.end(), phase.begin(), phase.end());
    }
    return flat;
  }

 private:
  std::size_t interp_, decim_, taps_per_phase_;
  std::vector<std::vector<float>> phases_;
  std::vector<cfloat> window_;
  std::size_t phase_acc_ = 0;
};

struct Ratio {
  std::size_t interp, decim;
};
// The 802.11 demodulator's 11/8, the modulator's 8/11, and 3/2.
constexpr Ratio kRatios[] = {{11, 8}, {8, 11}, {3, 2}};

std::size_t PolyphaseOutputs(std::size_t n_in, std::size_t phase0,
                             std::size_t interp, std::size_t decim) {
  const std::size_t span = n_in * interp;
  return span > phase0 ? (span - phase0 + decim - 1) / decim : 0;
}

TEST_P(DspSimdTierSweep, PolyphaseResampleMatchesSeedLoop) {
  const Kernels& vec = Table(tier());
  std::mt19937 rng(909);
  std::uniform_int_distribution<std::size_t> len_dist(0, 700);
  for (const Ratio ratio : kRatios) {
    constexpr std::size_t kTaps = 12;
    const std::vector<float> taps =
        SeedResampler(ratio.interp, ratio.decim, kTaps).FlatTaps();
    for (bool specials : {false, true}) {
      for (std::size_t off : kOffsets) {
        for (int trial = 0; trial < 12; ++trial) {
          const std::size_t len = trial < 4 ? static_cast<std::size_t>(trial)
                                            : len_dist(rng);
          const auto input = RandomSamples(rng, len, specials);
          std::vector<cfloat> expect;
          SeedResampler(ratio.interp, ratio.decim, kTaps)
              .Process(input, expect);
          // [zero history | input] at a misaligned base address.
          std::vector<cfloat> buf(off + kTaps - 1 + len);
          std::copy(input.begin(), input.end(), buf.begin() + off + kTaps - 1);
          const std::size_t n_work = kTaps - 1 + len;
          const std::size_t n_out =
              PolyphaseOutputs(len, 0, ratio.interp, ratio.decim);
          std::vector<cfloat> planes(PolyphasePlanesSize(n_work, ratio.decim));
          std::vector<cfloat> got(n_out);
          vec.polyphase_resample(buf.data() + off, n_work, n_out, 0,
                                 ratio.interp, ratio.decim, taps.data(), kTaps,
                                 planes.data(), got.data());
          ASSERT_TRUE(BitEqual(got, expect, "polyphase_resample"))
              << "tier=" << TierName(tier()) << " " << ratio.interp << "/"
              << ratio.decim << " len=" << len << " off=" << off
              << " specials=" << specials;
        }
      }
    }
  }
}

TEST_P(DspSimdTierSweep, PolyphaseResampleAnyStartPhase) {
  const Kernels& ref = Table(Tier::kScalar);
  const Kernels& vec = Table(tier());
  std::mt19937 rng(910);
  for (const Ratio ratio : kRatios) {
    const std::vector<float> taps =
        SeedResampler(ratio.interp, ratio.decim, 7).FlatTaps();
    for (std::size_t phase0 = 0; phase0 < ratio.interp + ratio.decim;
         ++phase0) {
      for (std::size_t len : kLengths) {
        const auto work = RandomSamples(rng, 6 + len, true);
        const std::size_t n_out =
            PolyphaseOutputs(len, phase0, ratio.interp, ratio.decim);
        std::vector<cfloat> planes(
            PolyphasePlanesSize(work.size(), ratio.decim));
        std::vector<cfloat> a(n_out), b(n_out);
        ref.polyphase_resample(work.data(), work.size(), n_out, phase0,
                               ratio.interp, ratio.decim, taps.data(), 7,
                               planes.data(), a.data());
        vec.polyphase_resample(work.data(), work.size(), n_out, phase0,
                               ratio.interp, ratio.decim, taps.data(), 7,
                               planes.data(), b.data());
        ASSERT_TRUE(BitEqual(a, b, "polyphase_resample"))
            << "tier=" << TierName(tier()) << " " << ratio.interp << "/"
            << ratio.decim << " phase0=" << phase0 << " len=" << len;
      }
    }
  }
}

TEST_P(DspSimdTierSweep, ResamplerChunkedStreamMatchesSeedLoop) {
  ForceTier(tier());
  std::mt19937 rng(911);
  std::uniform_int_distribution<std::size_t> chunk_dist(0, 2500);
  for (const Ratio ratio : kRatios) {
    for (bool specials : {false, true}) {
      const auto input = RandomSamples(rng, 40000, specials);
      std::vector<cfloat> expect;
      SeedResampler(ratio.interp, ratio.decim).Process(input, expect);
      RationalResampler rs(ratio.interp, ratio.decim);
      std::vector<cfloat> got;
      for (std::size_t pos = 0; pos < input.size();) {
        const std::size_t n = std::min(chunk_dist(rng), input.size() - pos);
        rs.Process(std::span<const cfloat>(input).subspan(pos, n), got);
        pos += n;
      }
      EXPECT_TRUE(BitEqual(got, expect, "RationalResampler"))
          << "tier=" << TierName(tier()) << " " << ratio.interp << "/"
          << ratio.decim << " specials=" << specials;
      // One call longer than the resampler's internal piece size.
      EXPECT_TRUE(BitEqual(
          RationalResampler(ratio.interp, ratio.decim).Resampled(input),
          expect, "RationalResampler one-shot"))
          << "tier=" << TierName(tier()) << " " << ratio.interp << "/"
          << ratio.decim << " specials=" << specials;
    }
  }
  ClearForcedTier();
}

// --- symbol_correlate -------------------------------------------------------

/// ZigBee's historical per-position SymbolCorrelation (phyzigbee, before the
/// kernel), kept verbatim as the reference; the raw sums are returned along
/// with the normalised value the decoder thresholds.
struct SeedCorrelation {
  cfloat acc;
  double ex;
  float normalized;
};

SeedCorrelation SeedSymbolCorrelation(const cfloat* x, std::size_t at, int s) {
  const auto ref = phyzigbee::SymbolReference(s);
  cfloat acc{0.0f, 0.0f};
  double ex = 0.0, er = 0.0;
  for (std::size_t n = 0; n < phyzigbee::kSamplesPerSymbol; ++n) {
    acc += x[at + n] * std::conj(ref[n]);
    ex += std::norm(x[at + n]);
    er += std::norm(ref[n]);
  }
  const double denom = std::sqrt(std::max(ex * er, 1e-30));
  return {acc, ex, static_cast<float>(std::abs(acc) / denom)};
}

/// The decoder's normalisation of kernel output with the reference energy
/// summed once in the seed order.
float NormalizedFromKernel(cfloat acc, double energy, int s) {
  double er = 0.0;
  for (const cfloat r : phyzigbee::SymbolReference(s)) er += std::norm(r);
  const double denom = std::sqrt(std::max(energy * er, 1e-30));
  return static_cast<float>(std::abs(acc) / denom);
}

/// Span samples for the correlation sweep. Mode 0: plain noise. Mode 1:
/// finite specials (ADC rail, signed zeros, a frame-level amplitude that
/// overflows the float norm). Mode 2: sparse NaN / +-Inf among them.
std::vector<cfloat> CorrelationSamples(std::mt19937& rng, std::size_t n,
                                       int mode) {
  std::uniform_real_distribution<float> amp(-2.0f, 2.0f);
  std::uniform_int_distribution<int> pick(0, 299);
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  std::vector<cfloat> x(n);
  for (auto& v : x) {
    v = cfloat(amp(rng), amp(rng));
    if (mode == 0) continue;
    switch (pick(rng)) {
      case 0: v = cfloat(64.0f, -64.0f); break;
      case 1: v = cfloat(-0.0f, 0.0f); break;
      case 2: v = cfloat(0.0f, -0.0f); break;
      case 3: v = cfloat(3e19f, -3e19f); break;
      case 4: if (mode == 2) v = cfloat(nan, amp(rng)); break;
      case 5: if (mode == 2) v = cfloat(amp(rng), -inf); break;
      case 6: if (mode == 2) v = cfloat(inf, inf); break;
      default: break;
    }
  }
  return x;
}

TEST_P(DspSimdTierSweep, SymbolCorrelateMatchesSeedLoop) {
  const Kernels& ref_tier = Table(Tier::kScalar);
  const Kernels& vec = Table(tier());
  constexpr std::size_t kRef = phyzigbee::kSamplesPerSymbol;
  constexpr float kThreshold = 0.65f;  // the decoder's preamble threshold
  std::mt19937 rng(1515);
  std::uniform_int_distribution<std::size_t> len_dist(0, 400);
  std::size_t finite_checked = 0, special_checked = 0;
  for (int mode = 0; mode < 3; ++mode) {
    for (int s = 0; s < 16; ++s) {
      const auto ref = phyzigbee::SymbolReference(s);
      for (std::size_t off : kOffsets) {
        for (int trial = 0; trial < 4; ++trial) {
          // Short tails for both tiers' passes, then random lengths.
          const std::size_t n_pos =
              trial == 0 ? kLengths[(static_cast<std::size_t>(s) + off) %
                                    std::size(kLengths)]
                         : len_dist(rng);
          const auto buf = CorrelationSamples(rng, off + n_pos + kRef, mode);
          const cfloat* x = buf.data() + off;
          std::vector<float> planes(SymbolCorrelatePlanesSize(n_pos, kRef));
          std::vector<cfloat> acc(n_pos), acc_ref(n_pos);
          std::vector<double> energy(n_pos), energy_ref(n_pos);
          vec.symbol_correlate(x, n_pos, ref.data(), kRef, planes.data(),
                               acc.data(), energy.data());
          ref_tier.symbol_correlate(x, n_pos, ref.data(), kRef, planes.data(),
                                    acc_ref.data(), energy_ref.data());
          // Every tier matches the scalar tier on every input.
          ASSERT_TRUE(BitEqual(acc, acc_ref, "symbol_correlate acc"))
              << "tier=" << TierName(tier()) << " mode=" << mode << " s=" << s
              << " off=" << off << " n_pos=" << n_pos;
          ASSERT_TRUE(std::equal(
              energy.begin(), energy.end(), energy_ref.begin(),
              [](double a, double b) {
                return std::bit_cast<std::uint64_t>(a) ==
                       std::bit_cast<std::uint64_t>(b);
              }))
              << "tier=" << TierName(tier()) << " mode=" << mode << " s=" << s
              << " off=" << off << " n_pos=" << n_pos;
          for (std::size_t i = 0; i < n_pos; ++i) {
            const auto where = [&] {
              return ::testing::Message()
                     << "tier=" << TierName(tier()) << " mode=" << mode
                     << " s=" << s << " off=" << off << " n_pos=" << n_pos
                     << " i=" << i;
            };
            const SeedCorrelation seed = SeedSymbolCorrelation(x, i, s);
            const bool finite = std::all_of(x + i, x + i + kRef, [](cfloat v) {
              return std::isfinite(v.real()) && std::isfinite(v.imag());
            });
            const float got = NormalizedFromKernel(acc[i], energy[i], s);
            if (finite) {
              // Finite windows: the seed loop's exact bits.
              ASSERT_EQ(std::bit_cast<std::uint64_t>(acc[i]),
                        std::bit_cast<std::uint64_t>(seed.acc))
                  << where();
              ASSERT_EQ(std::bit_cast<std::uint64_t>(energy[i]),
                        std::bit_cast<std::uint64_t>(seed.ex))
                  << where();
              ASSERT_EQ(std::bit_cast<std::uint32_t>(got),
                        std::bit_cast<std::uint32_t>(seed.normalized))
                  << where();
              ++finite_checked;
            } else {
              // NaN/Inf windows: std::complex's Inf recovery may change the
              // raw sums, never the threshold decision.
              ASSERT_EQ(got < kThreshold, seed.normalized < kThreshold)
                  << where() << " got=" << got << " seed=" << seed.normalized;
              ++special_checked;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(finite_checked, 10000u);
  EXPECT_GT(special_checked, 1000u);
}

INSTANTIATE_TEST_SUITE_P(AllTiers, DspSimdTierSweep,
                         ::testing::Values(0, 1, 2),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return TierName(static_cast<Tier>(info.param));
                         });

// --- dispatch override ------------------------------------------------------

TEST(DspSimdDispatch, ForceTierSelectsEachSupportedTier) {
  const Tier before = ActiveTier();
  for (Tier t : SupportedTiers()) {
    ForceTier(t);
    EXPECT_EQ(ActiveTier(), t) << TierName(t);
    EXPECT_EQ(Active().tier, t) << TierName(t);
    EXPECT_EQ(&Active(), &Table(t)) << TierName(t);
  }
  ClearForcedTier();
  EXPECT_EQ(ActiveTier(), before);
}

TEST(DspSimdDispatch, UnsupportedTierThrows) {
  for (int t = 0; t < kTierCount; ++t) {
    const Tier tier = static_cast<Tier>(t);
    if (TierSupported(tier)) continue;
    EXPECT_THROW(ForceTier(tier), std::runtime_error) << TierName(tier);
    EXPECT_THROW((void)Table(tier), std::runtime_error) << TierName(tier);
  }
  // Scalar is supported everywhere by contract.
  EXPECT_TRUE(TierSupported(Tier::kScalar));
  EXPECT_NO_THROW((void)Table(Tier::kScalar));
}

TEST(DspSimdDispatch, TierNamesRoundTrip) {
  for (int t = 0; t < kTierCount; ++t) {
    const Tier tier = static_cast<Tier>(t);
    Tier parsed;
    ASSERT_TRUE(ParseTier(TierName(tier), parsed));
    EXPECT_EQ(parsed, tier);
  }
  Tier out;
  EXPECT_FALSE(ParseTier("neon", out));
  EXPECT_FALSE(ParseTier("", out));
  EXPECT_FALSE(ParseTier(nullptr, out));
}

// --- canonical atan2 --------------------------------------------------------

TEST(DspSimdAtan2, CloseToLibmEverywhere) {
  std::mt19937 rng(909);
  std::uniform_real_distribution<float> d(-4.0f, 4.0f);
  float worst = 0.0f;
  for (int i = 0; i < 200000; ++i) {
    const float y = d(rng), x = d(rng);
    const float got = CanonicalAtan2(y, x);
    const float want = std::atan2(y, x);
    worst = std::max(worst, std::abs(got - want));
  }
  // ~2 ulp of pi; the contract is determinism, not libm equality, but the
  // approximation must stay tight enough that decode decisions agree.
  EXPECT_LT(worst, 1e-5f);
}

TEST(DspSimdAtan2, EdgeCases) {
  EXPECT_EQ(CanonicalAtan2(0.0f, 1.0f), 0.0f);
  EXPECT_TRUE(std::signbit(CanonicalAtan2(-0.0f, 1.0f)));
  EXPECT_NEAR(CanonicalAtan2(0.0f, -1.0f), 3.14159265f, 1e-6f);
  EXPECT_NEAR(CanonicalAtan2(-0.0f, -1.0f), -3.14159265f, 1e-6f);
  EXPECT_NEAR(CanonicalAtan2(1.0f, 0.0f), 1.57079633f, 1e-6f);
  EXPECT_NEAR(CanonicalAtan2(-1.0f, 0.0f), -1.57079633f, 1e-6f);
  // Both zero: magnitude defined as 0 with y's sign (documented deviation
  // from libm for x = -0).
  EXPECT_EQ(CanonicalAtan2(0.0f, 0.0f), 0.0f);
  EXPECT_TRUE(std::isnan(CanonicalAtan2(std::nanf(""), 1.0f)));
}

}  // namespace
}  // namespace rfdump::dsp::simd
