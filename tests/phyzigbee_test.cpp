// ZigBee (802.15.4) PHY tests: chip table properties, O-QPSK modulation
// structure, frame loopback, and detector-relevant timing constants.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <thread>

#include "rfdump/channel/channel.hpp"
#include "rfdump/core/fuzz_io.hpp"
#include "rfdump/dsp/db.hpp"
#include "rfdump/dsp/energy.hpp"
#include "rfdump/dsp/simd.hpp"
#include "rfdump/phyzigbee/phy.hpp"
#include "rfdump/util/crc.hpp"
#include "rfdump/util/rng.hpp"

namespace zb = rfdump::phyzigbee;
namespace dsp = rfdump::dsp;
using rfdump::util::Xoshiro256;

namespace {

std::vector<std::uint8_t> MakePsdu(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<std::uint8_t> psdu(n);
  for (std::size_t i = 0; i + 2 < n; ++i) {
    psdu[i] = static_cast<std::uint8_t>(rng.UniformInt(0, 255));
  }
  const std::uint16_t fcs = rfdump::util::Crc16CcittBits(
      rfdump::util::BytesToBitsLsbFirst(
          std::span<const std::uint8_t>(psdu).first(n - 2)),
      0x0000);
  psdu[n - 2] = static_cast<std::uint8_t>(fcs & 0xFF);
  psdu[n - 1] = static_cast<std::uint8_t>(fcs >> 8);
  return psdu;
}

TEST(ZigbeeChips, SixteenSequencesQuasiOrthogonal) {
  const auto& table = zb::ChipTable();
  // Every pair of distinct sequences differs in many chip positions.
  for (std::size_t a = 0; a < 16; ++a) {
    for (std::size_t b = a + 1; b < 16; ++b) {
      const int dist = std::popcount(table[a] ^ table[b]);
      EXPECT_GE(dist, 10) << a << " vs " << b;
    }
  }
}

TEST(ZigbeeChips, CyclicShiftStructure) {
  // Sequences 1..7 are 4-chip right-rotations of sequence 0 (the standard
  // inserts the shift at the front of the chip stream, LSB-first).
  const auto& table = zb::ChipTable();
  const auto rotr32 = [](std::uint32_t v, int k) {
    return (v >> k) | (v << (32 - k));
  };
  for (int s = 1; s < 8; ++s) {
    EXPECT_EQ(table[static_cast<std::size_t>(s)], rotr32(table[0], 4 * s))
        << "symbol " << s;
  }
}

TEST(ZigbeeChips, BytesToChipsExpansion) {
  const std::vector<std::uint8_t> bytes = {0xA7};
  const auto chips = zb::BytesToChips(bytes);
  ASSERT_EQ(chips.size(), 64u);  // 2 symbols x 32 chips
  // Low nibble (7) first.
  for (int k = 0; k < 32; ++k) {
    EXPECT_EQ(chips[static_cast<std::size_t>(k)],
              (zb::ChipTable()[7] >> k) & 1u);
  }
}

TEST(ZigbeeMod, FrameAirtimeAndLength) {
  const auto psdu = MakePsdu(20, 1);
  const auto wave = zb::ModulateFrame(psdu);
  // (6 + 20) bytes * 2 symbols * 128 samples, plus a small O-QPSK tail.
  const std::size_t expected = 26 * 2 * 128;
  EXPECT_GE(wave.size(), expected);
  EXPECT_LE(wave.size(), expected + 64);
  EXPECT_DOUBLE_EQ(zb::FrameAirtimeUs(20), 26.0 * 32.0);
}

TEST(ZigbeeMod, PowerIsBounded) {
  const auto wave = zb::ModulateFrame(MakePsdu(30, 2));
  // O-QPSK half-sine: |I|,|Q| <= 0.7071, total power near constant mid-frame.
  for (const auto& s : wave) {
    EXPECT_LE(std::abs(s.real()), 0.72f);
    EXPECT_LE(std::abs(s.imag()), 0.72f);
  }
  const double mid_power = dsp::MeanPower(
      dsp::const_sample_span(wave).subspan(512, wave.size() - 1024));
  EXPECT_NEAR(mid_power, 0.5, 0.1);
}

TEST(ZigbeeLoopback, CleanDecode) {
  const auto psdu = MakePsdu(24, 3);
  const auto wave = zb::ModulateFrame(psdu);
  const auto frame = zb::DecodeFrame(wave);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->psdu, psdu);
  EXPECT_TRUE(frame->crc_ok);
}

TEST(ZigbeeLoopback, NoisyDecode) {
  const auto psdu = MakePsdu(40, 4);
  auto wave = zb::ModulateFrame(psdu);
  Xoshiro256 rng(5);
  rfdump::channel::ScaleToPower(wave, rfdump::dsp::DbToPower(12.0));
  rfdump::channel::AddAwgn(wave, 1.0, rng);
  const auto frame = zb::DecodeFrame(wave);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->psdu, psdu);
  EXPECT_TRUE(frame->crc_ok);
}

TEST(ZigbeeLoopback, OffsetStartFound) {
  const auto psdu = MakePsdu(16, 6);
  const auto wave = zb::ModulateFrame(psdu);
  dsp::SampleVec stream(3000, dsp::cfloat{0.0f, 0.0f});
  stream.insert(stream.end(), wave.begin(), wave.end());
  stream.insert(stream.end(), 1000, dsp::cfloat{0.0f, 0.0f});
  Xoshiro256 rng(7);
  rfdump::channel::AddAwgn(stream, 1e-4, rng);
  const auto frame = zb::DecodeFrame(stream);
  ASSERT_TRUE(frame.has_value());
  EXPECT_NEAR(static_cast<double>(frame->start_sample), 3000.0, 64.0);
  EXPECT_EQ(frame->psdu, psdu);
}

TEST(ZigbeeLoopback, NoiseOnlyNothing) {
  dsp::SampleVec noise(30000);
  Xoshiro256 rng(8);
  rfdump::channel::AddAwgn(noise, 1.0, rng);
  EXPECT_FALSE(zb::DecodeFrame(noise).has_value());
}

TEST(ZigbeeLoopback, NanBurstInSfdRejected) {
  // A NaN correlation must fail the SFD check like any other sub-threshold
  // one: the frame whose SFD is poisoned is not decoded from its clean
  // preamble and PHR, and all-NaN / all-Inf spans hold no frame.
  const auto psdu = MakePsdu(24, 3);
  auto wave = zb::ModulateFrame(psdu);
  ASSERT_TRUE(zb::DecodeFrame(wave).has_value());
  const std::size_t sfd_at = 8 * zb::kSamplesPerSymbol;
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (std::size_t i = sfd_at + 10; i < sfd_at + 20; ++i) {
    wave[i] = dsp::cfloat{nan, nan};
  }
  EXPECT_FALSE(zb::DecodeFrame(wave).has_value());
  for (const float v : {nan, std::numeric_limits<float>::infinity()}) {
    const dsp::SampleVec x(30000, dsp::cfloat{v, v});
    EXPECT_FALSE(zb::DecodeFrame(x).has_value()) << "all " << v;
  }
}

TEST(ZigbeeLoopback, CorruptedCrcFlagged) {
  auto psdu = MakePsdu(20, 9);
  psdu[5] ^= 0x10;  // corrupt after FCS computed
  const auto wave = zb::ModulateFrame(psdu);
  const auto frame = zb::DecodeFrame(wave);
  ASSERT_TRUE(frame.has_value());
  EXPECT_FALSE(frame->crc_ok);
}

// --- the seed decoder --------------------------------------------------------
// The decoder as it was before the symbol_correlate kernel: a scalar
// 128-sample correlation (re-summing the reference energy) at every search
// position. Kept as the reference the kernel-backed DecodeFrame must
// reproduce exactly; only the reference table lookup goes through the public
// SymbolReference(), and the SFD tests reject a NaN correlation like the
// preamble confirmation does.

constexpr std::size_t kSeedSamplesPerSymbol = 128;

float SeedSymbolCorrelation(dsp::const_sample_span x, std::size_t at, int s,
                            dsp::cfloat* rotation_out = nullptr) {
  const auto ref = zb::SymbolReference(s);
  dsp::cfloat acc{0.0f, 0.0f};
  double ex = 0.0, er = 0.0;
  for (std::size_t n = 0; n < kSeedSamplesPerSymbol; ++n) {
    acc += x[at + n] * std::conj(ref[n]);
    ex += std::norm(x[at + n]);
    er += std::norm(ref[n]);
  }
  if (rotation_out) *rotation_out = acc;
  const double denom = std::sqrt(std::max(ex * er, 1e-30));
  return static_cast<float>(std::abs(acc) / denom);
}

std::uint16_t SeedFcs(std::span<const std::uint8_t> bytes) {
  return rfdump::util::Crc16CcittBits(
      rfdump::util::BytesToBitsLsbFirst(bytes), 0x0000);
}

std::optional<zb::DecodedZbFrame> SeedDecodeFrame(dsp::const_sample_span x) {
  constexpr std::size_t kSamplesPerSymbol = kSeedSamplesPerSymbol;
  // Preamble search: 8 consecutive symbol-0 correlations above threshold.
  constexpr float kThreshold = 0.65f;
  if (x.size() < 10 * kSamplesPerSymbol) return std::nullopt;
  const std::size_t limit = x.size() - 10 * kSamplesPerSymbol;
  for (std::size_t at = 0; at <= limit; ++at) {
    if (SeedSymbolCorrelation(x, at, 0) < kThreshold) continue;
    // Require the next 7 preamble symbols too.
    bool preamble = true;
    for (int m = 1; m < 8 && preamble; ++m) {
      preamble = SeedSymbolCorrelation(x, at + m * kSamplesPerSymbol, 0) >=
                 kThreshold;
    }
    if (!preamble) continue;
    // SFD (0xA7): nibbles 7 then A.
    const std::size_t sfd_at = at + 8 * kSamplesPerSymbol;
    if (sfd_at + 2 * kSamplesPerSymbol > x.size()) return std::nullopt;
    if (!(SeedSymbolCorrelation(x, sfd_at, 0x7) >= kThreshold)) continue;
    if (!(SeedSymbolCorrelation(x, sfd_at + kSamplesPerSymbol, 0xA) >=
          kThreshold)) {
      continue;
    }
    // Decode PHR + PSDU by per-symbol argmax correlation.
    auto decode_symbol = [&](std::size_t pos) -> int {
      if (pos + kSamplesPerSymbol > x.size()) return -1;
      int best = 0;
      float best_corr = -1.0f;
      for (int s = 0; s < 16; ++s) {
        const float c = SeedSymbolCorrelation(x, pos, s);
        if (c > best_corr) {
          best_corr = c;
          best = s;
        }
      }
      return best;
    };
    std::size_t pos = sfd_at + 2 * kSamplesPerSymbol;
    const int phr_lo = decode_symbol(pos);
    const int phr_hi = decode_symbol(pos + kSamplesPerSymbol);
    if (phr_lo < 0 || phr_hi < 0) return std::nullopt;
    const std::size_t length =
        (static_cast<std::size_t>(phr_hi) << 4 |
         static_cast<std::size_t>(phr_lo)) & 0x7F;
    pos += 2 * kSamplesPerSymbol;
    zb::DecodedZbFrame frame;
    frame.start_sample = static_cast<std::int64_t>(at);
    frame.psdu.reserve(length);
    for (std::size_t b = 0; b < length; ++b) {
      const int lo = decode_symbol(pos);
      const int hi = decode_symbol(pos + kSamplesPerSymbol);
      if (lo < 0 || hi < 0) break;
      frame.psdu.push_back(static_cast<std::uint8_t>((hi << 4) | lo));
      pos += 2 * kSamplesPerSymbol;
    }
    frame.end_sample = static_cast<std::int64_t>(pos);
    if (frame.psdu.size() == length && length >= 2) {
      const std::uint16_t fcs = SeedFcs(
          std::span<const std::uint8_t>(frame.psdu).first(length - 2));
      const std::uint16_t rx = static_cast<std::uint16_t>(
          frame.psdu[length - 2] | (frame.psdu[length - 1] << 8));
      frame.crc_ok = (fcs == rx);
    }
    return frame;
  }
  return std::nullopt;
}

::testing::AssertionResult SameDecode(
    const std::optional<zb::DecodedZbFrame>& got,
    const std::optional<zb::DecodedZbFrame>& want) {
  if (got.has_value() != want.has_value()) {
    return ::testing::AssertionFailure()
           << "frame " << (got ? "found" : "missing") << ", seed "
           << (want ? "found" : "missing");
  }
  if (!got) return ::testing::AssertionSuccess();
  if (got->start_sample != want->start_sample ||
      got->end_sample != want->end_sample || got->crc_ok != want->crc_ok ||
      got->psdu != want->psdu) {
    return ::testing::AssertionFailure()
           << "start " << got->start_sample << " vs " << want->start_sample
           << ", end " << got->end_sample << " vs " << want->end_sample
           << ", crc " << got->crc_ok << " vs " << want->crc_ok << ", "
           << got->psdu.size() << " vs " << want->psdu.size() << " bytes";
  }
  return ::testing::AssertionSuccess();
}

/// The 802.15.4 fuzz corpus, each input turned into samples the way the
/// bundle's fuzz target does (first byte reserved).
std::vector<dsp::SampleVec> CorpusSpans() {
  namespace fs = std::filesystem;
  std::vector<fs::path> files;
  for (const auto& e : fs::directory_iterator(
           fs::path(RFDUMP_SOURCE_DIR) / "tests" / "corpus" / "phyzigbee")) {
    files.push_back(e.path());
  }
  std::sort(files.begin(), files.end());
  std::vector<dsp::SampleVec> spans;
  for (const auto& path : files) {
    std::ifstream in(path, std::ios::binary);
    const std::vector<std::uint8_t> data(
        (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    if (data.empty()) continue;
    spans.push_back(rfdump::core::FuzzBytesToSamples(
        std::span<const std::uint8_t>(data).subspan(1)));
  }
  return spans;
}

TEST(ZigbeeLoopback, DecodeMatchesSeedDecoder) {
  namespace simd = rfdump::dsp::simd;
  // Inputs: frames over an SNR sweep at random offsets inside noise, the
  // same spans truncated, noise alone, and the checked-in fuzz corpus.
  std::vector<dsp::SampleVec> spans;
  Xoshiro256 rng(1313);
  for (double snr_db : {-6.0, -3.0, 0.0, 3.0, 6.0, 12.0, 30.0}) {
    for (int k = 0; k < 3; ++k) {
      const auto psdu = MakePsdu(4 + rng.UniformInt(0, 36), rng());
      auto wave = zb::ModulateFrame(psdu);
      rfdump::channel::ScaleToPower(wave, dsp::DbToPower(snr_db));
      dsp::SampleVec x(static_cast<std::size_t>(rng.UniformInt(0, 3000)),
                       dsp::cfloat{0.0f, 0.0f});
      x.insert(x.end(), wave.begin(), wave.end());
      x.resize(x.size() + static_cast<std::size_t>(rng.UniformInt(0, 1500)),
               dsp::cfloat{0.0f, 0.0f});
      rfdump::channel::AddAwgn(x, 1.0, rng);
      const std::size_t cut = rng.UniformInt(0, x.size());
      spans.push_back(dsp::SampleVec(x.begin(), x.begin() + cut));
      spans.push_back(std::move(x));
    }
  }
  for (std::size_t n : {0u, 1279u, 1280u, 1281u, 5000u, 20000u}) {
    dsp::SampleVec noise(n);
    rfdump::channel::AddAwgn(noise, 1.0, rng);
    spans.push_back(std::move(noise));
  }
  // Non-finite samples: whole spans of NaN / +Inf / -Inf, and clean frames
  // with a burst of NaN or Inf inside the preamble or inside the SFD. A NaN
  // correlation passes the first-symbol `< threshold` test but fails every
  // `>= threshold` confirmation (preamble and SFD); the new decoder must
  // keep both.
  const std::size_t first_non_finite = spans.size();
  for (float v : {std::numeric_limits<float>::quiet_NaN(),
                  std::numeric_limits<float>::infinity(),
                  -std::numeric_limits<float>::infinity()}) {
    spans.push_back(dsp::SampleVec(3000, dsp::cfloat{v, v}));
    spans.push_back(dsp::SampleVec(3000, dsp::cfloat{v, 0.0f}));
  }
  const std::size_t preamble_len = 8 * zb::kSamplesPerSymbol;
  for (float v : {std::numeric_limits<float>::quiet_NaN(),
                  std::numeric_limits<float>::infinity()}) {
    for (std::size_t burst_at :
         {std::size_t{0}, std::size_t{300}, std::size_t{700},
          preamble_len + 40, preamble_len + zb::kSamplesPerSymbol + 90}) {
      for (std::size_t burst_len : {std::size_t{1}, std::size_t{40}}) {
        auto wave = zb::ModulateFrame(MakePsdu(12, rng()));
        rfdump::channel::ScaleToPower(wave, dsp::DbToPower(20.0));
        const std::size_t off = 500;
        dsp::SampleVec x(off, dsp::cfloat{0.0f, 0.0f});
        x.insert(x.end(), wave.begin(), wave.end());
        x.resize(x.size() + 600, dsp::cfloat{0.0f, 0.0f});
        rfdump::channel::AddAwgn(x, 1.0, rng);
        std::fill_n(x.begin() + static_cast<std::ptrdiff_t>(off + burst_at),
                    burst_len, dsp::cfloat{v, v});
        spans.push_back(std::move(x));
      }
    }
  }
  const std::size_t end_non_finite = spans.size();

  const auto corpus = CorpusSpans();
  EXPECT_GE(corpus.size(), 100u);
  spans.insert(spans.end(), corpus.begin(), corpus.end());

  std::vector<std::optional<zb::DecodedZbFrame>> want;
  std::size_t frames = 0;
  for (const auto& x : spans) {
    want.push_back(SeedDecodeFrame(x));
    frames += want.back().has_value() ? 1 : 0;
  }
  EXPECT_GE(frames, 30u);  // the sweep is not all misses
  // Whole non-finite spans hold no frame; some bursts leave the frame
  // decodable.
  for (std::size_t i = first_non_finite; i < first_non_finite + 6; ++i) {
    EXPECT_FALSE(want[i].has_value()) << "span " << i;
  }
  std::size_t non_finite_frames = 0;
  for (std::size_t i = first_non_finite + 6; i < end_non_finite; ++i) {
    non_finite_frames += want[i].has_value() ? 1 : 0;
  }
  EXPECT_GT(non_finite_frames, 0u);

  for (int t = 0; t < simd::kTierCount; ++t) {
    const auto tier = static_cast<simd::Tier>(t);
    if (!simd::TierSupported(tier)) continue;
    simd::ForceTier(tier);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      EXPECT_TRUE(SameDecode(zb::DecodeFrame(spans[i]), want[i]))
          << "tier=" << simd::TierName(tier) << " span " << i << " ("
          << spans[i].size() << " samples)";
    }
  }
  simd::ClearForcedTier();
}

TEST(ZigbeeLoopback, ConcurrentDecodesMatchSerial) {
  // Workers first touch the lazily built symbol references together and
  // each search uses its own thread's scratch arenas (the TSan leg runs
  // this by name).
  std::vector<dsp::SampleVec> spans;
  std::vector<std::vector<std::uint8_t>> psdus;
  Xoshiro256 rng(21);
  for (int k = 0; k < 4; ++k) {
    psdus.push_back(MakePsdu(10 + 4 * static_cast<std::size_t>(k), 30 + k));
    auto x = zb::ModulateFrame(psdus.back());
    x.insert(x.begin(), 700 * static_cast<std::size_t>(k + 1),
             dsp::cfloat{0.0f, 0.0f});
    rfdump::channel::AddAwgn(x, 1e-3, rng);
    spans.push_back(std::move(x));
  }
  std::vector<std::optional<zb::DecodedZbFrame>> got(spans.size());
  {
    std::vector<std::thread> workers;
    for (std::size_t k = 0; k < spans.size(); ++k) {
      workers.emplace_back([&, k] { got[k] = zb::DecodeFrame(spans[k]); });
    }
    for (auto& w : workers) w.join();
  }
  for (std::size_t k = 0; k < spans.size(); ++k) {
    ASSERT_TRUE(got[k].has_value()) << k;
    EXPECT_EQ(got[k]->psdu, psdus[k]) << k;
    EXPECT_TRUE(SameDecode(got[k], zb::DecodeFrame(spans[k]))) << k;
  }
}

TEST(ZigbeeTiming, ConstantsMatchTable2) {
  EXPECT_DOUBLE_EQ(zb::kSlotUs, 320.0);
  EXPECT_DOUBLE_EQ(zb::kSifsUs, 192.0);
  EXPECT_DOUBLE_EQ(zb::kChipRateHz, 2e6);
  EXPECT_DOUBLE_EQ(zb::kSymbolRateHz, 62.5e3);
}

}  // namespace
