// Bluetooth PHY/baseband tests: sync word code properties, whitening, FEC,
// packet bit round trips, GFSK loopback and the full band demodulator.

#include <algorithm>
#include <bit>
#include <gtest/gtest.h>
#include <limits>
#include <stdexcept>
#include <thread>

#include "rfdump/channel/channel.hpp"
#include "rfdump/dsp/energy.hpp"
#include "rfdump/dsp/fir.hpp"
#include "rfdump/dsp/phase.hpp"
#include "rfdump/dsp/nco.hpp"
#include "rfdump/phybt/demodulator.hpp"
#include "rfdump/phybt/front_end.hpp"
#include "rfdump/phybt/gfsk.hpp"
#include "rfdump/phybt/hopping.hpp"
#include "rfdump/phybt/modulator.hpp"
#include "rfdump/phybt/packet.hpp"
#include "rfdump/util/rng.hpp"

namespace bt = rfdump::phybt;
namespace dsp = rfdump::dsp;
namespace util = rfdump::util;

namespace {

// ---------------------------------------------------------------- sync word

TEST(SyncWord, RoundTripsThroughVerify) {
  for (std::uint32_t lap : {0x000000u, 0x123456u, 0x9E8B33u, 0xFFFFFFu}) {
    const std::uint64_t w = bt::SyncWord(lap);
    const auto got = bt::VerifySyncWord(w);
    ASSERT_TRUE(got.has_value()) << std::hex << lap;
    EXPECT_EQ(*got, lap & 0xFFFFFF);
  }
}

TEST(SyncWord, DistinctLapsFarApart) {
  // The BCH(64,30) code has minimum distance 14.
  const std::uint64_t a = bt::SyncWord(0x123456);
  const std::uint64_t b = bt::SyncWord(0x123457);
  EXPECT_GE(std::popcount(a ^ b), 14);
}

TEST(SyncWord, SingleBitErrorRejectedExactMode) {
  const std::uint64_t w = bt::SyncWord(0xABCDEF);
  for (int bit = 0; bit < 64; bit += 7) {
    EXPECT_FALSE(bt::VerifySyncWord(w ^ (1ull << bit), 0).has_value());
  }
}

TEST(SyncWord, ErrorsToleratedWithSlack) {
  const std::uint64_t w = bt::SyncWord(0xABCDEF);
  // Two errors in the parity section must still verify with slack 2.
  const std::uint64_t corrupted = w ^ 0b101ull;
  const auto got = bt::VerifySyncWord(corrupted, 2);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, 0xABCDEFu);
}

TEST(SyncWord, RandomWordsRejected) {
  util::Xoshiro256 rng(3);
  int false_accepts = 0;
  for (int i = 0; i < 2000; ++i) {
    if (bt::VerifySyncWord(rng(), 0).has_value()) ++false_accepts;
  }
  // 34 parity bits: false accept probability ~6e-11 per word.
  EXPECT_EQ(false_accepts, 0);
}

// Copy of the historical bit-at-a-time parity, the table's reference.
std::uint64_t BitwiseBchParity(std::uint64_t info30) {
  constexpr std::uint64_t kGenerator = 0260534236651ull;
  std::uint64_t reg = info30 << 34;
  for (int bit = 63; bit >= 34; --bit) {
    if (reg & (1ull << bit)) reg ^= kGenerator << (bit - 34);
  }
  return reg;
}

TEST(SyncWord, TableBchParityMatchesBitwiseLoop) {
  for (int bit = 0; bit < 64; ++bit) {
    EXPECT_EQ(bt::BchParity(1ull << bit), BitwiseBchParity(1ull << bit))
        << "bit " << bit;
  }
  util::Xoshiro256 rng(31);
  for (int i = 0; i < 100000; ++i) {
    const std::uint64_t w = rng();
    ASSERT_EQ(bt::BchParity(w), BitwiseBchParity(w)) << std::hex << w;
    ASSERT_EQ(bt::BchParity(w & 0x3FFFFFFF), BitwiseBchParity(w & 0x3FFFFFFF))
        << std::hex << w;
  }
}

// ---------------------------------------------------------------- whitening

TEST(Whitening, PeriodAndBalance) {
  // x^7+x^4+1 is primitive: period 127, 64 ones per period.
  const auto seq = bt::WhiteningSequence(0x15, 254);
  int ones = 0;
  for (std::size_t i = 0; i < 127; ++i) {
    EXPECT_EQ(seq[i], seq[i + 127]) << i;
    ones += seq[i];
  }
  EXPECT_EQ(ones, 64);
}

TEST(Whitening, SeedsDiffer) {
  const auto a = bt::WhiteningSequence(0, 64);
  const auto b = bt::WhiteningSequence(1, 64);
  EXPECT_NE(a, b);
}

// ------------------------------------------------------------------ packets

TEST(BtPacket, AirBitCounts) {
  EXPECT_EQ(bt::PacketAirBits(bt::PacketType::kPoll, 0), 68u + 54u);
  EXPECT_EQ(bt::PacketAirBits(bt::PacketType::kDh1, 27),
            68u + 54u + (1u + 27u + 2u) * 8u);
  EXPECT_EQ(bt::PacketAirBits(bt::PacketType::kDh5, 339),
            68u + 54u + (2u + 339u + 2u) * 8u);
}

TEST(BtPacket, SlotsAndCapacity) {
  EXPECT_EQ(bt::SlotsFor(bt::PacketType::kDh1), 1u);
  EXPECT_EQ(bt::SlotsFor(bt::PacketType::kDh3), 3u);
  EXPECT_EQ(bt::SlotsFor(bt::PacketType::kDh5), 5u);
  EXPECT_EQ(bt::MaxPayloadBytes(bt::PacketType::kDh5), 339u);
  EXPECT_EQ(bt::MaxPayloadBytes(bt::PacketType::kPoll), 0u);
}

TEST(BtPacket, BitsRoundTrip) {
  bt::DeviceAddress addr{0x2A96EF, 0x47};
  bt::PacketHeader hdr;
  hdr.lt_addr = 3;
  hdr.type = bt::PacketType::kDh5;
  hdr.seqn = true;
  util::Xoshiro256 rng(5);
  std::vector<std::uint8_t> payload(300);
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng.UniformInt(0, 255));

  const auto bits = bt::BuildPacketBits(addr, hdr, payload, 0x2B);
  ASSERT_EQ(bits.size(), bt::PacketAirBits(bt::PacketType::kDh5, 300));
  // Strip the access code, parse the rest.
  const auto parsed = bt::ParsePacketBits(
      std::span<const std::uint8_t>(bits).subspan(68), addr.uap);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->header.lt_addr, 3);
  EXPECT_EQ(parsed->header.type, bt::PacketType::kDh5);
  EXPECT_TRUE(parsed->header.seqn);
  EXPECT_EQ(parsed->clk6, 0x2B);
  EXPECT_TRUE(parsed->crc_ok);
  EXPECT_EQ(parsed->payload, payload);
}

TEST(BtPacket, WrongUapFailsParse) {
  bt::DeviceAddress addr{0x2A96EF, 0x47};
  bt::PacketHeader hdr;
  std::vector<std::uint8_t> payload(20, 0xAB);
  const auto bits = bt::BuildPacketBits(addr, hdr, payload, 0x11);
  const auto parsed = bt::ParsePacketBits(
      std::span<const std::uint8_t>(bits).subspan(68), 0x48);
  // With the wrong UAP either nothing parses or the CRC fails.
  if (parsed.has_value()) {
    EXPECT_FALSE(parsed->crc_ok);
  }
}

TEST(BtPacket, HeaderOnlyPacket) {
  bt::DeviceAddress addr{0x11AA55, 0x30};
  bt::PacketHeader hdr;
  hdr.type = bt::PacketType::kPoll;
  const auto bits = bt::BuildPacketBits(addr, hdr, {}, 0);
  EXPECT_EQ(bits.size(), 68u + 54u);
  const auto parsed = bt::ParsePacketBits(
      std::span<const std::uint8_t>(bits).subspan(68), addr.uap);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->header.type, bt::PacketType::kPoll);
  EXPECT_TRUE(parsed->payload.empty());
}

// ------------------------------------------------------------------ hopping

TEST(Hopping, UniformishOver79) {
  std::array<int, 79> counts{};
  for (std::uint32_t clk = 0; clk < 79 * 100; ++clk) {
    const int ch = bt::HopChannel(0x2A96EF, clk);
    ASSERT_GE(ch, 0);
    ASSERT_LT(ch, 79);
    ++counts[static_cast<std::size_t>(ch)];
  }
  for (int c : counts) {
    EXPECT_GT(c, 50);
    EXPECT_LT(c, 200);
  }
}

TEST(Hopping, VisibleWindowMapping) {
  EXPECT_FALSE(bt::ChannelOffsetHz(0).has_value());
  EXPECT_FALSE(bt::ChannelOffsetHz(37).has_value());
  EXPECT_FALSE(bt::ChannelOffsetHz(46).has_value());
  ASSERT_TRUE(bt::ChannelOffsetHz(38).has_value());
  EXPECT_DOUBLE_EQ(*bt::ChannelOffsetHz(38), -3.5e6);
  EXPECT_DOUBLE_EQ(*bt::ChannelOffsetHz(45), 3.5e6);
  EXPECT_DOUBLE_EQ(bt::VisibleIndexOffsetHz(4), 0.5e6);
}

TEST(Hopping, VisibleFractionNearEightOver79) {
  int visible = 0;
  const int total = 7900;
  for (int clk = 0; clk < total; ++clk) {
    if (bt::ChannelOffsetHz(bt::HopChannel(0x9E8B33, clk))) ++visible;
  }
  const double frac = static_cast<double>(visible) / total;
  EXPECT_NEAR(frac, 8.0 / 79.0, 0.02);
}

// --------------------------------------------------------------------- GFSK

TEST(Gfsk, ConstantEnvelope) {
  util::BitVec bits(100);
  util::Xoshiro256 rng(6);
  for (auto& b : bits) b = static_cast<std::uint8_t>(rng.UniformInt(0, 1));
  const auto burst = bt::GfskModulate(bits);
  for (const auto& s : burst) {
    EXPECT_NEAR(std::abs(s), 1.0f, 1e-5f);
  }
}

TEST(Gfsk, ContinuousPhase) {
  // Second phase difference must be small everywhere (the paper's GFSK
  // detector relies on exactly this).
  util::BitVec bits(64, 1u);
  bits[10] = 0;
  bits[30] = 0;
  const auto burst = bt::GfskModulate(bits);
  const auto d2 = dsp::PhaseSecondDiff(burst);
  for (float v : d2) {
    EXPECT_LT(std::abs(v), 0.12f);  // well below any PSK symbol jump
  }
}

TEST(Gfsk, DiscriminatorRecoversBits) {
  util::BitVec bits(200);
  util::Xoshiro256 rng(7);
  for (auto& b : bits) b = static_cast<std::uint8_t>(rng.UniformInt(0, 1));
  const auto burst = bt::GfskModulate(bits, 2);
  const auto freq = bt::FmDiscriminate(burst);
  // First symbol center: 2 ramp symbols then half a symbol.
  const std::size_t first_center = 2 * bt::kSamplesPerSymbol + 4;
  const auto sliced = bt::SliceSymbols(freq, first_center, bits.size());
  ASSERT_EQ(sliced.size(), bits.size());
  EXPECT_EQ(util::HammingDistance(sliced, bits), 0u);
}

// ----------------------------------------------------------- band demod

bt::BtBurst MakeVisibleBurst(const bt::DeviceAddress& addr,
                             std::vector<std::uint8_t> payload,
                             std::uint32_t clk_start) {
  bt::PacketHeader hdr;
  hdr.type = bt::PacketType::kDh5;
  // Find a clk whose hop lands in the visible window.
  for (std::uint32_t clk = clk_start;; ++clk) {
    auto burst = bt::ModulatePacket(addr, hdr, payload, clk);
    if (!burst.samples.empty()) return burst;
  }
}

TEST(BtDemod, DecodesVisibleBurst) {
  bt::DeviceAddress addr{0x2A96EF, 0x47};
  std::vector<std::uint8_t> payload(225);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i);
  }
  auto burst = MakeVisibleBurst(addr, payload, 100);
  // Embed in a quiet band with margins.
  dsp::SampleVec band(2000, dsp::cfloat{0.0f, 0.0f});
  band.insert(band.end(), burst.samples.begin(), burst.samples.end());
  band.insert(band.end(), 2000, dsp::cfloat{0.0f, 0.0f});
  util::Xoshiro256 rng(8);
  rfdump::channel::AddAwgn(band, 1e-4, rng);  // ~40 dB SNR

  bt::Demodulator demod;
  const auto pkts = demod.DecodeAll(band);
  ASSERT_EQ(pkts.size(), 1u);
  EXPECT_EQ(pkts[0].lap, addr.lap);
  EXPECT_EQ(pkts[0].packet.header.type, bt::PacketType::kDh5);
  EXPECT_TRUE(pkts[0].packet.crc_ok);
  EXPECT_EQ(pkts[0].packet.payload, payload);
  EXPECT_NEAR(static_cast<double>(pkts[0].start_sample), 2000.0, 64.0);
}

TEST(BtDemod, SingleChannelModeOnlySeesItsChannel) {
  bt::DeviceAddress addr{0x2A96EF, 0x47};
  std::vector<std::uint8_t> payload(50, 0x5A);
  auto burst = MakeVisibleBurst(addr, payload, 500);
  const int vis_idx = burst.channel - bt::kFirstVisibleChannel;
  dsp::SampleVec band(1000, dsp::cfloat{0.0f, 0.0f});
  band.insert(band.end(), burst.samples.begin(), burst.samples.end());
  band.insert(band.end(), 1000, dsp::cfloat{0.0f, 0.0f});
  util::Xoshiro256 rng(9);
  rfdump::channel::AddAwgn(band, 1e-4, rng);

  bt::Demodulator::Config cfg;
  cfg.channel_index = vis_idx;
  bt::Demodulator right(cfg);
  EXPECT_EQ(right.DecodeAll(band).size(), 1u);

  cfg.channel_index = (vis_idx + 4) % 8;
  bt::Demodulator wrong(cfg);
  EXPECT_TRUE(wrong.DecodeAll(band).empty());
}

TEST(BtDemod, RejectsChannelIndexOutsideVisibleWindow) {
  for (int idx : {bt::kVisibleChannels, bt::kVisibleChannels + 3, -2}) {
    bt::Demodulator::Config cfg;
    cfg.channel_index = idx;
    EXPECT_THROW(bt::Demodulator{cfg}, std::invalid_argument) << idx;
  }
  for (int idx : {-1, 0, bt::kVisibleChannels - 1}) {
    bt::Demodulator::Config cfg;
    cfg.channel_index = idx;
    EXPECT_NO_THROW(bt::Demodulator{cfg}) << idx;
  }
}

TEST(BtDemod, NoiseOnlyFindsNothing) {
  dsp::SampleVec band(50000);
  util::Xoshiro256 rng(10);
  rfdump::channel::AddAwgn(band, 1.0, rng);
  bt::Demodulator demod;
  EXPECT_TRUE(demod.DecodeAll(band).empty());
}

TEST(BtDemod, OutOfBandHopNotCaptured) {
  bt::DeviceAddress addr{0x2A96EF, 0x47};
  bt::PacketHeader hdr;
  hdr.type = bt::PacketType::kDh1;
  std::vector<std::uint8_t> payload(20, 1);
  // Find a clk that hops OUTSIDE the visible window.
  for (std::uint32_t clk = 0;; ++clk) {
    const int ch = bt::HopChannel(addr.lap, clk);
    if (!bt::ChannelOffsetHz(ch)) {
      const auto burst = bt::ModulatePacket(addr, hdr, payload, clk);
      EXPECT_TRUE(burst.samples.empty());
      EXPECT_EQ(burst.channel, ch);
      break;
    }
  }
}

// ------------------------------------------------------- GFSK front end

std::uint64_t Bits(dsp::cfloat v) { return std::bit_cast<std::uint64_t>(v); }
std::uint64_t Bits(float v) { return std::bit_cast<std::uint32_t>(v); }

template <class A, class B>
::testing::AssertionResult SameBits(const A& a, const B& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << "size " << a.size() << " vs " << b.size();
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (Bits(a[i]) != Bits(b[i])) {
      return ::testing::AssertionFailure() << "first difference at " << i;
    }
  }
  return ::testing::AssertionSuccess();
}

/// Noise at 4 mixed levels, with runs of exact zeros and a few NaN/Inf.
dsp::SampleVec FrontEndInput(std::size_t n, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  dsp::SampleVec x(n);
  rfdump::channel::AddAwgn(x, 1.0, rng);
  for (std::size_t i = 0; i < n; ++i) {
    const auto level = static_cast<float>(1u << ((i / 3000) % 4)) * 0.01f;
    x[i] *= level;
    if ((i / 5000) % 7 == 3) x[i] = {0.0f, 0.0f};
    if (rng.UniformInt(0, 4000) == 0) {
      x[i] = {std::numeric_limits<float>::quiet_NaN(), 1.0f};
    }
    if (rng.UniformInt(0, 4000) == 0) {
      x[i] = {std::numeric_limits<float>::infinity(), 0.0f};
    }
  }
  return x;
}

TEST(GfskFrontEnd, PhasorTableIsTheNcoSequence) {
  for (double hz : {-3.5e6, 0.5e6, 3e6, 0.0}) {
    const bt::PhasorTable table(hz, 1000);
    dsp::Nco nco(hz, dsp::kSampleRateHz);
    dsp::SampleVec expect(1000);
    for (auto& v : expect) v = nco.Next();
    EXPECT_TRUE(SameBits(table.phasors(), expect)) << hz;

    // Mixing past the table's end continues the same oscillator.
    const dsp::SampleVec x = FrontEndInput(2600, 5);
    dsp::SampleVec mixed = x;
    dsp::Nco(hz, dsp::kSampleRateHz).Mix(mixed);
    dsp::SampleVec got(x.size());
    table.MixInto(x, got.data());
    EXPECT_TRUE(SameBits(got, mixed)) << hz;
  }
  // The shared table is the same sequence, over its whole length.
  const auto shared = bt::SharedPhasorTable(-1.5e6).phasors();
  ASSERT_EQ(shared.size(), bt::kPhasorTableSize);
  dsp::Nco nco(-1.5e6, dsp::kSampleRateHz);
  for (std::size_t n = 0; n < shared.size(); ++n) {
    ASSERT_EQ(Bits(shared[n]), Bits(nco.Next())) << n;
  }
}

TEST(GfskFrontEnd, SharedPhasorTableFirstUseFromManyThreads) {
  // A frequency no other test uses, so the table is built here, raced.
  constexpr double kHz = 1.25e6;
  std::vector<const bt::PhasorTable*> seen(4, nullptr);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < seen.size(); ++t) {
    threads.emplace_back([&seen, t] { seen[t] = &bt::SharedPhasorTable(kHz); });
  }
  for (auto& th : threads) th.join();
  for (const auto* table : seen) EXPECT_EQ(table, seen[0]);
  dsp::Nco nco(kHz, dsp::kSampleRateHz);
  EXPECT_EQ(Bits(seen[0]->phasors()[0]), Bits(nco.Next()));
}

TEST(GfskFrontEnd, MatchesTheSeparateStageChain) {
  // The chain the demodulators ran per channel before the shared front end.
  const auto taps = dsp::DesignLowPass(600e3, dsp::kSampleRateHz, 21);
  double tap_energy = 0.0;
  for (float t : taps) tap_energy += static_cast<double>(t) * t;
  for (std::size_t n : {2u, 600u, 9001u, 40000u}) {
    const dsp::SampleVec x = FrontEndInput(n, n);
    for (double mix_hz : {-3.5e6, 2.5e6, 3e6}) {
      dsp::SampleVec ch = x;
      dsp::Nco(mix_hz, dsp::kSampleRateHz).Mix(ch);
      dsp::FirFilter lp(taps);
      dsp::SampleVec filtered;
      lp.Process(ch, filtered);
      std::vector<float> freq;
      bt::FmDiscriminateInto(filtered, freq);
      dsp::MovingAveragePower ma(16);
      std::vector<float> power(filtered.size());
      for (std::size_t i = 0; i < filtered.size(); ++i) {
        power[i] = ma.Push(dsp::FinitePower(filtered[i]));
      }

      const bt::GfskChannel got = bt::RunGfskFrontEnd(x, mix_hz, 0.0);
      EXPECT_TRUE(SameBits(got.freq, freq)) << n << " " << mix_hz;
      EXPECT_TRUE(SameBits(got.power, power)) << n << " " << mix_hz;

      std::vector<float> probe;
      for (std::size_t i = 0; i < power.size(); i += 64) {
        probe.push_back(power[i]);
      }
      std::sort(probe.begin(), probe.end());
      const std::size_t decile = std::max<std::size_t>(probe.size() / 10, 1);
      double floor_est = 0.0;
      for (std::size_t i = 0; i < decile; ++i) floor_est += probe[i];
      floor_est /= static_cast<double>(decile);
      EXPECT_EQ(got.gate,
                static_cast<float>(std::max(floor_est * 4.0, 1e-12)));
      EXPECT_EQ(bt::RunGfskFrontEnd(x, mix_hz, 0.02).gate,
                static_cast<float>(std::max(0.02 * tap_energy * 4.0, 1e-12)));
    }
  }
}

TEST(GfskFrontEnd, SlicedWordMatchesSliceSymbolsEverywhere) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const dsp::SampleVec x = FrontEndInput(30000 + 977 * seed, seed);
    const bt::GfskChannel ch = bt::RunGfskFrontEnd(x, 0.5e6, 0.0);
    for (std::size_t n : {32u, 64u}) {
      const std::size_t last = ch.freq.size() - 2 - 8 * (n - 1);
      for (std::size_t c = 1; c <= last; ++c) {
        const util::BitVec bits = bt::SliceSymbols(ch.freq, c, n);
        ASSERT_EQ(bits.size(), n);
        ASSERT_EQ(ch.SlicedWord(c, n), util::BitsToUintLsbFirst(bits))
            << "seed " << seed << " n " << n << " center " << c;
      }
    }
  }
}

}  // namespace
