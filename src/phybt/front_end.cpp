#include "rfdump/phybt/front_end.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>

#include "rfdump/dsp/energy.hpp"
#include "rfdump/dsp/fir.hpp"
#include "rfdump/dsp/simd.hpp"
#include "rfdump/phybt/gfsk.hpp"
#include "rfdump/util/scratch.hpp"

namespace rfdump::phybt {
namespace {

constexpr std::size_t kSps = kSamplesPerSymbol;
constexpr std::size_t kPowerWindow = 16;

const std::vector<float>& ChannelTaps() {
  static const std::vector<float> taps =
      dsp::DesignLowPass(600e3, dsp::kSampleRateHz, 21);
  return taps;
}

/// Transposes the 8x8 bit matrix in `x` (byte i, bit j) -> (byte j, bit i).
constexpr std::uint64_t Transpose8x8(std::uint64_t x) {
  std::uint64_t t = (x ^ (x >> 7)) & 0x00AA00AA00AA00AAull;
  x ^= t ^ (t << 7);
  t = (x ^ (x >> 14)) & 0x0000CCCC0000CCCCull;
  x ^= t ^ (t << 14);
  t = (x ^ (x >> 28)) & 0x00000000F0F0F0F0ull;
  x ^= t ^ (t << 28);
  return x;
}

/// Packs the sliced bit of every center c in [1, f.size() - 2] into one
/// bitstream per residue c % kSps (see GfskChannel::sliced): first one byte
/// per symbol (bit r = center 8m + r; the slice_bytes kernel for every
/// symbol whose centers are all sliceable), then eight symbols at a time
/// through an 8x8 bit transpose into eight residue bytes.
void PackSlicedBits(std::span<const float> f, std::size_t words,
                    std::vector<std::uint8_t>& symbols,
                    std::vector<std::uint64_t>& sliced) {
  static_assert(kSps == 8, "one byte per symbol, one bit per residue");
  symbols.assign(64 * (words - 1), 0);
  const std::size_t n_centers = f.size() >= 2 ? f.size() - 1 : 0;  // c < this
  // Symbols [1, full) have all 8 centers in [1, n_centers).
  const std::size_t full = std::max<std::size_t>(n_centers / kSps, 1);
  if (full > 1) {
    dsp::simd::Active().slice_bytes(f.data() + kSps, full - 1,
                                    symbols.data() + 1);
  }
  for (std::size_t m : {std::size_t{0}, full}) {
    for (std::size_t r = 0; r < kSps; ++r) {
      const std::size_t c = m * kSps + r;
      if (c >= 1 && c < n_centers && f[c - 1] + f[c] + f[c + 1] > 0.0f) {
        symbols[m] |= static_cast<std::uint8_t>(1u << r);
      }
    }
  }
  sliced.assign(kSps * words, 0);
  for (std::size_t m0 = 0; m0 < symbols.size(); m0 += 8) {
    std::uint64_t x = 0;
    for (std::size_t j = 0; j < 8; ++j) {
      x |= static_cast<std::uint64_t>(symbols[m0 + j]) << (8 * j);
    }
    const std::uint64_t t = Transpose8x8(x);  // byte r: residue r's 8 bits
    for (std::size_t r = 0; r < kSps; ++r) {
      sliced[r * words + m0 / 64] |= ((t >> (8 * r)) & 0xFF) << (m0 % 64);
    }
  }
}

}  // namespace

PhasorTable::PhasorTable(double freq_hz, std::size_t size)
    : tail_(freq_hz, dsp::kSampleRateHz) {
  table_.resize(size);
  for (auto& v : table_) v = tail_.Next();
}

void PhasorTable::MixInto(dsp::const_sample_span x, dsp::cfloat* out) const {
  const std::size_t head = std::min(x.size(), table_.size());
  for (std::size_t n = 0; n < head; ++n) out[n] = x[n] * table_[n];
  if (head == x.size()) return;
  dsp::Nco nco = tail_;
  for (std::size_t n = head; n < x.size(); ++n) out[n] = x[n] * nco.Next();
}

const PhasorTable& SharedPhasorTable(double freq_hz) {
  static std::mutex mu;
  static std::map<double, std::unique_ptr<const PhasorTable>> tables;
  const std::lock_guard<std::mutex> lock(mu);
  auto& table = tables[freq_hz];
  if (!table) {
    table = std::make_unique<const PhasorTable>(freq_hz, kPhasorTableSize);
  }
  return *table;
}

bool GfskChannel::PreambleAlternates(std::size_t pos) const {
  const bool s0 = std::signbit(freq[pos]);
  const bool s1 = std::signbit(freq[pos + kSps]);
  const bool s2 = std::signbit(freq[pos + 2 * kSps]);
  const bool s3 = std::signbit(freq[pos + 3 * kSps]);
  return s0 != s1 && s1 != s2 && s2 != s3;
}

std::uint64_t GfskChannel::SlicedWord(std::size_t first_center,
                                      std::size_t n) const {
  const std::uint64_t* w =
      sliced.data() + (first_center % kSps) * words_per_residue;
  const std::size_t m = first_center / kSps;
  const std::size_t q = m / 64, s = m % 64;
  std::uint64_t word = w[q] >> s;
  if (s != 0) word |= w[q + 1] << (64 - s);
  return n >= 64 ? word : word & ((std::uint64_t{1} << n) - 1);
}

GfskChannel RunGfskFrontEnd(dsp::const_sample_span x, double mix_hz,
                            double noise_floor_power) {
  const std::vector<float>& taps = ChannelTaps();
  const std::size_t n = x.size();
  const std::size_t hist = taps.size() - 1;
  const dsp::simd::Kernels& k = dsp::simd::Active();

  // Mix straight into the filter's [zero history | input] buffer, then run
  // the FIR kernel over it: what a fresh dsp::FirFilter does, minus a copy.
  struct WorkTag {};
  auto& work = util::Scratch<dsp::cfloat, WorkTag>();
  work.assign(hist, dsp::cfloat{0.0f, 0.0f});
  work.resize(hist + n);
  SharedPhasorTable(mix_hz).MixInto(x, work.data() + hist);
  struct FilteredTag {};
  auto& filtered = util::Scratch<dsp::cfloat, FilteredTag>();
  filtered.resize(n);
  k.fir_complex(work.data(), n, taps.data(), taps.size(), filtered.data());

  struct FreqTag {};
  auto& freq = util::Scratch<float, FreqTag>();
  FmDiscriminateInto(filtered, freq);

  struct PlaneTag {};
  auto& plane = util::Scratch<float, PlaneTag>();
  plane.resize(n);
  k.power_plane(filtered.data(), n, plane.data());
  struct PowerTag {};
  auto& power = util::Scratch<float, PowerTag>();
  power.resize(n);
  dsp::MovingAveragePower(kPowerWindow).PushBlock(plane, power.data());

  // In-channel noise floor: the known full-band floor times the channel
  // filter's noise gain, or the mean of the lowest decile of the power
  // track, which stays anchored to noise even when transmissions fill most
  // of the window.
  double floor_est = 0.0;
  if (noise_floor_power > 0.0) {
    double tap_energy = 0.0;
    for (float t : taps) tap_energy += static_cast<double>(t) * t;
    floor_est = noise_floor_power * tap_energy;
  } else {
    struct ProbeTag {};
    auto& probe = util::Scratch<float, ProbeTag>();
    probe.clear();
    for (std::size_t i = 0; i < n; i += 64) probe.push_back(power[i]);
    if (!probe.empty()) {
      std::sort(probe.begin(), probe.end());
      const std::size_t decile = std::max<std::size_t>(probe.size() / 10, 1);
      for (std::size_t i = 0; i < decile; ++i) floor_est += probe[i];
      floor_est /= static_cast<double>(decile);
    }
  }

  GfskChannel out;
  out.freq = freq;
  out.power = power;
  out.gate = static_cast<float>(std::max(floor_est * 4.0, 1e-12));
  // One padding word so SlicedWord's second load stays in bounds.
  out.words_per_residue = (freq.size() / kSps) / 64 + 2;
  struct SymbolsTag {};
  struct SlicedTag {};
  auto& sliced = util::Scratch<std::uint64_t, SlicedTag>();
  PackSlicedBits(freq, out.words_per_residue,
                 util::Scratch<std::uint8_t, SymbolsTag>(), sliced);
  out.sliced = sliced;
  return out;
}

}  // namespace rfdump::phybt
