#pragma once
// Rational polyphase resampling.
//
// Two uses in the system:
//  * 802.11b modulator: Barker chips at 11 Mchip/s are synthesized at 88 Msps
//    (8 samples/chip) and decimated by 11 to the 8 Msps front-end rate.
//  * 802.11b demodulator: the 8 Msps capture is resampled by 11/8 to 11 Msps
//    so the despreader sees one sample per chip.

#include <cstddef>
#include <vector>

#include "rfdump/dsp/fir.hpp"
#include "rfdump/dsp/types.hpp"

namespace rfdump::dsp {

/// Streaming rational resampler: output rate = input rate * interp / decim.
/// Implements polyphase interpolation with a windowed-sinc prototype filter
/// designed for the composite (interp x input) rate.
class RationalResampler {
 public:
  /// `interp` (L) and `decim` (M) must be >= 1. `taps_per_phase` controls the
  /// prototype length (L * taps_per_phase taps total).
  RationalResampler(std::size_t interp, std::size_t decim,
                    std::size_t taps_per_phase = 12);

  std::size_t interp() const { return interp_; }
  std::size_t decim() const { return decim_; }

  /// Resamples `input`, appending the produced samples to `out`. Maintains
  /// state across calls so a long stream can be processed in chunks; the
  /// output is bit-identical however the stream is chunked, and on every
  /// dsp::simd tier (the polyphase_resample kernel).
  void Process(const_sample_span input, SampleVec& out);

  /// One-shot convenience wrapper.
  [[nodiscard]] SampleVec Resampled(const_sample_span input);

  /// Clears streaming state.
  void Reset();

 private:
  std::size_t interp_;
  std::size_t decim_;
  std::size_t taps_per_phase_;
  // phases_[p * taps_per_phase_ + k] applies to x[n-k] for an output at
  // polyphase offset p.
  std::vector<float> phases_;
  SampleVec history_;          // last taps_per_phase - 1 inputs (newest last)
  std::size_t phase_acc_ = 0;  // upsampled position of the next output,
                               // relative to the next input
};

/// Integer decimator with windowed-sinc anti-alias low-pass filtering.
class Decimator {
 public:
  /// Keeps 1 of every `factor` samples after low-pass filtering at
  /// (sample_rate/factor)/2.
  explicit Decimator(std::size_t factor, std::size_t num_taps = 97);

  std::size_t factor() const { return factor_; }

  /// Appends the decimated stream to `out`; streaming-safe across calls.
  void Process(const_sample_span input, SampleVec& out);
  [[nodiscard]] SampleVec Decimated(const_sample_span input);
  void Reset();

 private:
  std::size_t factor_;
  FirFilter lowpass_;
  std::size_t skip_ = 0;  // filtered samples to drop before the next keep
};

}  // namespace rfdump::dsp
