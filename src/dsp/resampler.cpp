#include "rfdump/dsp/resampler.hpp"

#include <algorithm>
#include <stdexcept>

#include "rfdump/dsp/simd.hpp"
#include "rfdump/util/scratch.hpp"

namespace rfdump::dsp {

RationalResampler::RationalResampler(std::size_t interp, std::size_t decim,
                                     std::size_t taps_per_phase)
    : interp_(interp), decim_(decim), taps_per_phase_(taps_per_phase) {
  if (interp == 0 || decim == 0 || taps_per_phase == 0) {
    throw std::invalid_argument("RationalResampler parameters must be >= 1");
  }
  // Prototype low-pass at the composite rate (input rate x L): cutoff at the
  // narrower of the input and output Nyquist frequencies.
  const double composite_rate = static_cast<double>(interp);  // normalized
  const double cutoff =
      0.5 / static_cast<double>(std::max(interp, decim)) * composite_rate;
  auto proto = DesignLowPass(cutoff, composite_rate, interp * taps_per_phase,
                             WindowType::kBlackmanHarris);
  // Interpolation inserts L-1 zeros between samples; compensate the gain.
  for (auto& t : proto) t *= static_cast<float>(interp);
  phases_.assign(interp * taps_per_phase, 0.0f);
  for (std::size_t i = 0; i < proto.size(); ++i) {
    phases_[(i % interp) * taps_per_phase + i / interp] = proto[i];
  }
  history_.assign(taps_per_phase_ - 1, cfloat{0.0f, 0.0f});
}

void RationalResampler::Reset() {
  std::fill(history_.begin(), history_.end(), cfloat{0.0f, 0.0f});
  phase_acc_ = 0;
}

void RationalResampler::Process(const_sample_span input, SampleVec& out) {
  // Output t of a piece sits at upsampled position phase_acc_ + t * decim,
  // counted in input samples times interp from the piece's first input.
  // Pieces are bounded so the scratch stays small; where they are cut does
  // not change the output.
  constexpr std::size_t kPiece = 1 << 14;
  const std::size_t hist = history_.size();
  struct WorkTag {};
  struct PlanesTag {};
  auto& work = util::Scratch<cfloat, WorkTag>();
  auto& planes = util::Scratch<cfloat, PlanesTag>();
  while (!input.empty()) {
    const const_sample_span piece = input.first(std::min(input.size(), kPiece));
    input = input.subspan(piece.size());
    // [history | piece] is the contiguous buffer the kernel reads.
    work.assign(history_.begin(), history_.end());
    work.insert(work.end(), piece.begin(), piece.end());
    const std::size_t span = piece.size() * interp_;
    const std::size_t n_out =
        span > phase_acc_ ? (span - phase_acc_ + decim_ - 1) / decim_ : 0;
    planes.resize(simd::PolyphasePlanesSize(work.size(), decim_));
    const std::size_t start = out.size();
    out.resize(start + n_out);
    simd::Active().polyphase_resample(work.data(), work.size(), n_out,
                                      phase_acc_, interp_, decim_,
                                      phases_.data(), taps_per_phase_,
                                      planes.data(), out.data() + start);
    phase_acc_ = phase_acc_ + n_out * decim_ - span;
    std::copy(work.end() - static_cast<std::ptrdiff_t>(hist), work.end(),
              history_.begin());
  }
}

SampleVec RationalResampler::Resampled(const_sample_span input) {
  SampleVec out;
  out.reserve(input.size() * interp_ / decim_ + 8);
  Process(input, out);
  return out;
}

Decimator::Decimator(std::size_t factor, std::size_t num_taps)
    : factor_(factor),
      lowpass_(DesignLowPass(0.5 / static_cast<double>(factor ? factor : 1),
                             1.0, num_taps, WindowType::kBlackmanHarris)) {
  if (factor == 0) throw std::invalid_argument("Decimator factor must be >= 1");
}

void Decimator::Reset() {
  lowpass_.Reset();
  skip_ = 0;
}

void Decimator::Process(const_sample_span input, SampleVec& out) {
  SampleVec filtered;
  filtered.reserve(input.size());
  lowpass_.Process(input, filtered);
  std::size_t i = skip_;
  for (; i < filtered.size(); i += factor_) {
    out.push_back(filtered[i]);
  }
  skip_ = i - filtered.size();
}

SampleVec Decimator::Decimated(const_sample_span input) {
  SampleVec out;
  out.reserve(input.size() / factor_ + 8);
  Process(input, out);
  return out;
}

}  // namespace rfdump::dsp
