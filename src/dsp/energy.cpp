#include "rfdump/dsp/energy.hpp"

#include <bit>
#include <stdexcept>

#include "rfdump/dsp/simd.hpp"

namespace rfdump::dsp {

double MeanPower(const_sample_span x) {
  if (x.empty()) return 0.0;
  return TotalEnergy(x) / static_cast<double>(x.size());
}

double TotalEnergy(const_sample_span x) {
  return simd::Active().sum_finite_power(x.data(), x.size());
}

MovingAveragePower::MovingAveragePower(std::size_t window) : window_(window) {
  if (window == 0) {
    throw std::invalid_argument("MovingAveragePower window must be >= 1");
  }
  ring_.assign(window, 0.0f);
}

void MovingAveragePower::Reset() {
  std::fill(ring_.begin(), ring_.end(), 0.0f);
  head_ = 0;
  count_ = 0;
  sum_ = 0.0;
  pushes_since_rebuild_ = 0;
}

float MovingAveragePower::Push(cfloat sample) {
  return Push(FinitePower(sample));
}

float MovingAveragePower::Push(float power) {
  const float p = power;
  sum_ += p - ring_[head_];
  ring_[head_] = p;
  if (++head_ == window_) head_ = 0;
  if (count_ < window_) ++count_;
  // Rebuild the running sum occasionally to cancel accumulated float error.
  if (++pushes_since_rebuild_ >= kRebuildPeriod) {
    sum_ = 0.0;
    for (float v : ring_) sum_ += v;
    pushes_since_rebuild_ = 0;
  }
  return Average();
}

void MovingAveragePower::PushBlock(std::span<const float> power, float* out) {
  // Push() with the state in locals. Once the window is full the average
  // divides by window_; for a power-of-two window that division is exact
  // scaling, so multiplying by the reciprocal gives the same bits.
  double sum = sum_;
  std::size_t head = head_, count = count_, since = pushes_since_rebuild_;
  float* ring = ring_.data();
  const bool pow2 = std::has_single_bit(window_);
  const double inv_window = 1.0 / static_cast<double>(window_);
  for (std::size_t i = 0; i < power.size(); ++i) {
    const float p = power[i];
    sum += p - ring[head];
    ring[head] = p;
    if (++head == window_) head = 0;
    if (count < window_) ++count;
    if (++since >= kRebuildPeriod) {
      sum = 0.0;
      for (std::size_t j = 0; j < window_; ++j) sum += ring[j];
      since = 0;
    }
    out[i] = static_cast<float>(count == window_ && pow2
                                    ? sum * inv_window
                                    : sum / static_cast<double>(count));
  }
  sum_ = sum;
  head_ = head;
  count_ = count;
  pushes_since_rebuild_ = since;
}

float MovingAveragePower::Average() const {
  if (count_ == 0) return 0.0f;
  return static_cast<float>(sum_ / static_cast<double>(count_));
}

}  // namespace rfdump::dsp
