#pragma once
// Tier-shared implementation of the dsp::simd kernels (DESIGN.md §16).
//
// Every kernel is written ONCE as a template over a vector-traits class; the
// scalar tier instantiates it with 1-lane traits whose operations are plain
// IEEE-754 float ops (including *bitwise* selects mirroring blendv), and the
// SSE2/AVX2 translation units instantiate it with intrinsic-backed traits.
// Because IEEE +,-,*,/ are correctly rounded and therefore identical
// per-lane on every tier, and because the lane model (which element lands in
// which accumulator, and the exact combine tree) is fixed here once, all
// tiers produce bit-identical output. Two rules keep this true:
//
//   1. No tier may be compiled with FMA contraction (the AVX2 TU is built
//      with -mavx2 but NOT -mfma; intrinsics use separate mul + add).
//   2. Reductions use the fixed virtual-lane model below — never a tier's
//      "natural" width — so changing the register width cannot change the
//      FP association.
//
// Per-output kernels (correlate_chips, fir_complex, polyphase_resample)
// accumulate in ascending k order per output, which is the exact order of
// the pre-SIMD scalar code: those kernels are additionally bit-identical to
// the historical seed path.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>

#include "rfdump/dsp/energy.hpp"
#include "rfdump/dsp/simd.hpp"

namespace rfdump::dsp::simd::detail {

// ------------------------------------------------------------ scalar traits
//
// One lane; masks are all-ones/all-zeros float bit patterns so Blend/And/Xor
// mirror the bitwise SSE/AVX select semantics exactly (including NaN payload
// propagation through a select).

struct ScalarTraits {
  using VF = float;
  static constexpr std::size_t kWidth = 1;

  static VF Set1(float v) { return v; }
  static VF Add(VF a, VF b) { return a + b; }
  static VF Sub(VF a, VF b) { return a - b; }
  static VF Mul(VF a, VF b) { return a * b; }
  static VF Div(VF a, VF b) { return a / b; }

  static VF BitAnd(VF a, VF b) {
    return std::bit_cast<float>(std::bit_cast<std::uint32_t>(a) &
                                std::bit_cast<std::uint32_t>(b));
  }
  static VF BitXor(VF a, VF b) {
    return std::bit_cast<float>(std::bit_cast<std::uint32_t>(a) ^
                                std::bit_cast<std::uint32_t>(b));
  }
  static VF Abs(VF a) { return BitAnd(a, std::bit_cast<float>(0x7FFFFFFFu)); }

  static VF CmpGT(VF a, VF b) {
    return std::bit_cast<float>(a > b ? 0xFFFFFFFFu : 0u);
  }
  static VF CmpLT(VF a, VF b) {
    return std::bit_cast<float>(a < b ? 0xFFFFFFFFu : 0u);
  }
  static VF CmpEQ(VF a, VF b) {
    return std::bit_cast<float>(a == b ? 0xFFFFFFFFu : 0u);
  }
  /// mask ? a : b, bitwise per lane (blendv semantics).
  static VF Blend(VF mask, VF a, VF b) {
    const auto m = std::bit_cast<std::uint32_t>(mask);
    return std::bit_cast<float>((std::bit_cast<std::uint32_t>(a) & m) |
                                (std::bit_cast<std::uint32_t>(b) & ~m));
  }
};

// ------------------------------------------------------- canonical atan2
//
// Branchless cephes-style atan2 on [0, pi]: reduce to t = min/max in [0, 1],
// fold t > tan(pi/8) to (t-1)/(t+1), degree-7 odd polynomial, then undo the
// octant folds with selects. Only +,-,*,/ and bitwise ops — every tier
// executes this exact sequence per lane. Accuracy ~2 ulp vs libm atan2f.
//
// Signed-zero/edge semantics (deterministic on every tier):
//   atan2(+-0, x>0) = +-0        atan2(+-0, x<0)  = +-pi
//   atan2(+-0, +-0) = +-0        (libm: atan2(0,-0) = pi; we return 0)
//   NaN in -> NaN out.

template <class T>
typename T::VF Atan2(typename T::VF y, typename T::VF x) {
  using VF = typename T::VF;
  const VF kZero = T::Set1(0.0f);
  const VF kOne = T::Set1(1.0f);
  const VF kPiV = T::Set1(3.14159265358979323846f);
  const VF kPi2 = T::Set1(1.57079632679489661923f);
  const VF kPi4 = T::Set1(0.78539816339744830962f);
  const VF kTanPi8 = T::Set1(0.4142135623730950488f);

  const VF ax = T::Abs(x);
  const VF ay = T::Abs(y);
  // t = min/max in [0, 1]; remember whether we swapped (angle > pi/4).
  const VF swap_mask = T::CmpGT(ay, ax);
  const VF num = T::Blend(swap_mask, ax, ay);
  const VF den = T::Blend(swap_mask, ay, ax);
  VF t = T::Div(num, den);
  // Both zero -> 0/0 = NaN; define the angle magnitude as 0 instead.
  t = T::Blend(T::CmpEQ(den, kZero), kZero, t);
  // Second reduction: t in (tan(pi/8), 1] -> (t-1)/(t+1) in (-0.414..., 0].
  const VF red_mask = T::CmpGT(t, kTanPi8);
  const VF tr = T::Div(T::Sub(t, kOne), T::Add(t, kOne));
  t = T::Blend(red_mask, tr, t);
  const VF base = T::BitAnd(red_mask, kPi4);  // pi/4 where reduced, else 0
  // Cephes atanf polynomial on |t| <= tan(pi/8).
  const VF z = T::Mul(t, t);
  VF p = T::Set1(8.05374449538e-2f);
  p = T::Sub(T::Mul(p, z), T::Set1(1.38776856032e-1f));
  p = T::Add(T::Mul(p, z), T::Set1(1.99777106478e-1f));
  p = T::Sub(T::Mul(p, z), T::Set1(3.33329491539e-1f));
  VF r = T::Add(T::Add(T::Mul(T::Mul(p, z), t), t), base);
  // Undo the min/max swap: angle = pi/2 - angle.
  r = T::Blend(swap_mask, T::Sub(kPi2, r), r);
  // Left half plane: angle = pi - angle. (Uses x < 0, so x = -0 stays right.)
  r = T::Blend(T::CmpLT(x, kZero), T::Sub(kPiV, r), r);
  // Copy y's sign bit onto the angle (handles y = -0 like libm).
  r = T::BitXor(r, T::BitAnd(y, T::Set1(-0.0f)));
  return r;
}

// ------------------------------------------------ per-element scalar helpers
//
// Shared by the scalar tier (whole range) and by the vector tiers (tails).
// Per-element kernels are trivially bit-identical between a 1-lane and a
// W-lane execution of the same op sequence; these helpers ARE that 1-lane
// execution.

inline float ScalarAtan2(float y, float x) {
  return Atan2<ScalarTraits>(y, x);
}

/// z = a * conj(b), naive product (no __mulsc3 NaN recovery): for finite
/// inputs this matches std::complex operator* bit-for-bit.
inline void ConjProduct(cfloat a, cfloat b, float& re, float& im) {
  const float t0 = a.real() * b.real();
  const float t1 = a.imag() * b.imag();
  const float t2 = a.imag() * b.real();
  const float t3 = a.real() * b.imag();
  re = t0 + t1;
  im = t2 - t3;
}

inline cfloat ScalarCorrelateOne(const cfloat* x, const int* chips,
                                 std::size_t n_chips) {
  cfloat acc{0.0f, 0.0f};
  for (std::size_t k = 0; k < n_chips; ++k) {
    const float c = static_cast<float>(chips[k]);
    acc = cfloat(acc.real() + c * x[k].real(), acc.imag() + c * x[k].imag());
  }
  return acc;
}

inline cfloat ScalarFirOne(const cfloat* x, const float* taps,
                           std::size_t n_taps) {
  // y = sum_k taps[k] * x[n_taps - 1 - k], k ascending (the seed FIR order).
  cfloat acc{0.0f, 0.0f};
  for (std::size_t k = 0; k < n_taps; ++k) {
    const cfloat v = x[n_taps - 1 - k];
    acc = cfloat(acc.real() + taps[k] * v.real(),
                 acc.imag() + taps[k] * v.imag());
  }
  return acc;
}

inline float ScalarPhaseDiffOne(cfloat prev, cfloat cur) {
  float re, im;
  ConjProduct(cur, prev, re, im);
  return ScalarAtan2(im, re);
}

inline float ScalarInstantPhaseOne(cfloat v) {
  return ScalarAtan2(v.imag(), v.real());
}

/// FinitePower with the select expressed exactly as the vector tiers do:
/// p < +inf keeps p (NaN and +inf fail the compare and map to 0), which is
/// value-identical to std::isfinite(p) ? p : 0 for p = re^2 + im^2 >= 0.
inline float ScalarFinitePower(cfloat v) {
  const float t0 = v.real() * v.real();
  const float t1 = v.imag() * v.imag();
  const float p = t0 + t1;
  return p < std::numeric_limits<float>::infinity() ? p : 0.0f;
}

inline void ScalarHealthOne(cfloat v, float rail, std::uint64_t& nonfinite,
                            std::uint64_t& saturated) {
  const float are = ScalarTraits::Abs(v.real());
  const float aim = ScalarTraits::Abs(v.imag());
  const float inf = std::numeric_limits<float>::infinity();
  if (!(are < inf) || !(aim < inf)) {
    ++nonfinite;
  } else if (are >= rail || aim >= rail) {
    ++saturated;
  }
}

// ----------------------------------------------------- whole-range scalar
// Scalar-tier kernel bodies (also the reference the tests sweep against).

inline void ScalarCorrelateChips(const cfloat* x, std::size_t n_out,
                                 const int* chips, std::size_t n_chips,
                                 cfloat* out) {
  for (std::size_t i = 0; i < n_out; ++i) {
    out[i] = ScalarCorrelateOne(x + i, chips, n_chips);
  }
}

inline void ScalarFirComplex(const cfloat* work, std::size_t n_out,
                             const float* taps, std::size_t n_taps,
                             cfloat* out) {
  for (std::size_t n = 0; n < n_out; ++n) {
    out[n] = ScalarFirOne(work + n, taps, n_taps);
  }
}

inline void ScalarPhaseDiff(const cfloat* x, std::size_t n, float* out) {
  for (std::size_t i = 0; i + 1 < n; ++i) {
    out[i] = ScalarPhaseDiffOne(x[i], x[i + 1]);
  }
}

inline void ScalarInstantPhase(const cfloat* x, std::size_t n, float* out) {
  for (std::size_t i = 0; i < n; ++i) out[i] = ScalarInstantPhaseOne(x[i]);
}

inline void ScalarPowerPlane(const cfloat* x, std::size_t n, float* out) {
  for (std::size_t i = 0; i < n; ++i) out[i] = ScalarFinitePower(x[i]);
}

/// Canonical 4-lane double reduction (DESIGN.md §16.2): lane j takes body
/// elements with index % 4 == j; combine (l0+l2)+(l1+l3); sequential tail.
inline double ScalarSumFinitePower(const cfloat* x, std::size_t n) {
  double l0 = 0.0, l1 = 0.0, l2 = 0.0, l3 = 0.0;
  const std::size_t body = n - n % 4;
  for (std::size_t i = 0; i < body; i += 4) {
    l0 += static_cast<double>(ScalarFinitePower(x[i + 0]));
    l1 += static_cast<double>(ScalarFinitePower(x[i + 1]));
    l2 += static_cast<double>(ScalarFinitePower(x[i + 2]));
    l3 += static_cast<double>(ScalarFinitePower(x[i + 3]));
  }
  double sum = (l0 + l2) + (l1 + l3);
  for (std::size_t i = body; i < n; ++i) {
    sum += static_cast<double>(ScalarFinitePower(x[i]));
  }
  return sum;
}

inline void ScalarHealthScan(const cfloat* x, std::size_t n, float rail,
                             std::uint64_t* nonfinite,
                             std::uint64_t* saturated) {
  std::uint64_t nf = 0, sat = 0;
  for (std::size_t i = 0; i < n; ++i) ScalarHealthOne(x[i], rail, nf, sat);
  *nonfinite += nf;
  *saturated += sat;
}

/// Canonical 8-lane float reduction of x[i]*conj(x[i-1]) (DESIGN.md §16.2):
/// product j (j = i-1) of the body goes to lane j % 8; lanes combine as
/// ((l0+l2)+(l4+l6)) + ((l1+l3)+(l5+l7)); sequential tail after the combine.
inline cfloat ScalarConjMulSum(const cfloat* x, std::size_t n) {
  if (n < 2) return {0.0f, 0.0f};
  float re[8] = {}, im[8] = {};
  const std::size_t products = n - 1;
  const std::size_t body = products - products % 8;
  for (std::size_t j = 0; j < body; j += 8) {
    for (std::size_t l = 0; l < 8; ++l) {
      float pr, pi;
      ConjProduct(x[j + l + 1], x[j + l], pr, pi);
      re[l] += pr;
      im[l] += pi;
    }
  }
  float sr = ((re[0] + re[2]) + (re[4] + re[6])) +
             ((re[1] + re[3]) + (re[5] + re[7]));
  float si = ((im[0] + im[2]) + (im[4] + im[6])) +
             ((im[1] + im[3]) + (im[5] + im[7]));
  for (std::size_t j = body; j < products; ++j) {
    float pr, pi;
    ConjProduct(x[j + 1], x[j], pr, pi);
    sr += pr;
    si += pi;
  }
  return {sr, si};
}

// --------------------------------------------------- polyphase_resample
//
// Position of output t: u = phase0 + t * decim, input n = u / interp, tap
// phase p = u % interp. Stepping one output adds decim to u, i.e. (dq, dr) =
// (decim / interp, decim % interp) to (n, p) with a carry.

struct PolyphaseCursor {
  std::size_t n;  // input index
  std::size_t p;  // tap phase
  void Step(std::size_t dq, std::size_t dr, std::size_t interp) {
    n += dq;
    p += dr;
    if (p >= interp) {
      p -= interp;
      ++n;
    }
  }
};

/// Outputs [t, n_out) one at a time from `cur` (the position of output t).
inline void ScalarPolyphaseFrom(const cfloat* work, std::size_t t,
                                std::size_t n_out, PolyphaseCursor cur,
                                std::size_t interp, std::size_t decim,
                                const float* taps, std::size_t n_taps,
                                cfloat* out) {
  const std::size_t dq = decim / interp, dr = decim % interp;
  for (; t < n_out; ++t) {
    out[t] = ScalarFirOne(work + cur.n, taps + cur.p * n_taps, n_taps);
    cur.Step(dq, dr, interp);
  }
}

inline void ScalarPolyphaseResample(const cfloat* work, std::size_t /*n_work*/,
                                    std::size_t n_out, std::size_t phase0,
                                    std::size_t interp, std::size_t decim,
                                    const float* taps, std::size_t n_taps,
                                    cfloat* /*planes*/, cfloat* out) {
  ScalarPolyphaseFrom(work, 0, n_out, {phase0 / interp, phase0 % interp},
                      interp, decim, taps, n_taps, out);
}

/// Vector tiers. `T` holds T::kLanes complex samples per register (T::VC)
/// with Zero/Set1/Load/Add/Mul and Scatter(v, out, stride), which stores
/// lane w to out[w * stride]. A tile is interp * kLanes outputs: lane w of
/// step j is output t0 + j + w * interp, whose input sits w * decim after
/// lane 0's, so each tap is one contiguous load from plane (input index %
/// decim). A pass runs kTiles tiles that share each tap broadcast, which
/// gives kTiles independent accumulators. Each lane accumulates k ascending
/// from zero with separate mul and add, the exact ScalarFirOne sequence;
/// outputs after the last whole pass run through ScalarFirOne itself.
template <class T>
void PolyphaseResample(const cfloat* work, std::size_t n_work,
                       std::size_t n_out, std::size_t phase0,
                       std::size_t interp, std::size_t decim,
                       const float* taps, std::size_t n_taps, cfloat* planes,
                       cfloat* out) {
  constexpr std::size_t kLanes = T::kLanes;
  constexpr std::size_t kTiles = 4;
  const std::size_t pass = kTiles * kLanes * interp;
  const std::size_t body = n_out - n_out % pass;
  const std::size_t dq = decim / interp, dr = decim % interp;
  PolyphaseCursor base{phase0 / interp, phase0 % interp};
  if (body > 0) {
    // Plane r holds work[r], work[r + decim], ... at planes[r * stride + i].
    const std::size_t stride = PolyphasePlaneStride(n_work, decim);
    for (std::size_t idx = 0, r = 0, i = 0; idx < n_work; ++idx) {
      planes[r * stride + i] = work[idx];
      if (++r == decim) {
        r = 0;
        ++i;
      }
    }
    // Plane coordinates of work index base.n + n_taps - 1, the newest input
    // tap of the pass's first output.
    const std::size_t base_r = (base.n + n_taps - 1) % decim;
    std::size_t base_i = (base.n + n_taps - 1) / decim;
    for (std::size_t t0 = 0; t0 < body; t0 += pass) {
      PolyphaseCursor cur = base;
      std::size_t r0 = base_r, i0 = base_i;
      for (std::size_t j = 0; j < interp; ++j) {
        const float* ph = taps + cur.p * n_taps;
        // The g loops are unrolled so the accumulators stay in registers.
        typename T::VC acc[kTiles];
#pragma GCC unroll 4
        for (std::size_t g = 0; g < kTiles; ++g) acc[g] = T::Zero();
        std::size_t r = r0, i = i0;
        for (std::size_t k = 0; k < n_taps; ++k) {
          const typename T::VC tap = T::Set1(ph[k]);
          const cfloat* src = planes + r * stride + i;
#pragma GCC unroll 4
          for (std::size_t g = 0; g < kTiles; ++g) {
            acc[g] = T::Add(acc[g], T::Mul(tap, T::Load(src + g * kLanes)));
          }
          // Next tap reads one input earlier (branch-free: the wrap pattern
          // changes with j and would defeat the predictor).
          const std::size_t wrap = r == 0 ? 1 : 0;
          r = r + wrap * decim - 1;
          i -= wrap;
        }
#pragma GCC unroll 4
        for (std::size_t g = 0; g < kTiles; ++g) {
          T::Scatter(acc[g], out + t0 + g * kLanes * interp + j, interp);
        }
        const std::size_t n_before = cur.n;
        cur.Step(dq, dr, interp);
        r0 += cur.n - n_before;
        while (r0 >= decim) {
          r0 -= decim;
          ++i0;
        }
      }
      // The next pass starts kTiles * kLanes * decim inputs later, at the
      // same tap phase.
      base.n += kTiles * kLanes * decim;
      base_i += kTiles * kLanes;
    }
  }
  ScalarPolyphaseFrom(work, body, n_out, base, interp, decim, taps, n_taps,
                      out);
}

// ---------------------------------------------------------- slice_bytes

inline std::uint8_t ScalarSliceByte(const float* f) {
  std::uint8_t b = 0;
  for (int r = 0; r < 8; ++r) {
    const float v = f[r - 1] + f[r] + f[r + 1];
    b |= static_cast<std::uint8_t>((v > 0.0f ? 1 : 0) << r);
  }
  return b;
}

inline void ScalarSliceBytes(const float* f, std::size_t n_sym,
                             std::uint8_t* out) {
  for (std::size_t m = 0; m < n_sym; ++m) out[m] = ScalarSliceByte(f + 8 * m);
}

// ----------------------------------------------------- symbol_correlate

/// One position of symbol_correlate: ZigBee's historical per-position loop,
/// with the complex product written out (no __mulsc3 NaN recovery; for
/// finite samples the same IEEE sequence as std::complex operator*).
inline void ScalarSymbolCorrelateOne(const cfloat* x, const cfloat* ref,
                                     std::size_t n_ref, cfloat& acc,
                                     double& energy) {
  float ar = 0.0f, ai = 0.0f;
  double e = 0.0;
  for (std::size_t n = 0; n < n_ref; ++n) {
    const float xr = x[n].real(), xi = x[n].imag();
    const float rr = ref[n].real(), nri = -ref[n].imag();
    ar = ar + (xr * rr - xi * nri);
    ai = ai + (xr * nri + xi * rr);
    e += static_cast<double>(xr * xr + xi * xi);
  }
  acc = {ar, ai};
  energy = e;
}

inline void ScalarSymbolCorrelate(const cfloat* x, std::size_t n_pos,
                                  const cfloat* ref, std::size_t n_ref,
                                  float* /*planes*/, cfloat* acc,
                                  double* energy) {
  for (std::size_t i = 0; i < n_pos; ++i) {
    ScalarSymbolCorrelateOne(x + i, ref, n_ref, acc[i], energy[i]);
  }
}

/// Vector tiers: positions in lanes. T::VF holds T::kWidth floats, T::VD
/// half as many doubles; T provides Zero/ZeroD/Set1/Load/Add/Sub/Mul/AddD,
/// LoadD (a VD from double-plane storage) and StoreComplex/StoreD. The span
/// is copied to planar re / im rows and a row of widened norms, so lane w
/// of a register loaded at i + n is sample i + w + n, and every lane runs
/// the exact ScalarSymbolCorrelateOne sequence. A pass covers kTiles
/// registers that share each reference broadcast; positions after the last
/// whole pass run through ScalarSymbolCorrelateOne itself.
template <class T>
void SymbolCorrelate(const cfloat* x, std::size_t n_pos, const cfloat* ref,
                     std::size_t n_ref, float* planes, cfloat* acc,
                     double* energy) {
  constexpr std::size_t kLanes = T::kWidth;
  constexpr std::size_t kTiles = 2;
  constexpr std::size_t kPass = kTiles * kLanes;
  const std::size_t body = n_pos - n_pos % kPass;
  if (body > 0) {
    const std::size_t stride = SymbolCorrelatePlaneStride(n_pos, n_ref);
    float* re = planes;
    float* im = planes + stride;
    float* pw = planes + 2 * stride;  // doubles, two floats each
    // The body's passes read span samples [0, body + n_ref - 1).
    for (std::size_t j = 0; j + 1 < body + n_ref; ++j) {
      const float xr = x[j].real(), xi = x[j].imag();
      re[j] = xr;
      im[j] = xi;
      const double p = static_cast<double>(xr * xr + xi * xi);
      std::memcpy(pw + 2 * j, &p, sizeof p);
    }
    for (std::size_t i = 0; i < body; i += kPass) {
      typename T::VF ar[kTiles], ai[kTiles];
      typename T::VD e[2 * kTiles];
#pragma GCC unroll 4
      for (std::size_t g = 0; g < kTiles; ++g) {
        ar[g] = T::Zero();
        ai[g] = T::Zero();
        e[2 * g] = T::ZeroD();
        e[2 * g + 1] = T::ZeroD();
      }
      for (std::size_t n = 0; n < n_ref; ++n) {
        const typename T::VF rr = T::Set1(ref[n].real());
        const typename T::VF nri = T::Set1(-ref[n].imag());
        const std::size_t at = i + n;
#pragma GCC unroll 4
        for (std::size_t g = 0; g < kTiles; ++g) {
          const std::size_t j = at + g * kLanes;
          const typename T::VF xr = T::Load(re + j);
          const typename T::VF xi = T::Load(im + j);
          ar[g] = T::Add(ar[g], T::Sub(T::Mul(xr, rr), T::Mul(xi, nri)));
          ai[g] = T::Add(ai[g], T::Add(T::Mul(xr, nri), T::Mul(xi, rr)));
          e[2 * g] = T::AddD(e[2 * g], T::LoadD(pw + 2 * j));
          e[2 * g + 1] = T::AddD(e[2 * g + 1], T::LoadD(pw + 2 * j + kLanes));
        }
      }
#pragma GCC unroll 4
      for (std::size_t g = 0; g < kTiles; ++g) {
        const std::size_t j = i + g * kLanes;
        T::StoreComplex(acc + j, ar[g], ai[g]);
        T::StoreD(energy + j, e[2 * g]);
        T::StoreD(energy + j + kLanes / 2, e[2 * g + 1]);
      }
    }
  }
  for (std::size_t i = body; i < n_pos; ++i) {
    ScalarSymbolCorrelateOne(x + i, ref, n_ref, acc[i], energy[i]);
  }
}

// Tier tables with external linkage: scalar is defined below (constexpr in
// this header); SSE2/AVX2 are defined in their arch-specific TUs. These
// declarations give the out-of-line definitions external linkage.
#if defined(__x86_64__) || defined(__i386__)
extern const Kernels kSse2Kernels;
extern const Kernels kAvx2Kernels;
extern const bool kAvx2Built;  // false if simd_avx2.cpp lost its -mavx2 flag
#endif

inline constexpr Kernels kScalarKernels = {
    Tier::kScalar,        &ScalarCorrelateChips, &ScalarFirComplex,
    &ScalarPhaseDiff,     &ScalarInstantPhase,   &ScalarSumFinitePower,
    &ScalarPowerPlane,    &ScalarHealthScan,     &ScalarConjMulSum,
    &ScalarPolyphaseResample, &ScalarSliceBytes, &ScalarSymbolCorrelate,
};

}  // namespace rfdump::dsp::simd::detail
