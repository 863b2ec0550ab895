// SSE2 tier of the dsp::simd kernel table. Baseline x86-64: no extra
// compile flags (and therefore no possibility of FMA contraction). Emulates
// the canonical 4-double / 8-float virtual-lane reduction models with
// register pairs; all per-element math instantiates the shared traits
// templates so the FP operation sequence matches the scalar tier exactly.

#if defined(__x86_64__) || defined(__i386__)

#include <emmintrin.h>

#include <cstddef>
#include <cstdint>

#include "simd_common.hpp"

namespace rfdump::dsp::simd::detail {
namespace {

inline const float* F(const cfloat* p) {
  return reinterpret_cast<const float*>(p);
}
inline float* F(cfloat* p) { return reinterpret_cast<float*>(p); }

struct SseTraits {
  using VF = __m128;
  using VD = __m128d;
  static constexpr std::size_t kWidth = 4;

  static VF Zero() { return _mm_setzero_ps(); }
  static VF Set1(float v) { return _mm_set1_ps(v); }
  static VF Load(const float* p) { return _mm_loadu_ps(p); }
  static VF Add(VF a, VF b) { return _mm_add_ps(a, b); }
  static VF Sub(VF a, VF b) { return _mm_sub_ps(a, b); }
  static VF Mul(VF a, VF b) { return _mm_mul_ps(a, b); }
  static VF Div(VF a, VF b) { return _mm_div_ps(a, b); }
  static VF BitAnd(VF a, VF b) { return _mm_and_ps(a, b); }
  static VF BitXor(VF a, VF b) { return _mm_xor_ps(a, b); }
  static VF Abs(VF a) {
    return _mm_and_ps(a, _mm_castsi128_ps(_mm_set1_epi32(0x7FFFFFFF)));
  }
  static VF CmpGT(VF a, VF b) { return _mm_cmpgt_ps(a, b); }
  static VF CmpLT(VF a, VF b) { return _mm_cmplt_ps(a, b); }
  static VF CmpEQ(VF a, VF b) { return _mm_cmpeq_ps(a, b); }
  static VF Blend(VF mask, VF a, VF b) {
    return _mm_or_ps(_mm_and_ps(mask, a), _mm_andnot_ps(mask, b));
  }
  static void StoreComplex(cfloat* out, VF re, VF im) {
    _mm_storeu_ps(F(out), _mm_unpacklo_ps(re, im));
    _mm_storeu_ps(F(out + 2), _mm_unpackhi_ps(re, im));
  }

  // Double lanes (kWidth / 2 per VD).
  static VD ZeroD() { return _mm_setzero_pd(); }
  static VD AddD(VD a, VD b) { return _mm_add_pd(a, b); }
  static VD LoadD(const float* p) {
    return _mm_loadu_pd(reinterpret_cast<const double*>(p));
  }
  static void StoreD(double* out, VD v) { _mm_storeu_pd(out, v); }
};

/// Loads x[i..i+3] and splits into in-order re/im planes.
inline void Deinterleave4(const cfloat* x, __m128& re, __m128& im) {
  const __m128 v0 = _mm_loadu_ps(F(x));      // re0 im0 re1 im1
  const __m128 v1 = _mm_loadu_ps(F(x) + 4);  // re2 im2 re3 im3
  re = _mm_shuffle_ps(v0, v1, _MM_SHUFFLE(2, 0, 2, 0));  // re0 re1 re2 re3
  im = _mm_shuffle_ps(v0, v1, _MM_SHUFFLE(3, 1, 3, 1));  // im0 im1 im2 im3
}

/// z = a * conj(b), planar, in the exact scalar ConjProduct order.
inline void ConjProduct4(__m128 ar, __m128 ai, __m128 br, __m128 bi,
                         __m128& re, __m128& im) {
  re = _mm_add_ps(_mm_mul_ps(ar, br), _mm_mul_ps(ai, bi));
  im = _mm_sub_ps(_mm_mul_ps(ai, br), _mm_mul_ps(ar, bi));
}

/// p = re^2 + im^2 with non-finite lanes (p < +inf fails) masked to +0.
inline __m128 FinitePower4(__m128 re, __m128 im) {
  const __m128 p = _mm_add_ps(_mm_mul_ps(re, re), _mm_mul_ps(im, im));
  const __m128 inf = _mm_set1_ps(std::numeric_limits<float>::infinity());
  return _mm_and_ps(_mm_cmplt_ps(p, inf), p);
}

void Sse2CorrelateChips(const cfloat* x, std::size_t n_out, const int* chips,
                        std::size_t n_chips, cfloat* out) {
  const std::size_t body = n_out - n_out % 2;  // 2 complex outputs per __m128
  for (std::size_t i = 0; i < body; i += 2) {
    __m128 acc = _mm_setzero_ps();
    for (std::size_t k = 0; k < n_chips; ++k) {
      const __m128 c = _mm_set1_ps(static_cast<float>(chips[k]));
      acc = _mm_add_ps(acc, _mm_mul_ps(c, _mm_loadu_ps(F(x + i + k))));
    }
    _mm_storeu_ps(F(out + i), acc);
  }
  for (std::size_t i = body; i < n_out; ++i) {
    out[i] = ScalarCorrelateOne(x + i, chips, n_chips);
  }
}

void Sse2FirComplex(const cfloat* work, std::size_t n_out, const float* taps,
                    std::size_t n_taps, cfloat* out) {
  // 8 outputs per pass: four independent accumulators share each tap
  // broadcast, which hides the add latency of the per-output chain.
  const std::size_t wide = n_out - n_out % 8;
  for (std::size_t n = 0; n < wide; n += 8) {
    __m128 a0 = _mm_setzero_ps(), a1 = _mm_setzero_ps();
    __m128 a2 = _mm_setzero_ps(), a3 = _mm_setzero_ps();
    for (std::size_t k = 0; k < n_taps; ++k) {
      const __m128 t = _mm_set1_ps(taps[k]);
      const float* v = F(work + n + (n_taps - 1 - k));
      a0 = _mm_add_ps(a0, _mm_mul_ps(t, _mm_loadu_ps(v)));
      a1 = _mm_add_ps(a1, _mm_mul_ps(t, _mm_loadu_ps(v + 4)));
      a2 = _mm_add_ps(a2, _mm_mul_ps(t, _mm_loadu_ps(v + 8)));
      a3 = _mm_add_ps(a3, _mm_mul_ps(t, _mm_loadu_ps(v + 12)));
    }
    _mm_storeu_ps(F(out + n), a0);
    _mm_storeu_ps(F(out + n + 2), a1);
    _mm_storeu_ps(F(out + n + 4), a2);
    _mm_storeu_ps(F(out + n + 6), a3);
  }
  const std::size_t body = n_out - n_out % 2;
  for (std::size_t n = wide; n < body; n += 2) {
    __m128 acc = _mm_setzero_ps();
    for (std::size_t k = 0; k < n_taps; ++k) {
      const __m128 t = _mm_set1_ps(taps[k]);
      const cfloat* v = work + n + (n_taps - 1 - k);
      acc = _mm_add_ps(acc, _mm_mul_ps(t, _mm_loadu_ps(F(v))));
    }
    _mm_storeu_ps(F(out + n), acc);
  }
  for (std::size_t n = body; n < n_out; ++n) {
    out[n] = ScalarFirOne(work + n, taps, n_taps);
  }
}

void Sse2PhaseDiff(const cfloat* x, std::size_t n, float* out) {
  const std::size_t n_out = n == 0 ? 0 : n - 1;
  const std::size_t body = n_out - n_out % 4;
  for (std::size_t i = 0; i < body; i += 4) {
    __m128 pr, pi, cr, ci;
    Deinterleave4(x + i, pr, pi);
    Deinterleave4(x + i + 1, cr, ci);
    __m128 zr, zi;
    ConjProduct4(cr, ci, pr, pi, zr, zi);
    _mm_storeu_ps(out + i, Atan2<SseTraits>(zi, zr));
  }
  for (std::size_t i = body; i < n_out; ++i) {
    out[i] = ScalarPhaseDiffOne(x[i], x[i + 1]);
  }
}

void Sse2InstantPhase(const cfloat* x, std::size_t n, float* out) {
  const std::size_t body = n - n % 4;
  for (std::size_t i = 0; i < body; i += 4) {
    __m128 re, im;
    Deinterleave4(x + i, re, im);
    _mm_storeu_ps(out + i, Atan2<SseTraits>(im, re));
  }
  for (std::size_t i = body; i < n; ++i) out[i] = ScalarInstantPhaseOne(x[i]);
}

double Sse2SumFinitePower(const cfloat* x, std::size_t n) {
  // Canonical 4-lane double model: acc01 = lanes {0,1}, acc23 = lanes {2,3}.
  __m128d acc01 = _mm_setzero_pd();
  __m128d acc23 = _mm_setzero_pd();
  const std::size_t body = n - n % 4;
  for (std::size_t i = 0; i < body; i += 4) {
    __m128 re, im;
    Deinterleave4(x + i, re, im);
    const __m128 p = FinitePower4(re, im);
    acc01 = _mm_add_pd(acc01, _mm_cvtps_pd(p));
    acc23 = _mm_add_pd(acc23, _mm_cvtps_pd(_mm_movehl_ps(p, p)));
  }
  alignas(16) double a[2], b[2];
  _mm_store_pd(a, acc01);
  _mm_store_pd(b, acc23);
  double sum = (a[0] + b[0]) + (a[1] + b[1]);  // (l0+l2)+(l1+l3)
  for (std::size_t i = body; i < n; ++i) {
    sum += static_cast<double>(ScalarFinitePower(x[i]));
  }
  return sum;
}

void Sse2PowerPlane(const cfloat* x, std::size_t n, float* out) {
  const std::size_t body = n - n % 4;
  for (std::size_t i = 0; i < body; i += 4) {
    __m128 re, im;
    Deinterleave4(x + i, re, im);
    _mm_storeu_ps(out + i, FinitePower4(re, im));
  }
  for (std::size_t i = body; i < n; ++i) out[i] = ScalarFinitePower(x[i]);
}

void Sse2HealthScan(const cfloat* x, std::size_t n, float rail,
                    std::uint64_t* nonfinite, std::uint64_t* saturated) {
  const __m128 inf = _mm_set1_ps(std::numeric_limits<float>::infinity());
  const __m128 rail_v = _mm_set1_ps(rail);
  std::uint64_t nf = 0, sat = 0;
  const std::size_t body = n - n % 4;
  for (std::size_t i = 0; i < body; i += 4) {
    __m128 re, im;
    Deinterleave4(x + i, re, im);
    const __m128 are = SseTraits::Abs(re);
    const __m128 aim = SseTraits::Abs(im);
    // finite: both |re| < inf and |im| < inf (NaN fails the ordered cmplt).
    const __m128 finite =
        _mm_and_ps(_mm_cmplt_ps(are, inf), _mm_cmplt_ps(aim, inf));
    // cmpnlt == ">= or unordered"; the unordered lanes are already counted
    // as non-finite, and the AND with `finite` keeps them out of saturated.
    const __m128 hot =
        _mm_or_ps(_mm_cmpnlt_ps(are, rail_v), _mm_cmpnlt_ps(aim, rail_v));
    const int fin_m = _mm_movemask_ps(finite);
    const int sat_m = _mm_movemask_ps(_mm_and_ps(finite, hot));
    nf += static_cast<unsigned>(__builtin_popcount(~fin_m & 0xF));
    sat += static_cast<unsigned>(__builtin_popcount(sat_m));
  }
  for (std::size_t i = body; i < n; ++i) ScalarHealthOne(x[i], rail, nf, sat);
  *nonfinite += nf;
  *saturated += sat;
}

cfloat Sse2ConjMulSum(const cfloat* x, std::size_t n) {
  if (n < 2) return {0.0f, 0.0f};
  // Canonical 8-lane float model with two register pairs: A = lanes {0..3},
  // B = lanes {4..7} of each 8-product group.
  __m128 re_a = _mm_setzero_ps(), im_a = _mm_setzero_ps();
  __m128 re_b = _mm_setzero_ps(), im_b = _mm_setzero_ps();
  const std::size_t products = n - 1;
  const std::size_t body = products - products % 8;
  for (std::size_t j = 0; j < body; j += 8) {
    __m128 pr, pi, cr, ci, zr, zi;
    Deinterleave4(x + j, pr, pi);
    Deinterleave4(x + j + 1, cr, ci);
    ConjProduct4(cr, ci, pr, pi, zr, zi);
    re_a = _mm_add_ps(re_a, zr);
    im_a = _mm_add_ps(im_a, zi);
    Deinterleave4(x + j + 4, pr, pi);
    Deinterleave4(x + j + 5, cr, ci);
    ConjProduct4(cr, ci, pr, pi, zr, zi);
    re_b = _mm_add_ps(re_b, zr);
    im_b = _mm_add_ps(im_b, zi);
  }
  alignas(16) float ra[4], rb[4], ia[4], ib[4];
  _mm_store_ps(ra, re_a);
  _mm_store_ps(rb, re_b);
  _mm_store_ps(ia, im_a);
  _mm_store_ps(ib, im_b);
  // ((l0+l2)+(l4+l6)) + ((l1+l3)+(l5+l7))
  float sr = ((ra[0] + ra[2]) + (rb[0] + rb[2])) +
             ((ra[1] + ra[3]) + (rb[1] + rb[3]));
  float si = ((ia[0] + ia[2]) + (ib[0] + ib[2])) +
             ((ia[1] + ia[3]) + (ib[1] + ib[3]));
  for (std::size_t j = body; j < products; ++j) {
    float pr, pi;
    ConjProduct(x[j + 1], x[j], pr, pi);
    sr += pr;
    si += pi;
  }
  return {sr, si};
}

/// Two interleaved complex samples per register for PolyphaseResample.
struct SseComplexTraits {
  using VC = __m128;
  static constexpr std::size_t kLanes = 2;

  static VC Zero() { return _mm_setzero_ps(); }
  static VC Set1(float v) { return _mm_set1_ps(v); }
  static VC Load(const cfloat* p) { return _mm_loadu_ps(F(p)); }
  static VC Add(VC a, VC b) { return _mm_add_ps(a, b); }
  static VC Mul(VC a, VC b) { return _mm_mul_ps(a, b); }
  static void Scatter(VC v, cfloat* out, std::size_t stride) {
    _mm_storel_pi(reinterpret_cast<__m64*>(out), v);
    _mm_storeh_pi(reinterpret_cast<__m64*>(out + stride), v);
  }
};

void Sse2PolyphaseResample(const cfloat* work, std::size_t n_work,
                           std::size_t n_out, std::size_t phase0,
                           std::size_t interp, std::size_t decim,
                           const float* taps, std::size_t n_taps,
                           cfloat* planes, cfloat* out) {
  PolyphaseResample<SseComplexTraits>(work, n_work, n_out, phase0, interp,
                                      decim, taps, n_taps, planes, out);
}

void Sse2SliceBytes(const float* f, std::size_t n_sym, std::uint8_t* out) {
  const __m128 zero = _mm_setzero_ps();
  for (std::size_t m = 0; m < n_sym; ++m) {
    const float* c = f + 8 * m;
    const __m128 lo = _mm_add_ps(
        _mm_add_ps(_mm_loadu_ps(c - 1), _mm_loadu_ps(c)), _mm_loadu_ps(c + 1));
    const __m128 hi = _mm_add_ps(
        _mm_add_ps(_mm_loadu_ps(c + 3), _mm_loadu_ps(c + 4)),
        _mm_loadu_ps(c + 5));
    out[m] = static_cast<std::uint8_t>(
        _mm_movemask_ps(_mm_cmpgt_ps(lo, zero)) |
        (_mm_movemask_ps(_mm_cmpgt_ps(hi, zero)) << 4));
  }
}

void Sse2SymbolCorrelate(const cfloat* x, std::size_t n_pos, const cfloat* ref,
                         std::size_t n_ref, float* planes, cfloat* acc,
                         double* energy) {
  SymbolCorrelate<SseTraits>(x, n_pos, ref, n_ref, planes, acc, energy);
}

}  // namespace

const Kernels kSse2Kernels = {
    Tier::kSse2,       &Sse2CorrelateChips, &Sse2FirComplex,
    &Sse2PhaseDiff,    &Sse2InstantPhase,   &Sse2SumFinitePower,
    &Sse2PowerPlane,   &Sse2HealthScan,     &Sse2ConjMulSum,
    &Sse2PolyphaseResample, &Sse2SliceBytes, &Sse2SymbolCorrelate,
};

}  // namespace rfdump::dsp::simd::detail

#endif  // x86
