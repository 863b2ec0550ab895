// AVX2 tier of the dsp::simd kernel table. This TU is compiled with -mavx2
// ONLY — never -mfma — so FMA contraction is impossible and every multiply
// and add rounds separately, exactly like the scalar tier (DESIGN.md §16).
//
// The in-register deinterleave (_mm256_shuffle_ps acting per 128-bit lane)
// produces element order [0,1,4,5,2,3,6,7]. Per-element kernels undo it with
// a self-inverse _mm256_permutevar8x32_ps before storing; reductions fold
// the permutation into the canonical lane-combine order instead.

#if (defined(__x86_64__) || defined(__i386__)) && defined(__AVX2__)

#include <immintrin.h>

#include <cstddef>
#include <cstdint>

#include "simd_common.hpp"

namespace rfdump::dsp::simd::detail {
namespace {

inline const float* F(const cfloat* p) {
  return reinterpret_cast<const float*>(p);
}
inline float* F(cfloat* p) { return reinterpret_cast<float*>(p); }

struct AvxTraits {
  using VF = __m256;
  using VD = __m256d;
  static constexpr std::size_t kWidth = 8;

  static VF Zero() { return _mm256_setzero_ps(); }
  static VF Set1(float v) { return _mm256_set1_ps(v); }
  static VF Load(const float* p) { return _mm256_loadu_ps(p); }
  static VF Add(VF a, VF b) { return _mm256_add_ps(a, b); }
  static VF Sub(VF a, VF b) { return _mm256_sub_ps(a, b); }
  static VF Mul(VF a, VF b) { return _mm256_mul_ps(a, b); }
  static VF Div(VF a, VF b) { return _mm256_div_ps(a, b); }
  static VF BitAnd(VF a, VF b) { return _mm256_and_ps(a, b); }
  static VF BitXor(VF a, VF b) { return _mm256_xor_ps(a, b); }
  static VF Abs(VF a) {
    return _mm256_and_ps(a, _mm256_castsi256_ps(_mm256_set1_epi32(0x7FFFFFFF)));
  }
  static VF CmpGT(VF a, VF b) { return _mm256_cmp_ps(a, b, _CMP_GT_OQ); }
  static VF CmpLT(VF a, VF b) { return _mm256_cmp_ps(a, b, _CMP_LT_OQ); }
  static VF CmpEQ(VF a, VF b) { return _mm256_cmp_ps(a, b, _CMP_EQ_OQ); }
  static VF Blend(VF mask, VF a, VF b) { return _mm256_blendv_ps(b, a, mask); }
  static void StoreComplex(cfloat* out, VF re, VF im) {
    // unpack works per 128-bit half: lo = [0 1 | 4 5], hi = [2 3 | 6 7].
    const __m256 lo = _mm256_unpacklo_ps(re, im);
    const __m256 hi = _mm256_unpackhi_ps(re, im);
    _mm256_storeu_ps(F(out), _mm256_permute2f128_ps(lo, hi, 0x20));
    _mm256_storeu_ps(F(out + 4), _mm256_permute2f128_ps(lo, hi, 0x31));
  }

  // Double lanes (kWidth / 2 per VD).
  static VD ZeroD() { return _mm256_setzero_pd(); }
  static VD AddD(VD a, VD b) { return _mm256_add_pd(a, b); }
  static VD LoadD(const float* p) {
    return _mm256_loadu_pd(reinterpret_cast<const double*>(p));
  }
  static void StoreD(double* out, VD v) { _mm256_storeu_pd(out, v); }
};

/// Element order of the shuffle-based deinterleave, and (being self-inverse)
/// also the permutation that restores element order before a store.
inline __m256i DeintPerm() { return _mm256_setr_epi32(0, 1, 4, 5, 2, 3, 6, 7); }

/// Loads x[i..i+7] and splits into re/im planes in [0,1,4,5,2,3,6,7] order.
inline void Deinterleave8(const cfloat* x, __m256& re, __m256& im) {
  const __m256 v0 = _mm256_loadu_ps(F(x));      // elements 0..3 interleaved
  const __m256 v1 = _mm256_loadu_ps(F(x) + 8);  // elements 4..7 interleaved
  re = _mm256_shuffle_ps(v0, v1, _MM_SHUFFLE(2, 0, 2, 0));
  im = _mm256_shuffle_ps(v0, v1, _MM_SHUFFLE(3, 1, 3, 1));
}

inline void ConjProduct8(__m256 ar, __m256 ai, __m256 br, __m256 bi,
                         __m256& re, __m256& im) {
  re = _mm256_add_ps(_mm256_mul_ps(ar, br), _mm256_mul_ps(ai, bi));
  im = _mm256_sub_ps(_mm256_mul_ps(ai, br), _mm256_mul_ps(ar, bi));
}

inline __m256 FinitePower8(__m256 re, __m256 im) {
  const __m256 p =
      _mm256_add_ps(_mm256_mul_ps(re, re), _mm256_mul_ps(im, im));
  const __m256 inf = _mm256_set1_ps(std::numeric_limits<float>::infinity());
  return _mm256_and_ps(_mm256_cmp_ps(p, inf, _CMP_LT_OQ), p);
}

void Avx2CorrelateChips(const cfloat* x, std::size_t n_out, const int* chips,
                        std::size_t n_chips, cfloat* out) {
  const std::size_t body = n_out - n_out % 4;  // 4 complex outputs per __m256
  for (std::size_t i = 0; i < body; i += 4) {
    __m256 acc = _mm256_setzero_ps();
    for (std::size_t k = 0; k < n_chips; ++k) {
      const __m256 c = _mm256_set1_ps(static_cast<float>(chips[k]));
      acc = _mm256_add_ps(acc, _mm256_mul_ps(c, _mm256_loadu_ps(F(x + i + k))));
    }
    _mm256_storeu_ps(F(out + i), acc);
  }
  for (std::size_t i = body; i < n_out; ++i) {
    out[i] = ScalarCorrelateOne(x + i, chips, n_chips);
  }
}

void Avx2FirComplex(const cfloat* work, std::size_t n_out, const float* taps,
                    std::size_t n_taps, cfloat* out) {
  // 16 outputs per pass: four independent accumulators share each tap
  // broadcast, which hides the add latency of the per-output chain.
  const std::size_t wide = n_out - n_out % 16;
  for (std::size_t n = 0; n < wide; n += 16) {
    __m256 a0 = _mm256_setzero_ps(), a1 = _mm256_setzero_ps();
    __m256 a2 = _mm256_setzero_ps(), a3 = _mm256_setzero_ps();
    for (std::size_t k = 0; k < n_taps; ++k) {
      const __m256 t = _mm256_set1_ps(taps[k]);
      const float* v = F(work + n + (n_taps - 1 - k));
      a0 = _mm256_add_ps(a0, _mm256_mul_ps(t, _mm256_loadu_ps(v)));
      a1 = _mm256_add_ps(a1, _mm256_mul_ps(t, _mm256_loadu_ps(v + 8)));
      a2 = _mm256_add_ps(a2, _mm256_mul_ps(t, _mm256_loadu_ps(v + 16)));
      a3 = _mm256_add_ps(a3, _mm256_mul_ps(t, _mm256_loadu_ps(v + 24)));
    }
    _mm256_storeu_ps(F(out + n), a0);
    _mm256_storeu_ps(F(out + n + 4), a1);
    _mm256_storeu_ps(F(out + n + 8), a2);
    _mm256_storeu_ps(F(out + n + 12), a3);
  }
  const std::size_t body = n_out - n_out % 4;
  for (std::size_t n = wide; n < body; n += 4) {
    __m256 acc = _mm256_setzero_ps();
    for (std::size_t k = 0; k < n_taps; ++k) {
      const __m256 t = _mm256_set1_ps(taps[k]);
      const cfloat* v = work + n + (n_taps - 1 - k);
      acc = _mm256_add_ps(acc, _mm256_mul_ps(t, _mm256_loadu_ps(F(v))));
    }
    _mm256_storeu_ps(F(out + n), acc);
  }
  for (std::size_t n = body; n < n_out; ++n) {
    out[n] = ScalarFirOne(work + n, taps, n_taps);
  }
}

void Avx2PhaseDiff(const cfloat* x, std::size_t n, float* out) {
  const __m256i perm = DeintPerm();
  const std::size_t n_out = n == 0 ? 0 : n - 1;
  const std::size_t body = n_out - n_out % 8;
  for (std::size_t i = 0; i < body; i += 8) {
    __m256 pr, pi, cr, ci, zr, zi;
    Deinterleave8(x + i, pr, pi);
    Deinterleave8(x + i + 1, cr, ci);
    ConjProduct8(cr, ci, pr, pi, zr, zi);
    const __m256 r = Atan2<AvxTraits>(zi, zr);
    _mm256_storeu_ps(out + i, _mm256_permutevar8x32_ps(r, perm));
  }
  for (std::size_t i = body; i < n_out; ++i) {
    out[i] = ScalarPhaseDiffOne(x[i], x[i + 1]);
  }
}

void Avx2InstantPhase(const cfloat* x, std::size_t n, float* out) {
  const __m256i perm = DeintPerm();
  const std::size_t body = n - n % 8;
  for (std::size_t i = 0; i < body; i += 8) {
    __m256 re, im;
    Deinterleave8(x + i, re, im);
    const __m256 r = Atan2<AvxTraits>(im, re);
    _mm256_storeu_ps(out + i, _mm256_permutevar8x32_ps(r, perm));
  }
  for (std::size_t i = body; i < n; ++i) out[i] = ScalarInstantPhaseOne(x[i]);
}

double Avx2SumFinitePower(const cfloat* x, std::size_t n) {
  // Canonical 4-lane double model: one __m256d accumulator, lane j takes
  // elements i % 4 == j. The 4-wide power vector is built from a 128-bit
  // deinterleave, so the lanes are in element order here (no permutation).
  __m256d acc = _mm256_setzero_pd();
  const std::size_t body = n - n % 4;
  for (std::size_t i = 0; i < body; i += 4) {
    const __m128 v0 = _mm_loadu_ps(F(x + i));
    const __m128 v1 = _mm_loadu_ps(F(x + i) + 4);
    const __m128 re = _mm_shuffle_ps(v0, v1, _MM_SHUFFLE(2, 0, 2, 0));
    const __m128 im = _mm_shuffle_ps(v0, v1, _MM_SHUFFLE(3, 1, 3, 1));
    const __m128 p = _mm_add_ps(_mm_mul_ps(re, re), _mm_mul_ps(im, im));
    const __m128 inf = _mm_set1_ps(std::numeric_limits<float>::infinity());
    const __m128 fp = _mm_and_ps(_mm_cmplt_ps(p, inf), p);
    acc = _mm256_add_pd(acc, _mm256_cvtps_pd(fp));
  }
  alignas(32) double a[4];
  _mm256_store_pd(a, acc);
  double sum = (a[0] + a[2]) + (a[1] + a[3]);
  for (std::size_t i = body; i < n; ++i) {
    sum += static_cast<double>(ScalarFinitePower(x[i]));
  }
  return sum;
}

void Avx2PowerPlane(const cfloat* x, std::size_t n, float* out) {
  const __m256i perm = DeintPerm();
  const std::size_t body = n - n % 8;
  for (std::size_t i = 0; i < body; i += 8) {
    __m256 re, im;
    Deinterleave8(x + i, re, im);
    const __m256 p = FinitePower8(re, im);
    _mm256_storeu_ps(out + i, _mm256_permutevar8x32_ps(p, perm));
  }
  for (std::size_t i = body; i < n; ++i) out[i] = ScalarFinitePower(x[i]);
}

void Avx2HealthScan(const cfloat* x, std::size_t n, float rail,
                    std::uint64_t* nonfinite, std::uint64_t* saturated) {
  const __m256 inf = _mm256_set1_ps(std::numeric_limits<float>::infinity());
  const __m256 rail_v = _mm256_set1_ps(rail);
  std::uint64_t nf = 0, sat = 0;
  const std::size_t body = n - n % 8;
  for (std::size_t i = 0; i < body; i += 8) {
    __m256 re, im;
    Deinterleave8(x + i, re, im);  // lane order irrelevant: we only count
    const __m256 are = AvxTraits::Abs(re);
    const __m256 aim = AvxTraits::Abs(im);
    const __m256 finite = _mm256_and_ps(_mm256_cmp_ps(are, inf, _CMP_LT_OQ),
                                        _mm256_cmp_ps(aim, inf, _CMP_LT_OQ));
    const __m256 hot = _mm256_or_ps(_mm256_cmp_ps(are, rail_v, _CMP_GE_OQ),
                                    _mm256_cmp_ps(aim, rail_v, _CMP_GE_OQ));
    const int fin_m = _mm256_movemask_ps(finite);
    const int sat_m = _mm256_movemask_ps(_mm256_and_ps(finite, hot));
    nf += static_cast<unsigned>(__builtin_popcount(~fin_m & 0xFF));
    sat += static_cast<unsigned>(__builtin_popcount(sat_m));
  }
  for (std::size_t i = body; i < n; ++i) ScalarHealthOne(x[i], rail, nf, sat);
  *nonfinite += nf;
  *saturated += sat;
}

cfloat Avx2ConjMulSum(const cfloat* x, std::size_t n) {
  if (n < 2) return {0.0f, 0.0f};
  // Physical accumulator lane l holds canonical lane DeintPerm[l], i.e. the
  // register is [L0,L1,L4,L5,L2,L3,L6,L7]; the store below indexes
  // accordingly to realize the canonical combine.
  __m256 re_acc = _mm256_setzero_ps(), im_acc = _mm256_setzero_ps();
  const std::size_t products = n - 1;
  const std::size_t body = products - products % 8;
  for (std::size_t j = 0; j < body; j += 8) {
    __m256 pr, pi, cr, ci, zr, zi;
    Deinterleave8(x + j, pr, pi);
    Deinterleave8(x + j + 1, cr, ci);
    ConjProduct8(cr, ci, pr, pi, zr, zi);
    re_acc = _mm256_add_ps(re_acc, zr);
    im_acc = _mm256_add_ps(im_acc, zi);
  }
  alignas(32) float r[8], im[8];
  _mm256_store_ps(r, re_acc);
  _mm256_store_ps(im, im_acc);
  // Physical index of canonical lane: L0=0 L1=1 L2=4 L3=5 L4=2 L5=3 L6=6 L7=7.
  // Canonical combine ((l0+l2)+(l4+l6)) + ((l1+l3)+(l5+l7)):
  float sr = ((r[0] + r[4]) + (r[2] + r[6])) + ((r[1] + r[5]) + (r[3] + r[7]));
  float si =
      ((im[0] + im[4]) + (im[2] + im[6])) + ((im[1] + im[5]) + (im[3] + im[7]));
  for (std::size_t j = body; j < products; ++j) {
    float pr, pi;
    ConjProduct(x[j + 1], x[j], pr, pi);
    sr += pr;
    si += pi;
  }
  return {sr, si};
}

/// Four interleaved complex samples per register for PolyphaseResample.
struct AvxComplexTraits {
  using VC = __m256;
  static constexpr std::size_t kLanes = 4;

  static VC Zero() { return _mm256_setzero_ps(); }
  static VC Set1(float v) { return _mm256_set1_ps(v); }
  static VC Load(const cfloat* p) { return _mm256_loadu_ps(F(p)); }
  static VC Add(VC a, VC b) { return _mm256_add_ps(a, b); }
  static VC Mul(VC a, VC b) { return _mm256_mul_ps(a, b); }
  static void Scatter(VC v, cfloat* out, std::size_t stride) {
    const __m128 lo = _mm256_castps256_ps128(v);
    const __m128 hi = _mm256_extractf128_ps(v, 1);
    _mm_storel_pi(reinterpret_cast<__m64*>(out), lo);
    _mm_storeh_pi(reinterpret_cast<__m64*>(out + stride), lo);
    _mm_storel_pi(reinterpret_cast<__m64*>(out + 2 * stride), hi);
    _mm_storeh_pi(reinterpret_cast<__m64*>(out + 3 * stride), hi);
  }
};

void Avx2PolyphaseResample(const cfloat* work, std::size_t n_work,
                           std::size_t n_out, std::size_t phase0,
                           std::size_t interp, std::size_t decim,
                           const float* taps, std::size_t n_taps,
                           cfloat* planes, cfloat* out) {
  PolyphaseResample<AvxComplexTraits>(work, n_work, n_out, phase0, interp,
                                      decim, taps, n_taps, planes, out);
}

void Avx2SliceBytes(const float* f, std::size_t n_sym, std::uint8_t* out) {
  const __m256 zero = _mm256_setzero_ps();
  for (std::size_t m = 0; m < n_sym; ++m) {
    const float* c = f + 8 * m;
    const __m256 v = _mm256_add_ps(
        _mm256_add_ps(_mm256_loadu_ps(c - 1), _mm256_loadu_ps(c)),
        _mm256_loadu_ps(c + 1));
    out[m] = static_cast<std::uint8_t>(
        _mm256_movemask_ps(_mm256_cmp_ps(v, zero, _CMP_GT_OQ)));
  }
}

void Avx2SymbolCorrelate(const cfloat* x, std::size_t n_pos, const cfloat* ref,
                         std::size_t n_ref, float* planes, cfloat* acc,
                         double* energy) {
  SymbolCorrelate<AvxTraits>(x, n_pos, ref, n_ref, planes, acc, energy);
}

}  // namespace

const Kernels kAvx2Kernels = {
    Tier::kAvx2,       &Avx2CorrelateChips, &Avx2FirComplex,
    &Avx2PhaseDiff,    &Avx2InstantPhase,   &Avx2SumFinitePower,
    &Avx2PowerPlane,   &Avx2HealthScan,     &Avx2ConjMulSum,
    &Avx2PolyphaseResample, &Avx2SliceBytes, &Avx2SymbolCorrelate,
};

const bool kAvx2Built = true;

}  // namespace rfdump::dsp::simd::detail

#else
// Built without -mavx2 (a toolchain where the per-source flag doesn't
// apply): keep the dispatcher linking but report the tier as unbuilt so
// TierSupported(kAvx2) is false regardless of what CPUID says.
#if defined(__x86_64__) || defined(__i386__)
#include "simd_common.hpp"
namespace rfdump::dsp::simd::detail {
const Kernels kAvx2Kernels = kScalarKernels;
const bool kAvx2Built = false;
}  // namespace rfdump::dsp::simd::detail
#endif
#endif  // x86 && AVX2
