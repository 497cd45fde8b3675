#pragma once

// Internal: the transcendental cores (exp, sin, cos) shared by both
// dispatch variants. The algorithms are written once, templated over an
// "Ops" policy that is either scalar doubles or compiler-vector lanes,
// so each element sees the identical operation sequence in every
// variant — that is what makes vexp/vsin/vcos bit-identical across
// generic and simd (the library is built with -ffp-contract=off so
// neither variant fuses a multiply-add the other doesn't).
//
// Accuracy (vs glibc, measured by tests/kernels_test.cpp and
// bench/ablation_kernels):
//   * exp_core: argument clamped to [-708, 708] (results stay normal);
//     round-to-nearest k = x*log2e via the 1.5*2^52 shifter, two-part
//     Cody-Waite ln2 reduction, degree-13 Horner on |r| <= ln2/2,
//     exact 2^k scaling through the exponent bits.
//   * sincos_core: j = x*2/pi via the same shifter, three-part pi/2
//     reduction (fdlibm's split), fdlibm kernel polynomials, quadrant
//     combine by lane select. Intended domain |x| <= 2^20.
//
// Internal linkage (an unnamed namespace): each variant's TU keeps its
// own copy of every core, compiled for its own ISA. Weak template
// instantiations shared by generic.cpp (baseline) and simd.cpp
// (x86-64-v3) let the linker keep one copy, so the scalar fallback
// could run AVX2 code.

#include <cstdint>
#include <cstring>

namespace insitu::kernels::detail {
namespace {

struct ScalarOps {
  using D = double;
  using I = std::int64_t;
  static D bcast(double v) { return v; }
  static I ibcast(std::int64_t v) { return v; }
  static I bits(D x) {
    I r;
    std::memcpy(&r, &x, sizeof r);
    return r;
  }
  static D from_bits(I x) {
    D r;
    std::memcpy(&r, &x, sizeof r);
    return r;
  }
  static I cmp_gt(D a, D b) { return a > b ? -1 : 0; }
  static I cmp_lt(D a, D b) { return a < b ? -1 : 0; }
  static I cmp_ieq(I a, I b) { return a == b ? -1 : 0; }
  static D sel(I mask, D t, D f) { return mask != 0 ? t : f; }
};

// Shifter: adding 1.5 * 2^52 forces round-to-nearest of the integer
// part into the low mantissa bits (valid while |value| < 2^51).
inline constexpr double kShifter = 6755399441055744.0;

inline constexpr double kLog2E = 1.4426950408889634074;
inline constexpr double kLn2Hi = 6.93147180369123816490e-01;
inline constexpr double kLn2Lo = 1.90821492927058770002e-10;

template <class O>
typename O::D exp_core(typename O::D x) {
  using D = typename O::D;
  using I = typename O::I;
  const D hi = O::bcast(708.0);
  const D lo = O::bcast(-708.0);
  x = O::sel(O::cmp_gt(x, hi), hi, x);  // NaN keeps x: compares are false
  x = O::sel(O::cmp_lt(x, lo), lo, x);

  const D shifter = O::bcast(kShifter);
  D kd = x * O::bcast(kLog2E) + shifter;
  const I ki = O::bits(kd) - O::bits(shifter);
  kd = kd - shifter;

  D r = x - kd * O::bcast(kLn2Hi);
  r = r - kd * O::bcast(kLn2Lo);

  // Horner over 1/k!: e^r = (((c13 r + c12) r + ...) r + 1) r + 1.
  D p = O::bcast(1.6059043836821614599e-10);   // 1/13!
  p = p * r + O::bcast(2.0876756987868098979e-09);  // 1/12!
  p = p * r + O::bcast(2.5052108385441718775e-08);  // 1/11!
  p = p * r + O::bcast(2.7557319223985890653e-07);  // 1/10!
  p = p * r + O::bcast(2.7557319223985892510e-06);  // 1/9!
  p = p * r + O::bcast(2.4801587301587301566e-05);  // 1/8!
  p = p * r + O::bcast(1.9841269841269841253e-04);  // 1/7!
  p = p * r + O::bcast(1.3888888888888889419e-03);  // 1/6!
  p = p * r + O::bcast(8.3333333333333332177e-03);  // 1/5!
  p = p * r + O::bcast(4.1666666666666664354e-02);  // 1/4!
  p = p * r + O::bcast(1.6666666666666665741e-01);  // 1/3!
  p = p * r + O::bcast(0.5);
  p = p * r + O::bcast(1.0);
  p = p * r + O::bcast(1.0);

  const I scale_bits = (ki + O::ibcast(1023)) << 52;
  return p * O::from_bits(scale_bits);
}

inline constexpr double kTwoOverPi = 6.36619772367581382433e-01;
inline constexpr double kPio2_1 = 1.57079632673412561417e+00;
inline constexpr double kPio2_2 = 6.07710050630396597660e-11;
inline constexpr double kPio2_3 = 2.02226624879595063154e-21;

/// Shared reduction + kernel polynomials; the callers combine (s, c)
/// by quadrant.
template <class O>
void sincos_core(typename O::D x, typename O::D& s_out,
                 typename O::D& c_out, typename O::I& q_out) {
  using D = typename O::D;
  using I = typename O::I;
  const D shifter = O::bcast(kShifter);
  D jd = x * O::bcast(kTwoOverPi) + shifter;
  const I ji = O::bits(jd) - O::bits(shifter);
  jd = jd - shifter;

  D r = x - jd * O::bcast(kPio2_1);
  r = r - jd * O::bcast(kPio2_2);
  r = r - jd * O::bcast(kPio2_3);

  const D z = r * r;
  const D w = z * r;

  // fdlibm __kernel_sin.
  D ps = O::bcast(1.58969099521155010221e-10);   // S6
  ps = ps * z + O::bcast(-2.50507602534068634195e-08);  // S5
  ps = ps * z + O::bcast(2.75573137070700676789e-06);   // S4
  ps = ps * z + O::bcast(-1.98412698298579493134e-04);  // S3
  ps = ps * z + O::bcast(8.33333333332248946124e-03);   // S2
  s_out = r + w * (O::bcast(-1.66666666666666324348e-01) + z * ps);

  // fdlibm __kernel_cos (plain Horner form).
  D pc = O::bcast(-1.13596475577881948265e-11);  // C6
  pc = pc * z + O::bcast(2.08757232129817482790e-09);   // C5
  pc = pc * z + O::bcast(-2.75573143513906633035e-07);  // C4
  pc = pc * z + O::bcast(2.48015872894767294178e-05);   // C3
  pc = pc * z + O::bcast(-1.38888888888741095749e-03);  // C2
  pc = pc * z + O::bcast(4.16666666666666019037e-02);   // C1
  c_out = O::bcast(1.0) - z * O::bcast(0.5) + z * z * pc;

  q_out = ji & O::ibcast(3);
}

template <class O>
typename O::D sin_core(typename O::D x) {
  typename O::D s, c;
  typename O::I q;
  sincos_core<O>(x, s, c, q);
  // q0: s, q1: c, q2: -s, q3: -c.
  const typename O::D base =
      O::sel(O::cmp_ieq(q & O::ibcast(1), O::ibcast(1)), c, s);
  const typename O::D sign = O::sel(
      O::cmp_ieq(q & O::ibcast(2), O::ibcast(2)), O::bcast(-1.0),
      O::bcast(1.0));
  return base * sign;
}

template <class O>
typename O::D cos_core(typename O::D x) {
  typename O::D s, c;
  typename O::I q;
  sincos_core<O>(x, s, c, q);
  // q0: c, q1: -s, q2: -c, q3: s.
  const typename O::D base =
      O::sel(O::cmp_ieq(q & O::ibcast(1), O::ibcast(1)), s, c);
  const typename O::D sign = O::sel(
      O::cmp_ieq((q + O::ibcast(1)) & O::ibcast(2), O::ibcast(2)),
      O::bcast(-1.0), O::bcast(1.0));
  return base * sign;
}

}  // namespace
}  // namespace insitu::kernels::detail
