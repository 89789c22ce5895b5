//! Runtime-dispatched SIMD kernels for the leaf-level complex arithmetic.
//!
//! Two hot routines are vectorized (see DESIGN.md §13): [`mul_scaled2`] /
//! [`mul_scaled4`], the 2×2 leaf multiply/accumulate — a common scale
//! factor (an edge weight) times the 2 (vector) or 4 (matrix) child weights
//! of a node. (The [`ComplexTable`](crate::ComplexTable) tolerance probe is
//! scalar: a grid cell holds about one candidate, so there is nothing to
//! pack into lanes.)
//!
//! # Bitwise identity with the scalar fallback
//!
//! The scalar path is the canonical semantics; every SIMD path is required
//! to be **bit-for-bit identical** to it, which is what lets the `simd`
//! cargo feature default on without perturbing snapshots, fuzz oracles, or
//! the cross-strategy property tests. The products use one multiply and one add/sub rounding per component —
//! the same operations, in the same order, as `Complex::mul`. No FMA is
//! used anywhere: fused multiply-add rounds once instead of twice and would
//! silently change interned representatives.
//!
//! Dispatch is detected **once** (per table / manager construction, via
//! [`SimdLevel::detect`]) and stored; the kernels branch on the stored
//! level, never on `is_x86_feature_detected!` (an atomic load) per call.
//! On non-x86-64 targets, or with the `simd` cargo feature disabled, every
//! entry point compiles straight to the scalar code.

use crate::value::Complex;

/// The instruction-set tier selected at detection time.
///
/// Ordered from weakest to strongest; [`SimdLevel::detect`] returns the
/// strongest tier the running CPU supports (x86-64 with the `simd` feature
/// enabled), otherwise [`SimdLevel::Scalar`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdLevel {
    /// Plain scalar `f64` arithmetic — the canonical semantics.
    #[default]
    Scalar,
    /// 128-bit lanes: one complex product per instruction.
    Sse2,
    /// 256-bit lanes: two complex products per instruction.
    Avx,
}

impl SimdLevel {
    /// Detects the strongest available tier. Returns [`SimdLevel::Scalar`]
    /// unless the crate was built with the `simd` feature on x86-64.
    ///
    /// `is_x86_feature_detected!` caches its CPUID result internally, but
    /// even the cached read is an atomic load — callers are expected to
    /// invoke `detect` once per table/manager and store the result.
    pub fn detect() -> SimdLevel {
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        {
            if std::arch::is_x86_feature_detected!("avx") {
                return SimdLevel::Avx;
            }
            if std::arch::is_x86_feature_detected!("sse2") {
                // SSE2 is baseline for x86-64, but honour the runtime
                // answer anyway (the scalar path is always correct).
                return SimdLevel::Sse2;
            }
        }
        SimdLevel::Scalar
    }

    /// [`detect`](Self::detect) when `enabled`, [`SimdLevel::Scalar`]
    /// otherwise — the hook behind `DdConfig::simd` and the fuzz lattice's
    /// scalar axis.
    pub fn detect_or_scalar(enabled: bool) -> SimdLevel {
        if enabled {
            Self::detect()
        } else {
            SimdLevel::Scalar
        }
    }
}

// ----------------------------------------------------------------------
// Scaled products (edge weight × child weights)
// ----------------------------------------------------------------------

/// `[a·b0, a·b1]`, bit-identical to `Complex::mul` per element.
#[inline]
pub fn mul_scaled2(level: SimdLevel, a: Complex, b: [Complex; 2]) -> [Complex; 2] {
    match level {
        SimdLevel::Scalar => [a * b[0], a * b[1]],
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        SimdLevel::Sse2 => unsafe { [mul_one_sse2(a, b[0]), mul_one_sse2(a, b[1])] },
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        SimdLevel::Avx => unsafe { mul_pair_avx(a, b) },
        #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
        _ => [a * b[0], a * b[1]],
    }
}

/// `[a·b0, a·b1, a·b2, a·b3]`, bit-identical to `Complex::mul` per element.
#[inline]
pub fn mul_scaled4(level: SimdLevel, a: Complex, b: [Complex; 4]) -> [Complex; 4] {
    match level {
        SimdLevel::Scalar => [a * b[0], a * b[1], a * b[2], a * b[3]],
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        SimdLevel::Sse2 => unsafe {
            [
                mul_one_sse2(a, b[0]),
                mul_one_sse2(a, b[1]),
                mul_one_sse2(a, b[2]),
                mul_one_sse2(a, b[3]),
            ]
        },
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        SimdLevel::Avx => unsafe {
            let lo = mul_pair_avx(a, [b[0], b[1]]);
            let hi = mul_pair_avx(a, [b[2], b[3]]);
            [lo[0], lo[1], hi[0], hi[1]]
        },
        #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
        _ => [a * b[0], a * b[1], a * b[2], a * b[3]],
    }
}

// ----------------------------------------------------------------------
// x86-64 intrinsic paths
// ----------------------------------------------------------------------

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod x86 {
    use super::*;
    use std::arch::x86_64::*;

    /// One complex product in 128-bit lanes.
    ///
    /// Per component this performs exactly the scalar sequence
    /// `fl(fl(re·re) − fl(im·im))` / `fl(fl(re·im) + fl(im·re))`: two
    /// multiply roundings and one add/sub rounding. The subtraction is
    /// realised as addition of the sign-flipped product (sign flips are
    /// exact), keeping the whole kernel SSE2-only.
    ///
    /// # Safety
    ///
    /// Caller guarantees the CPU supports SSE2.
    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn mul_one_sse2(a: Complex, b: Complex) -> Complex {
        let vb = _mm_loadu_pd(&b.re as *const f64); // [b.re, b.im]
        let t1 = _mm_mul_pd(_mm_set1_pd(a.re), vb); // [a.re·b.re, a.re·b.im]
        let vswap = _mm_shuffle_pd::<0b01>(vb, vb); // [b.im, b.re]
        let t2 = _mm_mul_pd(_mm_set1_pd(a.im), vswap); // [a.im·b.im, a.im·b.re]
                                                       // Negate only lane 0 of t2, then add: lane 0 = re·re − im·im,
                                                       // lane 1 = re·im + im·re.
        let negmask = _mm_castsi128_pd(_mm_set_epi64x(0, i64::MIN));
        let res = _mm_add_pd(t1, _mm_xor_pd(t2, negmask));
        let mut out = [0.0f64; 2];
        _mm_storeu_pd(out.as_mut_ptr(), res);
        Complex::new(out[0], out[1])
    }

    /// Two complex products with a common left factor in 256-bit lanes,
    /// using `vaddsubpd` (subtract in even lanes, add in odd lanes — the
    /// complex-multiply pattern). Same rounding sequence as the scalar
    /// code.
    ///
    /// # Safety
    ///
    /// Caller guarantees the CPU supports AVX.
    #[target_feature(enable = "avx")]
    pub(super) unsafe fn mul_pair_avx(a: Complex, b: [Complex; 2]) -> [Complex; 2] {
        let vb = _mm256_loadu_pd(&b[0].re as *const f64); // [b0.re, b0.im, b1.re, b1.im]
        let t1 = _mm256_mul_pd(_mm256_set1_pd(a.re), vb);
        let vswap = _mm256_permute_pd::<0b0101>(vb); // swap within each 128-bit half
        let t2 = _mm256_mul_pd(_mm256_set1_pd(a.im), vswap);
        let res = _mm256_addsub_pd(t1, t2);
        let mut out = [0.0f64; 4];
        _mm256_storeu_pd(out.as_mut_ptr(), res);
        [Complex::new(out[0], out[1]), Complex::new(out[2], out[3])]
    }
}

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
use x86::{mul_one_sse2, mul_pair_avx};

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic value stream without a RNG dependency: a 64-bit LCG
    /// driving mantissa/exponent patterns that cover magnitudes from 1e-14
    /// to 1e3, both signs, exact zeros, and values straddling tolerance.
    struct Gen(u64);

    impl Gen {
        fn next_u64(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0
        }

        fn next_f64(&mut self) -> f64 {
            let bits = self.next_u64();
            let mag = (bits >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
            let scale = [1e-14, 1e-13, 1e-10, 1e-6, 1e-2, 1.0, 3.7, 1e3][(bits & 0x7) as usize];
            let sign = if bits & 0x8 == 0 { 1.0 } else { -1.0 };
            sign * mag * scale
        }

        fn next_complex(&mut self) -> Complex {
            Complex::new(self.next_f64(), self.next_f64())
        }
    }

    fn available_levels() -> Vec<SimdLevel> {
        let mut levels = vec![SimdLevel::Scalar];
        let best = SimdLevel::detect();
        if best >= SimdLevel::Sse2 {
            levels.push(SimdLevel::Sse2);
        }
        if best >= SimdLevel::Avx {
            levels.push(SimdLevel::Avx);
        }
        levels
    }

    #[test]
    fn scaled_products_are_bitwise_identical_to_scalar() {
        let mut g = Gen(0xfeed_0002);
        for round in 0..2000 {
            let a = g.next_complex();
            let b2 = [g.next_complex(), g.next_complex()];
            let b4 = [
                g.next_complex(),
                g.next_complex(),
                g.next_complex(),
                g.next_complex(),
            ];
            let want2 = mul_scaled2(SimdLevel::Scalar, a, b2);
            let want4 = mul_scaled4(SimdLevel::Scalar, a, b4);
            for &level in &available_levels() {
                let got2 = mul_scaled2(level, a, b2);
                let got4 = mul_scaled4(level, a, b4);
                for i in 0..2 {
                    assert_eq!(
                        got2[i].re.to_bits(),
                        want2[i].re.to_bits(),
                        "round {round} {level:?} mul2[{i}].re"
                    );
                    assert_eq!(
                        got2[i].im.to_bits(),
                        want2[i].im.to_bits(),
                        "round {round} {level:?} mul2[{i}].im"
                    );
                }
                for i in 0..4 {
                    assert_eq!(
                        got4[i].re.to_bits(),
                        want4[i].re.to_bits(),
                        "round {round} {level:?} mul4[{i}].re"
                    );
                    assert_eq!(
                        got4[i].im.to_bits(),
                        want4[i].im.to_bits(),
                        "round {round} {level:?} mul4[{i}].im"
                    );
                }
            }
        }
    }

    #[test]
    fn scaled_product_agrees_with_complex_mul_operator() {
        // The scalar tier *is* `Complex::mul`; pin that equivalence so the
        // canonical semantics cannot silently diverge from the operator.
        let mut g = Gen(0xabcd_0003);
        for _ in 0..500 {
            let a = g.next_complex();
            let b = [g.next_complex(), g.next_complex()];
            let got = mul_scaled2(SimdLevel::Scalar, a, b);
            for i in 0..2 {
                let want = a * b[i];
                assert_eq!(got[i].re.to_bits(), want.re.to_bits());
                assert_eq!(got[i].im.to_bits(), want.im.to_bits());
            }
        }
    }

    #[test]
    fn detect_respects_the_enable_switch() {
        assert_eq!(SimdLevel::detect_or_scalar(false), SimdLevel::Scalar);
        assert_eq!(SimdLevel::detect_or_scalar(true), SimdLevel::detect());
    }
}
