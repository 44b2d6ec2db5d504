//! Ln-free bucket indexing for the logarithmic sketches.
//!
//! DDSketch-family inserts spend most of their time in `x.ln()` — the index
//! of a positive value is `⌈log_γ x⌉ = ⌈ln x / ln γ⌉`, one transcendental
//! call per value. The production DataDog sketches avoid it by splitting the
//! IEEE-754 representation `x = m · 2^e` (so `log2 x = e + log2 m`) and
//! approximating `log2 m` over `m ∈ [1, 2)` with a cubic polynomial.
//!
//! The catch: an *approximate* logarithm rounds a value near a bucket edge
//! into the neighbouring bucket, which would break the hard requirement that
//! the batch insert kernels produce bit-identical sketch state to the scalar
//! `ln`-based path. [`FastCeilIndexer`] therefore pairs the polynomial with
//! a proven error band: when the approximate index lands within the
//! polynomial's error bound (in index units) of an integer it falls back to
//! the exact `ln` computation, otherwise no integer can sit between the
//! approximate and exact positions and the cheap ceiling is provably the
//! same. The result is an indexer that is bit-for-bit interchangeable with
//! `(x.ln() * inv_ln_gamma).ceil()`.
//!
//! Two polynomials live here. [`cubic_log2`] is DataDog's interpolating
//! cubic (max error ≈1.5e-3) — documented and tested as the baseline, but
//! at the paper's α = 0.01 its error band covers ≈11% of every bucket, so
//! ~11% of lookups would still pay `ln` *on top of* the polynomial, and the
//! unpredictable fallback branch costs nearly as much as `ln` itself.
//! [`poly_log2`] is a degree-7 fit with max error below
//! [`POLY_LOG2_MAX_ERROR`] = 1e-6: the fallback band shrinks to ~7e-5 of a
//! bucket, the branch becomes never-taken-and-perfectly-predicted, and the
//! whole of [`FastCeilIndexer::index_checked`] is straight-line arithmetic
//! a compiler can unroll and vectorize across a batch. The indexer uses
//! the degree-7 form.

/// Coefficients of the interpolating cubic for `log2(1 + s)`, `s ∈ [0, 1)`:
/// `P(s) = s·(C₂ + s·(C₁ + s·C₀))` with `C₀ = 6/35`, `C₁ = −3/5`,
/// `C₂ = 10/7`. `C₀ + C₁ + C₂ = 1`, so `P(0) = 0 = log2(1)` and
/// `P(1) = 1 = log2(2)`: the approximation is continuous (and, because the
/// derivative's discriminant is negative, strictly monotone) across octave
/// boundaries.
const C0: f64 = 6.0 / 35.0;
const C1: f64 = -3.0 / 5.0;
const C2: f64 = 10.0 / 7.0;

/// Bound on `|cubic_log2(x) − log2(x)|` for all positive normal `x`.
///
/// The analytic maximum of `|log2(1+s) − P(s)|` over `[0, 1]` is ≈1.47e-3
/// (attained near `s ≈ 0.84`); the constant adds ≈9% margin, which dwarfs
/// every floating-point rounding effect in the pipeline by many orders of
/// magnitude. The `cubic_log2_error_bound_exhaustive_grid` test asserts the
/// bound over a dense mantissa grid.
pub const CUBIC_LOG2_MAX_ERROR: f64 = 1.6e-3;

/// Cubic-interpolated `log2` via the IEEE-754 exponent/mantissa split.
///
/// `x` must be positive and *normal* (not subnormal, zero, infinite, or
/// NaN); the exponent-field extraction is meaningless otherwise — callers
/// route those cases to an exact path.
#[inline]
pub fn cubic_log2(x: f64) -> f64 {
    debug_assert!(
        x > 0.0 && x.is_normal(),
        "cubic_log2 requires a positive normal value, got {x}"
    );
    let bits = x.to_bits();
    let exponent = ((bits >> 52) & 0x7ff) as i64 - 1023;
    // Force the exponent field to 0 ⇒ mantissa m ∈ [1, 2); s = m − 1.
    let s = f64::from_bits((bits & 0x000f_ffff_ffff_ffff) | 0x3ff0_0000_0000_0000) - 1.0;
    exponent as f64 + s * (C2 + s * (C1 + s * C0))
}

/// Coefficients of the degree-7 fit of `log2(1 + s)` on `[0, 1]`, in the
/// constrained form `P(s) = s + s·(s−1)·Q(s)` (so `P(0) = 0` exactly and
/// `P(1) ≈ 1`, keeping octave boundaries tight), refitted by least squares
/// on a Chebyshev basis and expanded to monomials. `P1` is the `s¹`
/// coefficient; there is no constant term.
const P1: f64 = 1.442_683_183_316_250_3;
const P2: f64 = -0.720_802_623_196_930_3;
const P3: f64 = 0.474_498_246_713_935_5;
const P4: f64 = -0.327_566_854_654_588_24;
const P5: f64 = 0.195_366_903_133_106_06;
const P6: f64 = -0.079_468_246_890_484_11;
const P7: f64 = 0.015_289_391_578_710_695;

/// Bound on `|poly_log2(x) − log2(x)|` for all positive normal `x`.
///
/// The fit's maximum error over a 2-million-point grid is ≈7.72e-7
/// (attained near `s ≈ 0.487`); the constant adds ≈30% margin over that,
/// which dwarfs the few-ulp Horner rounding noise. The
/// `poly_log2_error_bound_exhaustive_grid` test asserts the bound over a
/// dense mantissa grid across octaves.
pub const POLY_LOG2_MAX_ERROR: f64 = 1.0e-6;

/// Degree-7 `log2` via the IEEE-754 exponent/mantissa split — the
/// precision tier [`FastCeilIndexer`] actually runs on.
///
/// Same contract as [`cubic_log2`]: `x` must be positive and normal;
/// callers route other cases to an exact path.
#[inline]
pub fn poly_log2(x: f64) -> f64 {
    debug_assert!(
        x > 0.0 && x.is_normal(),
        "poly_log2 requires a positive normal value, got {x}"
    );
    let bits = x.to_bits();
    let exponent = ((bits >> 52) & 0x7ff) as i64 - 1023;
    let s = f64::from_bits((bits & 0x000f_ffff_ffff_ffff) | 0x3ff0_0000_0000_0000) - 1.0;
    let p = s * (P1 + s * (P2 + s * (P3 + s * (P4 + s * (P5 + s * (P6 + s * P7))))));
    exponent as f64 + p
}

/// `|ln x|` of the finite positive f64 farthest from 1 in log space:
/// every one lies in `[2⁻¹⁰⁷⁴, 2¹⁰²⁴)`, so `|ln x| ≤ 1074·ln 2`.
pub const MAX_ABS_LN: f64 = 1074.0 * std::f64::consts::LN_2;

/// The smallest relative accuracy α (bucket base `γ = (1+α)/(1−α)`) a
/// logarithmic sketch may be configured with: below it, some finite
/// positive f64's index saturates the `i32` cast of
/// [`FastCeilIndexer::index_exact`], and that value silently loses its α
/// guarantee.
///
/// `ln γ = 2·atanh α > 2α`, so for `α ≥ MIN_ALPHA` every index
/// `⌈ln x / ln γ⌉` is at most `MAX_ABS_LN / (2α) + 1 ≤ i32::MAX / 2 + 1`
/// away from zero: half the `i32` range, so a store's offset arithmetic
/// around an index (the index minus its growth slack, UDDSketch's
/// `⌈i/2⌉`) cannot overflow either. It is ≈ 3.47e-7; the paper's
/// UDDSketch α₀ ≈ 4.9e-6 lies above it.
pub const MIN_ALPHA: f64 = MAX_ABS_LN / i32::MAX as f64;

/// `⌈log_γ x⌉` with the `ln` call elided whenever the polynomial approximation
/// is provably on the same side of every bucket edge as the exact value.
///
/// Bit-exactness contract: [`index`](Self::index) returns *the same `i32`*
/// as [`index_exact`](Self::index_exact) for every positive input —
/// verified by exhaustive-grid, bucket-edge, and property tests. The exact
/// form is `(x.ln() * inv_ln_gamma).ceil() as i32` with
/// `inv_ln_gamma = 1.0 / gamma.ln()`, the computation DDSketch and
/// UDDSketch have always used, so the fast path can be swapped into their
/// batch kernels without perturbing a single serialized byte.
#[derive(Debug, Clone, PartialEq)]
pub struct FastCeilIndexer {
    /// `1 / ln γ` — the exact path's multiplier.
    inv_ln_gamma: f64,
    /// `1 / log2 γ` — the fast path's multiplier.
    inv_log2_gamma: f64,
    /// [`POLY_LOG2_MAX_ERROR`] converted to index units: if the
    /// approximate index is farther than this from every integer, the
    /// exact index shares its ceiling.
    guard: f64,
}

impl FastCeilIndexer {
    /// Build an indexer for bucket base `gamma > 1`.
    pub fn new(gamma: f64) -> Self {
        assert!(gamma > 1.0, "gamma must exceed 1, got {gamma}");
        let inv_log2_gamma = 1.0 / gamma.log2();
        Self {
            inv_ln_gamma: 1.0 / gamma.ln(),
            inv_log2_gamma,
            guard: POLY_LOG2_MAX_ERROR * inv_log2_gamma,
        }
    }

    /// The cached `1 / ln γ` (exposed so sketches can report it).
    #[inline]
    pub fn inv_ln_gamma(&self) -> f64 {
        self.inv_ln_gamma
    }

    /// The reference index: `⌈ln x / ln γ⌉`, exactly as the scalar insert
    /// path computes it.
    #[inline]
    pub fn index_exact(&self, x: f64) -> i32 {
        (x.ln() * self.inv_ln_gamma).ceil() as i32
    }

    /// The speculative index, branch-free: the degree-7 `log2`, the γ
    /// rescale, and the ceiling — plus a flag saying whether the result is
    /// *proven* equal to [`index_exact`](Self::index_exact). The flag is
    /// set when the value's exponent field is degenerate (subnormal,
    /// infinite, NaN — the mantissa split does not hold) or the
    /// approximate index lands inside the error band of an integer, where
    /// the two paths could round to different buckets; outside the band
    /// they provably cannot. (`up == approx` — including every
    /// |approx| ≥ 2^52, where f64 has no fractional part — makes the first
    /// distance 0 and sets the flag.)
    ///
    /// Contains no branches and no libm calls — the ceiling is computed by
    /// truncate-and-adjust (`cvttsd2si` + compare) rather than `ceil()`,
    /// which is a library call on baseline x86-64 — so batch kernels can
    /// run it across a block of values (letting the compiler
    /// unroll/vectorize with plain SSE2), collect the flags, and re-do the
    /// flagged lanes — at the paper's α = 0.01 roughly 7 in 100 000
    /// values — via [`index_exact`](Self::index_exact).
    #[inline(always)]
    pub fn index_checked(&self, x: f64) -> (i32, bool) {
        let bits = x.to_bits();
        let biased_exp = ((bits >> 52) & 0x7ff) as i32;
        let e = (biased_exp - 1023) as f64;
        let s = f64::from_bits((bits & 0x000f_ffff_ffff_ffff) | 0x3ff0_0000_0000_0000) - 1.0;
        let p = s * (P1 + s * (P2 + s * (P3 + s * (P4 + s * (P5 + s * (P6 + s * P7))))));
        let approx = (e + p) * self.inv_log2_gamma;
        // ⌈approx⌉ without `ceil()`: truncate toward zero, bump when the
        // truncation landed below. Saturating casts make out-of-i32-range
        // values flag `needs_exact` (the exact path's `ceil() as i32`
        // saturates the same way, so the fallback stays bit-identical).
        let t = approx as i32;
        let up = t.wrapping_add((approx > t as f64) as i32);
        let upf = up as f64;
        let needs_exact = (biased_exp == 0)
            | (biased_exp == 0x7ff)
            | (approx.abs() >= 2_147_483_000.0)
            | (upf - approx < self.guard)
            | (approx - (upf - 1.0) < self.guard);
        (up, needs_exact)
    }

    /// The fast index: degree-7 `log2` plus the error-band fallback.
    /// Always equal to [`index_exact`](Self::index_exact).
    #[inline]
    pub fn index(&self, x: f64) -> i32 {
        debug_assert!(x > 0.0, "logarithmic indexing requires positive values");
        let (up, needs_exact) = self.index_checked(x);
        if needs_exact {
            return self.index_exact(x);
        }
        up
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_alpha_keeps_every_finite_positive_index_in_half_the_i32_range() {
        let indexer = |alpha: f64| FastCeilIndexer::new((1.0 + alpha) / (1.0 - alpha));
        for x in [f64::from_bits(1), f64::MIN_POSITIVE, 1.0, f64::MAX] {
            let i = indexer(MIN_ALPHA).index(x);
            assert!(i.unsigned_abs() <= i32::MAX as u32 / 2 + 1, "x={x:e}: {i}");
        }
        // Below the bound, 1000's index saturates the cast.
        assert_eq!(indexer(1e-9).index_exact(1000.0), i32::MAX);
    }

    /// γ values covering the paper's α range plus UDDSketch's collapsed
    /// (squared) bases.
    fn test_gammas() -> Vec<f64> {
        let mut gammas = Vec::new();
        for alpha in [0.001, 0.01, 0.05, 0.2] {
            let mut g: f64 = (1.0 + alpha) / (1.0 - alpha);
            for _ in 0..6 {
                gammas.push(g);
                g *= g; // UDDSketch collapse sequence
            }
        }
        gammas
    }

    #[test]
    fn cubic_log2_error_bound_exhaustive_grid() {
        // Dense mantissa grid across several octaves: the documented bound
        // must hold everywhere (it is what makes the fallback band sound).
        let mut worst = 0.0f64;
        for e in [-1022, -600, -53, -1, 0, 1, 52, 600, 1023] {
            let base = 2f64.powi(e);
            for k in 0..200_000u64 {
                let m = 1.0 + k as f64 / 200_000.0;
                let x = m * base;
                if !x.is_normal() {
                    continue;
                }
                let err = (cubic_log2(x) - x.log2()).abs();
                worst = worst.max(err);
            }
        }
        assert!(
            worst < CUBIC_LOG2_MAX_ERROR,
            "worst cubic error {worst} exceeds documented bound"
        );
        // The bound is tight-ish: the analytic max is ~1.47e-3.
        assert!(worst > 1.4e-3, "bound unexpectedly slack: worst {worst}");
    }

    #[test]
    fn poly_log2_error_bound_exhaustive_grid() {
        // Same grid as the cubic's test: the degree-7 bound is what sizes
        // the indexer's fallback band, so it must hold everywhere.
        let mut worst = 0.0f64;
        for e in [-1022, -600, -53, -1, 0, 1, 52, 600, 1023] {
            let base = 2f64.powi(e);
            for k in 0..200_000u64 {
                let m = 1.0 + k as f64 / 200_000.0;
                let x = m * base;
                if !x.is_normal() {
                    continue;
                }
                let err = (poly_log2(x) - x.log2()).abs();
                worst = worst.max(err);
            }
        }
        assert!(
            worst < POLY_LOG2_MAX_ERROR,
            "worst degree-7 error {worst} exceeds documented bound"
        );
        // The bound is tight-ish: the fit's max error is ~7.7e-7.
        assert!(worst > 5.0e-7, "bound unexpectedly slack: worst {worst}");
    }

    #[test]
    fn poly_log2_exact_at_powers_of_two() {
        // P has no constant term, so s = 0 evaluates to exactly 0.
        for e in [-100i32, -1, 0, 1, 10, 100] {
            assert_eq!(poly_log2(2f64.powi(e)), f64::from(e));
        }
    }

    #[test]
    fn index_checked_flag_is_sound() {
        // Wherever the flag is clear, the speculative index must already
        // equal the exact one (the flagged lanes are re-done by callers).
        for gamma in test_gammas() {
            let idx = FastCeilIndexer::new(gamma);
            let mut x = 1e-9;
            while x < 1e9 {
                let (fast, needs_exact) = idx.index_checked(x);
                if !needs_exact {
                    assert_eq!(fast, idx.index_exact(x), "gamma={gamma} x={x}");
                }
                x *= 1.000_91;
            }
        }
    }

    #[test]
    fn cubic_log2_exact_at_powers_of_two() {
        for e in [-100i32, -1, 0, 1, 10, 100] {
            assert_eq!(cubic_log2(2f64.powi(e)), f64::from(e));
        }
    }

    #[test]
    fn cubic_log2_monotone_within_and_across_octaves() {
        let mut prev = f64::NEG_INFINITY;
        for k in 0..400_000u64 {
            // Two octaves straddling the 2.0 boundary.
            let x = 1.0 + 3.0 * k as f64 / 400_000.0;
            let y = cubic_log2(x);
            assert!(y >= prev, "non-monotone at x={x}");
            prev = y;
        }
    }

    #[test]
    fn fast_index_matches_exact_on_multiplicative_sweep() {
        for gamma in test_gammas() {
            let idx = FastCeilIndexer::new(gamma);
            let mut x = 1e-12;
            while x < 1e12 {
                assert_eq!(idx.index(x), idx.index_exact(x), "gamma={gamma} x={x}");
                x *= 1.000_37;
            }
        }
    }

    #[test]
    fn fast_index_matches_exact_at_bucket_edges() {
        // Adversarial inputs: values packed around γ^i, where the ceiling
        // flips and the fallback band must catch the approximation.
        for gamma in test_gammas() {
            let idx = FastCeilIndexer::new(gamma);
            for i in [-800, -100, -3, -1, 0, 1, 2, 57, 911] {
                let edge = gamma.powi(i);
                if !edge.is_normal() {
                    continue;
                }
                let mut x = edge * (1.0 - 64.0 * f64::EPSILON);
                for _ in 0..129 {
                    assert_eq!(
                        idx.index(x),
                        idx.index_exact(x),
                        "gamma={gamma} edge γ^{i} x={x:e}"
                    );
                    x = f64::from_bits(x.to_bits() + 1);
                }
            }
        }
    }

    #[test]
    fn fast_index_matches_exact_on_subnormals_and_extremes() {
        let idx = FastCeilIndexer::new(1.02);
        for x in [
            f64::MIN_POSITIVE / 2.0, // subnormal
            f64::MIN_POSITIVE,
            f64::MAX,
            1e-300,
            1e300,
            f64::INFINITY,
        ] {
            assert_eq!(idx.index(x), idx.index_exact(x), "x={x:e}");
        }
    }

    #[test]
    fn most_lookups_skip_ln_at_paper_alpha() {
        // Sanity on the design point: the degree-7 fallback band at
        // α = 0.01 covers ~2·1e-6/log2(γ) ≈ 7e-5 of each bucket, so
        // essentially every value of a smooth stream takes the ln-free
        // path and the fallback branch stays perfectly predicted.
        // Measured via the band width rather than instrumentation to keep
        // the hot path clean. (The cubic's band would be ≈11% — the
        // reason the indexer runs on the degree-7 polynomial.)
        let gamma: f64 = 1.02f64.powi(1); // ≈ paper γ
        let band = 2.0 * POLY_LOG2_MAX_ERROR / gamma.log2();
        assert!(band < 1e-3, "fallback band {band} too wide to be useful");
        let cubic_band = 2.0 * CUBIC_LOG2_MAX_ERROR / gamma.log2();
        assert!(cubic_band > 0.1, "cubic band {cubic_band} — doc out of date");
    }
}
