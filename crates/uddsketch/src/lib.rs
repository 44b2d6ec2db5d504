//! UDDSketch (§3.4 of the paper): the *uniform-collapse* variant of
//! DDSketch.
//!
//! UDDSketch keeps DDSketch's logarithmic buckets but, when the bucket
//! budget is exhausted, collapses **every** adjacent bucket pair
//! `(i, i+1)` (odd `i`) into bucket `⌈i/2⌉` instead of only folding the
//! lowest buckets. One uniform collapse squares γ, so the relative-error
//! guarantee deteriorates *deterministically*:
//!
//! ```text
//! α' = 2α / (1 + α²)        (equivalently atanh(α') = 2·atanh(α))
//! ```
//!
//! which can be inverted to pick the initial accuracy for a target final
//! guarantee `α_k` after `k` collapses:
//!
//! ```text
//! α₀ = tanh(atanh(α_k) / 2^(k-1))
//! ```
//!
//! Mirroring the authors' C implementation (and the paper's Java port,
//! §3.4), the bucket store is a map rather than DDSketch's dense array —
//! the very difference the paper blames for UDDSketch's slower inserts and
//! merges (§4.4.1, §4.4.3).
//!
//! # Example
//!
//! ```
//! use qsketch_uddsketch::UddSketch;
//! use qsketch_core::QuantileSketch;
//!
//! // Paper configuration: 1024 buckets, 12 anticipated collapses,
//! // final guarantee α = 0.01.
//! let mut udd = UddSketch::paper_configuration();
//! for i in 1..=100_000 {
//!     udd.insert(i as f64);
//! }
//! let est = udd.query(0.5).unwrap();
//! assert!(((est - 50_000.0) / 50_000.0).abs() <= 0.01);
//! ```

mod fused;
mod sketch;

pub use fused::FusedUddSketch;
pub use sketch::{UddSketch, MAX_WIRE_BUCKETS, WIRE_MAGIC};

/// Paper parameters (§4.2): 1024 buckets, `num_collapses = 12`, final
/// α = 0.01.
pub const PAPER_MAX_BUCKETS: usize = 1024;
/// Paper `num_collapses` (§4.2).
pub const PAPER_NUM_COLLAPSES: u32 = 12;
/// Paper final relative-error target (§4.2).
pub const PAPER_ALPHA_K: f64 = 0.01;

/// One uniform collapse's effect on the error guarantee (§3.4):
/// `α' = 2α/(1+α²)`.
pub fn collapsed_alpha(alpha: f64) -> f64 {
    2.0 * alpha / (1.0 + alpha * alpha)
}

/// Initial α required so that after `num_collapses` collapses the guarantee
/// is still `alpha_k` (§3.4): `α₀ = tanh(atanh(α_k)/2^(k-1))`.
///
/// With the paper's `α_k = 0.01`, `k = 12` this gives α₀ ≈ 4.88 × 10⁻⁶
/// (the paper's §4.2 prints 4.88 × 10⁻⁷, a typo: running their own
/// formula reproduces 10⁻⁶; see EXPERIMENTS.md).
pub fn initial_alpha(alpha_k: f64, num_collapses: u32) -> f64 {
    assert!(num_collapses >= 1, "need at least one anticipated collapse");
    (alpha_k.atanh() / 2f64.powi(num_collapses as i32 - 1)).tanh()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterioration_law_matches_gamma_squaring() {
        // gamma' = gamma^2 <=> alpha' = 2 alpha/(1+alpha^2).
        let alpha = 0.01f64;
        let gamma = (1.0 + alpha) / (1.0 - alpha);
        let gamma2 = gamma * gamma;
        let alpha2 = (gamma2 - 1.0) / (gamma2 + 1.0);
        assert!((collapsed_alpha(alpha) - alpha2).abs() < 1e-15);
    }

    #[test]
    fn initial_alpha_paper_value() {
        let a0 = initial_alpha(PAPER_ALPHA_K, PAPER_NUM_COLLAPSES);
        assert!(
            (4.7e-6..5.1e-6).contains(&a0),
            "alpha_0 {a0:e} (paper formula gives ~4.88e-6)"
        );
    }

    #[test]
    fn initial_alpha_round_trips_through_collapses() {
        let mut alpha = initial_alpha(0.01, 12);
        // 11 collapses reach the threshold (§4.2: "reaches the threshold of
        // alpha = 0.01 after 11 bucket collapses").
        for _ in 0..11 {
            alpha = collapsed_alpha(alpha);
        }
        assert!(alpha <= 0.01 + 1e-9, "after 11 collapses alpha = {alpha}");
        // One more collapse overshoots the guarantee.
        assert!(collapsed_alpha(alpha) > 0.01);
    }
}
