//! DDSketch (§3.3 of the paper): a deterministic, histogram-based quantile
//! sketch with *relative-error* guarantees.
//!
//! A bucket `B_i` counts the stream elements falling in `(γ^{i-1}, γ^i]`
//! where `γ = (1+α)/(1-α)` and `α` is the maximum relative error. A value
//! `x > 0` is indexed by `i = ⌈log_γ(x)⌉`, and the `q`-quantile estimate for
//! a query landing in bucket `i` is the bucket midpoint `2γ^i/(γ+1)`, which
//! is within relative error `α` of every value the bucket can contain.
//!
//! Two bucket stores are provided, matching the configurations the paper
//! evaluates (§4.2–4.3):
//!
//! * [`store::UnboundedDenseStore`] — a contiguous count array that grows
//!   with the observed range (the paper's main configuration; starts at 64
//!   buckets), its counts `u16`, `u32` or `u64` as its total needs,
//! * [`store::CollapsingLowestDenseStore`] — a bounded array that collapses
//!   the lowest buckets when full, sacrificing low-quantile accuracy
//!   (the 1024-bucket variant of §4.5.5).
//!
//! # Example
//!
//! ```
//! use qsketch_ddsketch::DdSketch;
//! use qsketch_core::QuantileSketch;
//!
//! let mut dd = DdSketch::unbounded(0.01); // α = 1%, γ = 1.0202
//! for i in 1..=100_000 {
//!     dd.insert(i as f64);
//! }
//! let est = dd.query(0.99).unwrap();
//! let truth = 99_000.0;
//! assert!(((est - truth) / truth).abs() <= 0.01);
//! ```

mod mapping;
mod sketch;
pub mod store;

pub use mapping::{IndexMapping, LinearInterpolatedMapping, LogarithmicMapping};
pub use sketch::{DdSketch, MAX_WIRE_BUCKETS, WIRE_MAGIC};

/// The relative-error parameter used in the paper's experiments (§4.2):
/// α = 0.01, hence γ = 1.0202.
pub const PAPER_ALPHA: f64 = 0.01;

/// The smallest α a DDSketch should be configured with (≈ 8.87e-5):
/// every finite positive f64 has `|ln x| ≤`
/// [`MAX_ABS_LN`](qsketch_core::fastlog::MAX_ABS_LN) and `ln γ > 2α`, so
/// at `α ≥ MIN_ALPHA` every bucket index stays within the
/// ±[`MAX_WIRE_BUCKETS`] the decoder accepts, and every payload decodes.
pub const MIN_ALPHA: f64 = qsketch_core::fastlog::MAX_ABS_LN / (2.0 * MAX_WIRE_BUCKETS as f64);
