//! The UDDSketch implementation: map-backed buckets with uniform collapse.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

use qsketch_core::fastlog::FastCeilIndexer;
use qsketch_core::sketch::{
    check_quantile, MergeError, MergeableSketch, QuantileSketch, QueryError,
};

/// UDDSketch over `f64` values (§3.4).
///
/// Positive values are bucketed by `⌈log_γ(x)⌉` into an ordered map;
/// negative values into a mirrored map; exact zeros into a scalar counter.
/// When the combined bucket count exceeds `max_buckets` the sketch
/// uniformly collapses all adjacent pairs, squaring γ.
#[derive(Debug, Clone)]
pub struct UddSketch {
    /// Current γ (squares on every collapse).
    gamma: f64,
    /// Cached indexer for the current γ (exact `1/ln γ` path plus the
    /// bit-identical ln-free fast path); rebuilt whenever γ changes.
    indexer: FastCeilIndexer,
    /// Initial α the sketch was created with.
    initial_alpha: f64,
    /// Number of uniform collapses performed so far.
    collapses: u32,
    /// Integer grid exponent `m` with `γ = γ₀^m`. The standard collapse
    /// path keeps `m = 2^collapses`; the fused merge rule
    /// ([`merge_fused`](Self::merge_fused)) can move to any coarser
    /// integer grid, so `m` is tracked explicitly and `γ` is always
    /// exactly [`gamma_for_exponent`]`(γ₀, m)`.
    gamma_exponent: u64,
    max_buckets: usize,
    positives: BTreeMap<i32, u64>,
    negatives: BTreeMap<i32, u64>,
    zero_count: u64,
    count: u64,
    min: f64,
    max: f64,
}

impl UddSketch {
    /// Create a sketch with initial accuracy `alpha_0` and a bucket budget.
    pub fn new(alpha_0: f64, max_buckets: usize) -> Self {
        assert!(
            alpha_0 > 0.0 && alpha_0 < 1.0,
            "initial accuracy must lie in (0,1), got {alpha_0}"
        );
        assert!(max_buckets >= 2, "need at least two buckets");
        let gamma = (1.0 + alpha_0) / (1.0 - alpha_0);
        Self {
            gamma,
            indexer: FastCeilIndexer::new(gamma),
            initial_alpha: alpha_0,
            collapses: 0,
            gamma_exponent: 1,
            max_buckets,
            positives: BTreeMap::new(),
            negatives: BTreeMap::new(),
            zero_count: 0,
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Create a sketch targeting final guarantee `alpha_k` after
    /// `num_collapses` collapses (§3.4's inverse deterioration law).
    pub fn with_target(alpha_k: f64, num_collapses: u32, max_buckets: usize) -> Self {
        Self::new(crate::initial_alpha(alpha_k, num_collapses), max_buckets)
    }

    /// The paper's configuration (§4.2): 1024 buckets, 12 collapses,
    /// final α = 0.01.
    pub fn paper_configuration() -> Self {
        Self::with_target(
            crate::PAPER_ALPHA_K,
            crate::PAPER_NUM_COLLAPSES,
            crate::PAPER_MAX_BUCKETS,
        )
    }

    /// Current relative-error guarantee α (derived from the current γ).
    pub fn current_alpha(&self) -> f64 {
        (self.gamma - 1.0) / (self.gamma + 1.0)
    }

    /// Current γ.
    pub fn gamma(&self) -> f64 {
        self.gamma
    }

    /// The initial accuracy α₀ the sketch was created with (before any
    /// collapse deteriorated the guarantee).
    pub fn initial_alpha(&self) -> f64 {
        self.initial_alpha
    }

    /// The bucket budget that triggers uniform collapses.
    pub fn max_buckets(&self) -> usize {
        self.max_buckets
    }

    /// Uniform collapses performed so far.
    pub fn collapses(&self) -> u32 {
        self.collapses
    }

    /// The integer grid exponent `m` with `γ = γ₀^m`. Stays `2^collapses`
    /// under the standard collapse path; the fused merge rule can land on
    /// any coarser integer grid.
    pub fn gamma_exponent(&self) -> u64 {
        self.gamma_exponent
    }

    /// Number of non-empty buckets across both maps (§4.3, §4.4.2 report
    /// these counts).
    pub fn num_buckets(&self) -> usize {
        self.positives.len() + self.negatives.len()
    }

    /// Smallest inserted value (exact), `+∞` when empty.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest inserted value (exact), `−∞` when empty.
    pub fn max(&self) -> f64 {
        self.max
    }

    #[inline]
    fn index_of(&self, x: f64) -> i32 {
        debug_assert!(x > 0.0);
        self.indexer.index_exact(x)
    }

    /// Bucket midpoint `2γ^i/(γ+1)` under the *current* γ.
    #[inline]
    fn value_of(&self, index: i32) -> f64 {
        2.0 * self.gamma.powi(index) / (self.gamma + 1.0)
    }

    /// Uniformly collapse all adjacent `(odd i, i+1)` pairs into `⌈i/2⌉`
    /// (§3.4), squaring γ.
    fn uniform_collapse(&mut self) {
        self.positives = collapse_map(&self.positives);
        self.negatives = collapse_map(&self.negatives);
        // Squaring γ doubles the grid exponent, and `γ² == γ₀^(2m)`
        // holds *exactly* in floating point: appending a zero bit to the
        // exponent is precisely one more squaring in the square-multiply
        // ladder of [`gamma_for_exponent`].
        self.gamma *= self.gamma;
        self.gamma_exponent <<= 1;
        self.indexer = FastCeilIndexer::new(self.gamma);
        self.collapses += 1;
    }

    fn collapse_until_within_budget(&mut self) {
        // Each collapse halves the bucket count, so this terminates.
        while self.num_buckets() > self.max_buckets {
            self.uniform_collapse();
        }
    }

    /// Estimated rank of `x` (count of inserted values `≤ x`).
    pub fn rank(&self, x: f64) -> u64 {
        let mut cum = 0u64;
        if x >= 0.0 {
            cum += self.negatives.values().sum::<u64>();
            cum += self.zero_count;
            if x > 0.0 {
                let xi = self.index_of(x);
                cum += self
                    .positives
                    .range(..=xi)
                    .map(|(_, &c)| c)
                    .sum::<u64>();
            } else if self.zero_count == 0 {
                // x == 0 with no zeros recorded: nothing extra.
            }
        } else {
            let xi = self.index_of(-x);
            cum += self.negatives.range(xi..).map(|(_, &c)| c).sum::<u64>();
        }
        cum
    }

    /// Estimated CDF at `x`.
    pub fn cdf(&self, x: f64) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.rank(x) as f64 / self.count as f64
        }
    }

    /// Walk buckets in ascending value order until `rank` is covered.
    fn value_at_rank(&self, rank: u64) -> f64 {
        let mut cum = 0u64;
        for (&i, &c) in self.negatives.iter().rev() {
            cum += c;
            if cum >= rank {
                return -self.value_of(i);
            }
        }
        cum += self.zero_count;
        if cum >= rank {
            return 0.0;
        }
        for (&i, &c) in self.positives.iter() {
            cum += c;
            if cum >= rank {
                return self.value_of(i);
            }
        }
        self.max
    }

    /// Move the sketch onto the coarser grid `γ₀^m_new`, remapping both
    /// bucket maps. Exact (pure integer regrouping) when the old grid
    /// nests in the new one; otherwise each straddling bucket splits
    /// proportionally over the two target buckets it overlaps, with a
    /// deterministic rounded split that preserves the total count.
    fn remap_to_exponent(&mut self, m_new: u64) {
        debug_assert!(m_new > self.gamma_exponent);
        self.positives = remap_map(&self.positives, self.gamma_exponent, m_new);
        self.negatives = remap_map(&self.negatives, self.gamma_exponent, m_new);
        self.gamma_exponent = m_new;
        let gamma0 = (1.0 + self.initial_alpha) / (1.0 - self.initial_alpha);
        self.gamma = gamma_for_exponent(gamma0, m_new);
        self.indexer = FastCeilIndexer::new(self.gamma);
    }

    /// Gentle budget enforcement for the fused merge path: instead of
    /// squaring γ (the standard collapse, which *doubles* the log-bucket
    /// width whether needed or not), find the smallest integer factor
    /// `k ≥ 2` whose regrid fits the budget and move to `γ^k`.
    fn rescale_until_within_budget(&mut self) {
        while self.num_buckets() > self.max_buckets {
            let mut k = 2u64;
            while projected_buckets(&self.positives, k) + projected_buckets(&self.negatives, k)
                > self.max_buckets
            {
                k += 1;
            }
            self.remap_to_exponent(self.gamma_exponent * k);
            self.collapses += 1;
        }
    }

    /// The stream-fusion merge rule (arxiv 2101.06758): merge into the
    /// **coarser of the two grids as it stands** instead of collapsing
    /// both sketches down a shared power-of-two schedule.
    ///
    /// The standard [`merge`](MergeableSketch::merge) aligns γ by
    /// repeatedly *squaring* the finer sketch's γ — each alignment step
    /// deteriorates α by the full collapse law even when the grids are
    /// nearly equal, which is exactly the Fig. 8 weakness that rollup
    /// cascades amplify. The fused rule instead:
    ///
    /// 1. picks the coarser current grid `γ_t = γ₀^max(m_a, m_b)` as the
    ///    target (no pre-collapse of either side),
    /// 2. remaps the finer sketch onto it — exactly when the grids nest
    ///    (`m_t` a multiple of `m_s`), otherwise by proportionally
    ///    splitting each straddling bucket over the ≤ 2 target buckets
    ///    it overlaps (counts preserved exactly),
    /// 3. on budget overflow, rescales by the *smallest* integer factor
    ///    `k ≥ 2` that fits (`γ → γ^k`) instead of repeatedly squaring.
    ///
    /// Like the standard merge this requires equal `initial_alpha`.
    pub fn merge_fused(&mut self, other: &Self) -> Result<(), MergeError> {
        if (self.initial_alpha - other.initial_alpha).abs() > 1e-15 {
            return Err(MergeError::IncompatibleParameters(format!(
                "initial alpha mismatch: {} vs {}",
                self.initial_alpha, other.initial_alpha
            )));
        }
        let m_t = self.gamma_exponent.max(other.gamma_exponent);
        if self.gamma_exponent < m_t {
            self.remap_to_exponent(m_t);
        }
        let remapped;
        let other = if other.gamma_exponent < m_t {
            let mut o = other.clone();
            o.remap_to_exponent(m_t);
            remapped = o;
            &remapped
        } else {
            other
        };
        for (&i, &c) in &other.positives {
            *self.positives.entry(i).or_insert(0) += c;
        }
        for (&i, &c) in &other.negatives {
            *self.negatives.entry(i).or_insert(0) += c;
        }
        self.zero_count += other.zero_count;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.rescale_until_within_budget();
        Ok(())
    }
}

/// `γ₀^m` by left-to-right binary exponentiation (square-and-multiply).
/// The fixed evaluation order makes the result a pure function of
/// `(γ₀, m)` — encoder, decoder, and every merge path agree bit-for-bit
/// — and reduces to the classic repeated squaring (`γ₀²ᶜ`) exactly when
/// `m` is a power of two, so version-1 payloads rederive the same γ they
/// always did.
fn gamma_for_exponent(gamma0: f64, m: u64) -> f64 {
    debug_assert!(m >= 1);
    let mut result = gamma0;
    for b in (0..63 - m.leading_zeros()).rev() {
        result *= result;
        if (m >> b) & 1 == 1 {
            result *= gamma0;
        }
    }
    result
}

/// Regrid a bucket map from `γ₀^m_old` onto the coarser `γ₀^m_new`.
/// In units of `ln γ₀`, source bucket `i` covers `((i−1)·m_old, i·m_old]`
/// and target bucket `j` covers `((j−1)·m_new, j·m_new]` — all integer
/// arithmetic, so the nesting test and overlap splits are exact.
fn remap_map(map: &BTreeMap<i32, u64>, m_old: u64, m_new: u64) -> BTreeMap<i32, u64> {
    debug_assert!(0 < m_old && m_old < m_new);
    let mut out = BTreeMap::new();
    if m_new.is_multiple_of(m_old) {
        // The old grid nests in the new one: every source bucket lies in
        // exactly one target bucket (generalizes the uniform collapse,
        // whose ratio is always 2).
        let r = (m_new / m_old) as i64;
        for (&i, &c) in map {
            let j = (i64::from(i) + r - 1).div_euclid(r) as i32;
            *out.entry(j).or_insert(0) += c;
        }
    } else {
        // Non-nesting grids: a source bucket (narrower than a target
        // bucket) overlaps at most two targets. Split its count in
        // proportion to the log-space overlap, rounding the lower share
        // so the total is preserved exactly.
        let (mo, mn) = (m_old as i128, m_new as i128);
        for (&i, &c) in map {
            let lo = (i128::from(i) - 1) * mo;
            let hi = i128::from(i) * mo;
            let j_lo = (lo.div_euclid(mn) + 1) as i32;
            let j_hi = (hi + mn - 1).div_euclid(mn) as i32;
            if j_lo == j_hi {
                *out.entry(j_lo).or_insert(0) += c;
            } else {
                let cut = i128::from(j_lo) * mn;
                let frac_lo = (cut - lo) as f64 / mo as f64;
                let c_lo = (((c as f64) * frac_lo).round() as u64).min(c);
                let c_hi = c - c_lo;
                if c_lo > 0 {
                    *out.entry(j_lo).or_insert(0) += c_lo;
                }
                if c_hi > 0 {
                    *out.entry(j_hi).or_insert(0) += c_hi;
                }
            }
        }
    }
    out
}

/// Bucket count a map would have after regridding by integer factor `k`.
fn projected_buckets(map: &BTreeMap<i32, u64>, k: u64) -> usize {
    let r = k as i64;
    let mut last = None;
    let mut n = 0;
    for &i in map.keys() {
        let j = (i64::from(i) + r - 1).div_euclid(r);
        if last != Some(j) {
            n += 1;
            last = Some(j);
        }
    }
    n
}

/// Collapse every `(odd i, i+1)` pair of a bucket map into index `⌈i/2⌉`.
fn collapse_map(map: &BTreeMap<i32, u64>) -> BTreeMap<i32, u64> {
    let mut out = BTreeMap::new();
    for (&i, &c) in map {
        // ⌈i/2⌉ for signed i.
        let target = (i + 1).div_euclid(2);
        *out.entry(target).or_insert(0) += c;
    }
    out
}

impl QuantileSketch for UddSketch {
    fn insert(&mut self, value: f64) {
        if value.is_nan() {
            return; // trait-level NaN policy: ignore
        }
        self.count += 1;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        if value > 0.0 {
            let i = self.index_of(value);
            *self.positives.entry(i).or_insert(0) += 1;
        } else if value < 0.0 {
            let i = self.index_of(-value);
            *self.negatives.entry(i).or_insert(0) += 1;
        } else {
            self.zero_count += 1;
        }
        self.collapse_until_within_budget();
    }

    /// Insert `count` occurrences of `value` at once (pre-aggregated
    /// ingestion; one map update regardless of weight).
    fn insert_n(&mut self, value: f64, count: u64) {
        if count == 0 || value.is_nan() {
            return;
        }
        self.count += count;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        if value > 0.0 {
            let i = self.index_of(value);
            *self.positives.entry(i).or_insert(0) += count;
        } else if value < 0.0 {
            let i = self.index_of(-value);
            *self.negatives.entry(i).or_insert(0) += count;
        } else {
            self.zero_count += count;
        }
        self.collapse_until_within_budget();
    }

    /// Batch kernel: blocked ln-free index precompute plus single-walk
    /// bucket updates.
    ///
    /// Each 128-value all-positive block (the common case) gets one
    /// vectorizable [`FastCeilIndexer::index_checked`] pass under the
    /// *current* γ, then the precomputed indices are consumed through one
    /// `BTreeMap` entry walk per run of equal indices. A collapse squares
    /// γ and re-indexes every later value, and the scalar path can only
    /// collapse right after creating a bucket — so a value that opens a
    /// new bucket goes in individually with the same immediate budget
    /// check the scalar path performs, and if that check actually
    /// collapsed, the rest of the block's precomputed indices are stale
    /// and get recomputed (collapses are bounded — the paper
    /// configuration performs ~12 across an entire stream — so this is
    /// negligible). That preserves the exact collapse schedule, hence
    /// bit-identical state. Blocks containing NaN, zeros, or negatives
    /// fall back to scalar `insert` per value.
    fn insert_batch(&mut self, values: &[f64]) {
        const BLOCK: usize = 128;
        let mut idx = [0i32; BLOCK];
        // Fixed-size blocks vectorize cleanly (constant trip counts, no
        // bounds checks); the tail and any block containing NaN, zeros,
        // or negatives take the scalar path.
        let mut blocks = values.chunks_exact(BLOCK);
        for block in blocks.by_ref() {
            let block: &[f64; BLOCK] = block.try_into().expect("chunks_exact");
            // Screen + min/max pass. min/max of an all-positive,
            // NaN-free block is order-independent (the cmp-selects are
            // `vminpd`/`vmaxpd`, valid because NaN-containing blocks
            // are discarded), and collapses never read min/max/count.
            let mut all_pos = true;
            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            for &v in block {
                all_pos &= v > 0.0; // also rejects NaN
                lo = if v < lo { v } else { lo };
                hi = if v > hi { v } else { hi };
            }
            if !all_pos {
                for &v in block {
                    self.insert(v);
                }
                continue;
            }
            // Branch-free speculative index pass (vectorizes); if any
            // lane is flagged (provably rare), recompute the block with
            // exact fixups.
            let mut any = false;
            for i in 0..BLOCK {
                let (index, needs_exact) = self.indexer.index_checked(block[i]);
                idx[i] = index;
                any |= needs_exact;
            }
            if any {
                for i in 0..BLOCK {
                    let (index, needs_exact) = self.indexer.index_checked(block[i]);
                    idx[i] = if needs_exact {
                        self.indexer.index_exact(block[i])
                    } else {
                        index
                    };
                }
            }
            self.min = self.min.min(lo);
            self.max = self.max.max(hi);
            self.count += BLOCK as u64;
            let mut i = 0;
            while i < BLOCK {
                let cur = idx[i];
                match self.positives.entry(cur) {
                    Entry::Occupied(e) => {
                        // Existing bucket: no collapse possible, so the
                        // whole run folds into one u64 addition.
                        let mut j = i + 1;
                        while j < BLOCK && idx[j] == cur {
                            j += 1;
                        }
                        *e.into_mut() += (j - i) as u64;
                        i = j;
                    }
                    Entry::Vacant(e) => {
                        e.insert(1);
                        i += 1;
                        let before = self.collapses;
                        self.collapse_until_within_budget();
                        if self.collapses != before {
                            // γ changed: every remaining precomputed
                            // index is stale under the new mapping.
                            for k in i..BLOCK {
                                idx[k] = self.indexer.index_exact(block[k]);
                            }
                        }
                    }
                }
            }
        }
        for &v in blocks.remainder() {
            self.insert(v);
        }
    }

    fn query(&self, q: f64) -> Result<f64, QueryError> {
        check_quantile(q)?;
        if self.count == 0 {
            return Err(QueryError::Empty);
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        Ok(self.value_at_rank(rank).clamp(self.min, self.max))
    }

    fn count(&self) -> u64 {
        self.count
    }

    fn memory_footprint(&self) -> usize {
        // The paper charges the map-based store three numbers per bucket
        // (map index, bucket index, bucket count; §4.3 "less than 3100
        // numbers for a bucket size of 1024").
        self.num_buckets() * 3 * std::mem::size_of::<u64>()
            + 6 * std::mem::size_of::<u64>()
    }

    fn name(&self) -> &'static str {
        "UDDS"
    }
}

impl MergeableSketch for UddSketch {
    fn merge(&mut self, other: &Self) -> Result<(), MergeError> {
        if (self.initial_alpha - other.initial_alpha).abs() > 1e-15 {
            return Err(MergeError::IncompatibleParameters(format!(
                "initial alpha mismatch: {} vs {}",
                self.initial_alpha, other.initial_alpha
            )));
        }
        // Align γ by collapsing the finer sketch (§3.4 "bucket ranges of
        // the two sketches being merged align if they have the same γ").
        // Alignment is by grid exponent, not collapse count: uniform
        // collapses only ever double the exponent, so two sketches whose
        // grids diverged through the fused merge rule (arbitrary integer
        // exponents) may never meet — that is a parameter error here, and
        // what [`UddSketch::merge_fused`] exists for.
        let mut other = other.clone();
        while self.gamma_exponent < other.gamma_exponent {
            self.uniform_collapse();
        }
        while other.gamma_exponent < self.gamma_exponent {
            other.uniform_collapse();
        }
        if self.gamma_exponent != other.gamma_exponent {
            return Err(MergeError::IncompatibleParameters(format!(
                "gamma grids diverged (exponents {} vs {}, a fused-merge \
                 history); use merge_fused",
                self.gamma_exponent, other.gamma_exponent
            )));
        }
        for (&i, &c) in &other.positives {
            *self.positives.entry(i).or_insert(0) += c;
        }
        for (&i, &c) in &other.negatives {
            *self.negatives.entry(i).or_insert(0) += c;
        }
        self.zero_count += other.zero_count;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        // The merged map can exceed the budget (§3.4: merging "potentially
        // performs a costly bucket collapsing operation at the end").
        self.collapse_until_within_budget();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_query_errors() {
        let s = UddSketch::paper_configuration();
        assert_eq!(s.query(0.5), Err(QueryError::Empty));
    }

    #[test]
    fn within_guarantee_without_collapse() {
        let mut s = UddSketch::new(0.01, 4096);
        for i in 1..=100_000 {
            s.insert(i as f64);
        }
        assert_eq!(s.collapses(), 0);
        for q in [0.05, 0.5, 0.95, 0.99] {
            let truth = (q * 100_000.0_f64).ceil();
            let est = s.query(q).unwrap();
            assert!(((est - truth) / truth).abs() <= 0.01 + 1e-9, "q={q}");
        }
    }

    #[test]
    fn collapse_squares_gamma_per_collapse() {
        let mut s = UddSketch::new(0.001, 64);
        let g0 = s.gamma();
        // A wide sparse range forces collapses; sparse buckets rarely pair
        // up, so a single budget overflow may need several uniform
        // collapses (each squares γ).
        let mut x = 1.0;
        while s.collapses() == 0 {
            s.insert(x);
            x *= 1.01;
        }
        assert!(s.num_buckets() <= 64);
        let k = s.collapses();
        assert!(k >= 1);
        let expect_gamma = g0.powi(1 << k);
        assert!(
            (s.gamma() - expect_gamma).abs() < 1e-9 * expect_gamma,
            "gamma {} vs g0^(2^{k}) = {expect_gamma}",
            s.gamma()
        );
        // Deterioration law applied k times: alpha' = 2 alpha/(1+alpha^2).
        let mut expect_alpha = 0.001;
        for _ in 0..k {
            expect_alpha = crate::collapsed_alpha(expect_alpha);
        }
        assert!((s.current_alpha() - expect_alpha).abs() < 1e-9);
    }

    #[test]
    fn dense_consecutive_buckets_collapse_once() {
        // When every bucket is occupied, pairs always merge, so one
        // uniform collapse halves the bucket count and suffices.
        let mut s = UddSketch::new(0.01, 64);
        let gamma0 = s.gamma();
        // Fill buckets 1..=65 directly: values gamma^(i-0.5) hit bucket i.
        for i in 1..=65 {
            s.insert(gamma0.powf(i as f64 - 0.5));
        }
        assert_eq!(s.collapses(), 1);
        assert!(s.num_buckets() <= 33);
    }

    #[test]
    fn guarantee_holds_after_collapses() {
        // Start tight, collapse several times, verify the *current* alpha
        // still bounds the observed error.
        let mut s = UddSketch::with_target(0.01, 12, 256);
        let mut values = Vec::new();
        let mut x = 1e-3;
        for _ in 0..100_000 {
            x = if x > 1e7 { 1e-3 } else { x * 1.00025 };
            values.push(x);
            s.insert(x);
        }
        assert!(s.collapses() > 0, "test needs at least one collapse");
        // The guarantee that must hold at all times is the *current* alpha
        // derived from the deterioration law (§3.4). (Whether it stays
        // under the 0.01 target depends on whether the anticipated
        // num_collapses was exceeded; this stream deliberately collapses
        // beyond it.)
        let alpha = s.current_alpha();
        values.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for q in [0.05, 0.5, 0.95, 0.99] {
            let truth = values[(q * values.len() as f64).ceil() as usize - 1];
            let est = s.query(q).unwrap();
            let rel = ((est - truth) / truth).abs();
            assert!(rel <= alpha + 1e-9, "q={q} rel={rel} alpha={alpha}");
        }
    }

    #[test]
    fn paper_configuration_stays_under_final_guarantee() {
        // §4.5.5: UDDSketch's realised alpha is *below* the 0.01 target when
        // fewer than num_collapses collapses occur.
        let mut s = UddSketch::paper_configuration();
        for i in 1..=1_000_000u64 {
            s.insert(i as f64);
        }
        assert!(s.current_alpha() <= 0.01 + 1e-12);
        let est = s.query(0.99).unwrap();
        let truth = 990_000.0;
        assert!(((est - truth) / truth).abs() <= 0.01 + 1e-9);
    }

    #[test]
    fn handles_zeros_and_negatives() {
        let mut s = UddSketch::new(0.01, 1024);
        for v in [-8.0, -2.0, 0.0, 2.0, 8.0] {
            s.insert(v);
        }
        assert_eq!(s.count(), 5);
        assert_eq!(s.query(0.6).unwrap(), 0.0);
        let low = s.query(0.2).unwrap();
        assert!(((low + 8.0) / 8.0).abs() <= 0.01 + 1e-9, "low {low}");
    }

    #[test]
    fn merge_aligned_sketches() {
        let mut a = UddSketch::new(0.01, 1024);
        let mut b = UddSketch::new(0.01, 1024);
        for i in 1..=10_000 {
            a.insert(i as f64);
            b.insert((i + 10_000) as f64);
        }
        a.merge(&b).unwrap();
        assert_eq!(a.count(), 20_000);
        let est = a.query(0.5).unwrap();
        assert!(((est - 10_000.0) / 10_000.0).abs() <= 0.01 + 1e-9);
    }

    #[test]
    fn merge_collapses_finer_sketch_to_align() {
        let mut coarse = UddSketch::new(0.001, 32);
        let mut fine = UddSketch::new(0.001, 32);
        // Force collapses in `coarse` only.
        let mut x = 1.0;
        for _ in 0..10_000 {
            x = if x > 1e6 { 1.0 } else { x * 1.01 };
            coarse.insert(x);
        }
        for i in 1..=1000 {
            fine.insert(i as f64);
        }
        assert!(coarse.collapses() > fine.collapses());
        let before = coarse.collapses();
        coarse.merge(&fine).unwrap();
        assert!(coarse.collapses() >= before);
        assert_eq!(coarse.count(), 11_000);
    }

    #[test]
    fn merge_rejects_different_initial_alpha() {
        let mut a = UddSketch::new(0.01, 64);
        let b = UddSketch::new(0.02, 64);
        assert!(matches!(
            a.merge(&b),
            Err(MergeError::IncompatibleParameters(_))
        ));
    }

    #[test]
    fn gamma_for_exponent_matches_repeated_squaring() {
        let gamma0 = (1.0 + 0.01) / (1.0 - 0.01);
        let mut squared = gamma0;
        for c in 0..8 {
            assert_eq!(
                gamma_for_exponent(gamma0, 1u64 << c),
                squared,
                "exponent 2^{c}"
            );
            squared *= squared;
        }
        // Non-powers of two stay exact pure functions of (γ₀, m).
        for m in [3u64, 5, 6, 7, 12, 100] {
            let g = gamma_for_exponent(gamma0, m);
            assert!(g > 1.0 && g.is_finite());
            assert_eq!(g, gamma_for_exponent(gamma0, m));
        }
    }

    #[test]
    fn fused_merge_equals_standard_on_aligned_grids() {
        // Same γ on both sides: the fused rule adds buckets directly,
        // exactly like the standard merge (no collapse triggered).
        let mut a1 = UddSketch::new(0.01, 1024);
        let mut b1 = UddSketch::new(0.01, 1024);
        for i in 1..=10_000 {
            a1.insert(i as f64);
            b1.insert((i + 10_000) as f64);
        }
        let mut a2 = a1.clone();
        let b2 = b1.clone();
        a1.merge(&b1).unwrap();
        a2.merge_fused(&b2).unwrap();
        assert_eq!(a1.count(), a2.count());
        assert_eq!(a1.gamma(), a2.gamma());
        for q in [0.05, 0.5, 0.99] {
            assert_eq!(a1.query(q).unwrap(), a2.query(q).unwrap(), "q={q}");
        }
    }

    #[test]
    fn fused_merge_adopts_coarser_grid_without_squaring() {
        let mut coarse = UddSketch::new(0.001, 32);
        let mut fine = UddSketch::new(0.001, 32);
        let mut x = 1.0;
        for _ in 0..10_000 {
            x = if x > 1e6 { 1.0 } else { x * 1.01 };
            coarse.insert(x);
        }
        for i in 1..=1000 {
            fine.insert(i as f64);
        }
        assert!(coarse.gamma_exponent() > fine.gamma_exponent());
        let target = coarse.gamma_exponent();
        let mut fused = coarse.clone();
        fused.merge_fused(&fine).unwrap();
        assert_eq!(fused.count(), 11_000);
        // The fused target grid is the coarser side's grid as it stood —
        // never finer, and only coarser if the budget overflowed.
        assert!(fused.gamma_exponent() >= target);
        assert!(fused.num_buckets() <= 32);
    }

    /// Two no-collapse sketches over bucket positions that skip every
    /// multiple of 3: the 32-bucket union projects to 24 targets under
    /// k = 2 (over a 16 budget) but exactly 16 under k = 3, so the
    /// gentle rescale must land on k = 3 — a grid the standard
    /// power-of-two schedule can never reach.
    fn skip3_pair(budget: usize) -> (UddSketch, UddSketch) {
        let mut a = UddSketch::new(0.01, budget);
        let mut b = UddSketch::new(0.01, budget);
        let gamma0 = a.gamma();
        let positions: Vec<u64> = (1u64..).filter(|i| !i.is_multiple_of(3)).take(32).collect();
        for &i in &positions[..16] {
            a.insert(gamma0.powf(i as f64 - 0.5));
        }
        for &i in &positions[16..] {
            b.insert(gamma0.powf(i as f64 - 0.5));
        }
        assert_eq!((a.collapses(), b.collapses()), (0, 0));
        (a, b)
    }

    #[test]
    fn fused_rescale_uses_smallest_sufficient_factor() {
        let budget = 16;
        let (a, b) = skip3_pair(budget);
        let mut fused = a.clone();
        fused.merge_fused(&b).unwrap();
        assert_eq!(fused.count(), 32);
        assert!(fused.num_buckets() <= budget);
        assert_eq!(
            fused.gamma_exponent(),
            3,
            "k=2 leaves 24 buckets, k=3 exactly 16"
        );
        // The standard merge can only square: strictly coarser grid.
        let mut std = a.clone();
        std.merge(&b).unwrap();
        assert!(std.gamma_exponent() > fused.gamma_exponent());
        assert!(std.current_alpha() > fused.current_alpha());
    }

    #[test]
    fn fused_merge_splits_non_nesting_grids_preserving_count() {
        // An m=3 sketch (via gentle rescale, see skip3_pair) merged
        // with an m=2 sketch (one standard collapse): 2 ∤ 3, so the
        // remap takes the proportional-split path.
        let budget = 16;
        let (mut a, b) = skip3_pair(budget);
        a.merge_fused(&b).unwrap();
        assert_eq!(a.gamma_exponent(), 3);
        let gamma0 = (1.0 + a.initial_alpha()) / (1.0 - a.initial_alpha());
        let mut two = UddSketch::new(0.01, budget);
        for i in 1..=(2 * budget) {
            two.insert(gamma0.powf(i as f64 - 0.5));
        }
        assert_eq!(two.gamma_exponent(), 2);
        let before = a.count() + two.count();
        a.merge_fused(&two).unwrap();
        assert_eq!(a.count(), before, "split rounding must preserve totals");
        assert!(a.gamma_exponent() >= 3);
        assert!(a.num_buckets() <= budget);
        // Every mass is still inside [min, max] and quantiles answer.
        let est = a.query(0.5).unwrap();
        assert!(est >= a.min() && est <= a.max());
    }

    #[test]
    fn standard_merge_rejects_diverged_fused_grids() {
        let budget = 16;
        let (mut a, b) = skip3_pair(budget);
        a.merge_fused(&b).unwrap();
        assert_eq!(a.gamma_exponent(), 3); // not reachable by doubling
        let mut std = UddSketch::new(0.01, budget);
        std.insert(1.0);
        assert!(matches!(
            std.merge(&a),
            Err(MergeError::IncompatibleParameters(_))
        ));
    }

    #[test]
    fn collapse_map_pairs_correctly() {
        let mut m = BTreeMap::new();
        // (1,2)->1, (3,4)->2, (-1,0)->0, (-3,-2)->-1
        for i in [-3, -2, -1, 0, 1, 2, 3, 4] {
            m.insert(i, 1u64);
        }
        let c = collapse_map(&m);
        assert_eq!(c.get(&-1), Some(&2));
        assert_eq!(c.get(&0), Some(&2));
        assert_eq!(c.get(&1), Some(&2));
        assert_eq!(c.get(&2), Some(&2));
        assert_eq!(c.values().sum::<u64>(), 8);
    }

    #[test]
    fn bucket_budget_respected() {
        let mut s = UddSketch::new(1e-5, 128);
        let mut x = 1e-6;
        for _ in 0..100_000 {
            x = if x > 1e9 { 1e-6 } else { x * 1.001 };
            s.insert(x);
        }
        assert!(s.num_buckets() <= 128);
    }

    #[test]
    fn insert_n_equals_repeated_inserts() {
        let mut a = UddSketch::new(0.01, 1024);
        let mut b = UddSketch::new(0.01, 1024);
        for (v, n) in [(3.5, 100u64), (42.0, 17), (0.0, 5), (-2.0, 3)] {
            a.insert_n(v, n);
            for _ in 0..n {
                b.insert(v);
            }
        }
        assert_eq!(a.count(), b.count());
        for q in [0.1, 0.5, 0.9] {
            assert_eq!(a.query(q).unwrap(), b.query(q).unwrap(), "q={q}");
        }
    }

    #[test]
    fn rank_and_cdf() {
        let mut s = UddSketch::new(0.01, 4096);
        let n = 10_000;
        for i in 1..=n {
            s.insert(i as f64);
        }
        for x in [100.0, 5_000.0, 9_999.0] {
            let est = s.rank(x) as f64;
            assert!((est - x).abs() / (n as f64) < 0.02, "rank({x}) = {est}");
        }
        assert!((s.cdf(2_500.0) - 0.25).abs() < 0.02);
        assert_eq!(s.rank(0.0), 0);
    }

    #[test]
    fn quantiles_monotone() {
        let mut s = UddSketch::paper_configuration();
        let mut x = 0.5;
        for _ in 0..20_000 {
            x = (x * 16807.0 + 3.7) % 5000.0 + 0.01;
            s.insert(x);
        }
        let mut prev = f64::NEG_INFINITY;
        for i in 1..=50 {
            let v = s.query(i as f64 / 50.0).unwrap();
            assert!(v >= prev);
            prev = v;
        }
    }
}

/// Wire format: magic `0xDD`, version 3 (flatwire — FORMATS.md): the
/// initial α, the collapse count, the explicit grid exponent, and both
/// bucket maps as delta + prefix-varint compressed runs. Version-1
/// payloads (grid exponent implied as `2^collapses`; γ is rederived by
/// squaring, keeping the deterioration law exact) and version-2 payloads
/// (explicit exponent, written only for fused-merge grids) still decode.
pub use codec::{MAGIC as WIRE_MAGIC, MAX_BUCKETS_WIRE as MAX_WIRE_BUCKETS};

mod codec {
    use super::*;
    use qsketch_core::codec::{DecodeError, Reader, SketchSerialize};
    use qsketch_core::flatwire::{self, BucketRunCursor, FlatReader, RunDirection, SketchView};
    use qsketch_core::sketch::SketchError;

    /// Sketch tag on the wire (shared with checkpoint files; the bench
    /// harness's `AnySketch` dispatches on it).
    pub const MAGIC: u8 = 0xDD;
    const LEGACY_VERSION: u8 = 2;
    const FLAT_VERSION: u8 = 3;
    /// Upper bound on the buckets, and on the bucket budget, accepted
    /// from a payload.
    pub const MAX_BUCKETS_WIRE: u64 = 1 << 22;

    fn read_map(r: &mut Reader<'_>) -> Result<BTreeMap<i32, u64>, DecodeError> {
        let n = r.varint()?;
        if n > MAX_BUCKETS_WIRE {
            return Err(DecodeError::Corrupt(format!("{n} buckets exceeds limit")));
        }
        let mut map = BTreeMap::new();
        for _ in 0..n {
            let i = r.i32()?;
            let c = r.varint()?;
            map.insert(i, c);
        }
        Ok(map)
    }

    /// Sum both maps plus the zero counter with overflow detection
    /// (hostile payloads can carry counts that sum past `u64::MAX`).
    fn map_totals(
        positives: &BTreeMap<i32, u64>,
        negatives: &BTreeMap<i32, u64>,
        zero_count: u64,
    ) -> Option<u64> {
        positives
            .values()
            .chain(negatives.values())
            .try_fold(zero_count, |acc, &c| acc.checked_add(c))
    }

    /// The fixed-position scalar fields of a v3 payload.
    struct FlatHeader {
        initial_alpha: f64,
        collapses: u64,
        gamma_exponent: u64,
        max_buckets: usize,
        zero_count: u64,
        count: u64,
        min: f64,
        max: f64,
    }

    fn read_flat_header(r: &mut FlatReader<'_>) -> Result<FlatHeader, DecodeError> {
        let initial_alpha = r.f64()?;
        if !(initial_alpha > 0.0 && initial_alpha < 1.0) {
            return Err(DecodeError::Corrupt(format!(
                "initial alpha {initial_alpha} out of range"
            )));
        }
        let collapses = r.uvarint()?;
        if collapses > 64 {
            return Err(DecodeError::Corrupt(format!("{collapses} collapses")));
        }
        let gamma_exponent = r.uvarint()?;
        if gamma_exponent == 0 {
            return Err(DecodeError::Corrupt("grid exponent 0".into()));
        }
        let max_buckets = r.uvarint()? as usize;
        if !(2..=(MAX_BUCKETS_WIRE as usize)).contains(&max_buckets) {
            return Err(DecodeError::Corrupt(format!("max_buckets {max_buckets}")));
        }
        let zero_count = r.uvarint()?;
        let count = r.uvarint()?;
        let min = r.f64()?;
        let max = r.f64()?;
        if min.is_nan() || max.is_nan() {
            return Err(DecodeError::Corrupt("NaN extremes".into()));
        }
        if count > 0 && min > max {
            return Err(DecodeError::Corrupt("min above max".into()));
        }
        Ok(FlatHeader {
            initial_alpha,
            collapses,
            gamma_exponent,
            max_buckets,
            zero_count,
            count,
            min,
            max,
        })
    }

    /// Rebuild γ from a v3 header via the square-multiply ladder (exactly
    /// the encoder-side [`gamma_for_exponent`] sequence) and reject bases
    /// that collapsed to 1 or overflowed to infinity.
    fn flat_gamma(h: &FlatHeader) -> Result<f64, DecodeError> {
        let gamma0 = (1.0 + h.initial_alpha) / (1.0 - h.initial_alpha);
        let gamma = super::gamma_for_exponent(gamma0, h.gamma_exponent);
        if !(gamma > 1.0 && gamma.is_finite()) {
            return Err(DecodeError::Corrupt(format!(
                "alpha {} with grid exponent {} yields unusable gamma {gamma}",
                h.initial_alpha, h.gamma_exponent
            )));
        }
        Ok(gamma)
    }

    /// Read one bucket map's run header, returning `(bucket count, run
    /// bytes)`.
    fn read_flat_run<'a>(r: &mut FlatReader<'a>) -> Result<(u64, &'a [u8]), DecodeError> {
        let n = r.uvarint()?;
        if n > MAX_BUCKETS_WIRE {
            return Err(DecodeError::Corrupt(format!("{n} buckets exceeds limit")));
        }
        let byte_len = r.uvarint()?;
        let byte_len = usize::try_from(byte_len)
            .ok()
            .filter(|&b| b <= r.remaining())
            .ok_or(DecodeError::UnexpectedEnd)?;
        Ok((n, r.slice(byte_len)?))
    }

    /// Append a bucket map as a delta-compressed run with a `(count, byte
    /// length)` header. Negative maps are written highest-index-first
    /// (ascending value order).
    fn write_flat_map(out: &mut Vec<u8>, map: &BTreeMap<i32, u64>, descending: bool) {
        flatwire::write_uvarint(out, map.len() as u64);
        let buckets = map.iter().map(|(&i, &c)| (i, c));
        flatwire::write_len_prefixed(out, |out| {
            if descending {
                flatwire::write_bucket_run(out, buckets.rev());
            } else {
                flatwire::write_bucket_run(out, buckets);
            }
        });
    }

    /// Drain a run back into an ordered bucket map, enforcing the run's
    /// byte length.
    fn read_map_from_run(
        n: u64,
        run: &[u8],
        direction: RunDirection,
    ) -> Result<BTreeMap<i32, u64>, DecodeError> {
        let mut cursor = BucketRunCursor::new(run, n, direction, i64::from(i32::MAX));
        let mut map = BTreeMap::new();
        while let Some((i, c)) = cursor.next()? {
            let slot = map.entry(i).or_insert(0u64);
            *slot = slot
                .checked_add(c)
                .ok_or_else(|| DecodeError::Corrupt("bucket count overflow".into()))?;
        }
        if cursor.bytes_read() != run.len() {
            return Err(DecodeError::Corrupt("bucket run length mismatch".into()));
        }
        Ok(map)
    }

    impl UddSketch {
        /// Decode a pre-flatwire (v1/v2) payload.
        fn decode_legacy(bytes: &[u8]) -> Result<Self, DecodeError> {
            let mut r = Reader::with_header(bytes, MAGIC, LEGACY_VERSION)?;
            let initial_alpha = r.f64()?;
            if !(initial_alpha > 0.0 && initial_alpha < 1.0) {
                return Err(DecodeError::Corrupt(format!(
                    "initial alpha {initial_alpha} out of range"
                )));
            }
            let collapses = r.varint()?;
            if collapses > 64 {
                return Err(DecodeError::Corrupt(format!("{collapses} collapses")));
            }
            let explicit_exponent = if r.version() >= 2 {
                let m = r.varint()?;
                if m == 0 {
                    return Err(DecodeError::Corrupt("grid exponent 0".into()));
                }
                Some(m)
            } else {
                None
            };
            let max_buckets = r.varint()? as usize;
            if !(2..=(MAX_BUCKETS_WIRE as usize)).contains(&max_buckets) {
                return Err(DecodeError::Corrupt(format!("max_buckets {max_buckets}")));
            }
            let zero_count = r.varint()?;
            let count = r.varint()?;
            let min = r.f64()?;
            let max = r.f64()?;
            if min.is_nan() || max.is_nan() {
                return Err(DecodeError::Corrupt("NaN extremes".into()));
            }
            if count > 0 && min > max {
                return Err(DecodeError::Corrupt("min above max".into()));
            }
            let positives = read_map(&mut r)?;
            let negatives = read_map(&mut r)?;
            r.expect_exhausted()?;
            if map_totals(&positives, &negatives, zero_count) != Some(count) {
                return Err(DecodeError::Corrupt(format!(
                    "bucket totals disagree with count {count}"
                )));
            }
            // Rebuild gamma by the exact encoder-side sequence so the
            // deterioration law stays bit-identical: repeated squaring
            // for version-1 payloads, the square-multiply ladder for an
            // explicit version-2 grid exponent (the two agree exactly on
            // power-of-two exponents).
            let gamma0 = (1.0 + initial_alpha) / (1.0 - initial_alpha);
            let mut gamma = gamma0;
            if let Some(m) = explicit_exponent {
                gamma = super::gamma_for_exponent(gamma0, m);
            } else {
                for _ in 0..collapses {
                    gamma *= gamma;
                }
            }
            // A subnormal-tiny alpha passes the range check but rounds
            // gamma to exactly 1; overflowing squarings reach infinity.
            // Neither is a usable bucket base.
            if !(gamma > 1.0 && gamma.is_finite()) {
                return Err(DecodeError::Corrupt(format!(
                    "alpha {initial_alpha} with {collapses} collapses yields \
                     unusable gamma {gamma}"
                )));
            }
            // With a finite γ > 1 the implicit power-of-two exponent is
            // far below 2^63, so the shift cannot overflow.
            let gamma_exponent = explicit_exponent.unwrap_or(1u64 << collapses);
            Ok(Self {
                gamma,
                indexer: FastCeilIndexer::new(gamma),
                initial_alpha,
                collapses: collapses as u32,
                gamma_exponent,
                max_buckets,
                positives,
                negatives,
                zero_count,
                count,
                min,
                max,
            })
        }
    }

    impl SketchSerialize for UddSketch {
        fn encode_into(&self, out: &mut Vec<u8>) {
            out.extend_from_slice(&[MAGIC, FLAT_VERSION]);
            flatwire::write_f64(out, self.initial_alpha);
            flatwire::write_uvarint(out, u64::from(self.collapses));
            flatwire::write_uvarint(out, self.gamma_exponent);
            flatwire::write_uvarint(out, self.max_buckets as u64);
            flatwire::write_uvarint(out, self.zero_count);
            flatwire::write_uvarint(out, self.count);
            flatwire::write_f64(out, self.min);
            flatwire::write_f64(out, self.max);
            write_flat_map(out, &self.positives, false);
            write_flat_map(out, &self.negatives, true);
        }

        fn decode(bytes: &[u8]) -> Result<Self, DecodeError> {
            if flatwire::wire_header(bytes)? != (MAGIC, FLAT_VERSION) {
                return Self::decode_legacy(bytes);
            }
            let mut r = FlatReader::new(&bytes[2..]);
            let h = read_flat_header(&mut r)?;
            let gamma = flat_gamma(&h)?;
            let (pos_n, pos_run) = read_flat_run(&mut r)?;
            let positives = read_map_from_run(pos_n, pos_run, RunDirection::Ascending)?;
            let (neg_n, neg_run) = read_flat_run(&mut r)?;
            let negatives = read_map_from_run(neg_n, neg_run, RunDirection::Descending)?;
            r.expect_exhausted()?;
            if map_totals(&positives, &negatives, h.zero_count) != Some(h.count) {
                return Err(DecodeError::Corrupt(format!(
                    "bucket totals disagree with count {}",
                    h.count
                )));
            }
            Ok(Self {
                gamma,
                indexer: FastCeilIndexer::new(gamma),
                initial_alpha: h.initial_alpha,
                collapses: h.collapses as u32,
                gamma_exponent: h.gamma_exponent,
                max_buckets: h.max_buckets,
                positives,
                negatives,
                zero_count: h.zero_count,
                count: h.count,
                min: h.min,
                max: h.max,
            })
        }
    }

    impl SketchView for UddSketch {
        fn count_from_bytes(bytes: &[u8]) -> Result<u64, DecodeError> {
            if flatwire::wire_header(bytes)? != (MAGIC, FLAT_VERSION) {
                return Ok(Self::decode(bytes)?.count);
            }
            let mut r = FlatReader::new(&bytes[2..]);
            Ok(read_flat_header(&mut r)?.count)
        }

        fn bounds_from_bytes(bytes: &[u8]) -> Result<(f64, f64), DecodeError> {
            if flatwire::wire_header(bytes)? != (MAGIC, FLAT_VERSION) {
                let s = Self::decode(bytes)?;
                return Ok((s.min, s.max));
            }
            let mut r = FlatReader::new(&bytes[2..]);
            let h = read_flat_header(&mut r)?;
            Ok((h.min, h.max))
        }

        fn quantile_from_bytes(bytes: &[u8], q: f64) -> Result<f64, SketchError> {
            if flatwire::wire_header(bytes)? != (MAGIC, FLAT_VERSION) {
                return flatwire::quantile_via_decode::<Self>(bytes, q);
            }
            check_quantile(q)?;
            let mut r = FlatReader::new(&bytes[2..]);
            let h = read_flat_header(&mut r)?;
            if h.count == 0 {
                return Err(QueryError::Empty.into());
            }
            let gamma = flat_gamma(&h)?;
            // Same rank arithmetic and walk order as the in-memory
            // `value_at_rank`: negatives in ascending value order (the
            // wire already stores them highest-index-first), then zeros,
            // then positives; bucket midpoint `2γ^i/(γ+1)` throughout.
            let rank = ((q * h.count as f64).ceil() as u64).clamp(1, h.count);
            let (pos_n, pos_run) = read_flat_run(&mut r)?;
            let (neg_n, neg_run) = read_flat_run(&mut r)?;
            let mut cum = 0u64;
            let overflow = || DecodeError::Corrupt("bucket counts overflow".into());
            let mut negatives =
                BucketRunCursor::new(neg_run, neg_n, RunDirection::Descending, i64::from(i32::MAX));
            let mut est = None;
            while let Some((i, c)) = negatives.next()? {
                cum = cum.checked_add(c).ok_or_else(overflow)?;
                if cum >= rank {
                    est = Some(-(2.0 * gamma.powi(i) / (gamma + 1.0)));
                    break;
                }
            }
            if est.is_none() {
                cum = cum.checked_add(h.zero_count).ok_or_else(overflow)?;
                if cum >= rank {
                    est = Some(0.0);
                }
            }
            if est.is_none() {
                let mut positives = BucketRunCursor::new(
                    pos_run,
                    pos_n,
                    RunDirection::Ascending,
                    i64::from(i32::MAX),
                );
                while let Some((i, c)) = positives.next()? {
                    cum = cum.checked_add(c).ok_or_else(overflow)?;
                    if cum >= rank {
                        est = Some(2.0 * gamma.powi(i) / (gamma + 1.0));
                        break;
                    }
                }
            }
            // Rank beyond the stored totals falls back to the tracked max,
            // exactly as the in-memory walk does.
            Ok(est.unwrap_or(h.max).clamp(h.min, h.max))
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn round_trip_preserves_queries_and_alpha() {
            let mut s = UddSketch::with_target(0.01, 12, 256);
            let mut x = 1e-3;
            for _ in 0..50_000 {
                x = if x > 1e6 { 1e-3 } else { x * 1.0004 };
                s.insert(x);
            }
            assert!(s.collapses() > 0);
            let restored = UddSketch::decode(&s.encode()).unwrap();
            assert_eq!(restored.count(), s.count());
            assert_eq!(restored.collapses(), s.collapses());
            assert_eq!(restored.gamma(), s.gamma());
            for q in [0.05, 0.5, 0.99] {
                assert_eq!(restored.query(q).unwrap(), s.query(q).unwrap(), "q={q}");
            }
        }

        #[test]
        fn decoded_sketch_keeps_inserting() {
            let mut s = UddSketch::paper_configuration();
            for i in 1..=1_000 {
                s.insert(i as f64);
            }
            let mut restored = UddSketch::decode(&s.encode()).unwrap();
            for i in 1_001..=2_000 {
                restored.insert(i as f64);
            }
            assert_eq!(restored.count(), 2_000);
            let est = restored.query(0.5).unwrap();
            assert!(((est - 1_000.0) / 1_000.0).abs() <= restored.current_alpha() + 1e-9);
        }

        #[test]
        fn merged_after_decode() {
            use qsketch_core::sketch::MergeableSketch;
            let mut a = UddSketch::new(0.01, 512);
            let mut b = UddSketch::new(0.01, 512);
            for i in 1..=1_000 {
                a.insert(i as f64);
                b.insert(i as f64 + 1_000.0);
            }
            let mut restored = UddSketch::decode(&a.encode()).unwrap();
            restored.merge(&b).unwrap();
            assert_eq!(restored.count(), 2_000);
        }

        #[test]
        fn count_mismatch_rejected() {
            let mut s = UddSketch::new(0.01, 64);
            s.insert(5.0);
            s.insert(7.0);
            let mut bytes = s.encode();
            let last = bytes.len() - 1;
            bytes[last] = bytes[last].wrapping_add(1);
            assert!(UddSketch::decode(&bytes).is_err());
        }

        fn mixed_sketch() -> UddSketch {
            let mut s = UddSketch::new(0.001, 256);
            for i in 1..=50_000u64 {
                match i % 97 {
                    0 => s.insert(0.0),
                    k if k < 20 => s.insert(-(i as f64) * 0.11),
                    _ => s.insert(i as f64 * 0.37),
                }
            }
            assert!(s.collapses() > 0);
            s
        }

        /// A sketch the fused merge rule has moved off the standard
        /// `2^collapses` grid.
        fn fused_sketch() -> UddSketch {
            let mut a = UddSketch::new(0.001, 256);
            let mut b = UddSketch::new(0.001, 64);
            for i in 1..=30_000u64 {
                a.insert(i as f64 * 10.0);
                b.insert(i as f64 * 1e6);
            }
            a.merge_fused(&b).unwrap();
            a
        }

        #[test]
        fn quantile_from_bytes_matches_decode_then_query() {
            use qsketch_core::flatwire::SketchView;
            for s in [mixed_sketch(), fused_sketch()] {
                let bytes = s.encode();
                let decoded = UddSketch::decode(&bytes).unwrap();
                assert_eq!(UddSketch::count_from_bytes(&bytes).unwrap(), s.count());
                assert_eq!(
                    UddSketch::bounds_from_bytes(&bytes).unwrap(),
                    (decoded.min, decoded.max)
                );
                for q in [0.001, 0.01, 0.2, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0] {
                    let from_bytes = UddSketch::quantile_from_bytes(&bytes, q).unwrap();
                    let via_decode = decoded.query(q).unwrap();
                    assert_eq!(
                        from_bytes.to_bits(),
                        via_decode.to_bits(),
                        "q={q} from_bytes={from_bytes} via_decode={via_decode}"
                    );
                }
            }
        }

        #[test]
        fn v3_truncations_and_flips_never_panic() {
            use qsketch_core::flatwire::SketchView;
            let mut s = UddSketch::new(0.02, 64);
            for i in 1..=2_000u64 {
                if i % 31 == 0 {
                    s.insert(0.0);
                } else if i % 7 == 0 {
                    s.insert(-(i as f64));
                } else {
                    s.insert(i as f64);
                }
            }
            let bytes = s.encode();
            for len in 0..bytes.len() {
                let truncated = &bytes[..len];
                let _ = UddSketch::decode(truncated);
                let _ = UddSketch::quantile_from_bytes(truncated, 0.5);
            }
            for i in 0..bytes.len() {
                let mut flipped = bytes.clone();
                flipped[i] ^= 0xA5;
                let _ = UddSketch::decode(&flipped);
                let _ = UddSketch::quantile_from_bytes(&flipped, 0.5);
            }
        }
    }
}
