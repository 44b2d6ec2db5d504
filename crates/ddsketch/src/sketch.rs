//! The DDSketch front-end: index mapping + bucket stores + zero/negative
//! handling.

use qsketch_core::sketch::{
    check_quantile, MergeError, MergeableSketch, QuantileSketch, QueryError,
};

use crate::mapping::LogarithmicMapping;
use crate::store::{BucketStore, CollapsingLowestDenseStore, UnboundedDenseStore};

/// DDSketch over `f64` values, generic in the bucket store.
///
/// Positive values land in `positives`, negative values are mirrored into
/// `negatives` (indexed by `⌈log_γ(−x)⌉`), and exact zeros are counted
/// separately — the scheme used by the reference implementation the paper
/// benchmarks. All of the paper's data sets are positive, but the mirrored
/// store keeps the sketch total.
#[derive(Debug, Clone)]
pub struct DdSketch<S: BucketStore = UnboundedDenseStore> {
    mapping: LogarithmicMapping,
    positives: S,
    negatives: S,
    zero_count: u64,
    count: u64,
    min: f64,
    max: f64,
}

impl DdSketch<UnboundedDenseStore> {
    /// DDSketch with an unbounded dense store — the paper's primary
    /// configuration (§4.2).
    pub fn unbounded(alpha: f64) -> Self {
        Self::with_store(alpha, UnboundedDenseStore::new(), UnboundedDenseStore::new())
    }

    /// The exact configuration of §4.2: α = 0.01, unbounded dense store.
    pub fn paper_configuration() -> Self {
        Self::unbounded(crate::PAPER_ALPHA)
    }
}

impl DdSketch<CollapsingLowestDenseStore> {
    /// DDSketch with a bounded, collapsing-lowest dense store — the
    /// 1024-bucket variant compared in §4.5.5.
    pub fn collapsing(alpha: f64, max_buckets: usize) -> Self {
        Self::with_store(
            alpha,
            CollapsingLowestDenseStore::new(max_buckets),
            CollapsingLowestDenseStore::new(max_buckets),
        )
    }
}

impl<S: BucketStore> DdSketch<S> {
    /// Build a sketch from explicit stores (used by the ablation benches).
    pub fn with_store(alpha: f64, positives: S, negatives: S) -> Self {
        Self {
            mapping: LogarithmicMapping::new(alpha),
            positives,
            negatives,
            zero_count: 0,
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// The index mapping (γ, α).
    pub fn mapping(&self) -> &LogarithmicMapping {
        &self.mapping
    }

    /// Maximum relative error parameter α.
    pub fn alpha(&self) -> f64 {
        self.mapping.alpha()
    }

    /// Number of non-empty buckets across both stores (§4.3's reported
    /// bucket counts).
    pub fn non_empty_buckets(&self) -> usize {
        self.positives.non_empty_buckets() + self.negatives.non_empty_buckets()
    }

    /// Smallest inserted value (exact), `+∞` when empty.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest inserted value (exact), `−∞` when empty.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Estimated rank of `x`: the number of inserted values `≤ x`, read
    /// off the bucket counts (the CDF query dual to `query`).
    pub fn rank(&self, x: f64) -> u64 {
        let mut cum = 0u64;
        if x >= 0.0 {
            // All negatives are <= x.
            cum += self.negatives.total();
            if x > 0.0 || self.zero_count > 0 {
                cum += self.zero_count;
            }
            if x > 0.0 {
                let xi = self.mapping.index(x);
                for (i, c) in self.positives.iter_ascending() {
                    if i > xi {
                        break;
                    }
                    cum += c;
                }
            }
        } else {
            let xi = self.mapping.index(-x);
            // Negative values <= x are those with mirrored index >= xi.
            for (i, c) in self.negatives.iter_ascending() {
                if i >= xi {
                    cum += c;
                }
            }
        }
        cum
    }

    /// Estimated CDF at `x`: `rank(x) / count`.
    pub fn cdf(&self, x: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.rank(x) as f64 / self.count as f64
    }

    /// The quantile value implied by walking buckets in ascending value
    /// order until the cumulative count reaches `rank` (1-based).
    fn value_at_rank(&self, rank: u64) -> f64 {
        let mut cum = 0u64;

        // Negative buckets: most-negative values have the *largest* mirrored
        // index, so walk descending.
        let mut neg: Vec<(i32, u64)> = self.negatives.iter_ascending().collect();
        neg.reverse();
        for (i, c) in neg {
            cum += c;
            if cum >= rank {
                return -self.mapping.value(i);
            }
        }

        cum += self.zero_count;
        if cum >= rank {
            return 0.0;
        }

        for (i, c) in self.positives.iter_ascending() {
            cum += c;
            if cum >= rank {
                return self.mapping.value(i);
            }
        }

        // rank beyond total (can only happen through clamping): largest
        // estimate available.
        self.max
    }
}

impl<S: BucketStore> DdSketch<S> {
    /// Per-value fallback for batch blocks containing NaN, zeros, or
    /// negatives: the ln-free mapping plus run coalescing of consecutive
    /// same-bucket values, processing each value exactly as scalar
    /// `insert` would (same NaN skip, same zero counting, same min/max
    /// update order).
    fn insert_run_coalesced(&mut self, values: &[f64]) {
        // Pending run: sign (true = positives store), bucket index, count.
        let mut run: Option<(bool, i32, u64)> = None;
        for &value in values {
            if value.is_nan() {
                continue;
            }
            self.count += 1;
            self.min = self.min.min(value);
            self.max = self.max.max(value);
            let keyed = if value > 0.0 {
                (true, self.mapping.index_fast(value))
            } else if value < 0.0 {
                (false, self.mapping.index_fast(-value))
            } else {
                self.zero_count += 1;
                continue; // zeros don't touch the stores; keep the run open
            };
            match run {
                Some((pos, idx, ref mut n)) if (pos, idx) == keyed => *n += 1,
                _ => {
                    if let Some((pos, idx, n)) = run.take() {
                        let store = if pos { &mut self.positives } else { &mut self.negatives };
                        store.add(idx, n);
                    }
                    run = Some((keyed.0, keyed.1, 1));
                }
            }
        }
        if let Some((pos, idx, n)) = run {
            let store = if pos { &mut self.positives } else { &mut self.negatives };
            store.add(idx, n);
        }
    }
}

impl<S: BucketStore> QuantileSketch for DdSketch<S> {
    fn insert(&mut self, value: f64) {
        if value.is_nan() {
            return; // trait-level NaN policy: ignore
        }
        self.count += 1;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        if value > 0.0 {
            self.positives.add(self.mapping.index(value), 1);
        } else if value < 0.0 {
            self.negatives.add(self.mapping.index(-value), 1);
        } else {
            self.zero_count += 1;
        }
    }

    /// Insert `count` occurrences of `value` at once — pre-aggregated
    /// ingestion (e.g. rollups) costs one bucket update regardless of
    /// weight, an advantage histogram sketches have over sampling
    /// sketches.
    fn insert_n(&mut self, value: f64, count: u64) {
        if count == 0 || value.is_nan() {
            return;
        }
        self.count += count;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        if value > 0.0 {
            self.positives.add(self.mapping.index(value), count);
        } else if value < 0.0 {
            self.negatives.add(self.mapping.index(-value), count);
        } else {
            self.zero_count += count;
        }
    }

    /// Batch kernel: blocked, ln-free, branch-free in the hot loop.
    ///
    /// Each 128-value block that is entirely positive (the common case for
    /// the paper's value distributions) takes the fast path: a single
    /// vectorizable pass of
    /// [`index_checked`](LogarithmicMapping::index_checked) fills an index
    /// array plus needs-exact flags, the (provably rare) flagged lanes are
    /// redone through the exact `ln` mapping, min/max fold over the block,
    /// and the whole index block goes to the store's bulk
    /// [`add_block`](BucketStore::add_block) (grow once, increment without
    /// per-value range checks). Blocks containing NaN, zeros, or negatives
    /// fall back to a per-value run-coalescing loop with the same ln-free
    /// mapping.
    ///
    /// Bit-identity with the scalar path: the guarded fast index always
    /// equals the `ln` index (see [`qsketch_core::fastlog`]); min/max of
    /// an all-positive, NaN-free block is order-independent; and bucket
    /// counts are plain `u64` additions, so the serialized store is
    /// bit-identical to the scalar path's.
    fn insert_batch(&mut self, values: &[f64]) {
        const BLOCK: usize = 128;
        let mut idx = [0i32; BLOCK];
        // Fixed-size blocks: every loop below runs over exactly BLOCK
        // elements, so the compiler drops bounds checks and trip-count
        // prologues and vectorizes cleanly. The tail (and any block
        // containing NaN, zeros, or negatives) takes the per-value path.
        let mut blocks = values.chunks_exact(BLOCK);
        for block in blocks.by_ref() {
            let block: &[f64; BLOCK] = block.try_into().expect("chunks_exact");
            // Screen + min/max pass. lo/hi are only used when the block
            // is all-positive (min/max of an all-positive, NaN-free
            // block is order-independent; the cmp-selects are
            // `vminpd`/`vmaxpd`, valid because NaN-containing blocks
            // are discarded).
            let mut all_pos = true;
            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            for &v in block {
                all_pos &= v > 0.0; // also rejects NaN
                lo = if v < lo { v } else { lo };
                hi = if v > hi { v } else { hi };
            }
            if !all_pos {
                self.insert_run_coalesced(block);
                continue;
            }
            // Branch-free speculative index pass — no libm calls, so
            // the compiler unrolls and vectorizes it.
            let mut any = false;
            for i in 0..BLOCK {
                let (index, needs_exact) = self.mapping.index_checked(block[i]);
                idx[i] = index;
                any |= needs_exact;
            }
            if any {
                // Rare (the guard band covers ~7 in 100 000 values):
                // recompute the block, redoing flagged lanes exactly.
                for i in 0..BLOCK {
                    let (index, needs_exact) = self.mapping.index_checked(block[i]);
                    idx[i] = if needs_exact {
                        self.mapping.index(block[i])
                    } else {
                        index
                    };
                }
            }
            self.min = self.min.min(lo);
            self.max = self.max.max(hi);
            self.count += BLOCK as u64;
            self.positives.add_block(&idx);
        }
        self.insert_run_coalesced(blocks.remainder());
    }

    fn query(&self, q: f64) -> Result<f64, QueryError> {
        check_quantile(q)?;
        if self.count == 0 {
            return Err(QueryError::Empty);
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let est = self.value_at_rank(rank);
        // Clamp into the observed range: the bucket midpoint of the extreme
        // buckets can poke past the true min/max.
        Ok(est.clamp(self.min, self.max))
    }

    fn count(&self) -> u64 {
        self.count
    }

    fn memory_footprint(&self) -> usize {
        // Allocated count slots at their width plus the scalar state
        // (offsets, min/max indices, counts) — the accounting behind
        // Table 3's 1.84–5.42 KB, which charges 8 bytes per slot.
        self.positives.slot_bytes() + self.negatives.slot_bytes() + 6 * std::mem::size_of::<u64>()
    }

    fn name(&self) -> &'static str {
        "DDS"
    }
}

impl<S: BucketStore + Clone> MergeableSketch for DdSketch<S> {
    fn merge(&mut self, other: &Self) -> Result<(), MergeError> {
        if !self.mapping.is_mergeable_with(&other.mapping) {
            return Err(MergeError::IncompatibleParameters(format!(
                "gamma mismatch: {} vs {}",
                self.mapping.gamma(),
                other.mapping.gamma()
            )));
        }
        self.positives.merge_from(&other.positives);
        self.negatives.merge_from(&other.negatives);
        self.zero_count += other.zero_count;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_query_errors() {
        let s = DdSketch::unbounded(0.01);
        assert_eq!(s.query(0.5), Err(QueryError::Empty));
    }

    #[test]
    fn relative_error_guarantee_on_sequential_data() {
        let mut s = DdSketch::unbounded(0.01);
        let n = 100_000;
        for i in 1..=n {
            s.insert(i as f64);
        }
        for q in [0.05, 0.25, 0.5, 0.75, 0.9, 0.95, 0.98, 0.99] {
            let truth = (q * n as f64).ceil();
            let est = s.query(q).unwrap();
            let rel = ((est - truth) / truth).abs();
            assert!(rel <= 0.01 + 1e-9, "q={q} rel={rel}");
        }
    }

    #[test]
    fn relative_error_guarantee_across_magnitudes() {
        // Values spanning 12 decades still answer within alpha.
        let mut s = DdSketch::unbounded(0.01);
        let mut values = Vec::new();
        let mut x = 1e-6;
        while x < 1e6 {
            values.push(x);
            x *= 1.003;
        }
        for &v in &values {
            s.insert(v);
        }
        values.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for q in [0.01, 0.5, 0.99] {
            let truth = values[((q * values.len() as f64).ceil() as usize - 1).min(values.len() - 1)];
            let est = s.query(q).unwrap();
            let rel = ((est - truth) / truth).abs();
            assert!(rel <= 0.01 + 1e-9, "q={q} rel={rel}");
        }
    }

    #[test]
    fn handles_zeros_and_negatives() {
        let mut s = DdSketch::unbounded(0.01);
        for v in [-100.0, -10.0, 0.0, 0.0, 10.0, 100.0, 1000.0] {
            s.insert(v);
        }
        assert_eq!(s.count(), 7);
        // rank ceil(0.3*7)=3 -> the first zero.
        assert_eq!(s.query(0.3).unwrap(), 0.0);
        // Lowest quantile is negative, within 1% of -100.
        let low = s.query(0.1).unwrap();
        assert!(((low + 100.0) / 100.0).abs() <= 0.01 + 1e-9, "low {low}");
        // Upper within 1% of 1000.
        let hi = s.query(1.0).unwrap();
        assert!(((hi - 1000.0) / 1000.0).abs() <= 0.01 + 1e-9, "hi {hi}");
    }

    #[test]
    fn merge_preserves_guarantee() {
        let mut a = DdSketch::unbounded(0.01);
        let mut b = DdSketch::unbounded(0.01);
        for i in 1..=50_000 {
            a.insert(i as f64);
            b.insert((i + 50_000) as f64);
        }
        a.merge(&b).unwrap();
        assert_eq!(a.count(), 100_000);
        for q in [0.25, 0.5, 0.75, 0.99] {
            let truth = (q * 100_000.0_f64).ceil();
            let est = a.query(q).unwrap();
            assert!(((est - truth) / truth).abs() <= 0.01 + 1e-9, "q={q}");
        }
    }

    #[test]
    fn merge_rejects_gamma_mismatch() {
        let mut a = DdSketch::unbounded(0.01);
        let b = DdSketch::unbounded(0.02);
        a.insert(1.0);
        let err = a.merge(&b).unwrap_err();
        assert!(matches!(err, MergeError::IncompatibleParameters(_)));
    }

    #[test]
    fn merge_is_count_exact() {
        // Histogram merge adds counts exactly — unlike sampling sketches
        // there is no randomness (§2.4).
        let mut a = DdSketch::unbounded(0.01);
        let mut b = DdSketch::unbounded(0.01);
        for i in 1..=1000 {
            a.insert(i as f64);
            b.insert(i as f64);
        }
        let mut merged = a.clone();
        merged.merge(&b).unwrap();
        for q in [0.1, 0.5, 0.9] {
            // Same distribution twice: quantiles unchanged.
            assert_eq!(merged.query(q).unwrap(), a.query(q).unwrap(), "q={q}");
        }
    }

    #[test]
    fn collapsing_store_preserves_upper_quantiles() {
        // §4.5.5: with 1024 buckets the collapsing store stays close to the
        // unbounded store for upper quantiles.
        let mut unbounded = DdSketch::unbounded(0.01);
        let mut bounded = DdSketch::collapsing(0.01, 128);
        let mut x = 1.0;
        for _ in 0..200_000 {
            x = if x > 1e8 { 1.0 } else { x * 1.0001 };
            unbounded.insert(x);
            bounded.insert(x);
        }
        let u = unbounded.query(0.99).unwrap();
        let b = bounded.query(0.99).unwrap();
        assert!(((u - b) / u).abs() < 0.05, "unbounded {u} vs bounded {b}");
    }

    #[test]
    fn bucket_count_depends_on_range_not_size(){
        // §4.3: bucket count is independent of stream length.
        let mut small = DdSketch::unbounded(0.01);
        let mut large = DdSketch::unbounded(0.01);
        for i in 0..1_000 {
            small.insert(1.0 + (i % 100) as f64);
        }
        for i in 0..100_000 {
            large.insert(1.0 + (i % 100) as f64);
        }
        assert_eq!(small.non_empty_buckets(), large.non_empty_buckets());
    }

    #[test]
    fn single_value_stream() {
        let mut s = DdSketch::unbounded(0.01);
        for _ in 0..100 {
            s.insert(42.0);
        }
        for q in [0.01, 0.5, 1.0] {
            let est = s.query(q).unwrap();
            assert!(((est - 42.0) / 42.0).abs() <= 0.01 + 1e-9);
        }
    }

    #[test]
    fn insert_n_equals_repeated_inserts() {
        let mut a = DdSketch::unbounded(0.01);
        let mut b = DdSketch::unbounded(0.01);
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
    fn rank_and_cdf_track_true_ranks() {
        let mut s = DdSketch::unbounded(0.01);
        let n = 10_000;
        for i in 1..=n {
            s.insert(i as f64);
        }
        for x in [100.0, 2_500.0, 9_999.0] {
            let est = s.rank(x) as f64;
            assert!(
                (est - x).abs() / (n as f64) < 0.02,
                "rank({x}) = {est}"
            );
        }
        assert_eq!(s.rank(0.0), 0);
        assert_eq!(s.rank(1e12), n);
        assert!((s.cdf(5_000.0) - 0.5).abs() < 0.02);
    }

    #[test]
    fn rank_with_negatives_and_zero() {
        let mut s = DdSketch::unbounded(0.01);
        for v in [-10.0, -1.0, 0.0, 1.0, 10.0] {
            s.insert(v);
        }
        assert_eq!(s.rank(-20.0), 0);
        assert_eq!(s.rank(-0.5), 2);
        assert_eq!(s.rank(0.0), 3);
        assert_eq!(s.rank(100.0), 5);
    }

    #[test]
    fn query_results_are_monotone_in_q() {
        let mut s = DdSketch::unbounded(0.02);
        let mut x = 0.5;
        for _ in 0..10_000 {
            x = (x * 1103.515245 + 1.2345) % 1000.0 + 0.001;
            s.insert(x);
        }
        let mut prev = f64::NEG_INFINITY;
        for i in 1..=100 {
            let q = i as f64 / 100.0;
            let v = s.query(q).unwrap();
            assert!(v >= prev, "quantiles must be monotone: q={q}");
            prev = v;
        }
    }
}

/// Wire format: magic `0xD0`, version 3 (flatwire — FORMATS.md §3.4;
/// version 2 was never issued for DDSketch, so the numbering stays
/// aligned across sketches). Encodes α, scalar state, and both stores as
/// delta + prefix-varint compressed `(index, count)` runs — positives in
/// ascending index order, negatives in *descending* index order, which is
/// ascending value order, so a quantile query walks the bytes in a single
/// pass ([`qsketch_core::flatwire::SketchView`]). Version-1 payloads
/// (LEB128, fixed 4-byte indices) still decode. Only the unbounded-store
/// sketch is encodable — a collapsed store has already discarded
/// information that the receiving side could not validate.
pub use codec::{MAGIC as WIRE_MAGIC, MAX_BUCKETS as MAX_WIRE_BUCKETS};

mod codec {
    use super::*;
    use qsketch_core::codec::{DecodeError, Reader, SketchSerialize};
    use qsketch_core::flatwire::{self, BucketRunCursor, FlatReader, RunDirection, SketchView};
    use qsketch_core::sketch::SketchError;

    /// Sketch tag on the wire (shared with checkpoint files; the bench
    /// harness's `AnySketch` dispatches on it).
    pub const MAGIC: u8 = 0xD0;
    const LEGACY_VERSION: u8 = 1;
    const FLAT_VERSION: u8 = 3;
    /// Upper bound on the buckets, and on the magnitude of the bucket
    /// indices, accepted from a payload (a 2048-bucket sketch already
    /// spans 17 decades at α = 0.01, §4.8).
    pub const MAX_BUCKETS: u64 = 1 << 22;

    fn totals_disagree(count: u64) -> DecodeError {
        DecodeError::Corrupt(format!("bucket totals disagree with count {count}"))
    }

    /// Read a v1 store of at most `max_total` values (what the payload's
    /// `count` leaves for it); a store holding more is corrupt.
    fn read_store(
        r: &mut Reader<'_>,
        max_total: u64,
        count: u64,
    ) -> Result<UnboundedDenseStore, DecodeError> {
        let mut left = r.varint()?;
        if left > MAX_BUCKETS {
            return Err(DecodeError::Corrupt(format!(
                "{left} buckets exceeds limit"
            )));
        }
        UnboundedDenseStore::read_buckets(max_total, || {
            if left == 0 {
                return Ok(None);
            }
            left -= 1;
            let i = r.i32()?;
            // The dense store allocates the whole index *span*: a hostile
            // index pair like (i32::MIN, i32::MAX) would demand a 16 GiB
            // count array. Bound the index magnitude before adding; 2^22
            // buckets at alpha = 0.01 already cover tens of thousands of
            // decades, far past any real payload.
            if u64::from(i.unsigned_abs()) > MAX_BUCKETS {
                return Err(DecodeError::Corrupt(format!(
                    "bucket index {i} out of range"
                )));
            }
            Ok(Some((i, r.varint()?)))
        })?
        .ok_or_else(|| totals_disagree(count))
    }

    /// The fixed-position scalar fields of a v3 payload.
    struct FlatHeader {
        alpha: f64,
        zero_count: u64,
        count: u64,
        min: f64,
        max: f64,
    }

    fn read_flat_header(r: &mut FlatReader<'_>) -> Result<FlatHeader, DecodeError> {
        let alpha = r.f64()?;
        if !(alpha > 0.0 && alpha < 1.0) {
            return Err(DecodeError::Corrupt(format!("alpha {alpha} out of range")));
        }
        // A subnormal-tiny alpha passes the range check but rounds
        // (1+α)/(1−α) to exactly 1 — no usable bucket base.
        if (1.0 + alpha) / (1.0 - alpha) <= 1.0 {
            return Err(DecodeError::Corrupt(format!(
                "alpha {alpha} collapses gamma to 1"
            )));
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
            alpha,
            zero_count,
            count,
            min,
            max,
        })
    }

    /// Read one store's run header, returning `(bucket count, run bytes)`.
    fn read_flat_run<'a>(r: &mut FlatReader<'a>) -> Result<(u64, &'a [u8]), DecodeError> {
        let n = r.uvarint()?;
        if n > MAX_BUCKETS {
            return Err(DecodeError::Corrupt(format!("{n} buckets exceeds limit")));
        }
        let byte_len = r.uvarint()?;
        let byte_len = usize::try_from(byte_len)
            .ok()
            .filter(|&b| b <= r.remaining())
            .ok_or(DecodeError::UnexpectedEnd)?;
        Ok((n, r.slice(byte_len)?))
    }

    /// Append a store as a delta-compressed run with a `(count, byte
    /// length)` header. Negative stores are written highest-index-first
    /// (ascending value order).
    fn write_flat_store(out: &mut Vec<u8>, store: &UnboundedDenseStore, descending: bool) {
        flatwire::write_uvarint(out, store.non_empty_buckets() as u64);
        flatwire::write_len_prefixed(out, |out| store.write_bucket_run(out, descending));
    }

    /// Drain a run into an [`UnboundedDenseStore`] of at most `max_total`
    /// values (what the payload's `count` leaves for it), enforcing the
    /// run's byte length and index bounds.
    fn read_store_from_run(
        n: u64,
        run: &[u8],
        direction: RunDirection,
        max_total: u64,
        count: u64,
    ) -> Result<UnboundedDenseStore, DecodeError> {
        let mut cursor = BucketRunCursor::new(run, n, direction, MAX_BUCKETS as i64);
        let store = UnboundedDenseStore::read_buckets(max_total, || cursor.next())?
            .ok_or_else(|| totals_disagree(count))?;
        if cursor.bytes_read() != run.len() {
            return Err(DecodeError::Corrupt("store run length mismatch".into()));
        }
        Ok(store)
    }

    impl DdSketch<UnboundedDenseStore> {
        /// Decode a pre-flatwire (v1) payload.
        fn decode_legacy(bytes: &[u8]) -> Result<Self, DecodeError> {
            let mut r = Reader::with_header(bytes, MAGIC, LEGACY_VERSION)?;
            let alpha = r.f64()?;
            if !(alpha > 0.0 && alpha < 1.0) {
                return Err(DecodeError::Corrupt(format!("alpha {alpha} out of range")));
            }
            // A subnormal-tiny alpha passes the range check but rounds
            // (1+α)/(1−α) to exactly 1 — no usable bucket base.
            if (1.0 + alpha) / (1.0 - alpha) <= 1.0 {
                return Err(DecodeError::Corrupt(format!(
                    "alpha {alpha} collapses gamma to 1"
                )));
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
            let budget = count.saturating_sub(zero_count);
            let positives = read_store(&mut r, budget, count)?;
            let negatives = read_store(&mut r, budget - positives.total(), count)?;
            r.expect_exhausted()?;
            if positives.total() + negatives.total() + zero_count != count {
                return Err(totals_disagree(count));
            }
            Ok(Self {
                mapping: LogarithmicMapping::new(alpha),
                positives,
                negatives,
                zero_count,
                count,
                min,
                max,
            })
        }
    }

    impl SketchSerialize for DdSketch<UnboundedDenseStore> {
        fn encode_into(&self, out: &mut Vec<u8>) {
            out.extend_from_slice(&[MAGIC, FLAT_VERSION]);
            flatwire::write_f64(out, self.mapping.alpha());
            flatwire::write_uvarint(out, self.zero_count);
            flatwire::write_uvarint(out, self.count);
            flatwire::write_f64(out, self.min);
            flatwire::write_f64(out, self.max);
            write_flat_store(out, &self.positives, false);
            write_flat_store(out, &self.negatives, true);
        }

        fn decode(bytes: &[u8]) -> Result<Self, DecodeError> {
            if flatwire::wire_header(bytes)? != (MAGIC, FLAT_VERSION) {
                return Self::decode_legacy(bytes);
            }
            let mut r = FlatReader::new(&bytes[2..]);
            let h = read_flat_header(&mut r)?;
            // The declared count bounds each store's total, so it picks
            // the slot width once per store.
            let budget = h.count.saturating_sub(h.zero_count);
            let (pos_n, pos_run) = read_flat_run(&mut r)?;
            let positives =
                read_store_from_run(pos_n, pos_run, RunDirection::Ascending, budget, h.count)?;
            let (neg_n, neg_run) = read_flat_run(&mut r)?;
            let negatives = read_store_from_run(
                neg_n,
                neg_run,
                RunDirection::Descending,
                budget - positives.total(),
                h.count,
            )?;
            r.expect_exhausted()?;
            if positives.total() + negatives.total() + h.zero_count != h.count {
                return Err(totals_disagree(h.count));
            }
            Ok(Self {
                mapping: LogarithmicMapping::new(h.alpha),
                positives,
                negatives,
                zero_count: h.zero_count,
                count: h.count,
                min: h.min,
                max: h.max,
            })
        }
    }

    impl SketchView for DdSketch<UnboundedDenseStore> {
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
            qsketch_core::sketch::check_quantile(q)?;
            let mut r = FlatReader::new(&bytes[2..]);
            let h = read_flat_header(&mut r)?;
            if h.count == 0 {
                return Err(QueryError::Empty.into());
            }
            // Same rank arithmetic and walk order as the in-memory
            // `value_at_rank`: negatives in ascending value order (the
            // wire already stores them highest-index-first), then zeros,
            // then positives.
            let rank = ((q * h.count as f64).ceil() as u64).clamp(1, h.count);
            let mapping = LogarithmicMapping::new(h.alpha);
            let (pos_n, pos_run) = read_flat_run(&mut r)?;
            let (neg_n, neg_run) = read_flat_run(&mut r)?;
            let mut cum = 0u64;
            let overflow = || DecodeError::Corrupt("bucket counts overflow".into());
            let mut negatives =
                BucketRunCursor::new(neg_run, neg_n, RunDirection::Descending, MAX_BUCKETS as i64);
            let mut est = None;
            while let Some((i, c)) = negatives.next()? {
                cum = cum.checked_add(c).ok_or_else(overflow)?;
                if cum >= rank {
                    est = Some(-mapping.value(i));
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
                    MAX_BUCKETS as i64,
                );
                while let Some((i, c)) = positives.next()? {
                    cum = cum.checked_add(c).ok_or_else(overflow)?;
                    if cum >= rank {
                        est = Some(mapping.value(i));
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
        use qsketch_core::sketch::MergeableSketch;

        #[test]
        fn round_trip_preserves_queries() {
            let mut s = DdSketch::unbounded(0.01);
            for i in 1..=50_000 {
                s.insert(i as f64 * 0.37);
            }
            s.insert(-5.0);
            s.insert(0.0);
            let bytes = s.encode();
            let restored = DdSketch::decode(&bytes).unwrap();
            assert_eq!(restored.count(), s.count());
            for q in [0.05, 0.5, 0.99, 1.0] {
                assert_eq!(restored.query(q).unwrap(), s.query(q).unwrap(), "q={q}");
            }
        }

        #[test]
        fn decoded_sketch_still_merges_and_inserts() {
            let mut a = DdSketch::unbounded(0.01);
            let mut b = DdSketch::unbounded(0.01);
            for i in 1..=10_000 {
                a.insert(i as f64);
                b.insert((i + 10_000) as f64);
            }
            let mut restored = DdSketch::decode(&a.encode()).unwrap();
            restored.merge(&b).unwrap();
            restored.insert(123.0);
            assert_eq!(restored.count(), 20_001);
        }

        #[test]
        fn empty_sketch_round_trips() {
            let s = DdSketch::unbounded(0.02);
            let restored = DdSketch::decode(&s.encode()).unwrap();
            assert_eq!(restored.count(), 0);
            assert!(restored.query(0.5).is_err());
        }

        #[test]
        fn corrupt_count_rejected() {
            let mut s = DdSketch::unbounded(0.01);
            s.insert(1.0);
            let mut bytes = s.encode();
            // The payload ends with the (empty) negatives run header:
            // flipping its byte-length varint declares bytes that are
            // not there.
            let last = bytes.len() - 1;
            bytes[last] = bytes[last].wrapping_add(1);
            assert!(DdSketch::decode(&bytes).is_err());
        }

        #[test]
        fn payload_is_compact() {
            let mut s = DdSketch::unbounded(0.01);
            for i in 1..=1_000_000 {
                s.insert(i as f64);
            }
            let bytes = s.encode();
            // ~700 non-empty buckets x ~7 bytes + header: far below the
            // dense in-memory footprint.
            assert!(bytes.len() < 16 * 1024, "payload {} bytes", bytes.len());
        }

        fn mixed_sketch() -> DdSketch {
            let mut s = DdSketch::unbounded(0.01);
            for i in 1..=50_000u64 {
                match i % 97 {
                    0 => s.insert(0.0),
                    k if k < 20 => s.insert(-(i as f64) * 0.11),
                    _ => s.insert(i as f64 * 0.37),
                }
            }
            s
        }

        #[test]
        fn quantile_from_bytes_matches_decode_then_query() {
            use qsketch_core::flatwire::SketchView;
            let s = mixed_sketch();
            let bytes = s.encode();
            let decoded = DdSketch::decode(&bytes).unwrap();
            assert_eq!(DdSketch::count_from_bytes(&bytes).unwrap(), s.count());
            assert_eq!(
                DdSketch::bounds_from_bytes(&bytes).unwrap(),
                (decoded.min, decoded.max)
            );
            for q in [0.001, 0.01, 0.2, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0] {
                let from_bytes = DdSketch::quantile_from_bytes(&bytes, q).unwrap();
                let via_decode = decoded.query(q).unwrap();
                assert_eq!(
                    from_bytes.to_bits(),
                    via_decode.to_bits(),
                    "q={q} from_bytes={from_bytes} via_decode={via_decode}"
                );
            }
        }

        #[test]
        fn v3_truncations_and_flips_never_panic() {
            use qsketch_core::flatwire::SketchView;
            let mut s = DdSketch::unbounded(0.02);
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
                let _ = DdSketch::decode(truncated);
                let _ = DdSketch::quantile_from_bytes(truncated, 0.5);
            }
            for i in 0..bytes.len() {
                let mut flipped = bytes.clone();
                flipped[i] ^= 0xA5;
                let _ = DdSketch::decode(&flipped);
                let _ = DdSketch::quantile_from_bytes(&flipped, 0.5);
            }
        }
    }
}
