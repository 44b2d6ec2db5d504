//! A uniform handle over every sketch in the study, parameterised exactly
//! as in §4.2.

use qsketch_baselines::{GkSketch, TDigest};
use qsketch_core::sketch::{MergeError, QuantileSketch, QueryError};
use qsketch_ddsketch::DdSketch;
use qsketch_kll::KllSketch;
use qsketch_moments::MomentsSketch;
use qsketch_req::{RankAccuracy, ReqSketch};
use qsketch_uddsketch::UddSketch;

use crate::SketchSpec;

/// The sketches of the study. The first five are the paper's subjects;
/// [`SketchKind::Gk`] and [`SketchKind::TDigest`] are the §5.2 baselines
/// available behind `--with-baselines`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SketchKind {
    /// ReqSketch, HRA, `num_sections = 30`.
    Req,
    /// KLL, `max_compactor_size = 350`.
    Kll,
    /// UDDSketch, 1024 buckets, 12 anticipated collapses, final α = 0.01.
    Udds,
    /// DDSketch, unbounded dense store, α = 0.01.
    Dds,
    /// Moments sketch, 12 moments (arcsinh-compressed on Pareto/Power).
    Moments,
    /// Greenwald–Khanna, ε = 0.01 (§5.2 baseline).
    Gk,
    /// t-digest, δ = 200 (§5.2 baseline).
    TDigest,
}

impl SketchKind {
    /// The paper's five sketches in its reporting order
    /// (REQ, KLL, UDDS, DDS, Moments — the column order of Table 3).
    pub const PAPER_FIVE: [SketchKind; 5] = [
        SketchKind::Req,
        SketchKind::Kll,
        SketchKind::Udds,
        SketchKind::Dds,
        SketchKind::Moments,
    ];

    /// Paper sketches plus the §5.2 baselines.
    pub const ALL: [SketchKind; 7] = [
        SketchKind::Req,
        SketchKind::Kll,
        SketchKind::Udds,
        SketchKind::Dds,
        SketchKind::Moments,
        SketchKind::Gk,
        SketchKind::TDigest,
    ];

    /// Column label (matches Table 3's headers).
    pub fn label(self) -> &'static str {
        match self {
            SketchKind::Req => "REQ",
            SketchKind::Kll => "KLL",
            SketchKind::Udds => "UDDS",
            SketchKind::Dds => "DDS",
            SketchKind::Moments => "Moments",
            SketchKind::Gk => "GK",
            SketchKind::TDigest => "t-digest",
        }
    }

    /// The kind `spec` builds.
    pub fn of(spec: SketchSpec) -> Self {
        match spec {
            SketchSpec::Req { .. } => SketchKind::Req,
            SketchSpec::Kll { .. } => SketchKind::Kll,
            SketchSpec::Udds { .. } => SketchKind::Udds,
            SketchSpec::Dds { .. } => SketchKind::Dds,
            SketchSpec::Moments { .. } => SketchKind::Moments,
            SketchSpec::Gk { .. } => SketchKind::Gk,
            SketchSpec::TDigest { .. } => SketchKind::TDigest,
        }
    }

    /// The §4.2 configuration of this kind — what its bare `--sketch`
    /// name parses to — with the Moments sketch arcsinh-compressed when
    /// `compress_moments` (§4.2 does so for the Pareto and Power data
    /// sets).
    pub fn paper(self, compress_moments: bool) -> SketchSpec {
        // Every label, lowercased, is its kind's bare `--sketch` name.
        let name = self.label().to_ascii_lowercase();
        match name.parse().expect("every lowercased label is a bare name") {
            SketchSpec::Moments { num_moments, .. } => SketchSpec::Moments {
                num_moments,
                compressed: compress_moments,
            },
            spec => spec,
        }
    }

    /// Build this sketch with the §4.2 parameters ([`paper`](Self::paper)).
    /// `seed` drives the randomised sketches (KLL, REQ).
    pub fn build(self, seed: u64, compress_moments: bool) -> AnySketch {
        AnySketch::build(self.paper(compress_moments), seed)
    }

    /// Whether same-kind merging can succeed (§2.4): everything but GK,
    /// which has no merge operation.
    pub fn is_mergeable(self) -> bool {
        self != SketchKind::Gk
    }
}

/// A type-erased sketch: one enum over every implementation so experiment
/// loops can treat them uniformly (and still merge same-kind pairs, which
/// a `dyn QuantileSketch` could not express).
#[derive(Debug, Clone)]
pub enum AnySketch {
    /// ReqSketch.
    Req(ReqSketch),
    /// KLL.
    Kll(KllSketch),
    /// UDDSketch.
    Udds(UddSketch),
    /// DDSketch (unbounded dense store).
    Dds(DdSketch),
    /// Moments sketch.
    Moments(MomentsSketch),
    /// Greenwald–Khanna baseline.
    Gk(GkSketch),
    /// t-digest baseline.
    TDigest(TDigest),
}

impl AnySketch {
    /// Build the sketch `spec` configures. `seed` drives the randomised
    /// sketches (KLL, REQ); deterministic sketches ignore it.
    pub fn build(spec: SketchSpec, seed: u64) -> Self {
        match spec {
            SketchSpec::Req { num_sections } => {
                AnySketch::Req(ReqSketch::with_seed(num_sections, RankAccuracy::High, seed))
            }
            SketchSpec::Kll { k } => AnySketch::Kll(KllSketch::with_seed(k, seed)),
            SketchSpec::Udds { alpha, max_buckets } => {
                AnySketch::Udds(UddSketch::new(alpha, max_buckets))
            }
            SketchSpec::Dds { alpha } => AnySketch::Dds(DdSketch::unbounded(alpha)),
            SketchSpec::Moments {
                num_moments,
                compressed,
            } => AnySketch::Moments(if compressed {
                MomentsSketch::with_compression(num_moments)
            } else {
                MomentsSketch::new(num_moments)
            }),
            SketchSpec::Gk { epsilon } => AnySketch::Gk(GkSketch::new(epsilon)),
            SketchSpec::TDigest { compression } => AnySketch::TDigest(TDigest::new(compression)),
        }
    }

    /// Which kind this sketch is.
    pub fn kind(&self) -> SketchKind {
        match self {
            AnySketch::Req(_) => SketchKind::Req,
            AnySketch::Kll(_) => SketchKind::Kll,
            AnySketch::Udds(_) => SketchKind::Udds,
            AnySketch::Dds(_) => SketchKind::Dds,
            AnySketch::Moments(_) => SketchKind::Moments,
            AnySketch::Gk(_) => SketchKind::Gk,
            AnySketch::TDigest(_) => SketchKind::TDigest,
        }
    }

    /// Merge a same-kind sketch into this one (§2.4). GK has no merge
    /// operation (it is a §5.2 baseline outside the mergeability study).
    pub fn merge_same(&mut self, other: &AnySketch) -> Result<(), MergeError> {
        use qsketch_core::sketch::MergeableSketch as _;
        match (self, other) {
            (AnySketch::Req(a), AnySketch::Req(b)) => a.merge(b),
            (AnySketch::Kll(a), AnySketch::Kll(b)) => a.merge(b),
            (AnySketch::Udds(a), AnySketch::Udds(b)) => a.merge(b),
            (AnySketch::Dds(a), AnySketch::Dds(b)) => a.merge(b),
            (AnySketch::Moments(a), AnySketch::Moments(b)) => a.merge(b),
            (AnySketch::TDigest(a), AnySketch::TDigest(b)) => a.merge(b),
            (AnySketch::Gk(_), AnySketch::Gk(_)) => Err(MergeError::IncompatibleParameters(
                "GK has no merge operation".into(),
            )),
            _ => Err(MergeError::IncompatibleParameters(
                "cannot merge different sketch kinds".into(),
            )),
        }
    }

    /// Whether [`merge_same`](Self::merge_same) with a same-kind peer can
    /// succeed (everything but GK).
    pub fn is_mergeable(&self) -> bool {
        self.kind().is_mergeable()
    }

    /// The configuration this sketch was built with, reconstructed from
    /// its live parameters — the inverse of [`build`](Self::build), used
    /// to label results and checkpoint files.
    pub fn spec(&self) -> SketchSpec {
        match self {
            AnySketch::Req(s) => SketchSpec::Req {
                num_sections: s.k(),
            },
            AnySketch::Kll(s) => SketchSpec::Kll { k: s.k() },
            AnySketch::Udds(s) => SketchSpec::Udds {
                alpha: s.initial_alpha(),
                max_buckets: s.max_buckets(),
            },
            AnySketch::Dds(s) => SketchSpec::Dds { alpha: s.alpha() },
            AnySketch::Moments(s) => SketchSpec::Moments {
                num_moments: s.num_moments(),
                compressed: s.is_compressed(),
            },
            AnySketch::Gk(s) => SketchSpec::Gk {
                epsilon: s.epsilon(),
            },
            AnySketch::TDigest(s) => SketchSpec::TDigest {
                compression: s.compression(),
            },
        }
    }
}

/// Wire format for the type-erased enum: no envelope of its own. An
/// `AnySketch` encodes as its inner sketch's payload, and decoding
/// dispatches on that payload's magic byte — the seven sketch magics are
/// distinct (FORMATS.md). This is what the engine checkpoints when it
/// runs over `AnySketch`.
mod codec {
    use super::*;
    use qsketch_core::codec::{DecodeError, SketchSerialize};
    use qsketch_core::flatwire::{self, wire_header, SketchView};
    use qsketch_core::sketch::SketchError;

    impl SketchView for AnySketch {
        fn count_from_bytes(bytes: &[u8]) -> Result<u64, DecodeError> {
            match wire_header(bytes)?.0 {
                qsketch_req::WIRE_MAGIC => ReqSketch::count_from_bytes(bytes),
                qsketch_kll::WIRE_MAGIC => KllSketch::count_from_bytes(bytes),
                qsketch_uddsketch::WIRE_MAGIC => UddSketch::count_from_bytes(bytes),
                qsketch_ddsketch::WIRE_MAGIC => DdSketch::count_from_bytes(bytes),
                qsketch_moments::WIRE_MAGIC => MomentsSketch::count_from_bytes(bytes),
                // The baselines ship a single wire generation with no
                // borrowed-view reader: decode and count.
                _ => Ok(Self::decode(bytes)?.count()),
            }
        }

        fn bounds_from_bytes(bytes: &[u8]) -> Result<(f64, f64), DecodeError> {
            match wire_header(bytes)?.0 {
                qsketch_req::WIRE_MAGIC => ReqSketch::bounds_from_bytes(bytes),
                qsketch_kll::WIRE_MAGIC => KllSketch::bounds_from_bytes(bytes),
                qsketch_uddsketch::WIRE_MAGIC => UddSketch::bounds_from_bytes(bytes),
                qsketch_ddsketch::WIRE_MAGIC => DdSketch::bounds_from_bytes(bytes),
                qsketch_moments::WIRE_MAGIC => MomentsSketch::bounds_from_bytes(bytes),
                // Baseline fallback: both GK and t-digest keep the exact
                // extremes at rank 1 and rank n, so recover the bounds
                // through quantile queries on the decoded sketch.
                _ => {
                    let s = Self::decode(bytes)?;
                    if s.count() == 0 {
                        return Ok((f64::INFINITY, f64::NEG_INFINITY));
                    }
                    let min = s.query(f64::MIN_POSITIVE).map_err(|e| {
                        DecodeError::Corrupt(format!("bounds query failed: {e}"))
                    })?;
                    let max = s
                        .query(1.0)
                        .map_err(|e| DecodeError::Corrupt(format!("bounds query failed: {e}")))?;
                    Ok((min, max))
                }
            }
        }

        fn quantile_from_bytes(bytes: &[u8], q: f64) -> Result<f64, SketchError> {
            match wire_header(bytes)?.0 {
                qsketch_req::WIRE_MAGIC => ReqSketch::quantile_from_bytes(bytes, q),
                qsketch_kll::WIRE_MAGIC => KllSketch::quantile_from_bytes(bytes, q),
                qsketch_uddsketch::WIRE_MAGIC => UddSketch::quantile_from_bytes(bytes, q),
                qsketch_ddsketch::WIRE_MAGIC => DdSketch::quantile_from_bytes(bytes, q),
                qsketch_moments::WIRE_MAGIC => MomentsSketch::quantile_from_bytes(bytes, q),
                _ => flatwire::quantile_via_decode::<Self>(bytes, q),
            }
        }
    }

    impl SketchSerialize for AnySketch {
        fn encode_into(&self, out: &mut Vec<u8>) {
            match self {
                AnySketch::Req(s) => s.encode_into(out),
                AnySketch::Kll(s) => s.encode_into(out),
                AnySketch::Udds(s) => s.encode_into(out),
                AnySketch::Dds(s) => s.encode_into(out),
                AnySketch::Moments(s) => s.encode_into(out),
                AnySketch::Gk(s) => s.encode_into(out),
                AnySketch::TDigest(s) => s.encode_into(out),
            }
        }

        fn decode(bytes: &[u8]) -> Result<Self, DecodeError> {
            match wire_header(bytes)?.0 {
                qsketch_req::WIRE_MAGIC => ReqSketch::decode(bytes).map(AnySketch::Req),
                qsketch_kll::WIRE_MAGIC => KllSketch::decode(bytes).map(AnySketch::Kll),
                qsketch_uddsketch::WIRE_MAGIC => UddSketch::decode(bytes).map(AnySketch::Udds),
                qsketch_ddsketch::WIRE_MAGIC => DdSketch::decode(bytes).map(AnySketch::Dds),
                qsketch_moments::WIRE_MAGIC => MomentsSketch::decode(bytes).map(AnySketch::Moments),
                qsketch_baselines::GK_WIRE_MAGIC => GkSketch::decode(bytes).map(AnySketch::Gk),
                qsketch_baselines::TDIGEST_WIRE_MAGIC => {
                    TDigest::decode(bytes).map(AnySketch::TDigest)
                }
                other => Err(DecodeError::Corrupt(format!(
                    "unknown sketch magic {other:#04x}"
                ))),
            }
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use qsketch_core::QuantileSketch;

        #[test]
        fn every_kind_round_trips_through_the_envelope() {
            for kind in SketchKind::ALL {
                let mut s = kind.build(11, false);
                for i in 1..=20_000 {
                    s.insert(f64::from(i) * 0.61);
                }
                let restored = AnySketch::decode(&s.encode()).unwrap();
                assert_eq!(restored.kind(), kind);
                assert_eq!(restored.count(), s.count());
                for q in [0.01, 0.5, 0.99, 1.0] {
                    assert_eq!(
                        restored.query(q).unwrap().to_bits(),
                        s.query(q).unwrap().to_bits(),
                        "{} q={q}",
                        kind.label()
                    );
                }
            }
        }

        #[test]
        fn envelope_view_matches_decode_then_query() {
            for kind in SketchKind::ALL {
                let mut s = kind.build(11, false);
                for i in 1..=20_000 {
                    s.insert(f64::from(i) * 0.61);
                }
                let bytes = s.encode();
                let decoded = AnySketch::decode(&bytes).unwrap();
                assert_eq!(
                    AnySketch::count_from_bytes(&bytes).unwrap(),
                    s.count(),
                    "{}",
                    kind.label()
                );
                let (lo, hi) = AnySketch::bounds_from_bytes(&bytes).unwrap();
                assert!(lo <= hi, "{} bounds ({lo}, {hi})", kind.label());
                for q in [0.01, 0.5, 0.99, 1.0] {
                    assert_eq!(
                        AnySketch::quantile_from_bytes(&bytes, q).unwrap().to_bits(),
                        decoded.query(q).unwrap().to_bits(),
                        "{} q={q}",
                        kind.label()
                    );
                }
            }
        }

        #[test]
        fn unknown_tag_rejected() {
            let s = SketchKind::Kll.build(1, false);
            let mut bytes = s.encode();
            bytes[0] = 0xFF; // magic byte
            assert!(matches!(
                AnySketch::decode(&bytes),
                Err(DecodeError::Corrupt(_))
            ));
        }

        #[test]
        fn truncated_envelope_rejected() {
            let mut s = SketchKind::Dds.build(1, false);
            for i in 1..=1_000 {
                s.insert(f64::from(i));
            }
            let mut bytes = s.encode();
            bytes.truncate(bytes.len() / 2);
            assert!(AnySketch::decode(&bytes).is_err());
            assert!(AnySketch::decode(&bytes[..2]).is_err());
            assert!(AnySketch::decode(&[]).is_err());
        }
    }
}

/// [`MergeableSketch`](qsketch_core::sketch::MergeableSketch) over the
/// type-erased enum, so generic merge-based
/// machinery — `qsketch_core::merge_tree`, the sharded ingestion engine —
/// runs over every kind the harness can build. Merging mismatched kinds
/// (or GK, which has no merge) returns
/// [`MergeError::IncompatibleParameters`].
impl qsketch_core::sketch::MergeableSketch for AnySketch {
    fn merge(&mut self, other: &Self) -> Result<(), MergeError> {
        self.merge_same(other)
    }
}

impl QuantileSketch for AnySketch {
    fn insert(&mut self, value: f64) {
        match self {
            AnySketch::Req(s) => s.insert(value),
            AnySketch::Kll(s) => s.insert(value),
            AnySketch::Udds(s) => s.insert(value),
            AnySketch::Dds(s) => s.insert(value),
            AnySketch::Moments(s) => s.insert(value),
            AnySketch::Gk(s) => s.insert(value),
            AnySketch::TDigest(s) => s.insert(value),
        }
    }

    fn insert_n(&mut self, value: f64, count: u64) {
        match self {
            AnySketch::Req(s) => s.insert_n(value, count),
            AnySketch::Kll(s) => s.insert_n(value, count),
            AnySketch::Udds(s) => s.insert_n(value, count),
            AnySketch::Dds(s) => s.insert_n(value, count),
            AnySketch::Moments(s) => s.insert_n(value, count),
            AnySketch::Gk(s) => s.insert_n(value, count),
            AnySketch::TDigest(s) => s.insert_n(value, count),
        }
    }

    // Forwarded explicitly so the per-sketch batch kernels are reached
    // through the type-erased enum (the default impl would fall back to
    // the scalar loop).
    fn insert_batch(&mut self, values: &[f64]) {
        match self {
            AnySketch::Req(s) => s.insert_batch(values),
            AnySketch::Kll(s) => s.insert_batch(values),
            AnySketch::Udds(s) => s.insert_batch(values),
            AnySketch::Dds(s) => s.insert_batch(values),
            AnySketch::Moments(s) => s.insert_batch(values),
            AnySketch::Gk(s) => s.insert_batch(values),
            AnySketch::TDigest(s) => s.insert_batch(values),
        }
    }

    fn query(&self, q: f64) -> Result<f64, QueryError> {
        match self {
            AnySketch::Req(s) => s.query(q),
            AnySketch::Kll(s) => s.query(q),
            AnySketch::Udds(s) => s.query(q),
            AnySketch::Dds(s) => s.query(q),
            AnySketch::Moments(s) => s.query(q),
            AnySketch::Gk(s) => s.query(q),
            AnySketch::TDigest(s) => s.query(q),
        }
    }

    fn query_many(&self, qs: &[f64]) -> Result<Vec<f64>, QueryError> {
        match self {
            AnySketch::Req(s) => s.query_many(qs),
            AnySketch::Kll(s) => s.query_many(qs),
            AnySketch::Udds(s) => s.query_many(qs),
            AnySketch::Dds(s) => s.query_many(qs),
            AnySketch::Moments(s) => s.query_many(qs),
            AnySketch::Gk(s) => s.query_many(qs),
            AnySketch::TDigest(s) => s.query_many(qs),
        }
    }

    fn count(&self) -> u64 {
        match self {
            AnySketch::Req(s) => s.count(),
            AnySketch::Kll(s) => s.count(),
            AnySketch::Udds(s) => s.count(),
            AnySketch::Dds(s) => s.count(),
            AnySketch::Moments(s) => s.count(),
            AnySketch::Gk(s) => s.count(),
            AnySketch::TDigest(s) => s.count(),
        }
    }

    fn memory_footprint(&self) -> usize {
        match self {
            AnySketch::Req(s) => s.memory_footprint(),
            AnySketch::Kll(s) => s.memory_footprint(),
            AnySketch::Udds(s) => s.memory_footprint(),
            AnySketch::Dds(s) => s.memory_footprint(),
            AnySketch::Moments(s) => s.memory_footprint(),
            AnySketch::Gk(s) => s.memory_footprint(),
            AnySketch::TDigest(s) => s.memory_footprint(),
        }
    }

    fn name(&self) -> &'static str {
        self.kind().label()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kind_builds_and_answers() {
        for kind in SketchKind::ALL {
            let mut s = kind.build(42, false);
            for i in 1..=10_000 {
                s.insert(i as f64);
            }
            assert_eq!(s.count(), 10_000);
            let est = s.query(0.5).unwrap();
            assert!(
                (est - 5_000.0).abs() / 10_000.0 < 0.05,
                "{}: median {est}",
                kind.label()
            );
            assert!(s.memory_footprint() > 0);
        }
    }

    #[test]
    fn merge_same_kind_works_for_mergeable() {
        for kind in SketchKind::PAPER_FIVE {
            let mut a = kind.build(1, false);
            let mut b = kind.build(2, false);
            for i in 1..=5_000 {
                a.insert(i as f64);
                b.insert((i + 5_000) as f64);
            }
            a.merge_same(&b).unwrap();
            assert_eq!(a.count(), 10_000, "{}", kind.label());
        }
    }

    #[test]
    fn merge_cross_kind_rejected() {
        let mut a = SketchKind::Kll.build(1, false);
        let b = SketchKind::Dds.build(1, false);
        assert!(a.merge_same(&b).is_err());
    }

    #[test]
    fn labels_match_table3_columns() {
        let labels: Vec<&str> = SketchKind::PAPER_FIVE.iter().map(|k| k.label()).collect();
        assert_eq!(labels, vec!["REQ", "KLL", "UDDS", "DDS", "Moments"]);
    }

    /// Every paper spec, and every spec at an accepted bound (the
    /// bench-only baselines included; the grammar's and the served
    /// families' side of the hostile-spec table is
    /// `qsketch_server::config`'s), builds a sketch of its kind that
    /// reports the spec back, takes mixed-sign values, answers and
    /// encodes.
    #[test]
    fn specs_build_working_sketches_of_their_kind() {
        use qsketch_core::codec::SketchSerialize;
        let bounds = "req:1024 kll:65535 dds:8.9e-5 udds:3.5e-7:10 moments:15:compressed
            gk:1e-300 gk:0.999 tdigest:10 tdigest:65535";
        let paper = SketchKind::ALL.map(|k| [k.paper(false), k.paper(true)]);
        let bounds = bounds.split_whitespace().map(|t| t.parse().unwrap());
        for spec in paper.into_iter().flatten().chain(bounds) {
            let mut s = AnySketch::build(spec, 5);
            assert_eq!((s.kind(), s.spec()), (SketchKind::of(spec), spec));
            s.insert_batch(&[1.0, 1000.0, -3.0, 0.25, 0.0, -0.5, 7.0, 1000.0]);
            assert_eq!(s.count(), 8, "{spec}");
            assert!(s.query(0.5).is_ok(), "{spec}");
            assert_eq!(AnySketch::decode(&s.encode()).unwrap().count(), 8, "{spec}");
        }
        assert_eq!(SketchKind::Kll.paper(true), "kll".parse().unwrap());
    }
}
