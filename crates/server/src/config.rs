//! What `--sketch` and `--rollup-tiers` mean. [`SketchSpec`] is the one
//! sketch configuration of the repository — one grammar, one validator
//! and the paper's parameters for bare names — read by `qsketch_server`,
//! `ckpt_probe` and every experiment binary, and [`SketchSpec::serve`] is
//! the one table of the families the server serves. Everything else the
//! `qsketch_server` binary parses goes straight into a
//! [`KeyedEngineConfig`](qsketch_streamsim::keyed_engine::KeyedEngineConfig).
//! `OPERATIONS.md` documents every knob from the operator's side.

use std::fmt;
use std::str::FromStr;

use qsketch_core::codec::SketchSerialize;
use qsketch_core::flatwire::SketchView;
use qsketch_core::sketch::{MergeableSketch, SketchFactory};
use qsketch_ddsketch::DdSketch;
use qsketch_kll::KllSketch;
use qsketch_moments::MomentsSketch;
use qsketch_req::{RankAccuracy, ReqSketch};
use qsketch_streamsim::rollup::TierSpec;
use qsketch_uddsketch::{UddSketch, PAPER_ALPHA_K, PAPER_MAX_BUCKETS, PAPER_NUM_COLLAPSES};

/// Fixed RNG seed for server-minted randomized sketches (the KLL and REQ
/// compaction coin). A fixed seed keeps the [`SketchFactory`] contract —
/// every minted sketch starts bit-identical — which recovery and the
/// shard workers rely on. Distinct keys still compact independently
/// because their sketches see different data.
pub const SERVER_SKETCH_SEED: u64 = 0x5EED_C0DE_D00D_F00D;

/// The `--sketch` default of `qsketch_server` and `ckpt_probe`.
pub const DEFAULT_SKETCH: SketchSpec = SketchSpec::Kll { k: 200 };

/// Largest REQ section size `k` a spec may ask for (DataSketches' ceiling).
/// The first compactor reserves `6·k` values up front.
const MAX_REQ_K: usize = 1024;

/// Largest t-digest compression δ a spec may ask for (DataSketches keeps
/// δ in a `u16`). The digest reserves a `5·δ`-value buffer up front.
const MAX_TDIGEST_COMPRESSION: f64 = 65_535.0;

/// Smallest UDDSketch bucket budget a spec may ask for. Collapses square
/// γ until the budget holds; once `ln γ ≥ ln(f64::MAX) / 2`, every finite
/// value of one sign keys into `⌈−MAX_ABS_LN / ln γ⌉..=⌈ln(f64::MAX) /
/// ln γ⌉ = −2..=2`: ten buckets over both signs. A smaller budget can
/// force one more squaring, to γ = ∞ (a payload the decoder refuses);
/// under four, collapsing never ends on mixed-sign data.
const MIN_UDDS_BUCKETS: usize = 10;

/// The `--sketch` lines of `qsketch_server --help` and `ckpt_probe --help`.
pub const SKETCH_HELP: &str =
    "    --sketch SPEC          sketch minted per (tenant, key) (default kll:200);
                           a bare name takes the paper's parameters:
                             req[:k]                    REQ, high-rank accuracy (k 30)
                             kll[:k]                    KLL (k 350)
                             udds[:alpha[:buckets]]     UDDSketch, 10+ buckets (4.9e-6, 1024)
                             dds[:alpha]                DDSketch (alpha 0.01)
                             moments[:k[:compressed]]   Moments sketch (k 12)
";

/// A fully-parameterised sketch configuration.
///
/// The textual form (`--sketch`, [`FromStr`]) is `name[:param[:param]]`;
/// a bare name means the paper's §4.2 parameters, and [`fmt::Display`]
/// writes the grammar back, so specs round-trip through strings. Parsing
/// validates ([`SketchSpec::validate`]), so a spec that parses names a
/// sketch its constructor accepts, whose bucket indices cannot saturate
/// and whose up-front reservation is bounded.
///
/// ```
/// use qsketch_server::config::SketchSpec;
///
/// let spec: SketchSpec = "udds:0.01".parse().unwrap();
/// assert_eq!(spec, SketchSpec::Udds { alpha: 0.01, max_buckets: 1024 });
/// assert_eq!(spec.to_string(), "udds:0.01:1024");
/// assert_eq!("kll".parse(), Ok(SketchSpec::Kll { k: 350 }));
/// assert!("dds:1.5".parse::<SketchSpec>().is_err());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SketchSpec {
    /// ReqSketch (HRA) with `num_sections` sections.
    Req {
        /// The section-size parameter (the paper's `num_sections`).
        num_sections: usize,
    },
    /// KLL with compactor-size parameter `k`.
    Kll {
        /// Maximum compactor size.
        k: u16,
    },
    /// UDDSketch with initial accuracy `alpha` and a bucket budget.
    Udds {
        /// Initial accuracy α₀ (deteriorates as collapses occur).
        alpha: f64,
        /// Bucket budget triggering uniform collapses.
        max_buckets: usize,
    },
    /// DDSketch (unbounded dense store) with accuracy `alpha`.
    Dds {
        /// Relative-error guarantee α.
        alpha: f64,
    },
    /// Moments sketch with `num_moments` power sums.
    Moments {
        /// Number of moments `k`.
        num_moments: usize,
        /// Whether inserts are arcsinh-compressed (§4.2 prescribes this
        /// for the heavy-tailed Pareto/Power data sets).
        compressed: bool,
    },
    /// Greenwald–Khanna with rank-error bound `epsilon` (bench only).
    Gk {
        /// Additive rank-error bound ε.
        epsilon: f64,
    },
    /// t-digest with compression parameter `delta` (bench only).
    TDigest {
        /// The compression parameter δ.
        compression: f64,
    },
}

/// Error from parsing, validating or serving a spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseSpecError(String);

impl fmt::Display for ParseSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad sketch spec: {}", self.0)
    }
}

impl std::error::Error for ParseSpecError {}

/// What a binary does with the factory of the family a spec names; see
/// [`SketchSpec::serve`].
pub trait Serve {
    /// What serving returns.
    type Output;

    /// Serve with `factory`, which mints every `(tenant, key)` sketch.
    fn serve<S, F>(self, factory: F) -> Self::Output
    where
        S: MergeableSketch + SketchSerialize + SketchView + Clone + Send + Sync + 'static,
        F: SketchFactory<Sketch = S> + Clone + Send + 'static;
}

impl SketchSpec {
    /// Check every parameter against what its sketch can run with: the
    /// constructors' own asserts, plus the bounds that keep a valid
    /// sketch from saturating a bucket index
    /// ([`MIN_ALPHA`](qsketch_core::fastlog::MIN_ALPHA)), encoding a
    /// payload its decoder refuses
    /// ([`qsketch_ddsketch::MIN_ALPHA`], [`qsketch_uddsketch::MAX_WIRE_BUCKETS`]),
    /// looping forever or reserving unbounded memory.
    pub fn validate(&self) -> Result<(), ParseSpecError> {
        let (dds_min, udds_min) = (
            qsketch_ddsketch::MIN_ALPHA,
            qsketch_core::fastlog::MIN_ALPHA,
        );
        let why = match *self {
            SketchSpec::Req { num_sections } if !(1..=MAX_REQ_K).contains(&num_sections) => {
                format!("req needs 1..={MAX_REQ_K} sections, got {num_sections}")
            }
            SketchSpec::Kll { k } if k < 8 => format!("kll needs k >= 8, got {k}"),
            SketchSpec::Dds { alpha } if !(dds_min..1.0).contains(&alpha) => {
                format!("dds alpha must lie in [{dds_min:.3e}, 1), got {alpha}")
            }
            SketchSpec::Udds { alpha, .. } if !(udds_min..1.0).contains(&alpha) => {
                format!("udds alpha must lie in [{udds_min:.3e}, 1), got {alpha}")
            }
            SketchSpec::Udds { max_buckets, .. }
                if !(MIN_UDDS_BUCKETS as u64..=qsketch_uddsketch::MAX_WIRE_BUCKETS)
                    .contains(&(max_buckets as u64)) =>
            {
                let max = qsketch_uddsketch::MAX_WIRE_BUCKETS;
                format!("udds needs {MIN_UDDS_BUCKETS}..={max} buckets, got {max_buckets}")
            }
            SketchSpec::Moments { num_moments, .. } if !(2..=15).contains(&num_moments) => {
                format!("moments needs 2..=15 moments, got {num_moments}")
            }
            SketchSpec::Gk { epsilon } if !(epsilon > 0.0 && epsilon < 1.0) => {
                format!("gk epsilon must lie in (0,1), got {epsilon}")
            }
            SketchSpec::TDigest { compression }
                if !(10.0..=MAX_TDIGEST_COMPRESSION).contains(&compression) =>
            {
                format!(
                    "tdigest compression must lie in [10, {MAX_TDIGEST_COMPRESSION}], \
                     got {compression}"
                )
            }
            _ => return Ok(()),
        };
        Err(ParseSpecError(why))
    }

    /// The served-family table: hand `with` the factory of the family
    /// this spec names. KLL and REQ are seeded with
    /// [`SERVER_SKETCH_SEED`]; DDSketch, UDDSketch and Moments are
    /// deterministic. GK and t-digest are bench-only and refused.
    pub fn serve<W: Serve>(&self, with: W) -> Result<W::Output, ParseSpecError> {
        Ok(match *self {
            SketchSpec::Req { num_sections } => with.serve(move || {
                ReqSketch::with_seed(num_sections, RankAccuracy::High, SERVER_SKETCH_SEED)
            }),
            SketchSpec::Kll { k } => {
                with.serve(move || KllSketch::with_seed(k, SERVER_SKETCH_SEED))
            }
            SketchSpec::Udds { alpha, max_buckets } => {
                with.serve(move || UddSketch::new(alpha, max_buckets))
            }
            SketchSpec::Dds { alpha } => with.serve(move || DdSketch::unbounded(alpha)),
            SketchSpec::Moments {
                num_moments,
                compressed,
            } => with.serve(move || {
                if compressed {
                    MomentsSketch::with_compression(num_moments)
                } else {
                    MomentsSketch::new(num_moments)
                }
            }),
            SketchSpec::Gk { .. } | SketchSpec::TDigest { .. } => {
                return Err(ParseSpecError(format!(
                    "{self} is bench-only; the server serves req, kll, udds, dds and moments"
                )))
            }
        })
    }
}

impl fmt::Display for SketchSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SketchSpec::Req { num_sections } => write!(f, "req:{num_sections}"),
            SketchSpec::Kll { k } => write!(f, "kll:{k}"),
            SketchSpec::Udds { alpha, max_buckets } => {
                write!(f, "udds:{alpha}:{max_buckets}")
            }
            SketchSpec::Dds { alpha } => write!(f, "dds:{alpha}"),
            SketchSpec::Moments {
                num_moments,
                compressed,
            } => {
                let mode = if *compressed { ":compressed" } else { "" };
                write!(f, "moments:{num_moments}{mode}")
            }
            SketchSpec::Gk { epsilon } => write!(f, "gk:{epsilon}"),
            SketchSpec::TDigest { compression } => write!(f, "tdigest:{compression}"),
        }
    }
}

impl FromStr for SketchSpec {
    type Err = ParseSpecError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        fn num<T: FromStr>(part: &str, what: &str) -> Result<T, ParseSpecError> {
            part.parse()
                .map_err(|_| ParseSpecError(format!("bad {what}: {part}")))
        }

        let mut parts = s.trim().split(':');
        let name = parts.next().unwrap_or("").to_ascii_lowercase();
        let args: Vec<&str> = parts.collect();
        // A bare name means the paper's §4.2 parameters; given
        // parameters replace them in order.
        let mut spec = match name.as_str() {
            "req" => SketchSpec::Req {
                num_sections: qsketch_req::PAPER_K,
            },
            "kll" => SketchSpec::Kll {
                k: qsketch_kll::PAPER_K,
            },
            "udds" => SketchSpec::Udds {
                alpha: qsketch_uddsketch::initial_alpha(PAPER_ALPHA_K, PAPER_NUM_COLLAPSES),
                max_buckets: PAPER_MAX_BUCKETS,
            },
            "dds" => SketchSpec::Dds {
                alpha: qsketch_ddsketch::PAPER_ALPHA,
            },
            "moments" => SketchSpec::Moments {
                num_moments: qsketch_moments::PAPER_NUM_MOMENTS,
                compressed: false,
            },
            "gk" => SketchSpec::Gk { epsilon: 0.01 },
            "tdigest" | "t-digest" => SketchSpec::TDigest { compression: 200.0 },
            other => {
                return Err(ParseSpecError(format!(
                    "unknown sketch {other:?} (expected req|kll|udds|dds|moments|gk|tdigest)"
                )))
            }
        };
        match (&mut spec, args.as_slice()) {
            (_, []) => {}
            (SketchSpec::Req { num_sections }, [p]) => *num_sections = num(p, "req num_sections")?,
            (SketchSpec::Kll { k }, [p]) => *k = num(p, "kll k")?,
            (SketchSpec::Udds { alpha, .. }, [a]) => *alpha = num(a, "udds alpha")?,
            (SketchSpec::Udds { alpha, max_buckets }, [a, b]) => {
                *alpha = num(a, "udds alpha")?;
                *max_buckets = num(b, "udds max_buckets")?;
            }
            (SketchSpec::Dds { alpha }, [p]) => *alpha = num(p, "dds alpha")?,
            (SketchSpec::Moments { num_moments, .. }, [p]) => {
                *num_moments = num(p, "moments count")?
            }
            (
                SketchSpec::Moments {
                    num_moments,
                    compressed,
                },
                [p, mode],
            ) => {
                *num_moments = num(p, "moments count")?;
                *compressed = match *mode {
                    "raw" => false,
                    "compressed" => true,
                    other => {
                        return Err(ParseSpecError(format!(
                            "moments mode must be raw|compressed, got {other}"
                        )))
                    }
                };
            }
            (SketchSpec::Gk { epsilon }, [p]) => *epsilon = num(p, "gk epsilon")?,
            (SketchSpec::TDigest { compression }, [p]) => {
                *compression = num(p, "tdigest compression")?
            }
            _ => return Err(ParseSpecError(format!("too many parameters in {s:?}"))),
        }
        spec.validate()?;
        Ok(spec)
    }
}

/// Parse a rollup tier ladder of the form `width:keep,width:keep,...`
/// where `width` is in windows — e.g. `1:8,4:8,16:8`. Widths must be
/// increasing multiples; the [`RollupStore`] constructor validates
/// that, this only parses.
///
/// [`RollupStore`]: qsketch_streamsim::rollup::RollupStore
///
/// ```
/// use qsketch_server::config::parse_rollup_tiers;
///
/// let tiers = parse_rollup_tiers("1:8,4:8").unwrap();
/// assert_eq!((tiers[1].width, tiers[1].keep), (4, 8));
/// assert!(parse_rollup_tiers("1:8,oops").is_err());
/// ```
pub fn parse_rollup_tiers(s: &str) -> Result<Vec<TierSpec>, String> {
    let mut tiers = Vec::new();
    for part in s.split(',') {
        let (w, k) = part
            .split_once(':')
            .ok_or_else(|| format!("bad tier {part:?} in {s:?} (expected width:keep)"))?;
        let width = w
            .parse::<u64>()
            .ok()
            .filter(|w| *w > 0)
            .ok_or_else(|| format!("bad tier width {w:?} in {s:?}"))?;
        let keep = k
            .parse::<usize>()
            .ok()
            .filter(|k| *k > 0)
            .ok_or_else(|| format!("bad tier keep {k:?} in {s:?}"))?;
        tiers.push(TierSpec { width, keep });
    }
    if tiers.is_empty() {
        return Err(format!("empty tier ladder {s:?}"));
    }
    Ok(tiers)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bare_names_mean_the_paper_parameters_and_display_round_trips() {
        let cases = "req=req:30 KLL=kll:350 dds=dds:0.01 moments=moments:12 gk=gk:0.01
            t-digest=tdigest:200 udds:0.01=udds:0.01:1024 udds:0.002:512=udds:0.002:512
            moments:8:raw=moments:8 moments:8:compressed=moments:8:compressed req:40=req:40";
        for case in cases.split_whitespace() {
            let (text, canonical) = case.split_once('=').unwrap();
            let spec: SketchSpec = text.parse().unwrap();
            assert_eq!(spec.to_string(), canonical);
            assert_eq!(canonical.parse(), Ok(spec), "{canonical}");
        }
        let Ok(paper @ SketchSpec::Udds { alpha, max_buckets }) = "udds".parse() else {
            panic!("bare udds");
        };
        assert!((4.7e-6..5.1e-6).contains(&alpha) && max_buckets == 1024);
        assert_eq!(paper.to_string().parse(), Ok(paper));
        assert_eq!(DEFAULT_SKETCH.to_string(), "kll:200");
    }

    /// Every spec string either fails to parse with a [`ParseSpecError`]
    /// or names a family the server refuses as bench-only, or the
    /// served-family table mints a sketch that takes mixed-sign and
    /// extreme values, answers, and encodes a payload that decodes.
    /// (`AnySketch::build`'s side, GK and t-digest included, is tested
    /// in `qsketch_bench::registry`.)
    #[test]
    fn hostile_specs_are_refused_or_serve_working_sketches() {
        let rejected = "bogus kll:abc kll:0 kll:7 kll:65536 kll:200:9 req:0 req:1025 req:1000000000
            req:-1 dds:1.5 dds:1 dds:0 dds:-1 dds:nan dds:inf dds:1e-9 dds:1e-17 dds:1e-5
            dds:8.8e-5 udds:1.5:1024 udds:1e-17:1024 udds:1e-7 udds:0.01:3 udds:0.01:9
            udds:0.01:0 udds:0.01:x udds:0.01:4194305 udds:0.01:1024:1 moments:1 moments:16
            moments:99 moments:8:sideways moments:8:raw:1 gk:0 gk:1 gk:nan tdigest:1
            tdigest:nan tdigest:inf tdigest:1e12 tdigest:65536";
        for text in rejected.split_whitespace().chain([""]) {
            let err = text.parse::<SketchSpec>().expect_err(text);
            assert!(
                err.to_string().starts_with("bad sketch spec: "),
                "{text}: {err}"
            );
        }

        struct Exercise;
        impl Serve for Exercise {
            type Output = ();
            fn serve<S, F>(self, factory: F)
            where
                S: MergeableSketch + SketchSerialize + SketchView + Clone + Send + Sync + 'static,
                F: SketchFactory<Sketch = S> + Clone + Send + 'static,
            {
                // Mixed signs, both sides of 1, and the extremes of the
                // f64 range: every index stays in range, so the payload
                // decodes again (recovery would read it).
                let mut sketch = factory.make();
                let extremes = [f64::MAX, f64::from_bits(1), -f64::MAX, -f64::from_bits(1)];
                for v in [1.0, 1000.0, -3.0, 0.25, 0.0, -0.5, 7.0]
                    .into_iter()
                    .chain(extremes)
                {
                    sketch.insert(v);
                }
                assert_eq!(sketch.count(), 11);
                // Moments' power sums overflow at f64::MAX, so an answer
                // may be an error; it must not be a panic.
                let _ = sketch.query(0.5);
                assert_eq!(S::decode(&sketch.encode()).map(|s| s.count()), Ok(11));
            }
        }
        let accepted = "req req:1 req:1024 kll kll:8 kll:65535 dds dds:0.999999 dds:8.9e-5 udds
            udds:0.01 udds:0.999:10 udds:0.0004:10 udds:3.5e-7:4194304 moments moments:2
            moments:15:compressed";
        for text in accepted.split_whitespace() {
            let spec: SketchSpec = text.parse().expect(text);
            spec.serve(Exercise).expect(text);
        }
        for bench_only in "gk gk:1e-300 tdigest tdigest:10 tdigest:65535".split_whitespace() {
            let spec: SketchSpec = bench_only.parse().expect(bench_only);
            let err = spec.serve(Exercise).expect_err(bench_only);
            assert!(err.to_string().contains("bench-only"), "{err}");
        }
    }

    #[test]
    fn tier_ladders_parse_and_reject_garbage() {
        let tiers = parse_rollup_tiers("1:16,4:16,16:16").unwrap();
        assert_eq!(tiers.len(), 3);
        assert_eq!((tiers[0].width, tiers[0].keep), (1, 16));
        for bad in ["", "1", "1:0", "0:8", "1:8,", "a:b", "1:8;4:8"] {
            assert!(parse_rollup_tiers(bad).is_err(), "{bad:?}");
        }
    }
}
