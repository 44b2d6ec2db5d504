//! The tiny argument convention shared by every experiment binary.
//!
//! * `--quick` (default): paper experiment scaled down to finish on a
//!   laptop in seconds-to-minutes,
//! * `--full`: the paper's §4.2 stream sizes (minutes-to-hours),
//! * `--with-baselines`: additionally run the §5.2 GK / t-digest
//!   baselines,
//! * `--seed <n>`: override the base seed (default 42),
//! * `--runs <n>`: override the number of independent runs,
//! * `--metrics`: run instrumented (where the experiment supports it) and
//!   append a metrics-registry snapshot to the output,
//! * `--threads <list>`: comma-separated worker-thread counts for the
//!   parallel-scaling experiment (e.g. `--threads 1,2,4`; default
//!   1,2,4,8).

/// Experiment scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Minute streams for smoke tests (used by the integration tests,
    /// which run unoptimised builds).
    Tiny,
    /// Scaled-down streams for fast iteration.
    Quick,
    /// The paper's stream sizes.
    Full,
}

/// Parsed common arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Quick or full scale.
    pub scale: Scale,
    /// Include GK/t-digest baselines.
    pub with_baselines: bool,
    /// Base RNG seed.
    pub seed: u64,
    /// Independent-runs override (None = experiment default).
    pub runs: Option<usize>,
    /// Record pipeline/sketch metrics and print a registry snapshot.
    pub metrics: bool,
    /// Worker-thread counts for the parallel-scaling experiment
    /// (None = the experiment's default sweep).
    pub threads: Option<Vec<usize>>,
    /// Run a single explicitly-configured sketch, exactly as written,
    /// instead of the default set (e.g. `--sketch kll:800`,
    /// `--sketch moments:12:compressed`).
    pub sketch: Option<crate::SketchSpec>,
}

impl Default for Args {
    fn default() -> Self {
        Self {
            scale: Scale::Quick,
            with_baselines: false,
            seed: 42,
            runs: None,
            metrics: false,
            threads: None,
            sketch: None,
        }
    }
}

impl Args {
    /// Parse from an iterator of argument strings (exposed for testing).
    pub fn parse_from<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let mut out = Self::default();
        let mut it = args.into_iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--quick" => out.scale = Scale::Quick,
                "--tiny" => out.scale = Scale::Tiny,
                "--full" => out.scale = Scale::Full,
                "--with-baselines" => out.with_baselines = true,
                "--metrics" => out.metrics = true,
                "--seed" => {
                    let v = it.next().ok_or("--seed needs a value")?;
                    out.seed = v.parse().map_err(|_| format!("bad seed: {v}"))?;
                }
                "--runs" => {
                    let v = it.next().ok_or("--runs needs a value")?;
                    out.runs = Some(v.parse().map_err(|_| format!("bad runs: {v}"))?);
                }
                "--threads" => {
                    let v = it.next().ok_or("--threads needs a value (e.g. 1,2,4)")?;
                    let list = v
                        .split(',')
                        .map(|t| {
                            t.trim()
                                .parse::<usize>()
                                .ok()
                                .filter(|&t| t > 0)
                                .ok_or_else(|| format!("bad thread count: {t}"))
                        })
                        .collect::<Result<Vec<_>, _>>()?;
                    if list.is_empty() {
                        return Err("--threads needs at least one count".into());
                    }
                    out.threads = Some(list);
                }
                "--sketch" => {
                    let v = it.next().ok_or("--sketch needs a spec (e.g. kll:350)")?;
                    out.sketch = Some(v.parse().map_err(|e| format!("{e}"))?);
                }
                "--help" | "-h" => {
                    return Err(concat!(
                        "usage: <experiment> [--tiny|--quick|--full] [--with-baselines] ",
                        "[--metrics] [--seed N] [--runs N] [--threads L] [--sketch SPEC]"
                    )
                    .to_string())
                }
                other => return Err(format!("unknown argument: {other}")),
            }
        }
        Ok(out)
    }

    /// Parse from the process arguments, exiting with a message on error.
    pub fn parse() -> Self {
        match Self::parse_from(std::env::args().skip(1)) {
            Ok(a) => a,
            Err(msg) => {
                eprintln!("{msg}");
                std::process::exit(2);
            }
        }
    }

    /// Number of runs: the explicit override, otherwise `quick_default`
    /// under `--quick` and the paper's 10 under `--full`.
    pub fn runs_or(&self, quick_default: usize) -> usize {
        self.runs.unwrap_or(match self.scale {
            Scale::Tiny => 1,
            Scale::Quick => quick_default,
            Scale::Full => 10,
        })
    }

    /// The sketches to run, one spec per column: the `--sketch` spec
    /// exactly as written, or else the §4.2 configuration of the paper's
    /// five (seven with `--with-baselines`), the Moments sketch
    /// arcsinh-compressed if `compress_moments` (each experiment's
    /// choice, per data set where it runs several).
    pub fn sketch_specs(&self, compress_moments: bool) -> Vec<crate::SketchSpec> {
        use crate::SketchKind;
        match self.sketch {
            Some(spec) => vec![spec],
            None if self.with_baselines => {
                SketchKind::ALL.map(|k| k.paper(compress_moments)).to_vec()
            }
            None => SketchKind::PAPER_FIVE
                .map(|k| k.paper(compress_moments))
                .to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        Args::parse_from(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let a = parse(&[]).unwrap();
        assert_eq!(a.scale, Scale::Quick);
        assert!(!a.with_baselines);
        assert_eq!(a.seed, 42);
        assert_eq!(a.runs_or(3), 3);
    }

    #[test]
    fn full_scale_and_runs() {
        let a = parse(&["--full", "--seed", "7"]).unwrap();
        assert_eq!(a.scale, Scale::Full);
        assert_eq!(a.seed, 7);
        assert_eq!(a.runs_or(3), 10);
        let b = parse(&["--full", "--runs", "2"]).unwrap();
        assert_eq!(b.runs_or(3), 2);
    }

    #[test]
    fn baselines_flag() {
        let a = parse(&["--with-baselines"]).unwrap();
        assert_eq!(a.sketch_specs(false).len(), 7);
        assert_eq!(parse(&[]).unwrap().sketch_specs(false).len(), 5);
    }

    #[test]
    fn metrics_flag() {
        assert!(!parse(&[]).unwrap().metrics);
        assert!(parse(&["--metrics"]).unwrap().metrics);
    }

    #[test]
    fn threads_list() {
        assert_eq!(parse(&[]).unwrap().threads, None);
        assert_eq!(
            parse(&["--threads", "1,2,4"]).unwrap().threads,
            Some(vec![1, 2, 4])
        );
        assert_eq!(parse(&["--threads", "8"]).unwrap().threads, Some(vec![8]));
        assert!(parse(&["--threads"]).is_err());
        assert!(parse(&["--threads", "0"]).is_err());
        assert!(parse(&["--threads", "2,x"]).is_err());
    }

    #[test]
    fn rejects_unknown() {
        assert!(parse(&["--bogus"]).is_err());
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--seed", "x"]).is_err());
    }

    #[test]
    fn sketch_override() {
        use crate::SketchKind;
        use qsketch_datagen::DataSet;
        let a = parse(&["--sketch", "kll:200"]).unwrap();
        assert_eq!(a.sketch, Some("kll:200".parse().unwrap()));
        assert_eq!(a.sketch_specs(true), vec![a.sketch.unwrap()]);
        assert!(parse(&["--sketch", "bogus"]).is_err());
        assert!(parse(&["--sketch"]).is_err());
        // An explicit spec is used as written, Moments compression included.
        let raw = parse(&["--sketch", "moments"]).unwrap();
        assert_eq!(raw.sketch_specs(true)[0].to_string(), "moments:12");
        // No override: the paper five at paper parameters, the Moments
        // sketch compressed on the data sets §4.2 compresses.
        let paper = parse(&[]).unwrap();
        for (dataset, compressed) in [(DataSet::Pareto, true), (DataSet::Uniform, false)] {
            let specs = paper.sketch_specs(dataset.moments_needs_compression());
            assert_eq!(specs, SketchKind::PAPER_FIVE.map(|k| k.paper(compressed)));
            let moments = specs[4].to_string();
            assert_eq!(moments.ends_with(":compressed"), compressed, "{moments}");
        }
    }
}
