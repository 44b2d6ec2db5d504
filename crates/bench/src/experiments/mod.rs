//! One module per table/figure of the paper, plus the extension
//! experiments. Every module exposes one `run(&Args) -> Report`, listed
//! once in [`ALL`]: each `bin/` wrapper is a call to [`main`], and
//! `run_all` and the integration tests iterate [`ALL`], so they execute
//! the real experiment code (the tests at reduced scale).

pub mod ext_checkpoint;
pub mod ext_concurrent_ingest;
pub mod ext_insert_throughput;
pub mod ext_parallel_scaling;
pub mod ext_rollup_cascade;
pub mod ext_server_load;
pub mod ext_space_accuracy;
pub mod ext_watermark_lag;
pub mod fig4_datasets;
pub mod fig5a_insertion;
pub mod fig5b_query;
pub mod fig5c_merge;
pub mod fig6_accuracy;
pub mod fig7_kurtosis;
pub mod fig8_adaptability;
pub mod metrics_overhead;
pub mod sec46_late_data;
pub mod sec47_window_size;
pub mod table3_memory;
pub mod table4_summary;

use crate::cli::{Args, Scale};
use qsketch_core::error::ErrorStats;
use qsketch_core::metrics::MetricsRegistry;
use qsketch_core::quantiles::QuantileGroup;
use qsketch_datagen::DataSet;
use qsketch_streamsim::{AccuracyConfig, NetworkDelay};

/// What one experiment run produced.
pub struct Report {
    /// The printed table, with its title and reading notes.
    pub table: String,
    /// The file the JSON document goes to and the module's fields
    /// (`"key":value` pairs, comma-separated) that follow `experiment`,
    /// `scale` and `machine` in it; `None` for table-only experiments.
    pub json: Option<(&'static str, String)>,
    /// The experiment failed its own gate (its binary exits 1).
    pub failed: bool,
}

impl From<String> for Report {
    fn from(table: String) -> Self {
        Self {
            table,
            json: None,
            failed: false,
        }
    }
}

impl Report {
    /// This report, with JSON `fields` written to `path`.
    pub(crate) fn with_json(self, path: &'static str, fields: String) -> Self {
        Self {
            json: Some((path, fields)),
            ..self
        }
    }
}

/// An experiment module's entry point.
pub type Experiment = fn(&Args) -> Report;

/// Every experiment, by module name, in `run_all` order.
pub const ALL: [(&str, Experiment); 20] = [
    ("fig4_datasets", fig4_datasets::run),
    ("table3_memory", table3_memory::run),
    ("fig5a_insertion", fig5a_insertion::run),
    ("fig5b_query", fig5b_query::run),
    ("fig5c_merge", fig5c_merge::run),
    ("fig6_accuracy", fig6_accuracy::run),
    ("fig7_kurtosis", fig7_kurtosis::run),
    ("fig8_adaptability", fig8_adaptability::run),
    ("sec46_late_data", sec46_late_data::run),
    ("sec47_window_size", sec47_window_size::run),
    ("table4_summary", table4_summary::run),
    ("ext_watermark_lag", ext_watermark_lag::run),
    ("ext_space_accuracy", ext_space_accuracy::run),
    ("ext_parallel_scaling", ext_parallel_scaling::run),
    ("ext_concurrent_ingest", ext_concurrent_ingest::run),
    ("ext_checkpoint", ext_checkpoint::run),
    ("ext_insert_throughput", ext_insert_throughput::run),
    ("ext_server_load", ext_server_load::run),
    ("ext_rollup_cascade", ext_rollup_cascade::run),
    ("metrics_overhead", metrics_overhead::run),
];

/// The JSON document of experiment `name`'s `report`: `experiment`,
/// `scale` and the `machine` block, then the module's fields. `None` for
/// table-only experiments.
pub fn document(name: &str, args: &Args, report: &Report) -> Option<String> {
    let (_, fields) = report.json.as_ref()?;
    let scale = match args.scale {
        Scale::Tiny => "tiny",
        Scale::Quick => "quick",
        Scale::Full => "full",
    };
    Some(format!(
        "{{\"experiment\":\"{name}\",\"scale\":\"{scale}\",\"machine\":{},{fields}}}",
        machine_json()
    ))
}

/// The machine a result was measured on: CPUs available to this process,
/// the checked-out commit (`"unknown"` outside a git work tree) and the
/// `target-cpu=` the workspace's `.cargo/config.toml` pins (`"default"`
/// without one). Commit and config are read from the workspace this
/// binary was built from, whatever the working directory.
fn machine_json() -> String {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let commit = std::process::Command::new("git")
        .args(["-C", root, "rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let target_cpu = std::fs::read_to_string(format!("{root}/.cargo/config.toml"))
        .ok()
        .and_then(|t| {
            t.split("target-cpu=")
                .nth(1)
                .map(|r| r.split('"').next().unwrap_or("").to_string())
        })
        .unwrap_or_else(|| "default".into());
    format!("{{\"nproc\":{nproc},\"commit\":\"{commit}\",\"target_cpu\":\"{target_cpu}\"}}")
}

/// The whole binary of experiment `name`: parse the flags, run it, print
/// its table, write its JSON document (if it has one) unless `--tiny`,
/// which exists for smoke runs that must not clobber committed results,
/// and exit 1 if it failed its own gate.
pub fn main(name: &str) {
    let args = Args::parse();
    let (_, run) = ALL
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("{name} is not in experiments::ALL"));
    let report = run(&args);
    print!("{}", report.table);
    if args.scale != Scale::Tiny {
        if let (Some((path, _)), Some(doc)) = (&report.json, document(name, &args, &report)) {
            let path = std::path::Path::new(path);
            let dir = path.parent().unwrap_or(std::path::Path::new(""));
            match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(path, doc)) {
                Ok(()) => eprintln!("wrote {}", path.display()),
                Err(e) => eprintln!("could not write {}: {e}", path.display()),
            }
        }
    }
    if report.failed {
        std::process::exit(1);
    }
}

/// Shared accuracy-experiment driver: run `runs` independent seeded runs
/// of `cfg` for one sketch spec on one data set and fold all per-window
/// errors into per-quantile [`ErrorStats`]. With a `registry` (the
/// `--metrics` path) every run records pipeline and per-sketch-op
/// metrics into it; counters accumulate across all runs sharing it.
pub(crate) fn accuracy_stats(
    spec: crate::SketchSpec,
    dataset: DataSet,
    cfg: &AccuracyConfig,
    runs: usize,
    base_seed: u64,
    registry: Option<&MetricsRegistry>,
) -> AccuracyOutcome {
    let mut per_q: Vec<(f64, ErrorStats)> = cfg
        .quantiles
        .iter()
        .map(|&q| (q, ErrorStats::new()))
        .collect();
    let mut dropped = 0u64;
    let mut total = 0u64;
    for run in 0..runs {
        let seed = base_seed
            .wrapping_add(run as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ (crate::SketchKind::of(spec).label().len() as u64);
        let values = dataset.generator(seed, qsketch_datagen::PAPER_EVENTS_PER_UPDATE);
        let factory = || crate::AnySketch::build(spec, seed);
        let summary = match registry {
            Some(r) => qsketch_streamsim::harness::run_accuracy_instrumented(
                factory, values, cfg, seed, r,
            ),
            None => qsketch_streamsim::harness::run_accuracy(factory, values, cfg, seed),
        };
        for w in &summary.windows {
            for &(q, err) in &w.errors {
                if let Some((_, stats)) = per_q.iter_mut().find(|(pq, _)| *pq == q) {
                    stats.record(err);
                }
            }
        }
        dropped += summary.dropped_late;
        total += summary.total_events;
    }
    AccuracyOutcome {
        per_q,
        dropped,
        total,
    }
}

/// Folded accuracy result for one (sketch, data set) cell.
pub(crate) struct AccuracyOutcome {
    pub per_q: Vec<(f64, ErrorStats)>,
    pub dropped: u64,
    pub total: u64,
}

impl AccuracyOutcome {
    /// Mean relative error over a reporting group (mid / upper / p99).
    pub fn group_mean(&self, group: QuantileGroup) -> f64 {
        let mut folded = ErrorStats::new();
        for (q, stats) in &self.per_q {
            if group.members().contains(q) {
                folded.absorb(stats);
            }
        }
        if folded.is_empty() {
            f64::NAN
        } else {
            folded.mean()
        }
    }

    /// Mean relative error of one specific quantile.
    pub fn q_mean(&self, q: f64) -> f64 {
        self.per_q
            .iter()
            .find(|(pq, _)| *pq == q)
            .map(|(_, s)| if s.is_empty() { f64::NAN } else { s.mean() })
            .unwrap_or(f64::NAN)
    }

    /// 95 % CI half-width of one quantile's error.
    pub fn q_ci(&self, q: f64) -> f64 {
        self.per_q
            .iter()
            .find(|(pq, _)| *pq == q)
            .map(|(_, s)| s.ci95_half_width())
            .unwrap_or(f64::NAN)
    }

    /// Late-loss fraction across all runs.
    pub fn loss_fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.dropped as f64 / self.total as f64
        }
    }
}

/// Fill `sketch` with `n` values from `gen` through the batched insert
/// path, buffering engine-sized chunks — the same shape the engine's
/// workers see, and bit-identical to `n` scalar inserts (the
/// `batch_insert_equivalence` suite enforces this), so experiments that
/// only need a populated sketch get the fast path for free.
pub(crate) fn fill_batched(
    sketch: &mut crate::AnySketch,
    gen: &mut dyn qsketch_datagen::ValueStream,
    n: u64,
) {
    use crate::parts::CHUNK;
    use qsketch_core::QuantileSketch as _;
    let mut buf = Vec::with_capacity(CHUNK);
    let mut remaining = n;
    while remaining > 0 {
        let take = remaining.min(CHUNK as u64) as usize;
        buf.clear();
        buf.extend((0..take).map(|_| gen.next_value()));
        sketch.insert_batch(&buf);
        remaining -= take as u64;
    }
}

/// The windowed configuration for an experiment at the chosen scale:
/// `--full` is the paper's 1 M-event windows; `--quick` shrinks the rate
/// (100 k-event windows) and keeps everything else identical so
/// delay-to-window ratios are preserved.
pub(crate) fn scaled_config(args: &Args, delay: NetworkDelay) -> AccuracyConfig {
    match args.scale {
        Scale::Full => AccuracyConfig::paper(delay),
        Scale::Quick => {
            let mut cfg = AccuracyConfig::paper_scaled(delay, 10);
            cfg.num_windows = 6; // 5 measured + 1 discarded
            cfg
        }
        Scale::Tiny => {
            let mut cfg = AccuracyConfig::paper_scaled(delay, 500);
            cfg.num_windows = 3;
            cfg
        }
    }
}
