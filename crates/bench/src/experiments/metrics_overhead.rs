//! Extension experiment: the price of observability. Inserts the same
//! value stream into each sketch bare and wrapped in
//! [`Instrumented`], and reports the per-insert cost of both.
//!
//! `Instrumented` keeps the hot path cheap by batching: inserts are
//! tallied locally and only every 1024th insert
//! (`DEFAULT_INSERT_SAMPLE_PERIOD`) is individually timed and flushed
//! to the shared registry. The acceptance target for the wrapper is
//! ≤ 10 % insert overhead; this binary is the measurement. Run `--full`
//! for the tightest numbers — small streams under `--tiny` are
//! dominated by allocation noise.
//!
//! [`Instrumented`]: qsketch_core::metrics::Instrumented

use crate::cli::{Args, Scale};
use crate::experiments::Report;
use crate::table::Table;
use crate::timing::{black_box, time_reps};
use crate::{AnySketch, SketchKind};
use qsketch_core::metrics::{Instrumented, MetricsRegistry};
use qsketch_core::QuantileSketch;
use qsketch_datagen::{DataSet, ValueStream};

/// Run the overhead measurement on the uniform data set.
pub fn run(args: &Args) -> Report {
    let n: usize = match args.scale {
        Scale::Tiny => 20_000,
        Scale::Quick => 500_000,
        Scale::Full => 5_000_000,
    };
    // Per-insert deltas are single nanoseconds; averaging over many reps
    // keeps them out of the scheduler noise floor. At least one rep, or
    // every cell is 0/0.
    let reps = args.runs_or(10).max(1);
    let mut gen = DataSet::Uniform.generator(args.seed, 50);
    let values: Vec<f64> = (0..n).map(|_| gen.next_value()).collect();

    let mut out = format!(
        "Extension: Instrumented<S> insert overhead ({n} uniform inserts, \
         {reps} reps, sample period {})\n\n",
        qsketch_core::metrics::DEFAULT_INSERT_SAMPLE_PERIOD
    );
    let mut table = Table::new(["sketch", "bare ns/insert", "instrumented ns/insert", "overhead"]);

    let registry = MetricsRegistry::new();
    for spec in args.sketch_specs(false) {
        let label = SketchKind::of(spec).label();
        let bare = time_reps(1, reps, || {
            let mut s = AnySketch::build(spec, args.seed);
            for &v in &values {
                s.insert(v);
            }
            black_box(s.count());
        });
        let prefix = format!("sketch.{label}");
        let instrumented = time_reps(1, reps, || {
            let mut s = Instrumented::new(AnySketch::build(spec, args.seed), &registry, &prefix);
            for &v in &values {
                s.insert(v);
            }
            black_box(s.count());
        });
        let bare_ns = bare.mean_ns / n as f64;
        let instr_ns = instrumented.mean_ns / n as f64;
        let overhead = (instr_ns - bare_ns) / bare_ns * 100.0;
        table.row(vec![
            label.to_string(),
            format!("{bare_ns:.1}"),
            format!("{instr_ns:.1}"),
            format!("{overhead:+.1}%"),
        ]);
    }
    out.push_str(&table.render());
    out.push_str(
        "\nReading: the wrapper's steady-state cost is one local counter bump plus a\n\
         sampled Instant pair every 1024th insert, so overhead should sit within the\n\
         ±10% run-to-run timing noise of the bare loop at --quick/--full scales.\n",
    );
    out.into()
}
