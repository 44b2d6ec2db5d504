//! Fig. 5b: quantile-computation time as a function of the number of
//! entries the sketch has consumed (pre-sampled Pareto stream; the §4.2
//! quantile set).

use crate::cli::{Args, Scale};
use crate::experiments::Report;
use crate::table::{fmt_ns, Table};
use crate::timing::time_reps;
use crate::{AnySketch, SketchKind};
use qsketch_core::quantiles::QUERIED;
use qsketch_core::QuantileSketch;
use qsketch_datagen::FixedPareto;

/// Sketch fill sizes per scale (paper: 1 M … 1 B).
fn sizes(scale: Scale) -> Vec<u64> {
    match scale {
        Scale::Tiny => vec![10_000],
        Scale::Quick => vec![100_000, 1_000_000, 10_000_000],
        Scale::Full => vec![1_000_000, 10_000_000, 100_000_000, 1_000_000_000],
    }
}

/// Timed repetitions of the 8-quantile query batch.
fn reps(scale: Scale) -> usize {
    match scale {
        Scale::Tiny => 3,
        Scale::Quick => 20,
        Scale::Full => 50,
    }
}

/// Run the experiment and render the figure's series.
pub fn run(args: &Args) -> Report {
    let mut out = String::from(
        "Fig. 5b: quantile computation time vs entries processed \
         (avg per query over the 8 paper quantiles)\n\n",
    );
    let specs = args.sketch_specs(true);
    let mut header: Vec<String> = vec!["entries".into()];
    header.extend(specs.iter().map(|&s| SketchKind::of(s).label().to_string()));
    let mut table = Table::new(header);

    for &n in &sizes(args.scale) {
        let mut row = vec![format!("{n}")];
        for &spec in &specs {
            let mut sketch = AnySketch::build(spec, args.seed);
            let mut gen = FixedPareto::paper_speed_workload(args.seed);
            super::fill_batched(&mut sketch, &mut gen, n);
            let timing = time_reps(2, reps(args.scale), || {
                for &q in &QUERIED {
                    std::hint::black_box(sketch.query(q).ok());
                }
            });
            // Per-query time: the batch covers 8 quantiles.
            row.push(fmt_ns(timing.mean_ns / QUERIED.len() as f64));
        }
        table.row(row);
    }
    out.push_str(&table.render());
    out.push_str(
        "\nPaper (Fig. 5b): Moments slowest (maxent solve per query, size-independent);\n\
         DDS/UDDS flat in data size (bucket walk); KLL fastest; REQ grows sub-linearly\n\
         with data size (more compactors to populate and sort).\n",
    );
    out.into()
}
