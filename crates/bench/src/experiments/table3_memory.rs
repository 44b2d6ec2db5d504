//! Table 3: final memory usage (KB) of each sketch after consuming
//! 1 million points of each data set.

use crate::cli::Args;
use crate::experiments::Report;
use crate::table::{fmt_kb, Table};
use crate::{AnySketch, SketchKind};
use qsketch_core::QuantileSketch;
use qsketch_datagen::{DataSet, PAPER_EVENTS_PER_UPDATE};

/// Paper-reported values for the shape check (KB; Table 3).
pub const PAPER_TABLE3: [(&str, [f64; 5]); 4] = [
    // (dataset, [REQ, KLL, UDDS, DDS, Moments])
    ("Pareto", [16.99, 4.24, 27.96, 5.42, 0.14]),
    ("Uniform", [16.99, 4.24, 20.90, 1.84, 0.14]),
    ("NYT", [17.00, 4.24, 22.53, 2.15, 0.14]),
    ("Power", [17.00, 4.24, 22.61, 2.04, 0.14]),
];

/// Points per data set (Table 3 uses 1 M; the tiny smoke scale shrinks it
/// because the integration tests run unoptimised builds).
fn points(scale: crate::cli::Scale) -> usize {
    match scale {
        crate::cli::Scale::Tiny => 20_000,
        _ => 1_000_000,
    }
}

/// Run the experiment and render the table.
pub fn run(args: &Args) -> Report {
    let mut out = String::from(
        "Table 3: final memory usage of each sketch (KB) after consuming 1M data points\n\n",
    );
    let mut header: Vec<String> = vec!["dataset".into()];
    for spec in args.sketch_specs(false) {
        header.push(SketchKind::of(spec).label().into());
    }
    let mut table = Table::new(header);

    for dataset in DataSet::ALL {
        let mut row: Vec<String> = vec![dataset.label().to_string()];
        for spec in args.sketch_specs(dataset.moments_needs_compression()) {
            let mut sketch = AnySketch::build(spec, args.seed);
            let mut gen = dataset.generator(args.seed, PAPER_EVENTS_PER_UPDATE);
            for _ in 0..points(args.scale) {
                sketch.insert(gen.next_value());
            }
            row.push(fmt_kb(sketch.memory_footprint()));
        }
        table.row(row);
    }
    out.push_str(&table.render());

    out.push_str("\nPaper (Table 3) reference values (KB):\n");
    let mut paper = Table::new(["dataset", "REQ", "KLL", "UDDS", "DDS", "Moments"]);
    for (ds, vals) in PAPER_TABLE3 {
        let mut row = vec![ds.to_string()];
        row.extend(vals.iter().map(|v| format!("{v:.2}")));
        paper.row(row);
    }
    out.push_str(&paper.render());
    out.into()
}
