//! Fig. 5a: average time to insert a single element, measured over long
//! Pareto(α=1, X_m=1) streams (the paper runs 10 M, 100 M and 1 B
//! insertions).

use std::time::Instant;

use crate::cli::{Args, Scale};
use crate::experiments::Report;
use crate::table::{fmt_ns, Table};
use crate::{AnySketch, SketchKind};
use qsketch_core::QuantileSketch;
use qsketch_datagen::{FixedPareto, ValueStream};

/// Chunk size for pre-sampling values so generation cost stays out of the
/// timed section.
const CHUNK: usize = 1 << 20;

/// Stream lengths per scale. §4.4.1 finds insertion time independent of
/// sketch fill, so the quick sizes estimate the same mean.
fn sizes(scale: Scale) -> Vec<u64> {
    match scale {
        Scale::Tiny => vec![20_000],
        Scale::Quick => vec![1_000_000, 4_000_000],
        Scale::Full => vec![10_000_000, 100_000_000, 1_000_000_000],
    }
}

/// Run the experiment and render the figure's series.
pub fn run(args: &Args) -> Report {
    let mut out = String::from(
        "Fig. 5a: average insertion time of an element (Pareto alpha=1, Xm=1 stream)\n\n",
    );
    // Pareto spans many decades: the Moments sketch gets the same
    // arcsinh compression the paper applies to Pareto data.
    let specs = args.sketch_specs(true);
    let mut header: Vec<String> = vec!["insertions".into()];
    header.extend(specs.iter().map(|&s| SketchKind::of(s).label().to_string()));
    let mut table = Table::new(header);

    for &n in &sizes(args.scale) {
        let mut row = vec![format!("{n}")];
        for &spec in &specs {
            let mut sketch = AnySketch::build(spec, args.seed);
            let mut gen = FixedPareto::paper_speed_workload(args.seed);
            let mut buf = vec![0.0f64; CHUNK];
            let mut remaining = n;
            let mut timed_ns = 0u128;
            while remaining > 0 {
                let this = CHUNK.min(remaining as usize);
                for slot in buf[..this].iter_mut() {
                    *slot = gen.next_value();
                }
                let start = Instant::now();
                for &v in &buf[..this] {
                    sketch.insert(v);
                }
                timed_ns += start.elapsed().as_nanos();
                remaining -= this as u64;
            }
            std::hint::black_box(sketch.count());
            row.push(fmt_ns(timed_ns as f64 / n as f64));
        }
        table.row(row);
    }
    out.push_str(&table.render());
    out.push_str(
        "\nPaper (Fig. 5a): all five sketches insert in < 0.2 µs; DDSketch fastest,\n\
         UDDSketch slowest (map store + uniform collapses), ReqSketch slower than KLL.\n",
    );
    out.into()
}
