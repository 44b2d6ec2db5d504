//! Fig. 8: adaptability — accuracy on a stream whose distribution switches
//! from Binomial(30, 0.4) to U(30, 100) half-way (§4.5.7).

use crate::cli::{Args, Scale};
use crate::experiments::Report;
use crate::table::{fmt_pct, Table};
use crate::{AnySketch, SketchKind};
use qsketch_core::error::{relative_error, ErrorStats};
use qsketch_core::exact::ExactQuantiles;
use qsketch_core::quantiles::QUERIED;
use qsketch_core::QuantileSketch;
use qsketch_datagen::{paper_adaptability_stream, ValueStream};

/// Events per distribution fragment (paper: 1 M + 1 M).
fn half(scale: Scale) -> u64 {
    match scale {
        Scale::Tiny => 5_000,
        Scale::Quick => 100_000,
        Scale::Full => 1_000_000,
    }
}

/// Run the experiment and render the per-quantile error series of Fig. 8b.
pub fn run(args: &Args) -> Report {
    let half = half(args.scale);
    let runs = args.runs_or(3);
    let specs = args.sketch_specs(false);
    let mut out = format!(
        "Fig. 8: adaptability — Binomial(30,0.4) x{half} then U(30,100) x{half}\n\n"
    );

    let mut header: Vec<String> = vec!["q".into()];
    header.extend(specs.iter().map(|&s| SketchKind::of(s).label().to_string()));
    let mut table = Table::new(header);

    // error[sketch][q] accumulated over runs.
    let mut stats = vec![vec![ErrorStats::new(); QUERIED.len()]; specs.len()];
    for run in 0..runs {
        let run_seed = args.seed.wrapping_add(run as u64 * 7919);
        // One shared materialised stream per run so every sketch sees the
        // same data (uniform settings, §4.2).
        let mut stream = paper_adaptability_stream(run_seed, half);
        let values = stream.take_vec(2 * half as usize);
        let mut oracle = ExactQuantiles::with_capacity(values.len());
        oracle.extend(values.iter().copied());
        for (si, &spec) in specs.iter().enumerate() {
            let mut sketch = AnySketch::build(spec, run_seed);
            for &v in &values {
                sketch.insert(v);
            }
            for (qi, &q) in QUERIED.iter().enumerate() {
                let truth = oracle.query(q).expect("non-empty oracle");
                if let Ok(est) = sketch.query(q) {
                    stats[si][qi].record(relative_error(truth, est));
                }
            }
        }
    }

    for (qi, &q) in QUERIED.iter().enumerate() {
        let mut row = vec![format!("{q}")];
        for (si, _) in specs.iter().enumerate() {
            let s = &stats[si][qi];
            row.push(if s.is_empty() {
                "n/a".into()
            } else {
                fmt_pct(s.mean())
            });
        }
        table.row(row);
    }
    out.push_str(&table.render());
    out.push_str(
        "\nPaper (Fig. 8b): errors are insignificant everywhere except a jump at the\n\
         0.5 quantile (the fragment boundary) for KLL, REQ and Moments; DDS and UDDS\n\
         are unaffected by the distribution switch.\n",
    );
    out.into()
}
