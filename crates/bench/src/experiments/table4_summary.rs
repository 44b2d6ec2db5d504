//! Table 4: the qualitative summary grid, *derived from measurements*
//! rather than hand-written — each characteristic is computed by running a
//! reduced version of the relevant experiment and classifying the sketches
//! relative to each other.

use std::time::Instant;

use crate::cli::Args;
use crate::experiments::{accuracy_stats, scaled_config, Report};
use crate::registry::{AnySketch, SketchKind};
use crate::table::Table;
use qsketch_core::error::relative_error;
use qsketch_core::exact::ExactQuantiles;
use qsketch_core::quantiles::QuantileGroup;
use qsketch_core::QuantileSketch;
use qsketch_datagen::{paper_adaptability_stream, DataSet, FixedPareto, ValueStream};
use qsketch_streamsim::NetworkDelay;

/// Error threshold for "high accuracy" classifications (the paper's 1 %
/// target with headroom for the reduced-scale runs).
const ACCURACY_THRESHOLD: f64 = 0.02;

/// Insert/query/merge workload sizes for the speed micro-runs.
fn speed_n(scale: crate::cli::Scale) -> usize {
    match scale {
        crate::cli::Scale::Tiny => 20_000,
        _ => 500_000,
    }
}
fn merge_shards(scale: crate::cli::Scale) -> usize {
    match scale {
        crate::cli::Scale::Tiny => 5,
        _ => 30,
    }
}

/// Paper's Table 4 for the side-by-side.
const PAPER_TABLE4: [(&str, [&str; 5]); 7] = [
    ("Sketching approach", ["Sampling", "Summary", "Summary", "Summary", "Sampling"]),
    ("High tail accuracy", ["Non-Skewed", "Synthetic", "All", "All", "All"]),
    ("High non-tail accuracy", ["All", "Synthetic", "All", "All", "All"]),
    ("Insertion speed", ["Medium", "Medium", "High", "Low", "Low"]),
    ("Query speed", ["High", "Low", "High", "High", "Medium"]),
    ("Merge speed", ["Medium", "High", "Medium", "Low", "Low"]),
    ("Adaptability", ["Inconsistent", "Low", "High", "High", "Inconsistent"]),
];
/// Column order of the paper's Table 4.
const PAPER_COLS: [SketchKind; 5] = [
    SketchKind::Kll,
    SketchKind::Moments,
    SketchKind::Dds,
    SketchKind::Udds,
    SketchKind::Req,
];

/// Rank sketches by a cost metric (lower = faster) into High/Medium/Low
/// speed labels: fastest and anything within 2x of it are High, within
/// 15x Medium, the rest Low.
fn speed_labels(costs: &[f64]) -> Vec<&'static str> {
    let best = costs.iter().cloned().fold(f64::INFINITY, f64::min);
    costs
        .iter()
        .map(|&c| {
            if c <= best * 2.0 {
                "High"
            } else if c <= best * 15.0 {
                "Medium"
            } else {
                "Low"
            }
        })
        .collect()
}

/// Accuracy-coverage label: which data sets a sketch handled within the
/// threshold.
fn coverage_label(ok: &[(DataSet, bool)]) -> String {
    if ok.iter().all(|(_, pass)| *pass) {
        return "All".into();
    }
    let synth_ok = ok
        .iter()
        .filter(|(ds, _)| matches!(ds, DataSet::Pareto | DataSet::Uniform))
        .all(|(_, pass)| *pass);
    let real_ok = ok
        .iter()
        .filter(|(ds, _)| matches!(ds, DataSet::Nyt | DataSet::Power))
        .all(|(_, pass)| *pass);
    if synth_ok && !real_ok {
        return "Synthetic".into();
    }
    let pareto_fails = ok
        .iter()
        .any(|(ds, pass)| *ds == DataSet::Pareto && !*pass);
    if pareto_fails {
        return "Non-Skewed".into();
    }
    let passed = ok.iter().filter(|(_, p)| *p).count();
    format!("{passed}/{} data sets", ok.len())
}

/// Run the derivation and render measured-vs-paper grids.
pub fn run(args: &Args) -> Report {
    let sketches = SketchKind::PAPER_FIVE;
    let runs = args.runs_or(2);

    // --- speed micro-measurements -------------------------------------
    let mut insert_ns = Vec::new();
    let mut query_ns = Vec::new();
    let mut merge_ns = Vec::new();
    for &kind in &sketches {
        let mut gen = FixedPareto::paper_speed_workload(args.seed);
        let speed_n = speed_n(args.scale);
        let merge_shards = merge_shards(args.scale);
        let values: Vec<f64> = (0..speed_n).map(|_| gen.next_value()).collect();

        let mut sketch = kind.build(args.seed, true);
        let t0 = Instant::now();
        for &v in &values {
            sketch.insert(v);
        }
        insert_ns.push(t0.elapsed().as_nanos() as f64 / speed_n as f64);

        let t1 = Instant::now();
        let reps = 20;
        for _ in 0..reps {
            for &q in &qsketch_core::quantiles::QUERIED {
                std::hint::black_box(sketch.query(q).ok());
            }
        }
        query_ns.push(t1.elapsed().as_nanos() as f64 / (reps * 8) as f64);

        let shards: Vec<AnySketch> = (0..merge_shards)
            .map(|i| {
                let mut s = kind.build(args.seed + i as u64, true);
                let mut g = FixedPareto::paper_speed_workload(args.seed + i as u64);
                for _ in 0..speed_n / 10 {
                    s.insert(g.next_value());
                }
                s
            })
            .collect();
        let mut acc = shards[0].clone();
        let t2 = Instant::now();
        for s in &shards[1..] {
            acc.merge_same(s).expect("same-kind merge");
        }
        merge_ns.push(t2.elapsed().as_nanos() as f64 / (merge_shards - 1) as f64);
    }
    let insert_label = speed_labels(&insert_ns);
    let query_label = speed_labels(&query_ns);
    let merge_label = speed_labels(&merge_ns);

    // --- accuracy coverage ---------------------------------------------
    let mut cfg = scaled_config(args, NetworkDelay::None);
    cfg.num_windows = 3;
    let mut tail_cov = Vec::new();
    let mut mid_cov = Vec::new();
    for &kind in &sketches {
        let mut tail = Vec::new();
        let mut mid = Vec::new();
        for ds in DataSet::ALL {
            let spec = kind.paper(ds.moments_needs_compression());
            let outcome = accuracy_stats(spec, ds, &cfg, runs, args.seed, None);
            tail.push((ds, outcome.group_mean(QuantileGroup::Upper) <= ACCURACY_THRESHOLD));
            mid.push((ds, outcome.group_mean(QuantileGroup::Mid) <= ACCURACY_THRESHOLD));
        }
        tail_cov.push(coverage_label(&tail));
        mid_cov.push(coverage_label(&mid));
    }

    // --- adaptability ---------------------------------------------------
    let half = match args.scale {
        crate::cli::Scale::Tiny => 10_000u64,
        _ => 100_000u64,
    };
    let mut adapt = Vec::new();
    {
        let mut stream = paper_adaptability_stream(args.seed, half);
        let values = stream.take_vec(2 * half as usize);
        let mut oracle = ExactQuantiles::with_capacity(values.len());
        oracle.extend(values.iter().copied());
        for &kind in &sketches {
            let mut sketch = kind.build(args.seed, false);
            for &v in &values {
                sketch.insert(v);
            }
            let p50_err = sketch
                .query(0.5)
                .map(|est| relative_error(oracle.query(0.5).unwrap(), est))
                .unwrap_or(f64::INFINITY);
            let others: Vec<f64> = [0.25, 0.75, 0.95]
                .iter()
                .filter_map(|&q| {
                    sketch
                        .query(q)
                        .ok()
                        .map(|est| relative_error(oracle.query(q).unwrap(), est))
                })
                .collect();
            let others_ok = others.iter().all(|&e| e <= ACCURACY_THRESHOLD);
            adapt.push(if p50_err <= ACCURACY_THRESHOLD && others_ok {
                "High"
            } else if others_ok {
                // Good everywhere except the distribution boundary.
                "Inconsistent"
            } else {
                "Low"
            });
        }
    }

    // --- render ----------------------------------------------------------
    let mut out = String::from("Table 4: characteristics derived from measurements\n\n");
    let mut header: Vec<String> = vec!["characteristic".into()];
    header.extend(sketches.iter().map(|k| k.label().to_string()));
    let mut table = Table::new(header);
    let approach = |k: SketchKind| match k {
        SketchKind::Kll | SketchKind::Req => "Sampling",
        _ => "Summary",
    };
    table.row(
        std::iter::once("Sketching approach".to_string())
            .chain(sketches.iter().map(|&k| approach(k).to_string())),
    );
    table.row(std::iter::once("High tail accuracy".to_string()).chain(tail_cov.clone()));
    table.row(std::iter::once("High non-tail accuracy".to_string()).chain(mid_cov.clone()));
    table.row(
        std::iter::once("Insertion speed".to_string())
            .chain(insert_label.iter().map(|s| s.to_string())),
    );
    table.row(
        std::iter::once("Query speed".to_string())
            .chain(query_label.iter().map(|s| s.to_string())),
    );
    table.row(
        std::iter::once("Merge speed".to_string())
            .chain(merge_label.iter().map(|s| s.to_string())),
    );
    table.row(
        std::iter::once("Adaptability".to_string()).chain(adapt.iter().map(|s| s.to_string())),
    );
    out.push_str(&table.render());

    out.push_str("\nPaper's Table 4 (columns: KLL, Moments, DDSketch, UDDSketch, ReqSketch(HRA)):\n");
    let mut paper = Table::new(
        std::iter::once("characteristic".to_string())
            .chain(PAPER_COLS.iter().map(|k| k.label().to_string())),
    );
    for (name, vals) in PAPER_TABLE4 {
        paper.row(std::iter::once(name.to_string()).chain(vals.iter().map(|v| v.to_string())));
    }
    out.push_str(&paper.render());
    out.push_str(
        "\nNote: measured column order is REQ, KLL, UDDS, DDS, Moments (Table 3 order);\n\
         the paper grid above uses its own column order.\n",
    );
    out.into()
}
