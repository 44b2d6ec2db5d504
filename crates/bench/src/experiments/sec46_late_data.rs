//! §4.6: the Fig. 6 accuracy experiments re-run with late-arriving data —
//! an exponential network delay (mean 150 ms) with late events dropped.

use crate::cli::Args;
use crate::experiments::{accuracy_stats, scaled_config, Report};
use crate::table::{fmt_pct, Table};
use crate::SketchKind;
use qsketch_core::metrics::MetricsRegistry;
use qsketch_core::quantiles::QuantileGroup;
use qsketch_datagen::DataSet;
use qsketch_streamsim::{NetworkDelay, PAPER_MEAN_DELAY_MS};

/// Run the experiment: side-by-side error with and without late drops,
/// plus the measured loss fraction (paper: ≈ 2 % per window).
///
/// With `--metrics`, the late-configuration runs go through
/// [`run_accuracy_instrumented`] and a registry snapshot (late-drop
/// counters, watermark lag, per-sketch op latencies) is appended.
///
/// [`run_accuracy_instrumented`]: qsketch_streamsim::harness::run_accuracy_instrumented
pub fn run(args: &Args) -> Report {
    let delay = NetworkDelay::ExponentialMs(PAPER_MEAN_DELAY_MS);
    let cfg_late = scaled_config(args, delay);
    let cfg_clean = scaled_config(args, NetworkDelay::None);
    let runs = args.runs_or(3);
    let registry = args.metrics.then(MetricsRegistry::new);

    let mut out = format!(
        "Sec. 4.6: late-arriving data (exponential delay, mean {PAPER_MEAN_DELAY_MS} ms, \
         late events dropped)\n\n"
    );

    for dataset in DataSet::ALL {
        out.push_str(&format!("--- {} ---\n", dataset.label()));
        let mut header: Vec<String> = vec!["sketch".into()];
        for g in QuantileGroup::ALL {
            header.push(format!("{} clean", g.label()));
            header.push(format!("{} late", g.label()));
        }
        header.push("loss".into());
        let mut table = Table::new(header);

        for spec in args.sketch_specs(dataset.moments_needs_compression()) {
            let clean = accuracy_stats(spec, dataset, &cfg_clean, runs, args.seed, None);
            let late = accuracy_stats(spec, dataset, &cfg_late, runs, args.seed, registry.as_ref());
            let mut row = vec![SketchKind::of(spec).label().to_string()];
            for g in QuantileGroup::ALL {
                row.push(fmt_pct(clean.group_mean(g)));
                row.push(fmt_pct(late.group_mean(g)));
            }
            row.push(format!("{:.2}%", late.loss_fraction() * 100.0));
            table.row(row);
        }
        out.push_str(&table.render());
        out.push('\n');
    }

    out.push_str(
        "Paper (Sec. 4.6): ~2% of a window's events drop as late; error is only\n\
         slightly higher than the no-late runs and the Fig. 6 analysis is unchanged —\n\
         an accurate summary is insensitive to losing a small data fraction.\n",
    );
    if let Some(r) = &registry {
        out.push_str(
            "\nMetrics snapshot (accumulated over every late-configuration run;\n\
             pipeline.* counts all sketches' pipelines, sketch.<name>.* is per kind):\n\n",
        );
        out.push_str(&r.snapshot().render_text());
    }
    out.into()
}
