//! Extension experiment (beyond the paper): how much of the §4.6 late-data
//! loss does a *bounded-out-of-orderness watermark* recover?
//!
//! The paper drops every late event under an ascending watermark (§2.6)
//! and observes the resulting accuracy. Production Flink jobs usually run
//! a lagging watermark instead; this experiment sweeps the lag from 0 to
//! 4× the mean network delay and reports the loss fraction and the p99
//! accuracy at each setting — quantifying the result-latency vs
//! completeness trade-off the paper's setup fixes at one extreme.

use crate::cli::Args;
use crate::experiments::{accuracy_stats, scaled_config, Report};
use crate::table::{fmt_pct, Table};
use crate::SketchKind;
use qsketch_core::metrics::MetricsRegistry;
use qsketch_datagen::DataSet;
use qsketch_streamsim::{NetworkDelay, PAPER_MEAN_DELAY_MS};

/// Watermark lags swept, as multiples of the mean delay.
const LAG_FACTORS: [f64; 4] = [0.0, 0.5, 1.0, 4.0];

/// Run the sweep on the NYT data set (the paper's most repetition-heavy
/// stream, where every recovered event carries spike mass).
pub fn run(args: &Args) -> Report {
    let runs = args.runs_or(3);
    let dataset = DataSet::Nyt;
    let specs = args.sketch_specs(dataset.moments_needs_compression());
    let registry = args.metrics.then(MetricsRegistry::new);

    let mut out = format!(
        "Extension: watermark lag vs late-data loss (exp({PAPER_MEAN_DELAY_MS} ms) delays, \
         {} data set)\n\n",
        dataset.label()
    );
    let mut header: Vec<String> = vec!["lag (ms)".into(), "loss".into()];
    for &spec in &specs {
        header.push(format!("{} p99 err", SketchKind::of(spec).label()));
    }
    let mut table = Table::new(header);

    for factor in LAG_FACTORS {
        let lag_ms = (PAPER_MEAN_DELAY_MS * factor) as u64;
        let mut cfg = scaled_config(args, NetworkDelay::ExponentialMs(PAPER_MEAN_DELAY_MS));
        cfg.watermark_lag_ms = lag_ms;
        cfg.quantiles = vec![0.99];

        let mut row = vec![format!("{lag_ms}")];
        let mut loss_cell = None;
        let mut err_cells = Vec::new();
        for &spec in &specs {
            let outcome = accuracy_stats(spec, dataset, &cfg, runs, args.seed, registry.as_ref());
            loss_cell.get_or_insert_with(|| format!("{:.3}%", outcome.loss_fraction() * 100.0));
            err_cells.push(fmt_pct(outcome.q_mean(0.99)));
        }
        row.push(loss_cell.unwrap_or_else(|| "n/a".into()));
        row.extend(err_cells);
        table.row(row);
    }
    out.push_str(&table.render());
    out.push_str(
        "\nReading: a lag of one mean delay eliminates most drops; by 4x the mean the\n\
         stream is effectively complete. The accuracy deltas stay small throughout —\n\
         consistent with the paper's §4.6 finding that sketch summaries tolerate\n\
         losing a small fraction of a window.\n",
    );
    if let Some(r) = &registry {
        out.push_str(
            "\nMetrics snapshot (accumulated over the whole sweep — the\n\
             pipeline.emit_latency_us histogram folds every lag setting together,\n\
             which is exactly how the latency cost of a lagging watermark shows up):\n\n",
        );
        out.push_str(&r.snapshot().render_text());
    }
    out.into()
}
