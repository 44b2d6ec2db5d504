//! §4.7: sensitivity of accuracy to window size — the Fig. 6 experiment at
//! 5 s, 10 s and 20 s tumbling windows.

use crate::cli::Args;
use crate::experiments::{accuracy_stats, scaled_config, Report};
use crate::table::{fmt_pct, Table};
use crate::SketchKind;
use qsketch_core::quantiles::QUERIED;
use qsketch_datagen::DataSet;
use qsketch_streamsim::NetworkDelay;

/// Window lengths evaluated (§4.7).
const WINDOW_SECS: [u64; 3] = [5, 10, 20];

/// Run the experiment: overall mean relative error (across the §4.2
/// quantile set) per sketch and window size, per data set.
pub fn run(args: &Args) -> Report {
    let runs = args.runs_or(3);
    let mut out = String::from(
        "Sec. 4.7: sensitivity of accuracy to window size (5 s / 10 s / 20 s)\n\n",
    );

    for dataset in DataSet::ALL {
        out.push_str(&format!("--- {} ---\n", dataset.label()));
        let mut header: Vec<String> = vec!["sketch".into()];
        header.extend(WINDOW_SECS.iter().map(|w| format!("{w} s")));
        header.push("delta(20s-5s)".into());
        let mut table = Table::new(header);

        for spec in args.sketch_specs(dataset.moments_needs_compression()) {
            let mut row = vec![SketchKind::of(spec).label().to_string()];
            let mut means = Vec::new();
            for &wsecs in &WINDOW_SECS {
                let mut cfg = scaled_config(args, NetworkDelay::None);
                cfg.window_secs = wsecs;
                let outcome = accuracy_stats(spec, dataset, &cfg, runs, args.seed, None);
                // Overall mean across the full quantile set.
                let mean = QUERIED
                    .iter()
                    .map(|&q| outcome.q_mean(q))
                    .filter(|m| !m.is_nan())
                    .sum::<f64>()
                    / QUERIED.len() as f64;
                means.push(mean);
                row.push(fmt_pct(mean));
            }
            let delta = means[2] - means[0];
            row.push(format!("{:+.4}", delta));
            table.row(row);
        }
        out.push_str(&table.render());
        out.push('\n');
    }

    out.push_str(
        "Paper (Sec. 4.7): consistent across window sizes for synthetic data; on\n\
         NYT/Power, Moments improves with larger windows (smoother shape, -0.0018\n\
         from 5s to 20s) while KLL (+0.0007) and REQ (+0.0014) degrade slightly\n\
         (more compactions); DDS/UDDS show no trend.\n",
    );
    out.into()
}
