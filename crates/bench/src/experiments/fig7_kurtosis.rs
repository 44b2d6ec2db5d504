//! Fig. 7: accuracy of the 0.98-quantile query as a function of the data
//! set's excess kurtosis (§4.5.6).

use crate::cli::Args;
use crate::experiments::{accuracy_stats, scaled_config, Report};
use crate::table::{fmt_pct, Table};
use crate::SketchKind;
use qsketch_core::stats::kurtosis;
use qsketch_datagen::DataSet;
use qsketch_streamsim::NetworkDelay;

/// Sample size used to estimate each data set's kurtosis for the x-axis.
fn kurtosis_sample(scale: crate::cli::Scale) -> usize {
    match scale {
        crate::cli::Scale::Tiny => 20_000,
        _ => 1_000_000,
    }
}

/// Run the experiment and render the series (x = kurtosis, one column per
/// sketch, y = mean relative error at q = 0.98).
pub fn run(args: &Args) -> Report {
    let mut cfg = scaled_config(args, NetworkDelay::None);
    cfg.quantiles = vec![0.98];
    let runs = args.runs_or(3);

    // Order data sets by measured kurtosis (the paper's x-axis).
    let mut ordered: Vec<(DataSet, f64)> = DataSet::ALL
        .iter()
        .map(|&ds| {
            let mut gen = ds.generator(args.seed ^ 0x4B55_5254, 50);
            let sample = gen.take_vec(kurtosis_sample(args.scale));
            (ds, kurtosis(&sample))
        })
        .collect();
    ordered.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite kurtosis"));

    let mut out = String::from(
        "Fig. 7: accuracy of the 0.98-quantile query as a function of kurtosis\n\n",
    );
    let mut header: Vec<String> = vec!["dataset".into(), "kurtosis".into()];
    for spec in args.sketch_specs(false) {
        header.push(SketchKind::of(spec).label().into());
    }
    let mut table = Table::new(header);

    for (dataset, k) in ordered {
        let mut row = vec![dataset.label().to_string(), format!("{k:.1}")];
        for spec in args.sketch_specs(dataset.moments_needs_compression()) {
            let outcome = accuracy_stats(spec, dataset, &cfg, runs, args.seed, None);
            row.push(fmt_pct(outcome.q_mean(0.98)));
        }
        table.row(row);
    }
    out.push_str(&table.render());
    out.push_str(
        "\nPaper (Fig. 7): error rises with kurtosis for distribution-dependent\n\
         algorithms; DDS/UDDS stay flat; NYT is easy for KLL/REQ because the exact\n\
         0.98-quantile value (57.3) repeats thousands of times; REQ beats KLL on\n\
         Pareto thanks to HRA-biased sampling.\n",
    );
    out.into()
}
