//! Fig. 5c: average time to merge two sketches, while folding 100 and
//! 1000 sketches each populated with 1 M events from a uniform, binomial,
//! or Zipf distribution (§4.1, §4.4.3).

use std::time::Instant;

use crate::cli::{Args, Scale};
use crate::experiments::Report;
use crate::table::{fmt_ns, Table};
use crate::{AnySketch, SketchKind, SketchSpec};
use qsketch_core::QuantileSketch;
use qsketch_datagen::{BinomialGen, FixedUniform, ValueStream, ZipfGen};

/// (events per sketch, sketch counts) per scale.
fn workload(scale: Scale) -> (usize, Vec<usize>) {
    match scale {
        Scale::Tiny => (5_000, vec![10]),
        Scale::Quick => (100_000, vec![100, 300]),
        Scale::Full => (1_000_000, vec![100, 1000]),
    }
}

/// Populate one shard sketch from the §4.1 merge workload: shard `i`
/// draws from uniform/binomial/Zipf in rotation.
fn populate(spec: SketchSpec, seed: u64, shard: usize, events: usize) -> AnySketch {
    let mut sketch = AnySketch::build(spec, seed.wrapping_add(shard as u64));
    let mut gen: Box<dyn ValueStream> = match shard % 3 {
        0 => Box::new(FixedUniform::new(seed + shard as u64, 30.0, 100.0)),
        1 => Box::new(BinomialGen::new(seed + shard as u64, 100, 0.2)),
        _ => Box::new(ZipfGen::new(seed + shard as u64, 20, 0.6)),
    };
    super::fill_batched(&mut sketch, gen.as_mut(), events as u64);
    sketch
}

/// Run the experiment and render the figure's series.
pub fn run(args: &Args) -> Report {
    let (events, counts) = workload(args.scale);
    let mut out = format!(
        "Fig. 5c: average time to merge two sketches (each shard fed {events} events \
         from U(30,100)/Binomial(100,0.2)/Zipf(20,0.6))\n\n"
    );
    // GK has no merge; exclude baselines that cannot merge.
    let specs: Vec<SketchSpec> = args
        .sketch_specs(false)
        .into_iter()
        .filter(|&s| SketchKind::of(s).is_mergeable())
        .collect();

    let mut header: Vec<String> = vec!["sketches merged".into()];
    header.extend(specs.iter().map(|&s| SketchKind::of(s).label().to_string()));
    let mut table = Table::new(header);

    for &count in &counts {
        let mut row = vec![format!("{count}")];
        for &spec in &specs {
            let shards: Vec<AnySketch> = (0..count)
                .map(|i| populate(spec, args.seed, i, events))
                .collect();
            let mut acc = shards[0].clone();
            let start = Instant::now();
            for shard in &shards[1..] {
                acc.merge_same(shard).expect("same-kind merge");
            }
            let elapsed = start.elapsed().as_nanos() as f64;
            std::hint::black_box(acc.count());
            row.push(fmt_ns(elapsed / (count - 1) as f64));
        }
        table.row(row);
    }
    out.push_str(&table.render());
    out.push_str(
        "\nPaper (Fig. 5c): Moments fastest by >= an order of magnitude (adds 12 sums);\n\
         DDS next (array bucket adds); UDDS slow (map iteration + uniform collapses);\n\
         KLL and REQ slowest of the summary/sampling split, REQ above KLL.\n",
    );
    out.into()
}
