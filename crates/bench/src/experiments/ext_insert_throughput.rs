//! Extension experiment (beyond the paper): scalar vs. batched insert
//! throughput for the five paper sketches.
//!
//! Fig. 5a measures the paper's metric — per-element insert time through
//! the one-value-at-a-time API. This experiment measures what a streaming
//! system actually does: values arrive in batches (a stream spread over
//! the engine's shards arrives in [`CHUNK`]-value chunks), and every
//! sketch overrides [`QuantileSketch::insert_batch`] with a kernel that
//! exploits that:
//!
//! * **DDS/UDDS** — the blocked ln-free index
//!   ([`qsketch_core::fastlog::FastCeilIndexer::index_checked`])
//!   replaces one `ln` per value with a vectorized polynomial pass, and
//!   bucket updates go through bulk/coalesced store paths.
//! * **KLL/REQ** — chunks sized to the remaining level-0 room are
//!   appended as slices, deferring the compaction check from per-value to
//!   per-chunk.
//! * **Moments** — a 4-wide blocked power-sum accumulation the compiler
//!   can keep in registers.
//!
//! Both paths are timed over the same pre-generated streams (all four
//! paper data sets), best-of-`reps` to suppress scheduler noise, and the
//! batch kernels are bit-identical to scalar inserts (enforced by the
//! `batch_insert_equivalence` property suite) — so any speedup is free.
//!
//! The rendered table reports per-(sketch, data set) throughput; the JSON
//! aggregates per sketch as `sketch -> {scalar_mvps, batch_mvps,
//! speedup}` (total values / total best-time across the four data sets).
//! At `--quick` and full scale, a `REGRESSION` line is printed if any
//! sketch's batch path falls more than 5 % below its scalar path, and the
//! report is marked failed, so the binary exits 1 and `ci/check.sh`
//! fails. At `--tiny` (one rep over 20 k values per data set, which reads
//! noise) the ratios are printed but not gated.

use std::time::Instant;

use crate::cli::{Args, Scale};
use crate::experiments::Report;
use crate::parts::CHUNK;
use crate::table::Table;
use crate::{AnySketch, SketchKind, SketchSpec};
use qsketch_core::QuantileSketch;
use qsketch_datagen::{DataSet, ValueStream, PAPER_EVENTS_PER_UPDATE};

/// Any sketch whose batch path dips below this fraction of its scalar
/// throughput is flagged as a regression (at `--quick` and full scale).
const REGRESSION_FLOOR: f64 = 0.95;

/// Values per (sketch, data set) stream.
fn stream_len(scale: Scale) -> usize {
    match scale {
        Scale::Tiny => 20_000,
        Scale::Quick => 400_000,
        Scale::Full => 4_000_000,
    }
}

/// Timed repetitions per path (best-of; each rep fills a fresh sketch).
fn reps(scale: Scale) -> usize {
    match scale {
        Scale::Tiny => 1,
        Scale::Quick => 3,
        Scale::Full => 5,
    }
}

/// One measured (sketch, data set) cell.
struct Cell {
    dataset: &'static str,
    scalar_mvps: f64,
    batch_mvps: f64,
    scalar_best_ns: f64,
    batch_best_ns: f64,
}

impl Cell {
    fn speedup(&self) -> f64 {
        self.batch_mvps / self.scalar_mvps
    }
}

/// Per-sketch aggregate over the four data sets.
struct SketchResult {
    sketch: &'static str,
    cells: Vec<Cell>,
    scalar_mvps: f64,
    batch_mvps: f64,
    speedup: f64,
}

/// Run the experiment: the table, the JSON for `BENCH_insert.json`, and
/// whether any sketch regressed.
pub fn run(args: &Args) -> Report {
    let n = stream_len(args.scale);
    let r = reps(args.scale);
    // The batch kernels are what distinguish the five paper sketches;
    // the baselines only have the default (scalar-loop) insert_batch.
    // One column list per data set, whose Moments column is compressed
    // where §4.2 compresses.
    let columns = DataSet::ALL.map(|ds| {
        args.sketch_specs(ds.moments_needs_compression())
            .into_iter()
            .filter(|&s| SketchKind::PAPER_FIVE.contains(&SketchKind::of(s)))
            .collect::<Vec<SketchSpec>>()
    });

    let mut out = format!(
        "Ext: insert throughput, scalar insert() vs insert_batch() \
         ({n} values per data set,\nbatch chunk = {CHUNK} values \
         (the engine's shard batch), best of {r} runs)\n\n"
    );
    let mut table = Table::new([
        "sketch",
        "dataset",
        "scalar Mv/s",
        "batch Mv/s",
        "speedup",
    ]);

    let mut results: Vec<SketchResult> = Vec::new();
    for si in 0..columns[0].len() {
        let label = SketchKind::of(columns[0][si]).label();
        let mut cells = Vec::new();
        for (&ds, specs) in DataSet::ALL.iter().zip(&columns) {
            let cell = measure(specs[si], ds, n, r, args.seed);
            table.row(vec![
                label.to_string(),
                cell.dataset.to_string(),
                format!("{:.2}", cell.scalar_mvps),
                format!("{:.2}", cell.batch_mvps),
                format!("{:.2}x", cell.speedup()),
            ]);
            cells.push(cell);
        }
        // Aggregate: total values over total best-time, so slow data
        // sets weigh in proportion to the time they actually take.
        let total_values = (n * cells.len()) as f64;
        let scalar_ns: f64 = cells.iter().map(|c| c.scalar_best_ns).sum();
        let batch_ns: f64 = cells.iter().map(|c| c.batch_best_ns).sum();
        let scalar_mvps = total_values / scalar_ns * 1e3;
        let batch_mvps = total_values / batch_ns * 1e3;
        table.row(vec![
            label.to_string(),
            "ALL".to_string(),
            format!("{scalar_mvps:.2}"),
            format!("{batch_mvps:.2}"),
            format!("{:.2}x", batch_mvps / scalar_mvps),
        ]);
        results.push(SketchResult {
            sketch: label,
            cells,
            scalar_mvps,
            batch_mvps,
            speedup: batch_mvps / scalar_mvps,
        });
    }
    out.push_str(&table.render());
    out.push_str(
        "\nReading: scalar is the paper's per-element API (Fig. 5a's metric); batch is\n\
         the chunked path the engine's workers drive. DDS/UDDS gains come from the\n\
         blocked ln-free index + bulk store updates, KLL/REQ from slice appends with\n\
         per-chunk compaction checks, Moments from the blocked power-sum kernel.\n\
         Both paths produce bit-identical sketch state.\n",
    );

    let mut regressed = false;
    if args.scale == Scale::Tiny {
        out.push_str(&format!(
            "\nNot gated at --tiny: {r} run over {n} values per data set reads noise\n\
             (the {REGRESSION_FLOOR} floor applies at --quick and full scale).\n"
        ));
    } else {
        for res in &results {
            if res.speedup < REGRESSION_FLOOR {
                regressed = true;
                out.push_str(&format!(
                    "REGRESSION: {} batch path is {:.2}x scalar (floor {REGRESSION_FLOOR})\n",
                    res.sketch, res.speedup
                ));
            }
        }
        if !regressed {
            out.push_str("\nAll batch kernels at or above the scalar floor.\n");
        }
    }

    Report {
        failed: regressed,
        ..Report::from(out).with_json("BENCH_insert.json", json_fields(args, n, r, &results))
    }
}

/// Time both insert paths for one (sketch, data set) pair.
fn measure(spec: SketchSpec, ds: DataSet, n: usize, reps: usize, seed: u64) -> Cell {
    // Pre-generate once so value generation is outside both timed loops
    // and identical between them.
    let mut gen = ds.generator(seed, PAPER_EVENTS_PER_UPDATE);
    let values: Vec<f64> = (0..n).map(|_| gen.next_value()).collect();

    let mut scalar_best_ns = f64::INFINITY;
    let mut batch_best_ns = f64::INFINITY;
    for _ in 0..reps {
        let mut sketch = AnySketch::build(spec, seed);
        let start = Instant::now();
        for &v in &values {
            sketch.insert(v);
        }
        scalar_best_ns = scalar_best_ns.min(start.elapsed().as_nanos() as f64);
        std::hint::black_box(sketch.count());

        let mut sketch = AnySketch::build(spec, seed);
        let start = Instant::now();
        for chunk in values.chunks(CHUNK) {
            sketch.insert_batch(chunk);
        }
        batch_best_ns = batch_best_ns.min(start.elapsed().as_nanos() as f64);
        std::hint::black_box(sketch.count());
    }

    Cell {
        dataset: ds.label(),
        scalar_mvps: n as f64 / scalar_best_ns * 1e3,
        batch_mvps: n as f64 / batch_best_ns * 1e3,
        scalar_best_ns,
        batch_best_ns,
    }
}

/// The JSON fields, hand-rolled (no serde in the offline build):
/// `"sketches": {<label>: {"scalar_mvps": .., "batch_mvps": ..,
/// "speedup": .., "datasets": [..]}}` after the run parameters.
fn json_fields(args: &Args, n: usize, reps: usize, results: &[SketchResult]) -> String {
    let mut json = format!(
        "\"values_per_dataset\":{n},\"reps\":{reps},\"chunk\":{CHUNK},\
         \"seed\":{seed},\"sketches\":{{",
        seed = args.seed,
    );
    for (i, res) in results.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        json.push_str(&format!(
            "\"{}\":{{\"scalar_mvps\":{:.3},\"batch_mvps\":{:.3},\
             \"speedup\":{:.4},\"datasets\":[",
            res.sketch, res.scalar_mvps, res.batch_mvps, res.speedup
        ));
        for (j, c) in res.cells.iter().enumerate() {
            if j > 0 {
                json.push(',');
            }
            json.push_str(&format!(
                "{{\"dataset\":\"{}\",\"scalar_mvps\":{:.3},\
                 \"batch_mvps\":{:.3},\"speedup\":{:.4}}}",
                c.dataset,
                c.scalar_mvps,
                c.batch_mvps,
                c.speedup()
            ));
        }
        json.push_str("]}");
    }
    json.push('}');
    json
}
