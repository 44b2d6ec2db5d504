//! Extension experiment (beyond the paper): insert scaling of one stream
//! spread over the engine's worker threads.
//!
//! The paper measures mergeability as a *cost* (Fig. 5c: time per
//! pairwise merge) but never exploits it for parallelism; Quancurrent
//! (arXiv:2208.09265) shows thread-local sketches + merge-on-query
//! scaling near-linearly with threads. This experiment runs the same
//! pre-generated Pareto stream through the engine at 1–8 worker threads
//! for every sketch — one tenant, one part key per shard, [`CHUNK`]-value
//! chunks fed round-robin ([`Parts`]) — and reports:
//!
//! * **throughput** — wall-clock events/s through the full ingest →
//!   ring → shard-worker path (drained, so every value is inserted),
//! * **speedup** — vs. the same engine at 1 thread (so handoff overhead
//!   is in both numerator and denominator),
//! * **p99 ingest latency** — of each `ingest` call (one chunk); grows
//!   when backpressure blocks the producer,
//! * **merge (µs)** — `query_prefix(..).merged()` folding the parts'
//!   published snapshots, the per-query cost Fig. 5c predicts.
//!
//! The expected shape on a machine with ≥ 8 free cores is near-linear
//! scaling for sketches whose insert is expensive enough to dominate the
//! producer (KLL, REQ, UDDS), flattening toward producer-bound for the
//! cheapest inserts (DDS dense store, Moments). On a single-core
//! container the workers timeslice and "speedup" measures pure overhead.

use std::time::Instant;

use crate::cli::{Args, Scale};
use crate::experiments::Report;
use crate::parts::{Parts, CHUNK};
use crate::table::Table;
use crate::{AnySketch, SketchKind, SketchSpec};
use qsketch_core::metrics::MetricsRegistry;
use qsketch_core::QuantileSketch;
use qsketch_datagen::{FixedPareto, ValueStream};
use qsketch_streamsim::builder::EngineBuilder;
use qsketch_streamsim::keyed_engine::DEFAULT_KEYED_QUEUE_CAPACITY;

/// Default worker-thread sweep (override with `--threads`).
const THREAD_SWEEP: [usize; 4] = [1, 2, 4, 8];

/// One measured (sketch, threads) cell.
struct ScalingPoint {
    sketch: &'static str,
    threads: usize,
    elapsed_s: f64,
    throughput_eps: f64,
    speedup: f64,
    p99_ingest_ns: u64,
    merge_us: f64,
    merged_count: u64,
}

fn stream_len(scale: Scale) -> u64 {
    match scale {
        Scale::Tiny => 20_000,
        Scale::Quick => 1_000_000,
        Scale::Full => 10_000_000,
    }
}

/// Run the sweep: the table, and the JSON for
/// `results/ext_parallel_scaling.json`.
pub fn run(args: &Args) -> Report {
    let n = stream_len(args.scale);
    let threads = args
        .threads
        .clone()
        .unwrap_or_else(|| THREAD_SWEEP.to_vec());
    let registry = args.metrics.then(MetricsRegistry::new);

    // Pre-generate the stream once (same workload as Fig. 5a) so value
    // generation is outside every timed section and identical across
    // sketches and thread counts.
    let mut gen = FixedPareto::paper_speed_workload(args.seed);
    let values: Vec<f64> = (0..n).map(|_| gen.next_value()).collect();

    // GK has no merge operation, so it cannot ride the merge-on-query
    // engine; skip it even under --with-baselines.
    let specs: Vec<SketchSpec> = args
        .sketch_specs(true)
        .into_iter()
        .filter(|&s| SketchKind::of(s).is_mergeable())
        .collect();

    let mut out = format!(
        "Ext: parallel insert scaling of one stream over the engine's shards \
         (Pareto alpha=1 stream, {n} events/run,\nchunk={CHUNK}, \
         queue={DEFAULT_KEYED_QUEUE_CAPACITY} batches/shard, one part key per shard, \
         round-robin chunks, merge-on-query)\n\n",
    );
    let mut table = Table::new([
        "sketch",
        "threads",
        "Mops/s",
        "speedup",
        "p99 ins (ns)",
        "merge (µs)",
    ]);

    let mut points: Vec<ScalingPoint> = Vec::new();
    for &spec in &specs {
        let mut baseline_eps: Option<f64> = None;
        for &t in &threads {
            let point = measure(spec, t, &values, args, registry.as_ref(), baseline_eps);
            if baseline_eps.is_none() {
                baseline_eps = Some(point.throughput_eps);
            }
            table.row(vec![
                point.sketch.to_string(),
                format!("{}", point.threads),
                format!("{:.2}", point.throughput_eps / 1e6),
                format!("{:.2}x", point.speedup),
                format!("{}", point.p99_ingest_ns),
                format!("{:.1}", point.merge_us),
            ]);
            points.push(point);
        }
    }
    out.push_str(&table.render());
    out.push_str(
        "\nReading: speedup is vs. the 1-thread engine (handoff overhead included in\n\
         both sides). Expect near-linear insert scaling while per-insert sketch cost\n\
         dominates the producer (Quancurrent, arXiv:2208.09265, reports the same shape),\n\
         and a per-query merge cost that follows Fig. 5c's per-sketch ordering.\n\
         On machines with fewer free cores than workers, the workers timeslice and\n\
         the measured speedup bounds at the core count, not the thread count.\n",
    );
    if let Some(r) = &registry {
        out.push_str(
            "\nMetrics snapshot (per engine instance, prefixed \
             engine.<sketch>.t<threads>;\nqueue-depth gauges hold the last \
             observed depth, backpressure_wait_ns is the\nproducer's blocking \
             time on full shard queues):\n\n",
        );
        out.push_str(&r.snapshot().render_text());
    }

    let fields = json_fields(args, n, &threads, &points);
    Report::from(out).with_json("results/ext_parallel_scaling.json", fields)
}

/// Run one (sketch, threads) configuration end-to-end and measure it.
fn measure(
    spec: SketchSpec,
    threads: usize,
    values: &[f64],
    args: &Args,
    registry: Option<&MetricsRegistry>,
    baseline_eps: Option<f64>,
) -> ScalingPoint {
    // One factory seed for every part: the engine's factory contract
    // (every key starts from the same state) applies to part keys too.
    let seed = args.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ threads as u64;
    let label = SketchKind::of(spec).label();
    let mut builder = EngineBuilder::keyed(threads);
    if let Some(r) = registry {
        let prefix = format!("engine.{}.t{}", label.to_lowercase(), threads);
        builder = builder.metrics(r, &prefix);
    }
    let engine = builder
        .spawn(move || AnySketch::build(spec, seed))
        .expect("threads >= 1 enforced by the CLI");
    let parts = Parts::new("stream", threads);

    let mut latency_samples: Vec<u64> = Vec::with_capacity(values.len() / CHUNK + 1);
    let start = Instant::now();
    for (key, chunk) in parts.chunks(values) {
        let probe = Instant::now();
        engine
            .ingest(parts.tenant(), key, chunk)
            .expect("no quota configured");
        latency_samples.push(probe.elapsed().as_nanos() as u64);
    }
    engine.drain();
    let elapsed = start.elapsed();

    let merge_start = Instant::now();
    let merged = parts
        .query(&engine)
        .merged()
        .expect("same-parameter parts merge")
        .expect("every part received values");
    let merge_us = merge_start.elapsed().as_nanos() as f64 / 1e3;
    engine.finish();
    assert_eq!(
        merged.count(),
        values.len() as u64,
        "{label} t={threads}: engine lost events"
    );

    latency_samples.sort_unstable();
    let p99_ingest_ns = latency_samples
        [((latency_samples.len() as f64 * 0.99).ceil() as usize - 1).min(latency_samples.len() - 1)];
    let elapsed_s = elapsed.as_secs_f64();
    let throughput_eps = values.len() as f64 / elapsed_s;
    ScalingPoint {
        sketch: label,
        threads,
        elapsed_s,
        throughput_eps,
        speedup: throughput_eps / baseline_eps.unwrap_or(throughput_eps),
        p99_ingest_ns,
        merge_us,
        merged_count: merged.count(),
    }
}

/// The JSON fields, hand-rolled (no serde in the offline build).
fn json_fields(args: &Args, n: u64, threads: &[usize], points: &[ScalingPoint]) -> String {
    let threads_list = threads
        .iter()
        .map(|t| t.to_string())
        .collect::<Vec<_>>()
        .join(",");
    let mut json = format!(
        "\"events_per_run\":{n},\"seed\":{seed},\"chunk\":{CHUNK},\
         \"queue_capacity\":{DEFAULT_KEYED_QUEUE_CAPACITY},\"threads\":[{threads_list}],\
         \"results\":[",
        seed = args.seed,
    );
    for (i, p) in points.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        json.push_str(&format!(
            "{{\"sketch\":\"{}\",\"threads\":{},\"elapsed_s\":{:.6},\
             \"throughput_eps\":{:.1},\"speedup\":{:.4},\"p99_ingest_ns\":{},\
             \"merge_us\":{:.2},\"merged_count\":{}}}",
            p.sketch,
            p.threads,
            p.elapsed_s,
            p.throughput_eps,
            p.speedup,
            p.p99_ingest_ns,
            p.merge_us,
            p.merged_count,
        ));
    }
    json.push(']');
    json
}
