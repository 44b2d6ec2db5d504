//! Extension experiment (beyond the paper): checkpoint overhead and
//! crash recovery of the engine.
//!
//! The paper treats sketches as ephemeral per-window state; a production
//! stream processor (the Flink deployment of §2) also checkpoints that
//! state so a failed worker does not forfeit the whole window. This
//! experiment spreads one stream over the engine's shards ([`Parts`]:
//! one part key per shard, chunks round-robin) and measures what the
//! engine's registry checkpointing ([`qsketch_streamsim::checkpoint`])
//! actually costs, per sketch:
//!
//! * **throughput** — events/s through the engine with checkpointing off
//!   vs. on (same pre-generated Pareto stream, same factory),
//! * **overhead** — the relative throughput loss of checkpointing,
//! * **ckpts / KB / p99 µs** — checkpoint count, mean file size and p99
//!   write latency from the engine's metrics registry,
//! * **recovery** — a crash run (the engine is dropped after 63 % of
//!   the stream, so only its periodic checkpoints survive) followed by
//!   builder `recover` + each part's tail replayed,
//!   verified **bit-identical** against an uninterrupted reference run.
//!
//! Since the v3 flat wire layout (FORMATS.md) the experiment also
//! measures the format itself:
//!
//! * **v3 KB** — the final sketch state encoded in the current
//!   compressed flat layout,
//! * **q bytes / q dec µs** — median latency of answering a quantile
//!   straight over the serialized payload
//!   ([`SketchView::quantile_from_bytes`]) vs. decode-then-query.
//!
//! Expected shape: overhead tracks serialized size over interval —
//! Moments (~100 B payloads) is near-free, KLL/REQ cost a few percent at
//! aggressive intervals. The recovery column must read `ok` everywhere;
//! it is the experiment-level proof of the determinism contract the unit
//! tests assert per-crate.

use std::time::Instant;

use crate::cli::{Args, Scale};
use crate::experiments::Report;
use crate::parts::Parts;
use crate::{AnySketch, SketchKind, SketchSpec};
use qsketch_core::flatwire::SketchView;
use qsketch_core::metrics::MetricsRegistry;
use qsketch_core::{QuantileSketch, SketchSerialize};
use qsketch_datagen::{FixedPareto, ValueStream};
use qsketch_streamsim::builder::EngineBuilder;
use qsketch_streamsim::keyed_engine::KeyedEngine;
use qsketch_streamsim::CheckpointConfig;

/// Shard count for every run (small enough for CI, enough to make the
/// round-robin parts and the crash non-trivial).
const SHARDS: usize = 4;
/// Fraction of the stream the crash run ingests before it dies. Not a
/// multiple of the checkpoint interval, so every part has a tail past
/// its last checkpoint to replay.
const CRASH_AT: f64 = 0.63;
/// Quantiles compared bit-for-bit between recovered and reference runs.
const VERIFY_QS: [f64; 5] = [0.01, 0.25, 0.5, 0.9, 0.99];

/// One measured sketch row.
struct CheckpointPoint {
    sketch: String,
    base_eps: f64,
    ckpt_eps: f64,
    overhead: f64,
    checkpoints: u64,
    mean_kb: f64,
    p99_write_us: f64,
    recovery_ok: bool,
    recovery_ms: f64,
    flat_kb: f64,
    q_bytes_us: f64,
    q_decode_us: f64,
}

fn stream_len(scale: Scale) -> u64 {
    match scale {
        Scale::Tiny => 20_000,
        Scale::Quick => 1_000_000,
        Scale::Full => 10_000_000,
    }
}

/// Run the experiment: the table, and the JSON for
/// `results/ext_checkpoint.json`.
pub fn run(args: &Args) -> Report {
    let n = stream_len(args.scale);
    // ~10 checkpoints per shard over the run.
    let interval = (n / SHARDS as u64 / 10).max(1);

    let mut gen = FixedPareto::paper_speed_workload(args.seed);
    let values: Vec<f64> = (0..n).map(|_| gen.next_value()).collect();

    // GK cannot merge, so it cannot ride the merge-on-query engine.
    let specs: Vec<SketchSpec> = args
        .sketch_specs(true)
        .into_iter()
        .filter(|&s| SketchKind::of(s).is_mergeable())
        .collect();

    let mut out = format!(
        "Ext: checkpoint overhead + crash recovery of the engine\n\
         (Pareto alpha=1 stream, {n} events/run, {SHARDS} shards with one part key each, \
         checkpoint every {interval} values/shard,\n\
         crash run dies after {crash:.0}% of the stream, recovery \
         replays each part's tail and is compared bit-for-bit)\n\n",
        crash = CRASH_AT * 100.0,
    );
    let mut table = crate::table::Table::new([
        "sketch",
        "Mops/s off",
        "Mops/s on",
        "overhead",
        "ckpts",
        "mean KB",
        "p99 wr (µs)",
        "recovery",
        "v3 KB",
        "q bytes µs",
        "q dec µs",
    ]);

    let mut points = Vec::new();
    for &spec in &specs {
        let point = measure(spec, &values, args, interval);
        table.row(vec![
            point.sketch.clone(),
            format!("{:.2}", point.base_eps / 1e6),
            format!("{:.2}", point.ckpt_eps / 1e6),
            format!("{:.1}%", point.overhead * 100.0),
            format!("{}", point.checkpoints),
            format!("{:.2}", point.mean_kb),
            format!("{:.1}", point.p99_write_us),
            if point.recovery_ok { "ok" } else { "FAIL" }.to_string(),
            format!("{:.2}", point.flat_kb),
            format!("{:.2}", point.q_bytes_us),
            format!("{:.2}", point.q_decode_us),
        ]);
        points.push(point);
    }
    out.push_str(&table.render());
    out.push_str(
        "\nReading: overhead is the throughput cost of serialising + atomically\n\
         replacing registry-<i>.ckpt at the interval (encoded and written on the\n\
         shard's own worker thread). Checkpoint size follows Table 3's memory\n\
         ordering: Moments' ~100-byte payloads are near-free, the quantile-storing\n\
         sketches pay more. `recovery ok` means a run that died mid-stream, once\n\
         recovered from its checkpoints with each part's tail replayed, answered\n\
         every probe quantile with the same bits as an uninterrupted run — the\n\
         determinism contract of the wire format (KLL/REQ carry their\n\
         compaction-coin state).\n\
         v3 KB encodes the final merged state in the flat compressed layout\n\
         (FORMATS.md); `q bytes` answers a quantile straight over those bytes\n\
         (SketchView, zero decode) vs. `q dec` decoding first.\n",
    );

    let fields = json_fields(args, n, interval, &points);
    Report::from(out).with_json("results/ext_checkpoint.json", fields)
}

/// Ingest the whole stream through `parts`, drain, and return the
/// elapsed seconds.
fn timed_ingest(engine: &KeyedEngine<AnySketch>, parts: &Parts, values: &[f64]) -> f64 {
    let start = Instant::now();
    parts.ingest(engine, values).expect("no quota configured");
    engine.drain();
    start.elapsed().as_secs_f64()
}

/// The parts merged into one sketch.
fn merged(engine: &KeyedEngine<AnySketch>, parts: &Parts) -> Option<AnySketch> {
    parts.query(engine).merged().ok().flatten()
}

fn measure(spec: SketchSpec, values: &[f64], args: &Args, interval: u64) -> CheckpointPoint {
    let label = spec.to_string();
    // One factory for all four runs (baseline, checkpointed, crashed,
    // recovered) and every part: same spec, same seed.
    let seed = args.seed;
    let factory = move || AnySketch::build(spec, seed);
    let parts = Parts::new("stream", SHARDS);

    // Baseline: no checkpointing.
    let engine = EngineBuilder::keyed(SHARDS)
        .spawn(factory)
        .expect("at least one shard");
    let base_eps = values.len() as f64 / timed_ingest(&engine, &parts, values);
    let reference = merged(&engine, &parts).expect("same-parameter parts merge");
    engine.finish();

    // Checkpointed run, instrumented so the registry captures the cost.
    let dir = std::env::temp_dir().join(format!(
        "qsketch-ext-ckpt-{}-{}",
        label.replace([':', '.'], "-"),
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let ckpt = CheckpointConfig::new(&dir, interval);
    let registry = MetricsRegistry::new();
    let engine = EngineBuilder::keyed(SHARDS)
        .checkpoints(ckpt.clone())
        .metrics(&registry, "engine")
        .spawn(factory)
        .expect("checkpoint dir is creatable");
    let ckpt_eps = values.len() as f64 / timed_ingest(&engine, &parts, values);
    engine.finish();
    let snap = registry.snapshot();
    let checkpoints = snap.counter("engine.checkpoints").unwrap_or(0);
    let bytes = snap.histogram("engine.checkpoint_bytes");
    let mean_kb = bytes.map_or(0.0, |h| h.mean / 1024.0);
    let p99_write_us = snap
        .histogram("engine.checkpoint_ns")
        .map_or(0.0, |h| h.p99 as f64 / 1e3);

    // Crash: same engine shape, dropped part-way through the stream
    // without a final checkpoint, so only the periodic checkpoints
    // survive and real work is genuinely at stake.
    let _ = std::fs::remove_dir_all(&dir);
    let crashed = EngineBuilder::keyed(SHARDS)
        .checkpoints(ckpt.clone())
        .spawn(factory)
        .expect("checkpoint dir is creatable");
    let crash_at = (values.len() as f64 * CRASH_AT) as usize;
    parts
        .ingest(&crashed, &values[..crash_at])
        .expect("no quota configured");
    drop(crashed);

    // Recover, replay each part's tail, then compare against the
    // uninterrupted reference.
    let start = Instant::now();
    let recovery_ok = match EngineBuilder::keyed(SHARDS)
        .checkpoints(ckpt)
        .recover(factory)
    {
        Ok(engine) => {
            let replayed = parts.replay_tails(&engine, values).unwrap_or(0);
            engine.drain();
            let recovered = merged(&engine, &parts);
            engine.finish();
            // A crash that lost nothing would prove nothing.
            replayed > (values.len() - crash_at) as u64
                && recovered.is_some_and(|merged| {
                    merged.count() == reference.count()
                        && VERIFY_QS
                            .iter()
                            .all(|&q| match (merged.query(q), reference.query(q)) {
                                (Ok(a), Ok(b)) => a.to_bits() == b.to_bits(),
                                (Err(_), Err(_)) => true,
                                _ => false,
                            })
                })
        }
        Err(_) => false,
    };
    let recovery_ms = start.elapsed().as_secs_f64() * 1e3;
    let _ = std::fs::remove_dir_all(&dir);

    // Format measurements on the final merged state: its size, and
    // quantile latency over bytes vs. decode-then-query.
    let flat_bytes = reference.encode();
    let q_bytes_us = median_query_us(|| {
        AnySketch::quantile_from_bytes(&flat_bytes, 0.5).expect("view answers")
    });
    let q_decode_us = median_query_us(|| {
        AnySketch::decode(&flat_bytes)
            .expect("own bytes decode")
            .query(0.5)
            .expect("decoded sketch answers")
    });

    CheckpointPoint {
        sketch: label,
        base_eps,
        ckpt_eps,
        overhead: (1.0 - ckpt_eps / base_eps).max(0.0),
        checkpoints,
        mean_kb,
        p99_write_us,
        recovery_ok,
        recovery_ms,
        flat_kb: flat_bytes.len() as f64 / 1024.0,
        q_bytes_us,
        q_decode_us,
    }
}

/// Median latency in µs of `op` over enough repetitions to be stable at
/// CI scale (the absolute numbers are machine-dependent; the committed
/// JSON is read as a ratio between the two query paths).
fn median_query_us<T>(mut op: impl FnMut() -> T) -> f64 {
    const REPS: usize = 64;
    let mut samples = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let start = Instant::now();
        std::hint::black_box(op());
        samples.push(start.elapsed().as_secs_f64() * 1e6);
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    samples[REPS / 2]
}

/// The JSON fields, hand-rolled (no serde in the offline build).
fn json_fields(args: &Args, n: u64, interval: u64, points: &[CheckpointPoint]) -> String {
    let mut json = format!(
        "\"events_per_run\":{n},\"seed\":{seed},\"shards\":{SHARDS},\
         \"interval_values\":{interval},\"results\":[",
        seed = args.seed,
    );
    for (i, p) in points.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        json.push_str(&format!(
            "{{\"sketch\":\"{}\",\"base_eps\":{:.1},\"ckpt_eps\":{:.1},\
             \"overhead\":{:.4},\"checkpoints\":{},\"mean_kb\":{:.3},\
             \"p99_write_us\":{:.2},\"recovery_ok\":{},\"recovery_ms\":{:.2},\
             \"flat_kb\":{:.3},\
             \"q_from_bytes_us\":{:.2},\"q_decode_us\":{:.2}}}",
            p.sketch,
            p.base_eps,
            p.ckpt_eps,
            p.overhead,
            p.checkpoints,
            p.mean_kb,
            p.p99_write_us,
            p.recovery_ok,
            p.recovery_ms,
            p.flat_kb,
            p.q_bytes_us,
            p.q_decode_us,
        ));
    }
    json.push(']');
    json
}
