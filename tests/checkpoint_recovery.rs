//! End-to-end checkpoint/recovery through the facade crate: one stream
//! spread over the engine's shards checkpointing to disk, a crash
//! mid-stream, and a recovery + tail replay that lands bit-identical to
//! an uninterrupted run — the §2.4 fault-tolerance story (Flink's
//! checkpoint barrier) on top of the sketch wire formats.

use qsketch_bench::parts::Parts;
use qsketch_core::sketch::SketchFactory;
use quantile_sketches::streamsim::keyed_engine::{KeyedEngine, KeyedEngineError};
use quantile_sketches::{
    CheckpointConfig, DataSet, DdSketch, EngineBuilder, KllSketch, MergeableSketch, QuantileSketch,
    SketchSerialize, UddSketch, ValueStream,
};

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("qsketch-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The engine factory must be identical across runs and keys: same
/// parameters, same seed.
fn factory() -> KllSketch {
    KllSketch::with_seed(200, 0xFACADE)
}

fn paper_stream(n: usize) -> Vec<f64> {
    let mut gen = DataSet::Pareto.generator(11, 50);
    (0..n).map(|_| gen.next_value()).collect()
}

#[test]
fn crash_after_periodic_checkpoints_then_replay_is_bit_identical() {
    let n = 40_000;
    let input = paper_stream(n);
    let parts = Parts::new("stream", 4);

    // Uninterrupted reference run.
    let reference = EngineBuilder::keyed(4).spawn(factory).unwrap();
    parts.ingest(&reference, &input).unwrap();
    reference.drain();
    let want = parts.query(&reference).merged().unwrap().unwrap();
    reference.finish();
    assert_eq!(want.count(), n as u64);

    // Checkpointing run that dies after 70% of the stream: only its
    // periodic checkpoints survive.
    let dir = temp_dir("crash-recover");
    let ckpt = CheckpointConfig::new(&dir, 2_000);
    let crashed = EngineBuilder::keyed(4)
        .checkpoints(ckpt.clone())
        .spawn(factory)
        .unwrap();
    parts.ingest(&crashed, &input[..n * 7 / 10]).unwrap();
    drop(crashed);

    // Recover from the surviving checkpoints and replay each part's
    // tail past the count it recovered with.
    let recovered = EngineBuilder::keyed(4)
        .checkpoints(ckpt)
        .recover(factory)
        .unwrap();
    let replayed = parts.replay_tails(&recovered, &input).unwrap();
    assert!(replayed > (n - n * 7 / 10) as u64, "the crash lost nothing");
    recovered.drain();
    let got = parts.query(&recovered).merged().unwrap().unwrap();
    recovered.finish();

    assert_eq!(got.count(), want.count());
    for q in [0.01, 0.1, 0.5, 0.9, 0.99, 1.0] {
        assert_eq!(
            got.query(q).unwrap().to_bits(),
            want.query(q).unwrap().to_bits(),
            "q={q}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn recover_then_checkpoint_rewrites_identical_files() {
    // A recovered engine publishes the payloads it read, so a checkpoint
    // with no ingest in between writes the same bytes back: recover →
    // checkpoint is a fixed point, periodic files included.
    let input = paper_stream(30_000);
    let dir = temp_dir("fixed-point");
    let ckpt = CheckpointConfig::new(&dir, 1_500);
    let parts = Parts::new("stream", 4);
    let crashed = EngineBuilder::keyed(4)
        .checkpoints(ckpt.clone())
        .spawn(factory)
        .unwrap();
    // Side keys give every shard several entries, so the file's entry
    // order is tested too, not just its payloads.
    for (i, &x) in input[..3_200].iter().enumerate() {
        crashed.ingest("side", &format!("k{}", i % 32), &[x]).unwrap();
    }
    parts.ingest(&crashed, &input).unwrap();
    drop(crashed);
    let read_files = || -> Vec<Vec<u8>> {
        (0..4)
            .map(|i| std::fs::read(ckpt.registry_path(i)).expect("registry file written"))
            .collect()
    };
    let before = read_files();

    let recovered = EngineBuilder::keyed(4)
        .checkpoints(ckpt.clone())
        .recover(factory)
        .unwrap();
    recovered.checkpoint_now().unwrap();
    let after = read_files();
    for (i, (a, b)) in before.iter().zip(&after).enumerate() {
        assert!(
            a == b,
            "registry-{i}.ckpt changed across recover → checkpoint"
        );
    }

    // The same holds after a requested checkpoint of live state.
    parts.replay_tails(&recovered, &input).unwrap();
    recovered.checkpoint_now().unwrap();
    let live = read_files();
    recovered.finish();
    let again = EngineBuilder::keyed(4)
        .checkpoints(ckpt.clone())
        .recover(factory)
        .unwrap();
    again.checkpoint_now().unwrap();
    again.finish();
    assert_eq!(read_files(), live);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn recovery_refuses_a_resharded_topology() {
    let dir = temp_dir("reshard");
    let ckpt = CheckpointConfig::new(&dir, 500);
    let engine = EngineBuilder::keyed(2)
        .checkpoints(ckpt.clone())
        .spawn(factory)
        .unwrap();
    Parts::new("stream", 2)
        .ingest(&engine, &paper_stream(5_000))
        .unwrap();
    engine.drain();
    engine.finish();

    let err = EngineBuilder::keyed(4)
        .checkpoints(ckpt)
        .recover(factory)
        .err()
        .expect("resharded recovery must be refused");
    assert!(
        matches!(err, KeyedEngineError::TopologyMismatch(_)),
        "{err:?}"
    );
    assert!(err.to_string().contains("shards"), "{err}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn type_erased_bench_sketches_survive_the_envelope() {
    // The bench harness's AnySketch writes its inner sketch's payload and
    // decodes by its magic, so experiment state is checkpointable too.
    use qsketch_bench::{AnySketch, SketchSpec};
    use quantile_sketches::SketchSerialize;

    for spec in ["kll:350", "req:30", "dds:0.02", "udds:0.01:1024", "moments:12:compressed"] {
        let spec: SketchSpec = spec.parse().unwrap();
        let mut sketch = AnySketch::build(spec, 99);
        let mut gen = DataSet::Nyt.generator(5, 50);
        for _ in 0..10_000 {
            sketch.insert(gen.next_value());
        }
        let restored = AnySketch::decode(&sketch.encode()).unwrap();
        assert_eq!(restored.count(), sketch.count());
        assert_eq!(restored.spec(), sketch.spec());
        for q in [0.25, 0.5, 0.99] {
            assert_eq!(
                restored.query(q).unwrap().to_bits(),
                sketch.query(q).unwrap().to_bits(),
                "{spec} q={q}"
            );
        }
    }
}

/// Ingest 24 000 NYT values (some negative) into 12 keys of tenant `t`
/// in 300-value batches, then drain.
fn fill_keys<S>(engine: &KeyedEngine<S>, seed: u64)
where
    S: MergeableSketch + SketchSerialize + Clone + Send + 'static,
{
    let mut gen = DataSet::Nyt.generator(seed, 50);
    let values: Vec<f64> = (0..24_000).map(|_| gen.next_value() - 10.0).collect();
    for (i, batch) in values.chunks(300).enumerate() {
        engine.ingest("t", &format!("k{:02}", i % 12), batch).unwrap();
    }
    engine.drain();
}

/// Every published part of tenant `t` holds exactly its bytes: no part
/// kept for an epoch carries an encoder's growth slack.
fn assert_parts_exact<S>(engine: &KeyedEngine<S>, when: &str)
where
    S: MergeableSketch + SketchSerialize + Clone + Send + 'static,
{
    let handle = engine.query_prefix("t", "");
    assert_eq!(handle.parts().len(), 12, "{when}");
    for part in handle.parts() {
        assert_eq!(
            part.bytes.capacity(),
            part.bytes.len(),
            "{when}: a published part keeps slack"
        );
    }
}

fn check_published_parts_are_exact<S, F>(tag: &str, factory: F)
where
    S: MergeableSketch + SketchSerialize + Clone + Send + 'static,
    F: SketchFactory<Sketch = S> + Clone + Send + 'static,
{
    let dir = temp_dir(tag);
    let ckpt = CheckpointConfig::new(&dir, u64::MAX);
    let engine = EngineBuilder::keyed(2)
        .checkpoints(ckpt.clone())
        .spawn(factory.clone())
        .unwrap();
    fill_keys(&engine, 1);
    assert_parts_exact(&engine, &format!("{tag} after ingest"));
    engine.checkpoint_now().unwrap();
    engine.finish();

    let recovered = EngineBuilder::keyed(2)
        .checkpoints(ckpt)
        .recover(factory)
        .unwrap();
    assert_parts_exact(&recovered, &format!("{tag} as recovered"));
    fill_keys(&recovered, 2);
    assert_parts_exact(&recovered, &format!("{tag} after recovery and ingest"));
    recovered.finish();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn published_parts_are_exact_size_before_and_after_recovery() {
    check_published_parts_are_exact("exact-kll", factory);
    check_published_parts_are_exact("exact-dds", || DdSketch::unbounded(0.01));
    check_published_parts_are_exact("exact-udds", || UddSketch::new(0.01, 1024));
}
