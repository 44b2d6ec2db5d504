//! Checkpoint probe: the offline form of `qsketch_server --recover`.
//! It recovers an engine from a server checkpoint directory exactly as
//! the server does at startup, answers one `(tenant, key)` query through
//! the same calls the server's `Query` op makes, and exits — without
//! binding a socket and without writing anything under the directory.
//!
//! ```text
//! ckpt_probe [--sketch SPEC] DIR SHARDS TENANT KEY Q [Q …]
//! ```
//!
//! Prints the same `q=… value=… bits=…` / `count=…` lines as
//! `qsketch_client query`, so a script can diff the two outputs
//! byte-for-byte: "what would the server answer if I recovered right
//! now?" Exits non-zero if DIR does not exist, if recovery fails, or if
//! the key is missing.

use std::path::Path;
use std::process::ExitCode;

use qsketch_core::codec::SketchSerialize;
use qsketch_core::flatwire::SketchView;
use qsketch_core::sketch::{MergeableSketch, SketchFactory};
use qsketch_server::config::{Serve, SketchSpec, DEFAULT_SKETCH, SKETCH_HELP};
use qsketch_streamsim::checkpoint::CheckpointConfig;
use qsketch_streamsim::EngineBuilder;

fn usage() -> String {
    format!(
        "\
ckpt_probe — answer a query from a server checkpoint directory, as --recover would

USAGE:
    ckpt_probe [--sketch SPEC] DIR SHARDS TENANT KEY Q [Q ...]

{SKETCH_HELP}                           SPEC must match the server that wrote the checkpoints
"
    )
}

/// One recovered query, served with the factory the server minted with;
/// the probe never ingests, so the factory only fixes the sketch type
/// that decodes payloads.
struct Probe<'a> {
    dir: &'a str,
    shards: usize,
    tenant: &'a str,
    key: &'a str,
    qs: &'a [f64],
}

impl Serve for Probe<'_> {
    type Output = Result<(), String>;

    fn serve<S, F>(self, factory: F) -> Self::Output
    where
        S: MergeableSketch + SketchSerialize + SketchView + Clone + Send + Sync + 'static,
        F: SketchFactory<Sketch = S> + Clone + Send + 'static,
    {
        let Probe {
            dir, tenant, key, ..
        } = self;
        // Recovery would create a missing directory; a probe must not.
        if !Path::new(dir).is_dir() {
            return Err(format!("checkpoint directory {dir} does not exist"));
        }
        // An interval no probe reaches: nothing is ingested, so no worker
        // ever writes a checkpoint.
        let engine = EngineBuilder::keyed(self.shards)
            .checkpoints(CheckpointConfig::new(dir, u64::MAX))
            .recover(factory)
            .map_err(|e| format!("recovering checkpoint set in {dir}: {e}"))?;
        let snap = engine
            .query(tenant, key)
            .map_err(|e| format!("query for ({tenant}, {key}): {e}"))?;
        let values = snap
            .quantiles(self.qs)
            .map_err(|e| format!("quantiles for ({tenant}, {key}): {e}"))?;
        let count = snap
            .count()
            .map_err(|e| format!("count for ({tenant}, {key}): {e}"))?;
        for (q, v) in self.qs.iter().zip(values) {
            println!("q={q} value={v} bits={:#018x}", v.to_bits());
        }
        println!("count={count}");
        engine.finish();
        Ok(())
    }
}

fn main_inner(args: &[String]) -> Result<(), String> {
    let mut spec = DEFAULT_SKETCH;
    let mut rest: Vec<&String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--sketch" => {
                let v = it.next().ok_or("--sketch needs a value")?;
                spec = v.parse::<SketchSpec>().map_err(|e| e.to_string())?;
            }
            "--help" | "-h" => {
                print!("{}", usage());
                return Ok(());
            }
            _ => rest.push(arg),
        }
    }
    if rest.len() < 5 {
        return Err(usage());
    }
    let shards: usize = rest[1]
        .parse()
        .ok()
        .filter(|s| *s > 0)
        .ok_or_else(|| format!("bad shard count {:?}", rest[1]))?;
    let qs: Vec<f64> = rest[4..]
        .iter()
        .map(|s| {
            s.parse::<f64>()
                .ok()
                .filter(|q| (0.0..=1.0).contains(q))
                .ok_or_else(|| format!("bad quantile {s:?}"))
        })
        .collect::<Result<_, _>>()?;
    let probe = Probe {
        dir: rest[0],
        shards,
        tenant: rest[2],
        key: rest[3],
        qs: &qs,
    };
    spec.serve(probe).map_err(|e| e.to_string()).and_then(|r| r)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match main_inner(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}
