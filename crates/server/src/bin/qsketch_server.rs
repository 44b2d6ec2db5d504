//! The qsketch server binary. See `OPERATIONS.md` for the runbook.
//!
//! ```text
//! qsketch_server --addr 127.0.0.1:7071 --shards 4 --sketch kll:200 \
//!                --ckpt-dir /var/lib/qsketch --ckpt-interval 1048576 --recover \
//!                --quota free-tier=10000 --default-quota 1000000
//! ```
//!
//! Prints `listening on <addr>` once ready (scripts wait for that
//! line), serves until a client sends the `Shutdown` op, then drains,
//! writes a final checkpoint (when durability is on), and exits 0.

use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

use qsketch_core::codec::SketchSerialize;
use qsketch_core::flatwire::SketchView;
use qsketch_core::sketch::{MergeableSketch, SketchFactory};
use qsketch_server::config::{parse_rollup_tiers, Serve, SketchSpec, DEFAULT_SKETCH, SKETCH_HELP};
use qsketch_server::server::{spawn_core, Server};
use qsketch_streamsim::checkpoint::CheckpointConfig;
use qsketch_streamsim::keyed_engine::{KeyedEngineConfig, RollupOptions, TenantQuota};
use qsketch_streamsim::rollup::TierSpec;

fn usage() -> String {
    format!(
        "\
qsketch_server — multi-tenant quantile sketch server

USAGE:
    qsketch_server [OPTIONS]

OPTIONS:
    --addr ADDR            listen address (default 127.0.0.1:7071; port 0 = ephemeral)
    --shards N             shard worker count (default 4)
    --queue-capacity N     per-shard queue capacity in batches (default 256)
{SKETCH_HELP}    --ckpt-dir DIR         enable durability: checkpoint registries into DIR
    --ckpt-interval N      values per shard between automatic checkpoints (default 1048576)
    --recover              restore state from DIR's checkpoints at start
    --quota TENANT=RATE    per-tenant ingest quota, events/s (repeatable)
    --default-quota RATE   quota for tenants without an explicit one
    --rollup-window N      enable rollups: values per window per (tenant, key)
    --rollup-tiers SPEC    tier ladder width:keep[,width:keep…] in windows
                           (default 1:16,4:16,16:16)
    --rollup-dir DIR       spill rollup tiers to per-key subdirectories of DIR
    --help                 print this help
"
    )
}

/// The parsed command line: the engine config plus what only the binary
/// uses.
struct Options {
    addr: String,
    sketch: SketchSpec,
    recover: bool,
    engine: KeyedEngineConfig,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        addr: "127.0.0.1:7071".into(),
        sketch: DEFAULT_SKETCH,
        recover: false,
        engine: KeyedEngineConfig::new(4),
    };
    // Flags that combine into one engine setting may come in any order,
    // so they are collected first and assembled after the loop.
    let mut ckpt_dir: Option<PathBuf> = None;
    let mut ckpt_interval: u64 = 1 << 20;
    let mut rollup_window: Option<u64> = None;
    let mut rollup_tiers: Option<Vec<TierSpec>> = None;
    let mut rollup_dir: Option<PathBuf> = None;
    let mut it = args.iter();
    let next_value = |flag: &str, it: &mut std::slice::Iter<'_, String>| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => opts.addr = next_value("--addr", &mut it)?,
            "--shards" => {
                opts.engine.shards = next_value("--shards", &mut it)?
                    .parse::<usize>()
                    .ok()
                    .filter(|n| *n >= 1)
                    .ok_or("--shards needs a positive integer")?;
            }
            "--queue-capacity" => {
                opts.engine.queue_capacity = next_value("--queue-capacity", &mut it)?
                    .parse::<usize>()
                    .ok()
                    .filter(|n| *n >= 1)
                    .ok_or("--queue-capacity needs a positive integer")?;
            }
            "--sketch" => {
                opts.sketch = next_value("--sketch", &mut it)?
                    .parse::<SketchSpec>()
                    .map_err(|e| e.to_string())?;
            }
            "--ckpt-dir" => {
                ckpt_dir = Some(next_value("--ckpt-dir", &mut it)?.into());
            }
            "--ckpt-interval" => {
                ckpt_interval = next_value("--ckpt-interval", &mut it)?
                    .parse::<u64>()
                    .ok()
                    .filter(|n| *n >= 1)
                    .ok_or("--ckpt-interval needs a positive integer")?;
            }
            "--recover" => opts.recover = true,
            "--quota" => {
                let spec = next_value("--quota", &mut it)?;
                let (tenant, rate) = spec
                    .split_once('=')
                    .ok_or_else(|| format!("--quota expects TENANT=RATE, got {spec:?}"))?;
                let rate: f64 = rate
                    .parse::<f64>()
                    .ok()
                    .filter(|r| r.is_finite() && *r > 0.0)
                    .ok_or_else(|| format!("bad quota rate in {spec:?}"))?;
                opts.engine.quotas.retain(|(t, _)| t != tenant);
                opts.engine
                    .quotas
                    .push((tenant.to_string(), TenantQuota::per_sec(rate)));
            }
            "--default-quota" => {
                let rate = next_value("--default-quota", &mut it)?;
                opts.engine.default_quota = Some(TenantQuota::per_sec(
                    rate.parse::<f64>()
                        .ok()
                        .filter(|r| r.is_finite() && *r > 0.0)
                        .ok_or_else(|| format!("bad default quota {rate:?}"))?,
                ));
            }
            "--rollup-window" => {
                rollup_window = Some(
                    next_value("--rollup-window", &mut it)?
                        .parse::<u64>()
                        .ok()
                        .filter(|n| *n >= 1)
                        .ok_or("--rollup-window needs a positive integer")?,
                );
            }
            "--rollup-tiers" => {
                rollup_tiers = Some(parse_rollup_tiers(&next_value("--rollup-tiers", &mut it)?)?);
            }
            "--rollup-dir" => {
                rollup_dir = Some(next_value("--rollup-dir", &mut it)?.into());
            }
            other => return Err(format!("unknown option {other:?}\n\n{}", usage())),
        }
    }
    if opts.recover && ckpt_dir.is_none() {
        return Err("--recover needs --ckpt-dir".into());
    }
    opts.engine.checkpoint = ckpt_dir.map(|dir| CheckpointConfig::new(dir, ckpt_interval));
    match rollup_window {
        Some(window) => {
            let tiers = rollup_tiers.unwrap_or_else(|| {
                parse_rollup_tiers("1:16,4:16,16:16").expect("the default ladder parses")
            });
            let mut rollup = RollupOptions::new(window, tiers);
            if let Some(dir) = rollup_dir {
                rollup = rollup.with_spill_root(dir);
            }
            opts.engine.rollup = Some(rollup);
        }
        None if rollup_tiers.is_some() || rollup_dir.is_some() => {
            return Err("--rollup-tiers/--rollup-dir need --rollup-window".into());
        }
        None => {}
    }
    Ok(opts)
}

/// The server's run, served with the factory of its `--sketch` family.
struct Run(Options);

impl Serve for Run {
    type Output = Result<(), String>;

    fn serve<S, F>(self, factory: F) -> Self::Output
    where
        S: MergeableSketch + SketchSerialize + SketchView + Clone + Send + Sync + 'static,
        F: SketchFactory<Sketch = S> + Clone + Send + 'static,
    {
        let Run(opts) = self;
        let shards = opts.engine.shards;
        let durable = opts.engine.checkpoint.is_some();
        let core = Arc::new(
            spawn_core(opts.engine, factory, opts.recover)
                .map_err(|e| format!("engine startup failed: {e}"))?,
        );
        let server = Server::start(&opts.addr, Arc::clone(&core))
            .map_err(|e| format!("bind {} failed: {e}", opts.addr))?;
        // Stdout writes ignore errors: a closed stdout (EPIPE) must not turn
        // a clean shutdown into a panic.
        let _ = writeln!(
            std::io::stdout(),
            "listening on {} ({}, {} shards{})",
            server.local_addr(),
            opts.sketch,
            shards,
            match (durable, opts.recover) {
                (true, true) => ", durable, recovered",
                (true, false) => ", durable",
                (false, _) => "",
            }
        );
        std::io::stdout().flush().ok();
        while !server.shutdown_requested() {
            std::thread::sleep(std::time::Duration::from_millis(100));
        }
        server.join();
        core.final_checkpoint()
            .map_err(|e| format!("final checkpoint failed: {e}"))?;
        let _ = writeln!(std::io::stdout(), "shutdown complete");
        Ok(())
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{}", usage());
        return ExitCode::SUCCESS;
    }
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let sketch = opts.sketch;
    match sketch
        .serve(Run(opts))
        .map_err(|e| e.to_string())
        .and_then(|r| r)
    {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &str) -> Result<Options, String> {
        let args: Vec<String> = args.split_whitespace().map(String::from).collect();
        parse_args(&args)
    }

    #[test]
    fn flags_land_in_the_engine_config() {
        let args = "--shards 3 --default-quota 100 --quota noisy=5 --quota noisy=10 \
                    --ckpt-interval 500 --ckpt-dir ckpt";
        let opts = parse(args).unwrap();
        assert_eq!(opts.engine.shards, 3);
        assert_eq!(opts.engine.default_quota.unwrap().events_per_sec, 100.0);
        // A repeated --quota replaces the tenant's earlier entry.
        assert_eq!(opts.engine.quotas.len(), 1);
        assert_eq!(opts.engine.quotas[0].1.events_per_sec, 10.0);
        let ckpt = opts.engine.checkpoint.unwrap();
        assert_eq!(ckpt.interval_values, 500);
        assert!(opts.engine.rollup.is_none());
        assert!(parse("--recover").is_err());
    }

    #[test]
    fn rollup_flags_build_rollup_options() {
        let opts = parse("--rollup-dir spill --rollup-tiers 1:8,4:8 --rollup-window 1000").unwrap();
        let rollup = opts.engine.rollup.expect("rollup options plumbed through");
        assert_eq!(rollup.window_values, 1_000);
        assert_eq!(rollup.tiers.len(), 2);
        assert_eq!(rollup.tiers[1].width, 4);
        assert!(rollup.spill_root.is_some());
        // Without an explicit ladder, rollups take the default 1/4/16.
        let rollup = parse("--rollup-window 500").unwrap().engine.rollup;
        assert_eq!(rollup.unwrap().tiers.len(), 3);
        assert!(parse("--rollup-dir spill").is_err());
    }

    #[test]
    fn sketch_flag_is_validated_before_anything_starts() {
        assert_eq!(parse("").unwrap().sketch, DEFAULT_SKETCH);
        let err = parse("--sketch dds:1.5").err().expect("dds:1.5 parsed");
        assert!(err.contains("bad sketch spec"), "{err}");
    }
}
