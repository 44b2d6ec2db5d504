//! Smoke tests running every experiment in `experiments::ALL` end-to-end
//! at `--tiny` scale: each must execute, produce its table, render its
//! JSON document (if it has one) with the common header, and pass its
//! content checks. No timing gate is asserted: debug builds cannot meet
//! one.

use qsketch_bench::cli::{Args, Scale};
use qsketch_bench::experiments as e;

fn tiny() -> Args {
    Args {
        scale: Scale::Tiny,
        runs: Some(1),
        ..Args::default()
    }
}

fn assert_mentions_sketches(out: &str, name: &str) {
    for label in ["REQ", "KLL", "UDDS", "DDS", "Moments"] {
        assert!(out.contains(label), "{name}: output missing {label}\n{out}");
    }
}

/// The content each experiment's table (and JSON document, for the
/// experiments that write one) must carry; every experiment has an arm.
fn check(name: &str, out: &str, json: Option<&str>) {
    let needs_json = || json.unwrap_or_else(|| panic!("{name}: no JSON document"));
    let has_keys = |keys: &[&str]| {
        for key in keys {
            assert!(needs_json().contains(key), "{name}: JSON missing {key}");
        }
    };
    match name {
        "fig4_datasets" => {
            assert!(out.contains("Fig. 4"));
            for ds in ["Pareto", "Uniform", "NYT", "Power"] {
                assert!(out.contains(ds), "fig4 missing {ds}");
            }
            assert!(out.contains('#'), "histogram bars missing");
        }
        "table3_memory" => {
            assert!(out.contains("Table 3"));
            assert_mentions_sketches(out, name);
            assert!(out.contains("Pareto") && out.contains("Power"));
        }
        "fig5a_insertion" => {
            assert!(out.contains("Fig. 5a"));
            assert_mentions_sketches(out, name);
            assert!(out.contains("ns") || out.contains("µs"));
        }
        "fig5b_query" => {
            assert!(out.contains("Fig. 5b"));
            assert_mentions_sketches(out, name);
        }
        "fig5c_merge" => {
            assert!(out.contains("Fig. 5c"));
            assert_mentions_sketches(out, name);
        }
        "fig6_accuracy" => {
            assert!(out.contains("Fig. 6"));
            assert_mentions_sketches(out, name);
            for ds in ["Pareto", "Uniform", "NYT", "Power"] {
                assert!(out.contains(ds), "fig6 missing {ds}");
            }
            assert!(out.contains('%'));
        }
        "fig7_kurtosis" => {
            assert!(out.contains("Fig. 7"));
            assert!(out.contains("kurtosis"));
            assert_mentions_sketches(out, name);
        }
        "fig8_adaptability" => {
            assert!(out.contains("Fig. 8"));
            assert_mentions_sketches(out, name);
            assert!(out.contains("0.5"));
        }
        "sec46_late_data" => {
            assert!(out.contains("4.6"));
            assert_mentions_sketches(out, name);
            assert!(out.contains("loss"));
        }
        "sec47_window_size" => {
            assert!(out.contains("4.7"));
            assert_mentions_sketches(out, name);
            assert!(out.contains("5 s") && out.contains("20 s"));
        }
        "table4_summary" => {
            assert!(out.contains("Table 4"));
            assert!(out.contains("Sketching approach"));
            assert!(out.contains("Sampling") && out.contains("Summary"));
        }
        "ext_watermark_lag" => {
            assert!(out.contains("watermark lag"));
            assert!(out.contains("loss"));
            assert_mentions_sketches(out, name);
        }
        "ext_parallel_scaling" => {
            assert!(out.contains("parallel insert scaling"));
            assert_mentions_sketches(out, name);
            assert!(out.contains("speedup") && out.contains("p99 ins (ns)"));
            let json = needs_json();
            assert!(json.contains("\"threads\":[1,2]"));
            assert!(json.contains("\"sketch\":\"KLL\",\"threads\":2"));
            assert!(json.contains("\"merged_count\":20000"));
        }
        "ext_checkpoint" => {
            assert!(out.contains("checkpoint overhead"));
            // The table is keyed by canonical spec strings, not display labels.
            for spec in ["req:", "kll:", "udds:", "dds:", "moments:"] {
                assert!(out.contains(spec), "ext_checkpoint missing {spec}\n{out}");
            }
            assert!(out.contains("recovery"));
            // Every sketch's fault-injected recovery must verify bit-identical.
            assert!(!out.contains("FAIL"), "{out}");
            let json = needs_json();
            assert!(json.contains("\"recovery_ok\":true"));
            assert!(!json.contains("\"recovery_ok\":false"));
        }
        "metrics_overhead" => {
            assert!(out.contains("insert overhead"));
            assert_mentions_sketches(out, name);
            assert!(out.contains("ns/insert"));
        }
        "ext_insert_throughput" => has_keys(&["scalar_mvps", "batch_mvps", "speedup"]),
        "ext_concurrent_ingest" => has_keys(&["caveat", "ring_ns_per_value", "two_meps"]),
        "ext_server_load" => has_keys(&["events_per_sec", "allocs_per_frame", "quiet_ack_us"]),
        "ext_rollup_cascade" => has_keys(&["tier_widths", "alpha_deepest", "UDDS-fused"]),
        "ext_space_accuracy" => assert!(out.contains("space/accuracy frontier")),
        other => panic!("{other}: no content check"),
    }
}

#[test]
fn every_experiment_runs_at_tiny_scale() {
    for (name, run) in e::ALL {
        let mut args = tiny();
        if name == "ext_parallel_scaling" {
            args.threads = Some(vec![1, 2]);
        }
        let report = run(&args);
        assert!(!report.table.trim().is_empty(), "{name}: empty table");
        let json = e::document(name, &args, &report);
        if let Some(doc) = &json {
            let head = format!("{{\"experiment\":\"{name}\",\"scale\":\"tiny\"");
            assert!(doc.starts_with(&head), "{name}: {doc}");
            assert!(doc.contains(",\"machine\":{\"nproc\":"), "{name}: {doc}");
        }
        check(name, &report.table, json.as_deref());
    }
}

/// `ALL` is the one list of experiments: it names every module
/// `experiments/mod.rs` declares, once each.
#[test]
fn all_lists_every_experiment_module() {
    let mut modules: Vec<&str> = include_str!("../crates/bench/src/experiments/mod.rs")
        .lines()
        .filter_map(|l| l.strip_prefix("pub mod ")?.strip_suffix(';'))
        .collect();
    let mut listed: Vec<&str> = e::ALL.iter().map(|(name, _)| *name).collect();
    modules.sort_unstable();
    listed.sort_unstable();
    assert_eq!(modules, listed);
}

#[test]
fn ext_checkpoint_sketch_override_runs_only_that_sketch() {
    let mut args = tiny();
    args.sketch = Some("kll:200".parse().unwrap());
    let out = e::ext_checkpoint::run(&args).table;
    assert!(out.contains("kll:200") && !out.contains("dds:"));
}

/// An explicit `--sketch` is built as written: KLL's memory follows `k`.
#[test]
fn table3_memory_builds_the_sketch_spec_as_written() {
    let pareto_row = |spec: &str| {
        let mut args = tiny();
        args.sketch = Some(spec.parse().unwrap());
        let out = e::table3_memory::run(&args).table;
        // The first Pareto row is the measured one; the paper's follows.
        out.lines().find(|l| l.starts_with("Pareto")).unwrap().to_string()
    };
    assert_ne!(pareto_row("kll:8"), pareto_row("kll:800"));
}

#[test]
fn ext_parallel_scaling_metrics_expose_engine_health() {
    let mut args = tiny();
    args.threads = Some(vec![2]);
    args.metrics = true;
    let out = e::ext_parallel_scaling::run(&args).table;
    assert!(out.contains("Metrics snapshot"));
    assert!(out.contains("engine.kll.t2.partition.0.events"));
    assert!(out.contains("engine.kll.t2.shard.0.queue_depth"));
    assert!(out.contains("engine.kll.t2.backpressure_wait_ns"));
    assert!(out.contains("engine.kll.t2.epochs_published"));
}

#[test]
fn metrics_flag_appends_snapshot() {
    let mut args = tiny();
    args.metrics = true;
    let out = e::ext_watermark_lag::run(&args).table;
    assert!(out.contains("Metrics snapshot"));
    assert!(out.contains("pipeline.late_dropped"));
    assert!(out.contains("sketch.KLL.inserts"));
}

#[test]
fn baselines_flag_extends_columns() {
    let mut args = tiny();
    args.with_baselines = true;
    let out = e::table3_memory::run(&args).table;
    assert!(out.contains("GK") && out.contains("t-digest"));
}
