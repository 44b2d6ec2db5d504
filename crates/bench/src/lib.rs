//! Experiment harness regenerating every table and figure of the paper.
//!
//! Each table/figure, and each extension experiment, is one module of
//! [`experiments`] exposing `run(&Args) -> Report`, listed once in
//! [`experiments::ALL`]; its binary is one call to [`experiments::main`],
//! the one runner and report writer (see DESIGN.md's experiment index).
//! This library also provides what the experiments share:
//!
//! * [`registry`] — a uniform handle ([`registry::AnySketch`]) over the
//!   five evaluated sketches (plus the §5.2 baselines), built from a
//!   [`SketchSpec`] — the server's one sketch configuration, whose
//!   `--sketch kll:350` grammar every experiment binary reads — or at the
//!   paper's §4.2 parameters,
//! * [`parts`] — one stream spread over every shard of the engine (one
//!   part key per shard, chunks fed round-robin, merged on query),
//! * [`table`] — plain-text table rendering for experiment output,
//! * [`cli`] — the `--quick` / `--full` scale switch shared by all
//!   binaries (quick keeps laptop runtimes; full uses the paper's stream
//!   sizes),
//! * [`timing`] — monotonic timing helpers for the speed experiments
//!   (§4.4), which the paper runs single-threaded and standalone.

pub mod cli;
pub mod experiments;
pub mod parts;
pub mod registry;
pub mod table;
pub mod timing;

pub use qsketch_server::config::{ParseSpecError, SketchSpec};
pub use registry::{AnySketch, SketchKind};
