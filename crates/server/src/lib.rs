//! Quantile-as-a-service: a std-only TCP server fronting multi-tenant
//! keyed quantile sketches.
//!
//! This crate is the networked face of the repo's serving-side engine
//! ([`qsketch_streamsim::keyed_engine`]): any number of tenants stream
//! `(tenant, metric-key, values…)` batches in, and query quantiles,
//! discretized CDFs, or merged key-ranges back out — the "sketch
//! summaries are all you need to move" consequence of mergeability
//! (§2.4 of the paper) turned into a service.
//!
//! ```text
//!  clients ──frames──▶ Server (thread/conn) ──RequestView──▶ ServerCore
//!                                                               │
//!                              KeyedEngine: hash-route ──▶ shard workers
//!                              per-tenant quotas           {(tenant,key) → sketch}
//! ```
//!
//! * [`protocol`] — the wire format: length-prefixed frames, versioned
//!   payloads, typed errors. Spec in `PROTOCOL.md`.
//! * [`config`] — the one sketch spec (`--sketch`, for the server and
//!   every experiment), the served-family table, and the `--rollup-tiers`
//!   grammar.
//! * [`server`] — [`ServerCore`] (pure request handler) and
//!   [`Server`] (TCP accept loop).
//! * [`client`] — a blocking client, used by the `qsketch_client` CLI,
//!   the CI smoke test, and the bench load generator.
//!
//! Durability: with a checkpoint directory configured, shard registries
//! are checkpointed automatically every N values and synchronously on
//! the `Checkpoint` op and graceful shutdown; `--recover` restores them
//! bit-identically (see `OPERATIONS.md` § Durability).

pub mod client;
pub mod config;
pub mod protocol;
pub mod server;

pub use client::{Client, ClientError};
pub use config::SketchSpec;
pub use protocol::{ErrorCode, RequestView, Response, ServerStats, PROTOCOL_VERSION};
pub use server::{spawn_core, Server, ServerCore, SERVER_NAME};
