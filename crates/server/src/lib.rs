//! # trios-server — compilation as a service
//!
//! A long-lived daemon that exposes the `trios-core` compiler over TCP,
//! so interactive callers (notebooks, sweep drivers, CI probes) pay the
//! process-startup and cache-warmup cost once instead of per invocation.
//!
//! # Wire protocol
//!
//! Line-delimited JSON: each request is one line
//!
//! ```json
//! {"id": 1, "method": "compile", "params": {"benchmark": "tof_4", "device": "line:12", "router": "trios"}}
//! ```
//!
//! and each response is one line, matched by `id`:
//!
//! ```json
//! {"id": 1, "ok": true, "result": {...}}
//! {"id": 2, "ok": false, "error": {"kind": "busy", "message": "..."}}
//! ```
//!
//! Methods: `compile`, `compile-batch`, `estimate`, `sweep` (queued work),
//! plus `ping`, `stats`, and `shutdown` (answered inline, so liveness and
//! metrics stay responsive under load). Requests pick their benchmark or
//! inline OpenQASM, device spec (`line:20`, `grid:5x4`, ...), router,
//! decomposer and seed per call; `gen:<family>[:<seed>]` references draw
//! from the seeded circuit generator. Those values are resolved by
//! [`trios_core::request`], as the CLI's flags are, and a key a method
//! does not read is a `bad-request`.
//!
//! # Architecture
//!
//! Connections are read by per-connection threads; work is admitted into
//! a bounded queue drained by a fixed worker pool sharing one
//! [`ShardedCache`](trios_core::ShardedCache) and one bounded device
//! table, which builds each device spec once. A full queue answers a
//! structured `busy` error (backpressure, never unbounded buffering), a
//! configurable timeout turns runaway requests into `timeout` errors, and
//! shutdown drains: every admitted request is answered before
//! [`Server::join`] returns. `stats` reports request counters, queue
//! depth/high-water, per-shard cache hit rates, and p50/p90/p99 latency
//! from a constant-memory histogram.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod client;
mod devices;
mod histogram;
mod protocol;
mod server;

pub use client::Client;
pub use histogram::{LatencyHistogram, LatencySnapshot};
pub use protocol::{ErrorKind, ProtocolError};
pub use server::{Server, ServerConfig, ServerSnapshot};
