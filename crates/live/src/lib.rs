//! Live observability for the TxSampler reproduction.
//!
//! The offline pipeline (collect → merge → report) answers "what happened";
//! this crate answers "what is happening". It pairs with the epoch-based
//! [`txsampler::SnapshotHub`]: collectors publish per-thread deltas at
//! configurable boundaries, the hub merges them into a versioned cumulative
//! [`txsampler::Profile`], and [`LiveServer`] exposes that snapshot over
//! plain HTTP while collection keeps running:
//!
//! - `/healthz` — liveness probe (JSON: epoch, uptime, snapshot cadence).
//! - `/metrics` — Prometheus text exposition: cycle shares per time
//!   component (cumulative and latest-window), abort counts and weight by
//!   cause, sharing diagnoses, and the profiler's own self-cost counters.
//! - `/profile.json` — the latest snapshot: epoch, sample count, time
//!   breakdown, and the full store-format text (with function names) as an
//!   embedded string, so `repro flamegraph` can consume a saved copy.
//! - `/flamegraph` — the snapshot's CCT as collapsed stacks (folded
//!   format), cycle-weighted, `_[tx]` marking speculative frames.
//! - `/trend`, `/diff?from=N&to=M` — the hub's retained per-epoch trend
//!   rows as TSV, and a totals-level diff between two retained epochs.
//! - `/delta?since=N` — the epoch-delta export: only the activity after
//!   epoch N (plus any func names first referenced since), serialized as a
//!   `txsampler-delta` chunk. The [`agg`] module follows N such servers by
//!   polling it and serves one merged pane (`repro agg --follow a,b`).
//!
//! Both panes are route tables over one private `http` module, which owns
//! the wire policy. Everything is std-only — `std::net::TcpListener`, no
//! external HTTP or serialization dependencies — to stay offline-buildable.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agg;
mod http;
pub mod prometheus;
pub mod server;

pub use agg::{AggServer, Aggregator};
pub use http::http_get;
pub use server::LiveServer;
