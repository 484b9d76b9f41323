//! `eve-trace` — the warehouse's unified observability layer.
//!
//! Two halves, both zero-dependency and std-only:
//!
//! * [`metrics`] — a named registry of atomic [`Counter`]s, [`Gauge`]s and
//!   fixed-bucket log₂ latency [`Histogram`]s. Snapshots are deterministic
//!   (name-ordered), mergeable across registries, and render either as
//!   human-readable text or Prometheus exposition format. Every subsystem
//!   (store, executor, rewrite search, server) publishes into the
//!   process-wide [`global`] registry; per-engine and per-server counters
//!   live in instance registries and merge into one surface at query time.
//! * [`span`] — a lightweight structured tracing collector: RAII span
//!   guards with ids, parent links and monotonic microsecond timestamps,
//!   recorded into a bounded ring buffer and dumpable as
//!   `chrome://tracing` JSON. Tracing is off by default; the disabled
//!   path is a single relaxed atomic load per instrumentation site.
//!
//! The split mirrors how the two are consumed: metrics are *always on*
//! (cheap monotone counters the shell `stats`/`metrics` commands and the
//! server's `Metrics` request read at any time), spans are *opt-in*
//! (enabled around a workload to capture its execution structure).

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod metrics;
pub mod span;

pub use metrics::{
    bucket_of, global, Counter, Gauge, Histogram, HistogramSnapshot, MetricsSnapshot, Registry,
    HISTOGRAM_BUCKETS,
};
pub use span::{
    chrome_json, clear as clear_spans, instant, set_capacity, set_enabled, snapshot_events, span,
    spans_enabled, SpanGuard, TraceEvent,
};
