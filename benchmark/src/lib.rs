//! End-to-end + per-layer benchmark of the EVE warehouse server (see
//! `README.md` for the workloads, the metrics and how to run it).

pub mod ladder;
pub mod metrics;
pub mod ops;
pub mod rng;
pub mod round;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workloads;
