//! # eve-bench
//!
//! The experiment harness: one module per experiment of the paper's §7,
//! regenerating every table and figure:
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`experiments::exp1_survival`] | Experiment 1, Fig. 12 (view survival) |
//! | [`experiments::exp2_sites`] | Experiment 2, Tables 1–2, Fig. 13 |
//! | [`experiments::exp3_distribution`] | Experiment 3, Fig. 14 |
//! | [`experiments::exp4_cardinality`] | Experiment 4, Tables 3–4, Fig. 15 |
//! | [`experiments::exp5_workload`] | Experiment 5, Tables 5–6, Fig. 16 |
//! | [`experiments::heuristics`] | §7.6 heuristics checks |
//! | [`experiments::validation`] | measured-vs-analytic cross-validation (extension) |
//! | [`experiments::strategy_regret`] | QC-best vs the pre-QC selection strategies (extension) |
//! | [`fixtures`] | deterministic workload builders the workspace's test suites share |
//! | [`generator`] | seeded relations realizing containment (PC) and join-selectivity assumptions |
//! | [`scenario`] | information spaces whose measured statistics equal the declared ones |
//!
//! The `repro` binary prints them all. Nothing in this crate reads a
//! clock: every speed statement comes from `benchmark/`.

pub mod experiments;
pub mod fixtures;
pub mod generator;
pub mod report;
pub mod scenario;
pub mod table;
