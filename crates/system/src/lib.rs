//! # eve-system
//!
//! The executable EVE runtime (paper Fig. 1): a simulated multi-site
//! information space with a materialized-view warehouse on top.
//!
//! Where `eve-qc` *predicts* maintenance costs analytically, this crate
//! *executes* them: base relations live at [`site::SimSite`]s, views are
//! evaluated by a real query processor ([`query`]), and data updates are
//! propagated by the incremental view-maintenance walk of Algorithm 1
//! ([`maintainer`]) while counting actual messages, bytes and block I/Os —
//! the measured counterpart used to validate the analytic `CF_M`/`CF_T`/
//! `CF_IO` factors.
//!
//! [`engine::EveEngine`] wires everything together: IS registration into the
//! MKB, E-SQL view definition, update notifications routed to the view
//! maintainer, and capability-change notifications routed through view
//! synchronization + QC-Model ranking to adopt the best legal rewriting
//! (completing the paper's Fig. 1 loop).
//!
//! Every evaluation path — view definition, capability-change
//! re-materialization, recomputation baselines and the maintainer's delta
//! joins — executes through the cost-ordered physical layer of
//! [`eve_relational::plan`]/[`eve_relational::exec`];
//! [`query::evaluate_view_naive`] keeps the historical left-to-right fold
//! as the reference the differential suites compare against.
//!
//! [`batch`] extends that loop to bursts: [`engine::EveEngine::apply_batch`]
//! takes a whole evolution workload and applies it in op order, visiting
//! only the views each op can affect — observationally identical to the
//! op-by-op paths, on success and on failure (the differential property
//! suite pins this).
//!
//! Every mutation has one spelling and one interpreter: the command
//! vocabulary is [`eve_store::LogRecord`], and
//! [`engine::EveEngine::apply`] is the only dispatch over it. A data
//! update is an [`EvolutionOp::Data`] carrying a [`DataUpdate`], inside
//! a batch or alone. The [`shell`] parses a line to a [`shell::Command`]
//! before anything runs — a mutating command is the record it applies —
//! [`durable::DurableEngine::apply`] interprets a record and then logs
//! it, and recovery and time travel replay logged records through the
//! same function.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod batch;
pub mod durable;
pub mod engine;
pub mod error;
pub mod maintainer;
pub mod query;
pub mod shell;
pub mod site;

pub use durable::{DurableEngine, RecoveryReport};
pub use engine::{BatchOutcome, EveEngine, EvolutionReport, IndexHint};
pub use error::{Error, Result};
pub use eve_sync::{DataUpdate, EvolutionOp};
pub use maintainer::MaintenanceTrace;
pub use shell::{Command, ReadCommand, Shell};
pub use site::SimSite;
