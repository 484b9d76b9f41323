//! # eve-sync
//!
//! View synchronization (paper §3.3): when an information source performs a
//! capability change, affected E-SQL view definitions are rewritten into
//! **legal rewritings** — replacement queries that comply with the view's
//! evolution preferences but are *not necessarily equivalent* to the original
//! view.
//!
//! The synchronizer combines three repair strategies, mirroring the SVS
//! algorithm \[LNR97b\] and the larger rewriting space of CVS \[NLR98\]:
//!
//! * **drop** — remove dispensable components (`AD`/`CD`/`RD = true`),
//! * **attribute replacement** — source a replaceable attribute (`AR = true`)
//!   from another relation found through a PC constraint, stitched into the
//!   query with a join constraint,
//! * **relation swap** — substitute a whole relation (`RR = true`) with a PC
//!   partner covering the attributes the view still needs, dropping
//!   dispensable leftovers (this is how the paper's Experiment 1 obtains
//!   `V1`/`V2` and Experiment 4 obtains `V1 … V5`).
//!
//! Every candidate is checked for *legality*: indispensable components must
//! survive, and the composed [`ExtentRelationship`] of the new extent to the
//! old one must satisfy the view's `VE` parameter.
//!
//! The output order is the discovery order of the search; the first element
//! is what the pre-QC-Model EVE prototype would have picked ("simply picked
//! the first legal view rewriting it discovered", §8) and serves as the
//! baseline selection strategy in the benchmarks.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod batch;
pub mod extent;
pub mod heuristic;
pub mod legacy;
pub mod migration;
pub mod rewriting;
pub mod search;
pub mod synchronizer;

pub use batch::{DataUpdate, EvolutionOp};
pub use extent::ExtentRelationship;
pub use heuristic::{synchronize_heuristic, HeuristicOptions};
pub use migration::equivalent_swaps;
pub use rewriting::{LegalRewriting, Provenance, RewriteAction};
pub use search::{
    synchronize_streaming, synchronize_with_policy, ExplorationPolicy, SearchGuide, SearchNode,
    SearchStats,
};
pub use synchronizer::{synchronize, PartnerCache, SyncOptions, SyncOutcome};
