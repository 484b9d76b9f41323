//! # eve-misd
//!
//! MISD — the *Model for Information Source Description* (paper §3.2) — and
//! the **Meta Knowledge Base (MKB)** built on it.
//!
//! Autonomous information sources register their relations (`IS.R(A_1…A_n)`,
//! Eq. 3) together with semantic constraints relating them to other sources:
//!
//! * **type integrity constraints** `A_i(Type_i)` — carried by
//!   [`source::AttributeInfo`],
//! * **join constraints** `JC_{R1,R2} = (C_1 AND … AND C_l)` (Eq. 4) —
//!   meaningful ways to join two relations ([`constraints::JoinConstraint`]),
//! * **partial/complete (PC) constraints**
//!   `π(σ(R1)) ⊑ π(σ(R2))`, `⊑ ∈ {⊆, ≡, ⊇}` (Eq. 5) — fragment containment
//!   between sources ([`constraints::PcConstraint`]).
//!
//! The MKB ([`mkb::Mkb`]) indexes this metadata plus the database statistics
//! of §6.1 (cardinalities, tuple sizes, selectivities, join selectivities,
//! blocking factors). It answers the queries view synchronization and the
//! QC-Model need: PC-constraint lookups by relation (where the synchronizer
//! finds replacement candidates), join-path lookup and overlap-size
//! estimation (the twelve Fig. 9/10 cases, in [`overlap`]).
//!
//! Capability changes (§3.3) go through [`evolver`]: `Mkb::check_change`
//! decides whether a change may be applied at all, and `Mkb::apply_change`
//! applies it, keeping the constraint store consistent as relations and
//! attributes disappear, appear or get renamed.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod constraints;
pub mod error;
pub mod evolver;
pub mod mkb;
pub mod overlap;
pub mod source;
pub mod state;

pub use constraints::{JoinConstraint, PcConstraint, PcRelationship, PcSide};
pub use error::{Error, Result};
pub use evolver::SchemaChange;
pub use mkb::Mkb;
pub use overlap::OverlapEstimate;
pub use source::{AttributeInfo, RelationInfo, SiteId};
pub use state::MkbState;
