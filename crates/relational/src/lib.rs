//! # eve-relational
//!
//! In-memory relational engine substrate for the EVE (Evolvable View
//! Environment) reproduction of *"Data Warehouse Evolution: Trade-offs between
//! Quality and Cost of Query Rewritings"* (Lee, Koeller, Nica, Rundensteiner;
//! ICDE 1999).
//!
//! The paper's QC-Model compares *non-equivalent* view rewritings by the
//! information they preserve and the maintenance cost they incur. Both sides
//! need a concrete relational model underneath:
//!
//! * typed [`Value`]s, [`Schema`]s and [`Relation`]s ([`types`], [`schema`],
//!   [`relation`]),
//! * the paper's *primitive clauses* `attr θ attr` / `attr θ value` with
//!   `θ ∈ {<, ≤, =, ≥, >}` ([`predicate`]),
//! * the relational algebra used by view queries and the view-maintenance
//!   algorithm ([`algebra`]),
//! * a cost-ordered physical query layer: statistics-driven planning with
//!   pushed-down selections and greedy join reordering ([`plan`]) and a
//!   zero-copy executor over the `Arc`-shared tuple storage ([`exec`]),
//! * the extent sizes behind Fig. 7's common-subset-of-attributes
//!   comparison (`∩~` on the shared attributes), used to measure the
//!   divergence of views with different interfaces ([`common`]),
//! * relation statistics mirroring the database statistics the paper
//!   assumes are registered in the MKB ([`stats`]).
//!
//! Everything is deterministic: iteration orders are defined.

pub mod algebra;
pub mod column;
pub mod common;
pub mod error;
pub mod exec;
pub mod index;
pub mod intern;
pub mod morsel;
pub mod plan;
pub mod predicate;
pub mod relation;
pub mod schema;
pub mod stats;
pub mod tuple;
pub mod types;

pub use column::{Column, ColumnarBatch};
pub use error::{Error, Result};
pub use exec::ExecMode;
pub use index::{IndexKind, IndexStats};
pub use intern::Symbol;
pub use morsel::ExecOptions;
pub use plan::{PhysicalPlan, PlanEstimate, QueryInput, QuerySpec};
pub use predicate::{CompOp, Operand, Predicate, PrimitiveClause};
pub use relation::{ExtentHandle, Relation};
pub use schema::{ColumnDef, ColumnRef, Schema};
pub use stats::RelationStats;
pub use tuple::Tuple;
pub use types::{DataType, Value};
