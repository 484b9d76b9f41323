//! # eve-qc — the QC-Model
//!
//! The paper's primary contribution: an analytic **efficiency model** that
//! ranks the *non-equivalent* legal rewritings produced by view
//! synchronization along two dimensions:
//!
//! * **Quality** (§5) — the *degree of divergence* `DD(V_i)` of a rewriting
//!   from the original view, combining
//!   * interface divergence `DD_attr` over the weighted attribute categories
//!     C1–C4 ([`quality::interface`], Eq. 12 and §5.4.1), and
//!   * extent divergence `DD_ext` from lost (`D1`) and surplus (`D2`) tuples
//!     on the common attributes ([`quality::extent`], Eq. 13–17), with
//!     overlap sizes either *measured* on materialized extents or *estimated*
//!     from PC constraints (§5.4.3);
//! * **Cost** (§6) — the long-term incremental view-maintenance cost of the
//!   rewriting per base-data update: messages `CF_M` ([`cost::messages`]),
//!   bytes transferred `CF_T` (Eq. 21, [`cost::transfer`]) and source I/O
//!   `CF_IO` (Appendix A, [`cost::io`]), combined with unit prices (Eq. 24)
//!   and aggregated under one of the workload models M1–M4 ([`workload`]).
//!
//! Costs are normalized across the rewriting set (Eq. 25) and folded with
//! quality into the efficiency score (Eq. 26):
//!
//! ```text
//! QC(V_i) = 1 − (ρ_quality · DD(V_i) + ρ_cost · COST*(V_i))
//! ```
//!
//! [`rank::rank_rewritings`] scores and orders a rewriting set;
//! [`rank::SelectionStrategy`] implements QC-best selection plus the
//! baselines (first-found — the pre-QC EVE prototype behaviour — and the
//! quality-only / cost-only corners).

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod bound;
pub mod cost;
pub mod error;
pub mod params;
pub mod plan;
pub mod quality;
pub mod rank;
pub mod search;
pub mod workload;

pub use bound::{exact_score, partial_bound, CostBound, PartialScore, ScoreModel};
pub use cost::{maintenance_cost, CostFactors};
pub use error::{Error, Result};
pub use params::{IoBound, QcParams};
pub use plan::{plan_for_origin, plans_for_view, MaintenancePlan, RelSpec, SiteSpec};
pub use quality::{degree_of_divergence, DivergenceReport, ExtentSizes};
pub use rank::{pareto_front, rank_rewritings, ScoredRewriting, SelectionStrategy};
pub use search::{synchronize_qc_best_first, QcGuide};
pub use workload::WorkloadModel;
