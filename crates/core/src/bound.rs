//! Admissible partial-rewriting bounds for the branch-and-bound search.
//!
//! The streaming rewrite enumerator (`eve_sync::search`) expands a tree of
//! *partial rewritings* — repairs applied to a prefix of the affected
//! bindings. For best-first search to emit rewritings in exact QC-badness
//! order, every open node needs a score **no completion of the node can
//! beat**. This module computes such bounds from the QC-Model's own
//! factors:
//!
//! * **Divergence** ([`PartialScore::dd_lower`]) — the degree of divergence
//!   of the prefix itself, computed by [`degree_of_divergence`] over the
//!   repairs applied so far. Every further repair only loses interface
//!   attributes (`DD_attr` counts surviving C1/C2 attributes, and repairs
//!   never resurrect one) and only multiplies the extent factors by
//!   per-action ratios with `overlap ≤ min(original, rewriting)` (the
//!   selection-free PC estimates used along chains), so `D1` and `D2` are
//!   non-decreasing along any completion: the prefix divergence is a lower
//!   bound.
//! * **Cost** ([`PartialScore::cost_lower`]) — by default the trivial
//!   (always admissible) floor of zero ([`CostBound::Ignore`]);
//!   [`CostBound::ReducedView`] instead prices the view restricted to the
//!   already-repaired FROM items through [`plans_for_view`] and the
//!   workload model, scaled by the fixed-to-maximum relation-count ratio.
//!   The reduced estimate reuses `cost::{io,transfer,messages}` wholesale
//!   and prunes far more, but is only admissible when joining another
//!   relation never shrinks downstream deltas (`js·|R| ≥ 1`, the paper's
//!   Table 1 regime) — pick it deliberately.
//!
//! [`ScoreModel`] folds a `(DD, cost)` pair into the scalar *badness*
//! `ρ_quality·DD + ρ_cost·COST*` that [`rank_rewritings`] minimizes
//! (`QC = 1 − badness`, Eq. 26), with the Eq. 25 normalization made
//! explicit so a search can be handed the exact normalization of a
//! candidate set — or a scale-free estimate when the set is unknown.
//!
//! [`rank_rewritings`]: crate::rank::rank_rewritings

use eve_esql::ViewDef;
use eve_misd::Mkb;
use eve_sync::{ExtentRelationship, LegalRewriting, Provenance, RewriteAction};

use crate::error::Result;
use crate::params::QcParams;
use crate::plan::plans_for_view;
use crate::quality::degree_of_divergence;
use crate::workload::{total_cost, WorkloadModel};

/// Scalarization of the QC trade-off with an explicit cost normalization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoreModel {
    /// Quality weight `ρ_quality` (Eq. 26).
    pub rho_quality: f64,
    /// Cost weight `ρ_cost` (Eq. 26).
    pub rho_cost: f64,
    /// The `min_j COST(V_j)` of the normalization (Eq. 25).
    pub cost_floor: f64,
    /// The `max_j − min_j` spread of the normalization; a non-positive
    /// spread degenerates to the all-zero normalization, exactly like
    /// [`normalize_costs`](crate::rank::normalize_costs).
    pub cost_scale: f64,
}

impl ScoreModel {
    /// The model with the *exact* normalization of a candidate cost set —
    /// badness then orders candidates exactly as [`rank_rewritings`]'s QC
    /// score does (`QC = 1 − badness`).
    ///
    /// [`rank_rewritings`]: crate::rank::rank_rewritings
    #[must_use]
    pub fn from_costs(params: &QcParams, costs: &[f64]) -> ScoreModel {
        let min = costs.iter().copied().fold(f64::INFINITY, f64::min);
        let max = costs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let (floor, scale) = if min.is_finite() && max.is_finite() {
            (min, max - min)
        } else {
            (0.0, 0.0)
        };
        ScoreModel {
            rho_quality: params.rho_quality,
            rho_cost: params.rho_cost,
            cost_floor: floor,
            cost_scale: scale,
        }
    }

    /// A scale estimate for searches that cannot know the candidate set up
    /// front: costs are normalized against `scale` from zero. Any positive
    /// scale preserves the badness *minimum* whenever one candidate
    /// minimizes both dimensions; it only re-weights genuine trade-offs.
    #[must_use]
    pub(crate) fn with_scale(params: &QcParams, scale: f64) -> ScoreModel {
        ScoreModel {
            rho_quality: params.rho_quality,
            rho_cost: params.rho_cost,
            cost_floor: 0.0,
            cost_scale: scale.max(0.0),
        }
    }

    /// Badness `ρ_quality·DD + ρ_cost·COST*` — the quantity QC-best
    /// selection minimizes. The normalized cost is floored at zero so
    /// admissible cost lower bounds below `cost_floor` stay admissible.
    #[must_use]
    pub fn badness(&self, dd: f64, cost: f64) -> f64 {
        let normalized = if self.cost_scale > f64::EPSILON {
            ((cost - self.cost_floor) / self.cost_scale).max(0.0)
        } else {
            0.0
        };
        self.rho_quality * dd + self.rho_cost * normalized
    }
}

/// How [`partial_bound`] bounds the maintenance cost of completions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CostBound {
    /// The trivial floor: zero. Always admissible; pruning is then driven
    /// entirely by the divergence bound (and the exact scores of complete
    /// nodes).
    #[default]
    Ignore,
    /// Price the already-repaired FROM items as a reduced view and scale by
    /// the fixed-to-maximum relation-count ratio. Sharper, but admissible
    /// only under the no-shrinking-join regime (`js·|R| ≥ 1` for every
    /// partner, as with the paper's Table 1 statistics).
    ReducedView,
}

/// Lower bounds on what any completion of a partial rewriting can achieve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartialScore {
    /// Lower bound on the completed degree of divergence.
    pub dd_lower: f64,
    /// Lower bound on the completed maintenance cost (per the chosen
    /// [`CostBound`]).
    pub cost_lower: f64,
}

/// Bounds the `(DD, cost)` outcome of every completion of a partial
/// rewriting: `partial_view` carries the repairs of `actions` applied so
/// far; `pending` names the affected bindings still unrepaired.
///
/// # Errors
///
/// Parameter validation or MKB lookups (a repair action referencing a
/// relation unknown to the pre-change MKB).
#[allow(clippy::too_many_arguments)] // mirrors the components of a SearchNode
pub fn partial_bound(
    original: &ViewDef,
    partial_view: &ViewDef,
    actions: &[RewriteAction],
    pending: &[String],
    mkb: &Mkb,
    params: &QcParams,
    workload: WorkloadModel,
    cost_bound: CostBound,
) -> Result<PartialScore> {
    let prefix = LegalRewriting {
        view: partial_view.clone(),
        provenance: Provenance {
            actions: actions.to_vec(),
        },
        // The extent tag is not consulted by the divergence estimator.
        extent: ExtentRelationship::Equal,
    };
    let dd_lower = degree_of_divergence(original, &prefix, mkb, params)?.dd;

    let cost_lower = match cost_bound {
        CostBound::Ignore => 0.0,
        CostBound::ReducedView => {
            let mut reduced = partial_view.clone();
            reduced
                .from
                .retain(|f| !pending.iter().any(|p| p == f.binding_name()));
            if reduced.from.is_empty() {
                0.0
            } else {
                let plans = plans_for_view(&reduced, mkb)?;
                let cost = total_cost(&plans, workload, params);
                #[allow(clippy::cast_precision_loss)]
                let kept = reduced.from.len() as f64;
                #[allow(clippy::cast_precision_loss)]
                let ceiling = kept + pending.len() as f64;
                // A completion averages over at least `kept` and at most…
                // well, possibly more relations; the ratio compensates for
                // workload models that average per origin.
                cost * kept / ceiling.max(1.0)
            }
        }
    };

    Ok(PartialScore {
        dd_lower,
        cost_lower,
    })
}

/// The exact `(DD, cost)` of a *complete* rewriting — the quantities
/// [`rank_rewritings`](crate::rank::rank_rewritings) scores.
///
/// # Errors
///
/// Parameter validation, MKB lookups, or plan derivation failures.
pub fn exact_score(
    original: &ViewDef,
    rewriting: &LegalRewriting,
    mkb: &Mkb,
    params: &QcParams,
    workload: WorkloadModel,
) -> Result<(f64, f64)> {
    let dd = degree_of_divergence(original, rewriting, mkb, params)?.dd;
    let plans = plans_for_view(&rewriting.view, mkb)?;
    let cost = total_cost(&plans, workload, params);
    Ok((dd, cost))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rank::{normalize_costs, rank_rewritings, SelectionStrategy};
    use eve_misd::{
        AttributeInfo, PcConstraint, PcRelationship, PcSide, RelationInfo, SchemaChange, SiteId,
    };
    use eve_relational::DataType;
    use eve_sync::{synchronize, SyncOptions};

    fn attr(name: &str) -> AttributeInfo {
        AttributeInfo::new(name, DataType::Int)
    }

    /// R(A,B) with three replicas: one equivalent, one subset, one superset.
    fn space() -> (Mkb, ViewDef) {
        let mut m = Mkb::new();
        for i in 1..=4u32 {
            m.register_site(SiteId(i), format!("IS{i}")).unwrap();
        }
        m.register_relation(RelationInfo::new(
            "R",
            SiteId(1),
            vec![attr("A"), attr("B")],
            4000,
        ))
        .unwrap();
        for (i, (name, rel, card)) in [
            ("Same", PcRelationship::Equivalent, 4000u64),
            ("Small", PcRelationship::Superset, 2000),
            ("Big", PcRelationship::Subset, 8000),
        ]
        .iter()
        .enumerate()
        {
            m.register_relation(RelationInfo::new(
                *name,
                SiteId(u32::try_from(i).unwrap() + 2),
                vec![attr("A"), attr("B")],
                *card,
            ))
            .unwrap();
            m.add_pc_constraint(PcConstraint::new(
                PcSide::projection("R", &["A", "B"]),
                *rel,
                PcSide::projection(*name, &["A", "B"]),
            ))
            .unwrap();
        }
        let view = eve_esql::parse_view(
            "CREATE VIEW V (VE = '~') AS \
             SELECT X.A AS XA (AR = true), Y.B AS YB (AR = true) \
             FROM R X (RR = true), R Y (RR = true) \
             WHERE X.A = Y.A",
        )
        .unwrap();
        (m, view)
    }

    #[test]
    fn score_model_matches_rank_ordering_exactly() {
        let (mkb, view) = space();
        let change = SchemaChange::DeleteRelation {
            relation: "R".into(),
        };
        let outcome = synchronize(&view, &change, &mkb, &SyncOptions::default()).unwrap();
        assert!(outcome.rewritings.len() > 2);
        let params = QcParams::default();
        let scored = rank_rewritings(
            &view,
            &outcome.rewritings,
            &mkb,
            &params,
            WorkloadModel::SingleUpdate,
        )
        .unwrap();
        let costs: Vec<f64> = {
            // rank sorts; recover costs in discovery order by index.
            let mut by_index: Vec<(usize, f64)> =
                scored.iter().map(|s| (s.index, s.cost)).collect();
            by_index.sort_by_key(|(i, _)| *i);
            by_index.into_iter().map(|(_, c)| c).collect()
        };
        let model = ScoreModel::from_costs(&params, &costs);
        let norm = normalize_costs(&costs);
        for s in &scored {
            let badness = model.badness(s.divergence.dd, s.cost);
            let qc = 1.0 - badness;
            assert!(
                (qc - s.qc).abs() < 1e-12,
                "badness must mirror QC: {qc} vs {}",
                s.qc
            );
            assert!((model.badness(0.0, s.cost) / params.rho_cost - norm[s.index]).abs() < 1e-9);
        }
        // The badness minimum is the QC-best pick.
        let best = SelectionStrategy::QcBest.select(&scored).unwrap();
        let min_badness = scored
            .iter()
            .map(|s| model.badness(s.divergence.dd, s.cost))
            .fold(f64::INFINITY, f64::min);
        assert!((model.badness(best.divergence.dd, best.cost) - min_badness).abs() < 1e-12);
    }

    #[test]
    fn prefix_divergence_bounds_every_completion() {
        let (mkb, view) = space();
        let change = SchemaChange::DeleteRelation {
            relation: "R".into(),
        };
        let outcome = synchronize(&view, &change, &mkb, &SyncOptions::default()).unwrap();
        let params = QcParams::default();
        // Every prefix of every completed rewriting's action list bounds
        // the completed divergence from below.
        for rw in &outcome.rewritings {
            let (full_dd, _) =
                exact_score(&view, rw, &mkb, &params, WorkloadModel::SingleUpdate).unwrap();
            for cut in 0..rw.provenance.actions.len() {
                let prefix_actions = &rw.provenance.actions[..cut];
                // The partial view at this cut is not reconstructible here;
                // what the bound consumes is the action list (extent
                // factors) plus the view interface, which only shrinks —
                // use the completed view for the interface (a completion of
                // itself) and the cut action list for the extent factors.
                let bound = partial_bound(
                    &view,
                    &rw.view,
                    prefix_actions,
                    &[],
                    &mkb,
                    &params,
                    WorkloadModel::SingleUpdate,
                    CostBound::Ignore,
                )
                .unwrap();
                assert!(
                    bound.dd_lower <= full_dd + 1e-9,
                    "prefix dd {} exceeds completed dd {full_dd}",
                    bound.dd_lower
                );
            }
        }
    }

    #[test]
    fn reduced_view_cost_bound_is_below_exact_cost_on_swap_completions() {
        let (mkb, view) = space();
        let change = SchemaChange::DeleteRelation {
            relation: "R".into(),
        };
        let outcome = synchronize(&view, &change, &mkb, &SyncOptions::default()).unwrap();
        let params = QcParams::default();
        for rw in &outcome.rewritings {
            let (_, exact_cost) =
                exact_score(&view, rw, &mkb, &params, WorkloadModel::SingleUpdate).unwrap();
            // Bound a hypothetical node that has committed to this view but
            // still lists a pending binding: the reduced cost must stay
            // below the exact completion cost.
            let pending = vec!["Ghost".to_owned()];
            let bound = partial_bound(
                &view,
                &rw.view,
                &rw.provenance.actions,
                &pending,
                &mkb,
                &params,
                WorkloadModel::SingleUpdate,
                CostBound::ReducedView,
            )
            .unwrap();
            assert!(
                bound.cost_lower <= exact_cost + 1e-9,
                "reduced {} vs exact {exact_cost}",
                bound.cost_lower
            );
        }
    }

    #[test]
    fn ignore_bound_is_zero_and_degenerate_scale_drops_cost() {
        let params = QcParams::default();
        let model = ScoreModel::with_scale(&params, 0.0);
        assert_eq!(model.badness(0.5, 1e9), params.rho_quality * 0.5);
        let flat = ScoreModel::from_costs(&params, &[7.0, 7.0, 7.0]);
        assert_eq!(flat.badness(0.0, 7.0), 0.0);
        let empty = ScoreModel::from_costs(&params, &[]);
        assert_eq!(empty.badness(0.25, 123.0), params.rho_quality * 0.25);
    }
}
