//! Workload models M1–M4 (§6.6): how many base updates a view faces per
//! time unit, and therefore how per-update costs aggregate (§6.1: "the
//! cost for multiple updates can then be computed by summing over all
//! individual costs").

use crate::cost::maintenance_cost;
use crate::params::QcParams;
use crate::plan::MaintenancePlan;

/// The four workload models of §6.6.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WorkloadModel {
    /// One update: rank by the single-update cost averaged over origins
    /// (the paper's Experiments 2–4 setting, and equivalent to M4 by §7.5).
    SingleUpdate,
    /// M1 — updates proportional to relation size: `per_tuple · |R|` updates
    /// at each relation `R` per time unit (Experiment 5 uses 1 per 100
    /// tuples).
    TuplesProportional {
        /// Updates per tuple (`p`).
        per_tuple: f64,
    },
    /// M2 — a constant number of updates per relation.
    PerRelation {
        /// Updates per relation (`u`).
        updates: f64,
    },
    /// M3 — a constant number of updates per information source.
    PerSite {
        /// Updates per site (`u`).
        updates: f64,
    },
    /// M4 — a fixed total number of updates per rewriting, spread uniformly
    /// over the referenced relations.
    Fixed {
        /// Total updates (`u`).
        updates: f64,
    },
}

impl WorkloadModel {
    /// Number of updates this model assigns to the *origin relation* of a
    /// plan within one time unit.
    #[must_use]
    pub fn updates_at_origin(&self, plan: &MaintenancePlan, total_relations: usize) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        match self {
            WorkloadModel::SingleUpdate => 1.0 / total_relations.max(1) as f64,
            WorkloadModel::TuplesProportional { per_tuple } => per_tuple * plan.origin.cardinality,
            WorkloadModel::PerRelation { updates } => *updates,
            WorkloadModel::PerSite { updates } => {
                // u updates per site, split among the site's relations (the
                // origin site hosts 1 + n_1 of them).
                let site_relations = 1 + plan.sites.first().map_or(0, |s| s.relations.len());
                updates / site_relations as f64
            }
            WorkloadModel::Fixed { updates } => updates / total_relations.max(1) as f64,
        }
    }
}

/// Total maintenance cost of a view over one time unit: every relation of
/// the view takes its model-assigned number of updates, each charged at that
/// origin's plan cost (§6.6).
///
/// `plans` must contain one `(origin, plan)` entry per view relation, as
/// produced by [`crate::plan::plans_for_view`].
#[must_use]
pub fn total_cost(
    plans: &[(String, MaintenancePlan)],
    model: WorkloadModel,
    params: &QcParams,
) -> f64 {
    let n = plans.len();
    plans
        .iter()
        .map(|(_, plan)| model.updates_at_origin(plan, n) * maintenance_cost(plan, params))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{RelSpec, SiteSpec};
    use eve_misd::SiteId;

    fn two_site_plans() -> Vec<(String, MaintenancePlan)> {
        // R (|R| = 400) at site 1; S (|S| = 2000) at site 2.
        let r = RelSpec::table1("R");
        let s = RelSpec {
            cardinality: 2000.0,
            ..RelSpec::table1("S")
        };
        let plan_r = MaintenancePlan {
            origin: r.clone(),
            sites: vec![
                SiteSpec {
                    site: SiteId(1),
                    relations: vec![],
                },
                SiteSpec {
                    site: SiteId(2),
                    relations: vec![s.clone()],
                },
            ],
        };
        let plan_s = MaintenancePlan {
            origin: s,
            sites: vec![
                SiteSpec {
                    site: SiteId(2),
                    relations: vec![],
                },
                SiteSpec {
                    site: SiteId(1),
                    relations: vec![r],
                },
            ],
        };
        vec![("R".into(), plan_r), ("S".into(), plan_s)]
    }

    #[test]
    fn m1_scales_with_cardinality() {
        let plans = two_site_plans();
        let model = WorkloadModel::TuplesProportional { per_tuple: 0.01 };
        assert_eq!(model.updates_at_origin(&plans[0].1, 2), 4.0);
        assert_eq!(model.updates_at_origin(&plans[1].1, 2), 20.0);
    }

    #[test]
    fn m2_constant_per_relation() {
        let plans = two_site_plans();
        let model = WorkloadModel::PerRelation { updates: 10.0 };
        for (_, p) in &plans {
            assert_eq!(model.updates_at_origin(p, 2), 10.0);
        }
        // Total = 10·cost(R-plan) + 10·cost(S-plan).
        let params = QcParams::default();
        let want = 10.0 * maintenance_cost(&plans[0].1, &params)
            + 10.0 * maintenance_cost(&plans[1].1, &params);
        assert!((total_cost(&plans, model, &params) - want).abs() < 1e-9);
    }

    #[test]
    fn m3_splits_updates_within_a_site() {
        // Two relations at one site: each origin takes u/2.
        let r = RelSpec::table1("R");
        let q = RelSpec::table1("Q");
        let plan = MaintenancePlan {
            origin: r,
            sites: vec![SiteSpec {
                site: SiteId(1),
                relations: vec![q],
            }],
        };
        let model = WorkloadModel::PerSite { updates: 10.0 };
        assert_eq!(model.updates_at_origin(&plan, 2), 5.0);
    }

    #[test]
    fn m4_fixed_total_is_origin_independent() {
        let plans = two_site_plans();
        let model = WorkloadModel::Fixed { updates: 8.0 };
        let per_origin: f64 = plans
            .iter()
            .map(|(_, p)| model.updates_at_origin(p, plans.len()))
            .sum();
        assert!((per_origin - 8.0).abs() < 1e-12);
    }

    #[test]
    fn m1_preserves_ranking_of_proportional_costs() {
        // §7.5: M1 scales costs proportionally to relation size, so the
        // *normalized* costs — and hence the ranking — do not change for
        // rewritings whose plans differ only in one relation's cardinality.
        let params = QcParams::default();
        let build = |card: f64| {
            let mut plan = MaintenancePlan::uniform(&[1, 1], 0.005).unwrap();
            plan.sites[1].relations[0].cardinality = card;
            vec![("R1".to_owned(), plan)]
        };
        let single: Vec<f64> = [2000.0, 4000.0, 6000.0]
            .iter()
            .map(|&c| total_cost(&build(c), WorkloadModel::SingleUpdate, &params))
            .collect();
        let m1: Vec<f64> = [2000.0, 4000.0, 6000.0]
            .iter()
            .map(|&c| {
                total_cost(
                    &build(c),
                    WorkloadModel::TuplesProportional { per_tuple: 0.01 },
                    &params,
                )
            })
            .collect();
        // Same ordering.
        assert!(single[0] < single[1] && single[1] < single[2]);
        assert!(m1[0] < m1[1] && m1[1] < m1[2]);
    }
}
