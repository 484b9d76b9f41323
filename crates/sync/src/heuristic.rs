//! Heuristic view synchronization — the paper's §8 future-work direction,
//! implemented as a *policy* of the streaming search driver.
//!
//! The exhaustive synchronizer generates *every* legal rewriting and leaves
//! ranking to the QC-Model; §8 sketches "a novel heuristic view
//! synchronization algorithm that, instead of first generating all rewriting
//! solutions and then ranking them, would be able to discard some of the
//! search space early on". This module realizes that sketch using the §7.6
//! heuristics as the pruning order:
//!
//! * **H-sites** — prefer replacement relations that keep the rewriting on
//!   few information sources (ideally sites already referenced by the view),
//! * **H-size** — prefer replacements whose cardinality is closest to the
//!   replaced relation's (Experiment 4's winner under quality-dominant
//!   trade-offs),
//! * **H-small** — among otherwise equal candidates, prefer smaller
//!   relations (cheaper under every workload model).
//!
//! Historically this was a parallel code path duplicating the candidate
//! plumbing; it is now a private `HeuristicGuide` plugged into
//! [`ExplorationPolicy::Beam`]: PC partners are *sorted by the preference
//! before any rewriting is built*, and generation stops once the beam holds
//! `max_candidates` repaired candidates per binding level — the tail of the
//! candidate space is never materialized. The search is evaluated against
//! the exhaustive synchronizer in `eve-bench`
//! (`experiments::strategy_regret`): on Experiment 4 the quality-best
//! rewriting is the *first* candidate emitted.

use std::collections::BTreeSet;

use eve_esql::ViewDef;
use eve_misd::{Mkb, SchemaChange, SiteId};

use crate::rewriting::RewriteAction;
use crate::search::{synchronize_with_policy, ExplorationPolicy, SearchGuide, SearchNode};
use crate::synchronizer::{
    synchronize, PartnerCache, PcPartner, SyncError, SyncOptions, SyncOutcome,
};

/// Options for the pruned search.
#[derive(Debug, Clone)]
pub struct HeuristicOptions {
    /// Stop once this many legal rewritings have been produced. Must be at
    /// least 1 ([`HeuristicOptions::validated`]).
    pub max_candidates: usize,
    /// Weight of the site-count heuristic relative to the size heuristic
    /// (both normalized; 0.5 balances them). §7.3 argues sites dominate.
    /// Values outside `[0, 1]` are clamped; non-finite values are rejected.
    pub site_weight: f64,
}

impl Default for HeuristicOptions {
    fn default() -> Self {
        HeuristicOptions {
            max_candidates: 3,
            site_weight: 0.7,
        }
    }
}

impl HeuristicOptions {
    /// Validates the options: `max_candidates == 0` would silently emit
    /// nothing and is rejected; `site_weight` must be a finite number and is
    /// clamped into `[0, 1]`.
    ///
    /// # Errors
    ///
    /// [`SyncError::Options`] on an empty candidate budget or a non-finite
    /// site weight.
    pub fn validated(&self) -> Result<HeuristicOptions, SyncError> {
        if self.max_candidates == 0 {
            return Err(SyncError::Options(
                "max_candidates must be at least 1 (0 would emit no rewriting)".into(),
            ));
        }
        if !self.site_weight.is_finite() {
            return Err(SyncError::Options(format!(
                "site_weight must be a finite number in [0, 1], got {}",
                self.site_weight
            )));
        }
        Ok(HeuristicOptions {
            max_candidates: self.max_candidates,
            site_weight: self.site_weight.clamp(0.0, 1.0),
        })
    }
}

/// Sites already referenced by a view (excluding one binding).
fn view_sites(view: &ViewDef, mkb: &Mkb, excluded_binding: &str) -> BTreeSet<SiteId> {
    view.from
        .iter()
        .filter(|f| f.binding_name() != excluded_binding)
        .filter_map(|f| mkb.relation(&f.relation).ok().map(|r| r.site))
        .collect()
}

/// Heuristic preference score of a swap partner — lower is better.
fn partner_score(
    partner: &PcPartner,
    old_card: f64,
    existing_sites: &BTreeSet<SiteId>,
    mkb: &Mkb,
    options: &HeuristicOptions,
) -> f64 {
    let Ok(info) = mkb.relation(&partner.relation) else {
        return f64::INFINITY;
    };
    // H-sites: 0 when the partner lives at a site the view already visits.
    let new_site = f64::from(!existing_sites.contains(&info.site));
    // H-size: relative cardinality distance to the replaced relation.
    #[allow(clippy::cast_precision_loss)]
    let card = info.cardinality as f64;
    let size_distance = if old_card > 0.0 {
        ((card - old_card).abs() / old_card).min(1.0)
    } else {
        0.0
    };
    // H-small tie-break: a hair of preference for smaller relations.
    let small_bias = card * 1e-12;
    options.site_weight * new_site + (1.0 - options.site_weight) * size_distance + small_bias
}

/// The §7.6 heuristics as a [`SearchGuide`]: partner ordering drives the
/// beam's swap generation, and the node score — the same preference summed
/// over the repairs a partial rewriting has committed to — ranks the
/// mixed-kind candidates of attribute repairs before the beam truncates.
/// The score is a *preference*, not an admissible QC bound — pair the
/// guide with [`ExplorationPolicy::Beam`], not `BestFirst`, when exactness
/// matters.
struct HeuristicGuide {
    /// Validated heuristic options.
    options: HeuristicOptions,
}

impl SearchGuide for HeuristicGuide {
    fn score(&self, original: &ViewDef, node: &SearchNode, mkb: &Mkb) -> f64 {
        // Sites the original view already visits.
        let existing = view_sites(original, mkb, "");
        let mut score = 0.0;
        for action in &node.actions {
            let (old_relation, new_relation) = match action {
                RewriteAction::SwappedRelation {
                    old_relation,
                    new_relation,
                    ..
                } => (Some(old_relation.as_str()), new_relation.as_str()),
                RewriteAction::AddedJoinRelation { relation, .. } => (None, relation.as_str()),
                _ => continue,
            };
            let Ok(info) = mkb.relation(new_relation) else {
                score += 1.0;
                continue;
            };
            if !existing.contains(&info.site) {
                score += self.options.site_weight;
            }
            #[allow(clippy::cast_precision_loss)]
            let card = info.cardinality as f64;
            #[allow(clippy::cast_precision_loss)]
            let old_card = old_relation
                .and_then(|r| mkb.relation(r).ok())
                .map_or(0.0, |r| r.cardinality as f64);
            if old_card > 0.0 {
                score += (1.0 - self.options.site_weight)
                    * ((card - old_card).abs() / old_card).min(1.0);
            }
        }
        score
    }

    fn orders_partners(&self) -> bool {
        true
    }

    fn order_partners(&self, view: &ViewDef, binding: &str, mkb: &Mkb, partners: &mut [PcPartner]) {
        #[allow(clippy::cast_precision_loss)]
        let old_card = view
            .from_item(binding)
            .and_then(|f| mkb.relation(&f.relation).ok())
            .map_or(0.0, |r| r.cardinality as f64);
        let existing = view_sites(view, mkb, binding);
        partners.sort_by(|a, b| {
            let sa = partner_score(a, old_card, &existing, mkb, &self.options);
            let sb = partner_score(b, old_card, &existing, mkb, &self.options);
            sa.partial_cmp(&sb).unwrap_or(std::cmp::Ordering::Equal)
        });
    }
}

/// Synchronizes with heuristic pruning: only the most promising
/// `max_candidates` rewritings are generated (renames and `add-*` changes
/// fall through to the exhaustive path, which is already O(1) for them).
///
/// # Errors
///
/// [`SyncError::Validation`] for structurally invalid views;
/// [`SyncError::Options`] for out-of-range options (zero candidate budget,
/// non-finite site weight).
pub fn synchronize_heuristic(
    view: &ViewDef,
    change: &SchemaChange,
    mkb: &Mkb,
    options: &HeuristicOptions,
) -> Result<SyncOutcome, SyncError> {
    let guide = HeuristicGuide {
        options: options.validated()?,
    };
    match change {
        SchemaChange::DeleteAttribute { .. } | SchemaChange::DeleteRelation { .. } => {
            let width = guide.options.max_candidates;
            let sync_opts = SyncOptions {
                max_rewritings: width,
                ..SyncOptions::default()
            };
            let policy = ExplorationPolicy::Beam {
                width,
                guide: &guide,
            };
            let (outcome, _stats) = synchronize_with_policy(
                view,
                change,
                mkb,
                &sync_opts,
                &policy,
                &mut PartnerCache::new(),
            )?;
            Ok(outcome)
        }
        _ => synchronize(view, change, mkb, &SyncOptions::default()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eve_misd::{AttributeInfo, PcConstraint, PcRelationship, PcSide, RelationInfo};
    use eve_relational::DataType;

    /// Experiment-4-like space: R2 with substitutes of varying size spread
    /// over fresh sites, plus one same-site substitute.
    fn space() -> (Mkb, ViewDef) {
        let mut m = Mkb::new();
        for i in 1..=6u32 {
            m.register_site(SiteId(i), format!("IS{i}")).unwrap();
        }
        let attrs = || {
            vec![
                AttributeInfo::new("A", DataType::Int),
                AttributeInfo::new("B", DataType::Int),
            ]
        };
        m.register_relation(RelationInfo::new("R1", SiteId(1), attrs(), 400))
            .unwrap();
        m.register_relation(RelationInfo::new("R2", SiteId(2), attrs(), 4000))
            .unwrap();
        // A substitute colocated with R1 (keeps the rewriting on one site),
        // a far equal-size substitute, and far small/large ones.
        for (name, site, card) in [
            ("ColocR1", 1u32, 8000u64),
            ("LocalSmall", 2, 2000),
            ("FarExact", 3, 4000),
            ("FarBig", 4, 8000),
        ] {
            m.register_relation(RelationInfo::new(name, SiteId(site), attrs(), card))
                .unwrap();
            m.add_pc_constraint(PcConstraint::new(
                PcSide::projection("R2", &["A", "B"]),
                PcRelationship::Equivalent,
                PcSide::projection(name, &["A", "B"]),
            ))
            .unwrap();
        }
        let view = eve_esql::parse_view(
            "CREATE VIEW V (VE = '~') AS \
             SELECT R1.A, R2.B AS B2 (AR = true) \
             FROM R1, R2 (RR = true) \
             WHERE R1.A = R2.A",
        )
        .unwrap();
        (m, view)
    }

    #[test]
    fn heuristic_emits_capped_and_ordered_candidates() {
        let (mkb, view) = space();
        let change = SchemaChange::DeleteRelation {
            relation: "R2".into(),
        };
        let outcome = synchronize_heuristic(
            &view,
            &change,
            &mkb,
            &HeuristicOptions {
                max_candidates: 2,
                site_weight: 0.7,
            },
        )
        .unwrap();
        assert_eq!(outcome.rewritings.len(), 2);
        // First pick with a dominant site weight: the substitute colocated
        // with R1 — the rewriting then spans a single site (the §7.3
        // priority), even though its size diverges most.
        let first = outcome.rewritings[0]
            .view
            .from
            .iter()
            .find(|f| f.relation != "R1")
            .unwrap()
            .relation
            .clone();
        assert_eq!(first, "ColocR1");
    }

    #[test]
    fn size_heuristic_wins_when_site_weight_low() {
        let (mkb, view) = space();
        let change = SchemaChange::DeleteRelation {
            relation: "R2".into(),
        };
        let outcome = synchronize_heuristic(
            &view,
            &change,
            &mkb,
            &HeuristicOptions {
                max_candidates: 1,
                site_weight: 0.0,
            },
        )
        .unwrap();
        let first = outcome.rewritings[0]
            .view
            .from
            .iter()
            .find(|f| f.relation != "R1")
            .unwrap()
            .relation
            .clone();
        assert_eq!(first, "FarExact", "size distance 0 beats colocated 50%");
    }

    #[test]
    fn heuristic_subset_of_exhaustive() {
        let (mkb, view) = space();
        let change = SchemaChange::DeleteRelation {
            relation: "R2".into(),
        };
        let full = synchronize(&view, &change, &mkb, &SyncOptions::default()).unwrap();
        let pruned = synchronize_heuristic(
            &view,
            &change,
            &mkb,
            &HeuristicOptions {
                max_candidates: 2,
                site_weight: 0.7,
            },
        )
        .unwrap();
        let full_set: std::collections::BTreeSet<String> =
            full.rewritings.iter().map(|r| r.view.to_string()).collect();
        for rw in &pruned.rewritings {
            assert!(
                full_set.contains(&rw.view.to_string()),
                "pruned result not in exhaustive set"
            );
        }
        assert!(pruned.rewritings.len() < full.rewritings.len());
    }

    #[test]
    fn unaffected_views_pass_through() {
        let (mkb, view) = space();
        let outcome = synchronize_heuristic(
            &view,
            &SchemaChange::DeleteRelation {
                relation: "FarBig".into(),
            },
            &mkb,
            &HeuristicOptions::default(),
        )
        .unwrap();
        assert!(!outcome.affected);
    }

    #[test]
    fn delete_attribute_path_prunes_too() {
        let (mkb, view) = space();
        let change = SchemaChange::DeleteAttribute {
            relation: "R2".into(),
            attribute: "B".into(),
        };
        let full = synchronize(&view, &change, &mkb, &SyncOptions::default()).unwrap();
        let pruned = synchronize_heuristic(
            &view,
            &change,
            &mkb,
            &HeuristicOptions {
                max_candidates: 1,
                site_weight: 0.7,
            },
        )
        .unwrap();
        assert!(full.rewritings.len() > 1);
        assert_eq!(pruned.rewritings.len(), 1);
    }

    #[test]
    fn attribute_repairs_are_ranked_across_kinds_before_truncation() {
        // A badly-scored attribute replacement (far, huge partner) must not
        // win the budget over a perfectly-scored swap just because
        // replacements are generated first.
        let mut m = Mkb::new();
        for i in [1u32, 2, 9] {
            m.register_site(SiteId(i), format!("IS{i}")).unwrap();
        }
        let ab = || {
            vec![
                AttributeInfo::new("A", DataType::Int),
                AttributeInfo::new("B", DataType::Int),
            ]
        };
        m.register_relation(RelationInfo::new("Base", SiteId(1), ab(), 4000))
            .unwrap();
        m.register_relation(RelationInfo::new("R", SiteId(2), ab(), 4000))
            .unwrap();
        // Same-site (as Base), same-size swap partner covering everything.
        m.register_relation(RelationInfo::new("NearSwap", SiteId(1), ab(), 4000))
            .unwrap();
        m.add_pc_constraint(PcConstraint::new(
            PcSide::projection("R", &["A", "B"]),
            PcRelationship::Equivalent,
            PcSide::projection("NearSwap", &["A", "B"]),
        ))
        .unwrap();
        // Far, huge replacement partner covering only A, joinable via B.
        m.register_relation(RelationInfo::new(
            "FarRep",
            SiteId(9),
            vec![
                AttributeInfo::new("A2", DataType::Int),
                AttributeInfo::new("C", DataType::Int),
            ],
            400_000,
        ))
        .unwrap();
        m.add_pc_constraint(PcConstraint::new(
            PcSide::projection("R", &["A"]),
            PcRelationship::Equivalent,
            PcSide::projection("FarRep", &["A2"]),
        ))
        .unwrap();
        m.add_join_constraint(eve_misd::JoinConstraint::new(
            "R",
            "FarRep",
            vec![eve_relational::PrimitiveClause::eq(
                eve_relational::ColumnRef::parse("R.B"),
                eve_relational::ColumnRef::parse("FarRep.C"),
            )],
        ))
        .unwrap();
        let view = eve_esql::parse_view(
            "CREATE VIEW V (VE = '~') AS \
             SELECT Base.A AS BA, X.A (AR = true), X.B \
             FROM Base, R X (RR = true) \
             WHERE Base.A = X.A (CR = true)",
        )
        .unwrap();
        let change = SchemaChange::DeleteAttribute {
            relation: "R".into(),
            attribute: "A".into(),
        };
        // Both repair kinds exist in the exhaustive set…
        let full = synchronize(&view, &change, &m, &SyncOptions::default()).unwrap();
        assert!(full.rewritings.len() >= 2, "{}", full.rewritings.len());
        // …and the width-1 beam keeps the better-scored swap, not the
        // generation-order-first replacement.
        let pruned = synchronize_heuristic(
            &view,
            &change,
            &m,
            &HeuristicOptions {
                max_candidates: 1,
                site_weight: 0.7,
            },
        )
        .unwrap();
        assert_eq!(pruned.rewritings.len(), 1);
        let printed = pruned.rewritings[0].view.to_string();
        assert!(printed.contains("NearSwap"), "{printed}");
    }

    #[test]
    fn renames_fall_through_to_exhaustive() {
        let (mkb, view) = space();
        let outcome = synchronize_heuristic(
            &view,
            &SchemaChange::RenameAttribute {
                relation: "R2".into(),
                from: "B".into(),
                to: "B9".into(),
            },
            &mkb,
            &HeuristicOptions::default(),
        )
        .unwrap();
        assert!(outcome.affected);
        assert_eq!(outcome.rewritings.len(), 1);
    }

    #[test]
    fn zero_candidate_budget_is_rejected() {
        let (mkb, view) = space();
        let err = synchronize_heuristic(
            &view,
            &SchemaChange::DeleteRelation {
                relation: "R2".into(),
            },
            &mkb,
            &HeuristicOptions {
                max_candidates: 0,
                site_weight: 0.7,
            },
        )
        .unwrap_err();
        assert!(matches!(err, SyncError::Options(_)), "{err}");
        assert!(err.to_string().contains("max_candidates"), "{err}");
    }

    #[test]
    fn site_weight_is_clamped_not_rejected() {
        let (mkb, view) = space();
        let change = SchemaChange::DeleteRelation {
            relation: "R2".into(),
        };
        // site_weight > 1 behaves exactly like 1 (sites dominate fully).
        let clamped = synchronize_heuristic(
            &view,
            &change,
            &mkb,
            &HeuristicOptions {
                max_candidates: 1,
                site_weight: 7.5,
            },
        )
        .unwrap();
        let exact = synchronize_heuristic(
            &view,
            &change,
            &mkb,
            &HeuristicOptions {
                max_candidates: 1,
                site_weight: 1.0,
            },
        )
        .unwrap();
        assert_eq!(
            clamped.rewritings[0].view.to_string(),
            exact.rewritings[0].view.to_string()
        );
        // Non-finite weights cannot be clamped meaningfully.
        let err = HeuristicOptions {
            max_candidates: 1,
            site_weight: f64::NAN,
        }
        .validated()
        .unwrap_err();
        assert!(matches!(err, SyncError::Options(_)));
    }
}
