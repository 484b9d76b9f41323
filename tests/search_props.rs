//! Differential property suite for the streaming rewrite-search driver
//! (PROPTEST_CASES-aware, like every other property suite):
//!
//! * the driver's `Exhaustive` policy emits a set **byte-identical** —
//!   views, repair actions, extent relationships, in order — to the frozen
//!   pre-refactor synchronizer (`eve::sync::legacy`),
//! * `BestFirst` under the QC bounds with the exact Eq. 25 normalization
//!   has **zero strategy regret**: its first emission attains the QC-best
//!   badness over the exhaustive candidate set,
//! * the partial-rewriting divergence bound is **admissible**: no prefix of
//!   a completed rewriting's repair trail scores above the completed
//!   divergence,
//! * the heuristic beam emits a subset of the exhaustive set.

use proptest::prelude::*;

use eve::esql::{AttrEvolution, CondEvolution, RelEvolution, ViewDef, ViewExtent};
use eve::misd::{
    AttributeInfo, Mkb, PcConstraint, PcRelationship, PcSide, RelationInfo, SchemaChange, SiteId,
};
use eve::qc::{
    exact_score, partial_bound, rank_rewritings, synchronize_qc_best_first, CostBound, QcGuide,
    QcParams, ScoreModel, ScoredRewriting, SelectionStrategy, WorkloadModel,
};
use eve::relational::{ColumnRef, CompOp, DataType, PrimitiveClause, Value};
use eve::sync::{
    legacy::synchronize_legacy, synchronize, synchronize_heuristic, HeuristicOptions, SyncOptions,
};

// ---------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------

fn attr_evolution() -> impl Strategy<Value = AttrEvolution> {
    (any::<bool>(), any::<bool>()).prop_map(|(d, r)| AttrEvolution {
        dispensable: d,
        replaceable: r,
    })
}

fn view_extent() -> impl Strategy<Value = ViewExtent> {
    prop_oneof![
        Just(ViewExtent::Approximate),
        Just(ViewExtent::Equal),
        Just(ViewExtent::Superset),
        Just(ViewExtent::Subset),
    ]
}

/// A random view over 1–2 bindings of R(A0..A3) with random evolution
/// parameters and literal conditions — self-joins exercise the
/// multi-binding cross product.
fn arbitrary_view() -> impl Strategy<Value = ViewDef> {
    (
        view_extent(),
        1usize..3,
        prop::collection::vec((0usize..2, 0usize..4, attr_evolution()), 1..5),
        prop::collection::vec(
            (0usize..2, 0usize..4, 0i64..50, any::<bool>(), any::<bool>()),
            0..3,
        ),
    )
        .prop_map(|(ve, bindings, attrs, conds)| {
            let mut seen = std::collections::BTreeSet::new();
            let select: Vec<eve::esql::SelectItem> = attrs
                .into_iter()
                .map(|(b, i, ev)| (b % bindings, i, ev))
                .filter(|(b, i, _)| seen.insert((*b, *i)))
                .enumerate()
                .map(|(n, (b, i, ev))| eve::esql::SelectItem {
                    attr: ColumnRef::qualified(format!("X{b}"), format!("A{i}")),
                    alias: Some(format!("C{n}")),
                    evolution: ev,
                })
                .collect();
            let conditions = conds
                .into_iter()
                .map(|(b, i, v, cd, cr)| eve::esql::ConditionItem {
                    clause: PrimitiveClause::lit(
                        ColumnRef::qualified(format!("X{}", b % bindings), format!("A{i}")),
                        CompOp::Gt,
                        Value::Int(v),
                    ),
                    evolution: CondEvolution {
                        dispensable: cd,
                        replaceable: cr,
                    },
                })
                .collect();
            ViewDef {
                name: "V".into(),
                column_names: None,
                ve,
                select,
                from: (0..bindings)
                    .map(|b| eve::esql::FromItem {
                        relation: "R".into(),
                        alias: Some(format!("X{b}")),
                        evolution: RelEvolution {
                            dispensable: false,
                            replaceable: true,
                        },
                    })
                    .collect(),
                conditions,
            }
        })
}

/// An MKB with R(A0..A3) plus replicas of proptest-chosen containment
/// direction and size, each covering all attributes.
fn mkb_with_replicas(specs: &[(u8, u64)]) -> Mkb {
    let mut mkb = Mkb::new();
    mkb.register_site(SiteId(1), "one").unwrap();
    let attrs = || {
        (0..4)
            .map(|i| AttributeInfo::sized(format!("A{i}"), DataType::Int, 50))
            .collect::<Vec<_>>()
    };
    mkb.register_relation(RelationInfo::new("R", SiteId(1), attrs(), 4000))
        .unwrap();
    let names: Vec<String> = (0..4).map(|i| format!("A{i}")).collect();
    let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
    for (r, (direction, card)) in specs.iter().enumerate() {
        let site = SiteId(u32::try_from(r).unwrap() + 2);
        mkb.register_site(site, format!("rep{r}")).unwrap();
        let rel_name = format!("Rep{r}");
        let relationship = match direction % 3 {
            0 => PcRelationship::Equivalent,
            1 => PcRelationship::Subset,
            _ => PcRelationship::Superset,
        };
        // Keep cardinalities consistent with the containment direction so
        // the overlap estimates stay in the exact regime.
        let card = match relationship {
            PcRelationship::Equivalent => 4000,
            PcRelationship::Subset => 4000 + 500 + card % 8000,
            PcRelationship::Superset => 500 + card % 3500,
        };
        mkb.register_relation(RelationInfo::new(&rel_name, site, attrs(), card))
            .unwrap();
        mkb.add_pc_constraint(PcConstraint::new(
            PcSide::projection("R", &name_refs),
            relationship,
            PcSide::projection(&rel_name, &name_refs),
        ))
        .unwrap();
    }
    mkb
}

fn arbitrary_change() -> impl Strategy<Value = SchemaChange> {
    prop_oneof![
        Just(SchemaChange::DeleteRelation {
            relation: "R".into()
        }),
        (0usize..4).prop_map(|i| SchemaChange::DeleteAttribute {
            relation: "R".into(),
            attribute: format!("A{i}"),
        }),
        (0usize..4).prop_map(|i| SchemaChange::RenameAttribute {
            relation: "R".into(),
            from: format!("A{i}"),
            to: "Renamed".into(),
        }),
        Just(SchemaChange::RenameRelation {
            from: "R".into(),
            to: "R2".into()
        }),
    ]
}

/// The exact Eq. 25 normalization of a ranked candidate set: the score
/// model built from every candidate's cost, in candidate order.
fn exact_model(params: &QcParams, scored: &[ScoredRewriting]) -> ScoreModel {
    let mut costs: Vec<(usize, f64)> = scored.iter().map(|s| (s.index, s.cost)).collect();
    costs.sort_by_key(|(i, _)| *i);
    let costs: Vec<f64> = costs.into_iter().map(|(_, c)| c).collect();
    ScoreModel::from_costs(params, &costs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // -------------------------------------------------------------------
    // Differential: streaming Exhaustive ≡ the frozen pre-refactor
    // pipeline — byte-identical views, actions and extent relationships,
    // in the same order, for every generated view/space/change.
    // -------------------------------------------------------------------
    #[test]
    fn streaming_exhaustive_equals_legacy_synchronizer(
        view in arbitrary_view(),
        specs in prop::collection::vec((0u8..3, 0u64..10_000), 0..4),
        change in arbitrary_change(),
        max_rewritings in prop_oneof![Just(2usize), Just(8), Just(64)],
        spectrum in any::<bool>(),
    ) {
        let mkb = mkb_with_replicas(&specs);
        let options = SyncOptions {
            max_rewritings,
            enumerate_dispensable_drops: spectrum,
        };
        let streaming = synchronize(&view, &change, &mkb, &options).unwrap();
        let legacy = synchronize_legacy(&view, &change, &mkb, &options).unwrap();
        prop_assert_eq!(streaming.affected, legacy.affected);
        prop_assert_eq!(
            streaming.rewritings.len(),
            legacy.rewritings.len(),
            "cardinality diverged"
        );
        for (s, l) in streaming.rewritings.iter().zip(&legacy.rewritings) {
            prop_assert_eq!(s.view.to_string(), l.view.to_string());
            prop_assert_eq!(&s.provenance.actions, &l.provenance.actions);
            prop_assert_eq!(s.extent, l.extent);
        }
    }

    // -------------------------------------------------------------------
    // Zero strategy regret: BestFirst under the QC bounds with the exact
    // candidate-set normalization emits, first, a rewriting attaining the
    // QC-best badness of the exhaustive set.
    // -------------------------------------------------------------------
    #[test]
    fn best_first_first_emission_matches_qc_best(
        view in arbitrary_view(),
        specs in prop::collection::vec((0u8..3, 0u64..10_000), 1..4),
        drop_relation in any::<bool>(),
        attr in 0usize..4,
    ) {
        let mkb = mkb_with_replicas(&specs);
        let change = if drop_relation {
            SchemaChange::DeleteRelation { relation: "R".into() }
        } else {
            SchemaChange::DeleteAttribute {
                relation: "R".into(),
                attribute: format!("A{attr}"),
            }
        };
        let params = QcParams::default();
        let workload = WorkloadModel::SingleUpdate;
        let exhaustive = synchronize(&view, &change, &mkb, &SyncOptions::default()).unwrap();
        if exhaustive.rewritings.is_empty() {
            return Ok(());
        }
        let scored = rank_rewritings(&view, &exhaustive.rewritings, &mkb, &params, workload)
            .unwrap();
        let best = SelectionStrategy::QcBest.select(&scored).unwrap();

        let model = exact_model(&params, &scored);
        let guide = QcGuide::new(&params, workload, model);
        let (outcome, _) = synchronize_qc_best_first(
            &view,
            &change,
            &mkb,
            &SyncOptions { max_rewritings: 1, ..SyncOptions::default() },
            &guide,
        )
        .unwrap();
        let first = outcome.rewritings.first().expect("affected ⇒ emission");
        let (dd, cost) = exact_score(&view, first, &mkb, &params, workload).unwrap();
        let regret = model.badness(dd, cost) - model.badness(best.divergence.dd, best.cost);
        prop_assert!(
            regret.abs() < 1e-9,
            "regret {regret} (first {}, best {})",
            first.view,
            best.rewriting.view
        );
    }

    // -------------------------------------------------------------------
    // Admissibility: for every completed rewriting, every prefix of its
    // repair trail bounds the completed divergence from below.
    // -------------------------------------------------------------------
    #[test]
    fn partial_divergence_bound_is_admissible(
        view in arbitrary_view(),
        specs in prop::collection::vec((0u8..3, 0u64..10_000), 0..4),
        drop_relation in any::<bool>(),
        attr in 0usize..4,
    ) {
        let mkb = mkb_with_replicas(&specs);
        let change = if drop_relation {
            SchemaChange::DeleteRelation { relation: "R".into() }
        } else {
            SchemaChange::DeleteAttribute {
                relation: "R".into(),
                attribute: format!("A{attr}"),
            }
        };
        let params = QcParams::default();
        let workload = WorkloadModel::SingleUpdate;
        let outcome = synchronize(&view, &change, &mkb, &SyncOptions::default()).unwrap();
        for rw in &outcome.rewritings {
            let (full_dd, full_cost) = exact_score(&view, rw, &mkb, &params, workload).unwrap();
            for cut in 0..=rw.provenance.actions.len() {
                let bound = partial_bound(
                    &view,
                    &rw.view,
                    &rw.provenance.actions[..cut],
                    &[],
                    &mkb,
                    &params,
                    workload,
                    CostBound::Ignore,
                )
                .unwrap();
                prop_assert!(
                    bound.dd_lower <= full_dd + 1e-9,
                    "prefix[..{cut}] dd {} > completed {full_dd} for {}",
                    bound.dd_lower,
                    rw.view
                );
                prop_assert!(bound.cost_lower <= full_cost + 1e-9);
            }
        }
    }

    // -------------------------------------------------------------------
    // The heuristic beam emits a subset of the exhaustive set, never more
    // than its budget, and always at least one rewriting when one exists
    // for the swap-only repairs it prioritizes.
    // -------------------------------------------------------------------
    #[test]
    fn beam_emissions_are_a_subset_of_exhaustive(
        view in arbitrary_view(),
        specs in prop::collection::vec((0u8..3, 0u64..10_000), 1..4),
        width in 1usize..4,
    ) {
        let mkb = mkb_with_replicas(&specs);
        let change = SchemaChange::DeleteRelation { relation: "R".into() };
        let full = synchronize(&view, &change, &mkb, &SyncOptions::default()).unwrap();
        let pruned = synchronize_heuristic(
            &view,
            &change,
            &mkb,
            &HeuristicOptions { max_candidates: width, site_weight: 0.7 },
        )
        .unwrap();
        prop_assert!(pruned.rewritings.len() <= width);
        let full_set: std::collections::BTreeSet<String> =
            full.rewritings.iter().map(|r| r.view.to_string()).collect();
        for rw in &pruned.rewritings {
            prop_assert!(
                full_set.contains(&rw.view.to_string()),
                "beam emitted a rewriting outside the exhaustive set: {}",
                rw.view
            );
        }
    }
}

// ---------------------------------------------------------------------
// Candidate counts on the wide MKB (`fixtures::wide_space`): how many
// candidate views each policy materializes is a deterministic property of
// the search, not a timing — the exhaustive arm runs the paper's
// materialize-then-rank pipeline, the pruned arm the QC-bounded best-first
// policy (production auto-scale normalization) up to its first emission.
// ---------------------------------------------------------------------

/// What one `(partners, bindings)` configuration of the wide space costs
/// each policy, and how far the pruned arm's answer is from QC-best.
struct WideSearch {
    exhaustive_rewritings: usize,
    exhaustive_candidates: u64,
    best_first_candidates: u64,
    /// QC-badness gap between the best-first arm's first emission and
    /// QC-best over the exhaustive set, under that set's exact Eq. 25
    /// normalization (0 under admissible bounds).
    regret: f64,
}

fn wide_search(partners: usize, bindings: usize) -> WideSearch {
    use eve::sync::{synchronize_with_policy, ExplorationPolicy, PartnerCache};

    let (mkb, view, change) = eve_bench::fixtures::wide_space(partners, bindings).unwrap();
    let params = QcParams::default();
    let workload = WorkloadModel::SingleUpdate;

    let options = SyncOptions {
        max_rewritings: 256,
        ..SyncOptions::default()
    };
    let (exhaustive, exhaustive_stats) = synchronize_with_policy(
        &view,
        &change,
        &mkb,
        &options,
        &ExplorationPolicy::Exhaustive,
        &mut PartnerCache::new(),
    )
    .unwrap();
    // Wide levels pin output order too: the exhaustive arm equals the
    // frozen pre-refactor synchronizer byte for byte.
    let legacy = synchronize_legacy(&view, &change, &mkb, &options).unwrap();
    assert_eq!(exhaustive.affected, legacy.affected);
    assert_eq!(
        exhaustive.rewritings.len(),
        legacy.rewritings.len(),
        "({partners},{bindings}): cardinality diverged from legacy"
    );
    for (s, l) in exhaustive.rewritings.iter().zip(&legacy.rewritings) {
        assert_eq!(s.view.to_string(), l.view.to_string());
        assert_eq!(s.provenance.actions, l.provenance.actions);
        assert_eq!(s.extent, l.extent);
    }
    let scored = rank_rewritings(&view, &exhaustive.rewritings, &mkb, &params, workload).unwrap();
    let best = SelectionStrategy::QcBest
        .select(&scored)
        .expect("the wide space always has legal rewritings");

    let guide = QcGuide::auto(&view, &mkb, &params, workload).unwrap();
    let (pruned, pruned_stats) = synchronize_qc_best_first(
        &view,
        &change,
        &mkb,
        &SyncOptions {
            max_rewritings: 1,
            ..SyncOptions::default()
        },
        &guide,
    )
    .unwrap();
    let first = pruned.rewritings.first().expect("affected ⇒ emission");

    let model = exact_model(&params, &scored);
    let (dd, cost) = exact_score(&view, first, &mkb, &params, workload).unwrap();

    WideSearch {
        exhaustive_rewritings: exhaustive.rewritings.len(),
        exhaustive_candidates: exhaustive_stats.materialized,
        best_first_candidates: pruned_stats.materialized.max(1),
        regret: model.badness(dd, cost) - model.badness(best.divergence.dd, best.cost),
    }
}

#[test]
fn pruning_beats_exhaustive_by_at_least_5x_on_the_wide_mkb() {
    let run = wide_search(8, 3);
    assert!(
        run.exhaustive_candidates >= 5 * run.best_first_candidates,
        "pruning below the 5x bar: {} exhaustive vs {} best-first candidates",
        run.exhaustive_candidates,
        run.best_first_candidates
    );
    // The cheaper search still answers QC-best at every width, or the
    // saving would be bought with a worse view.
    for (partners, bindings) in [(4, 2), (8, 2), (8, 3), (16, 3)] {
        let regret = wide_search(partners, bindings).regret;
        assert!(
            regret.abs() < 1e-9,
            "({partners},{bindings}): regret {regret}"
        );
    }
}

#[test]
fn exhaustive_candidates_grow_with_the_space() {
    let narrow = wide_search(4, 2);
    let wide = wide_search(8, 3);
    assert!(wide.exhaustive_candidates > narrow.exhaustive_candidates);
    // Best-first growth is linear-ish in bindings × partners, far below
    // the cross product.
    assert!(wide.best_first_candidates < wide.exhaustive_candidates);
}

#[test]
fn exhaustive_order_holds_on_a_144_node_level() {
    // 12 partners × 3 bindings: the second binding level holds 12 × 12 =
    // 144 nodes, the width `evolve-storm` changes reach. `wide_search`
    // asserts the exhaustive emissions equal the legacy synchronizer's.
    //
    // The breadth cap is 4 × 256 = 1,024 nodes per level. The last level
    // builds all 12 children of the first 85 nodes (1,020), 4 of the 86th
    // (the cap is reached), then only the one child each of the other 58
    // nodes keeps: 1,020 + 4 + 58 = 1,082.
    let run = wide_search(12, 3);
    assert_eq!(run.exhaustive_candidates, 12 + 144 + 1_082);
    assert!(run.regret.abs() < 1e-9, "regret {}", run.regret);
}

#[test]
fn candidate_counts_are_deterministic() {
    let a = wide_search(4, 2);
    let b = wide_search(4, 2);
    assert_eq!(a.exhaustive_candidates, b.exhaustive_candidates);
    assert_eq!(a.best_first_candidates, b.best_first_candidates);
    assert_eq!(a.exhaustive_rewritings, b.exhaustive_rewritings);
}
