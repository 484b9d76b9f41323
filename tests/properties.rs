//! Cross-crate property-based tests (proptest) on the model's invariants.

use proptest::prelude::*;

use eve::esql::{parse_view, AttrEvolution, CondEvolution, RelEvolution, ViewDef, ViewExtent};
use eve::misd::{
    AttributeInfo, Mkb, PcConstraint, PcRelationship, PcSide, RelationInfo, SchemaChange, SiteId,
};
use eve::qc::cost::{cf_io, cf_messages, cf_transfer};
use eve::qc::rank::normalize_costs;
use eve::qc::{
    plan_for_origin, rank_rewritings, IoBound, MaintenancePlan, QcParams, WorkloadModel,
};
use eve::relational::{tup, ColumnRef, CompOp, DataType, PrimitiveClause, Relation, Tuple, Value};
use eve::sync::{synchronize, EvolutionOp, SyncOptions};
use eve::system::EveEngine;

// ---------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------

fn ident() -> impl Strategy<Value = String> {
    "[A-Z][a-z0-9]{0,6}".prop_map(|s| s)
}

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

/// A random single-relation view over R(A0..A5) with random evolution
/// parameters and conditions.
fn arbitrary_view() -> impl Strategy<Value = ViewDef> {
    (
        ident(),
        view_extent(),
        prop::collection::vec((0usize..6, attr_evolution()), 1..5),
        prop::collection::vec((0usize..6, 0i64..100, any::<bool>(), any::<bool>()), 0..3),
    )
        .prop_map(|(name, ve, attrs, conds)| {
            let mut seen = std::collections::BTreeSet::new();
            let select: Vec<eve::esql::SelectItem> = attrs
                .into_iter()
                .filter(|(i, _)| seen.insert(*i))
                .map(|(i, ev)| eve::esql::SelectItem {
                    attr: ColumnRef::qualified("R", format!("A{i}")),
                    alias: None,
                    evolution: ev,
                })
                .collect();
            let conditions = conds
                .into_iter()
                .map(|(i, v, cd, cr)| eve::esql::ConditionItem {
                    clause: PrimitiveClause::lit(
                        ColumnRef::qualified("R", format!("A{i}")),
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
                name,
                column_names: None,
                ve,
                select,
                from: vec![eve::esql::FromItem {
                    relation: "R".into(),
                    alias: None,
                    evolution: RelEvolution {
                        dispensable: false,
                        replaceable: true,
                    },
                }],
                conditions,
            }
        })
}

/// An MKB with R(A0..A5) plus `replicas` PC partners covering all attrs.
fn mkb_with_replicas(replicas: usize) -> Mkb {
    let mut mkb = Mkb::new();
    mkb.register_site(SiteId(1), "one").unwrap();
    let attrs = || {
        (0..6)
            .map(|i| AttributeInfo::new(format!("A{i}"), DataType::Int))
            .collect::<Vec<_>>()
    };
    mkb.register_relation(RelationInfo::new("R", SiteId(1), attrs(), 400))
        .unwrap();
    let names: Vec<String> = (0..6).map(|i| format!("A{i}")).collect();
    let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
    for r in 0..replicas {
        let site = SiteId(u32::try_from(r).unwrap() + 2);
        mkb.register_site(site, format!("rep{r}")).unwrap();
        let rel_name = format!("Rep{r}");
        mkb.register_relation(RelationInfo::new(
            &rel_name,
            site,
            attrs(),
            400 + 100 * (r as u64),
        ))
        .unwrap();
        mkb.add_pc_constraint(PcConstraint::new(
            PcSide::projection("R", &name_refs),
            PcRelationship::Equivalent,
            PcSide::projection(&rel_name, &name_refs),
        ))
        .unwrap();
    }
    mkb
}

// ---------------------------------------------------------------------
// Differential harness: batched pipeline vs the legacy op-by-op paths.
// ---------------------------------------------------------------------

/// The canonical multi-site space, shared with the recovery suites so
/// every differential harness exercises one workload shape: per site,
/// `R{i}_a ⋈ R{i}_b` under view `V{i}`, a selection view `W{i}` over the
/// colocated equivalent replica `R{i}_c ≡ R{i}_b`.
fn multi_site_engine(sites: u32) -> EveEngine {
    eve_bench::fixtures::build_space(sites).unwrap()
}

/// Translates `(site, kind, k)` specs into a valid-by-construction op
/// sequence: data ops only ever target live relations, `R{i}_b` is dropped
/// at most once per site, and renames of `R{i}_a` thread the current name.
fn realize_ops(sites: u32, specs: &[(u32, u8, i64)]) -> Vec<EvolutionOp> {
    let mut dropped_b = vec![false; sites as usize + 1];
    let mut a_name: Vec<String> = (0..=sites).map(|i| format!("R{i}_a")).collect();
    let mut ops = Vec::new();
    for &(site, kind, k) in specs {
        let i = (site % sites + 1) as usize;
        match kind % 8 {
            0..=2 => ops.push(EvolutionOp::insert(a_name[i].clone(), vec![tup![k, k % 5]])),
            3 => ops.push(EvolutionOp::delete(
                a_name[i].clone(),
                vec![tup![k % 20, (k % 20) % 5]],
            )),
            4 | 5 => {
                let target = if dropped_b[i] {
                    format!("R{i}_c")
                } else {
                    format!("R{i}_b")
                };
                ops.push(EvolutionOp::insert(target, vec![tup![k, k % 5]]));
            }
            6 => {
                if !dropped_b[i] {
                    dropped_b[i] = true;
                    ops.push(EvolutionOp::change(SchemaChange::DeleteRelation {
                        relation: format!("R{i}_b"),
                    }));
                } else {
                    ops.push(EvolutionOp::insert(format!("R{i}_c"), vec![tup![k, k % 5]]));
                }
            }
            _ => {
                let from = a_name[i].clone();
                let to = format!("{from}x");
                a_name[i] = to.clone();
                ops.push(EvolutionOp::change(SchemaChange::RenameRelation {
                    from,
                    to,
                }));
            }
        }
    }
    ops
}

/// One relation of the canonical space as an op stream has left it: its
/// current name and, per surviving attribute, the fixture column it
/// started as (0 = `K`, 1 = `P`) and its current name.
struct Hosted {
    name: String,
    attrs: Vec<(usize, String)>,
}

impl Hosted {
    /// The fixture row `(k, k % 5)` cut to the surviving attributes.
    fn row(&self, k: i64) -> Tuple {
        Tuple::new(
            self.attrs
                .iter()
                .map(|(col, _)| Value::Int(if *col == 0 { k } else { k % 5 }))
                .collect(),
        )
    }
}

/// Translates `(site, kind, k)` specs into a valid-by-construction stream
/// of data ops and every capability change that rewrites a view by rename
/// or by repair: `rename-relation`, `rename-attribute` (the unaliased
/// `R{i}_a.K` of `V{i}` among them), `delete-relation` and
/// `delete-attribute`. Each op names a live relation at the site (`k`
/// picks which) and the last attribute of a relation is never deleted.
fn realize_evolution_ops(sites: u32, specs: &[(u32, u8, i64)]) -> Vec<EvolutionOp> {
    let mut live: Vec<Vec<Hosted>> = (1..=sites)
        .map(|i| {
            ["a", "b", "c"]
                .map(|suffix| Hosted {
                    name: format!("R{i}_{suffix}"),
                    attrs: vec![(0, "K".to_owned()), (1, "P".to_owned())],
                })
                .into()
        })
        .collect();
    let mut ops = Vec::new();
    for &(site, kind, k) in specs {
        let rels = &mut live[(site % sites) as usize];
        if rels.is_empty() {
            continue;
        }
        let r = k as usize % rels.len();
        let rel = &mut rels[r];
        let a = (k / 3) as usize % rel.attrs.len();
        match kind % 10 {
            0..=4 => ops.push(EvolutionOp::insert(rel.name.clone(), vec![rel.row(k)])),
            5 => ops.push(EvolutionOp::delete(rel.name.clone(), vec![rel.row(k % 40)])),
            6 => {
                let to = format!("{}x", rel.name);
                let from = std::mem::replace(&mut rel.name, to.clone());
                ops.push(EvolutionOp::change(SchemaChange::RenameRelation {
                    from,
                    to,
                }));
            }
            7 => {
                let to = format!("{}y", rel.attrs[a].1);
                let from = std::mem::replace(&mut rel.attrs[a].1, to.clone());
                ops.push(EvolutionOp::change(SchemaChange::RenameAttribute {
                    relation: rel.name.clone(),
                    from,
                    to,
                }));
            }
            8 if rel.attrs.len() > 1 => {
                let (_, attribute) = rel.attrs.remove(a);
                ops.push(EvolutionOp::change(SchemaChange::DeleteAttribute {
                    relation: rel.name.clone(),
                    attribute,
                }));
            }
            8 => ops.push(EvolutionOp::insert(rel.name.clone(), vec![rel.row(k)])),
            _ => {
                let relation = rels.remove(r).name;
                ops.push(EvolutionOp::change(SchemaChange::DeleteRelation {
                    relation,
                }));
            }
        }
    }
    ops
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // -------------------------------------------------------------------
    // Differential: `apply_batch(ops)` is observationally identical to the
    // legacy op-by-op paths — byte-identical view extents, identical
    // survival verdicts and identical total I/O + message accounting.
    // -------------------------------------------------------------------
    #[test]
    fn apply_batch_equals_sequential_application(
        sites in 2u32..4,
        specs in prop::collection::vec((0u32..8, 0u8..8, 0i64..60), 1..16),
    ) {
        let base = multi_site_engine(sites);
        let ops = realize_ops(sites, &specs);

        let mut batched = base.clone();
        batched.reset_io();
        let outcome = batched.apply_batch(ops.clone()).unwrap();

        let mut sequential = base;
        sequential.reset_io();
        let mut sequential_reports = Vec::new();
        for op in ops {
            match op {
                EvolutionOp::Data(update) => {
                    // The source performs an insert, or a delete of a tuple
                    // it holds; only then does any view hear of the update.
                    let site = sequential.mkb().relation(&update.relation).unwrap().site.0;
                    let held = sequential.sites_mut()[&site].relation(&update.relation).unwrap();
                    let performed = !update.inserts.is_empty()
                        || update.deletes.iter().any(|t| held.contains(t));
                    for (name, trace) in sequential.notify_data_update(&update).unwrap() {
                        // Measured messages are the model's CF_M for the
                        // plan of this origin.
                        let def = &sequential.view(&name).unwrap().def;
                        let origin = def.from.iter().position(|f| f.relation == update.relation);
                        let expected = match origin {
                            Some(i) if performed => {
                                cf_messages(&plan_for_origin(def, sequential.mkb(), i).unwrap(), true)
                            }
                            _ => 0.0,
                        };
                        prop_assert_eq!(trace.messages as f64, expected, "messages of {} after {:?}", name, update);
                    }
                }
                EvolutionOp::Capability { change, new_extent } => {
                    sequential_reports.extend(
                        sequential
                            .notify_capability_change_sequential(&change, new_extent)
                            .unwrap(),
                    );
                }
            }
        }

        // Survival verdicts and adopted definitions.
        let defs = |e: &EveEngine| -> Vec<String> {
            e.views().map(|mv| mv.def.to_string()).collect()
        };
        prop_assert_eq!(defs(&batched), defs(&sequential));
        // Byte-identical extents (same tuples in the same order).
        for (b, s) in batched.views().zip(sequential.views()) {
            prop_assert_eq!(b.extent.tuples(), s.extent.tuples(), "extent of {}", b.def.name);
            prop_assert_eq!(b.extent.schema(), s.extent.schema());
        }
        // Identical measured cost totals.
        prop_assert_eq!(batched.total_io(), sequential.total_io());
        prop_assert_eq!(batched.total_messages(), sequential.total_messages());
        // Identical evolution verdicts, report for report.
        prop_assert_eq!(outcome.reports.len(), sequential_reports.len());
        for (b, s) in outcome.reports.iter().zip(&sequential_reports) {
            prop_assert_eq!(&b.view_name, &s.view_name);
            prop_assert_eq!(b.affected, s.affected);
            prop_assert_eq!(b.survived, s.survived);
            prop_assert_eq!(b.candidates, s.candidates);
        }
    }

    // -------------------------------------------------------------------
    // Adoption: after every op, each view's extent — maintained, carried
    // across a rename or re-evaluated for a repair — is the bag a fresh
    // evaluation of its definition yields, under the same schema. Batch ≡
    // sequential cannot see a wrong carry (both paths share the commit);
    // this can.
    // -------------------------------------------------------------------
    #[test]
    fn adopted_extents_equal_a_fresh_evaluation(
        sites in 2u32..4,
        specs in prop::collection::vec((0u32..8, 0u8..10, 0i64..60), 1..24),
    ) {
        let mut engine = multi_site_engine(sites);
        for op in realize_evolution_ops(sites, &specs) {
            let label = format!("{op:?}");
            engine.apply_batch(vec![op]).unwrap();
            for mv in engine.views() {
                let fresh = engine.evaluate(&mv.def).unwrap();
                prop_assert_eq!(mv.extent.schema(), fresh.schema(), "schema of {} after {}", mv.def.name, label);
                let mut kept = mv.extent.tuples().to_vec();
                let mut fresh = fresh.tuples().to_vec();
                kept.sort();
                fresh.sort();
                prop_assert_eq!(kept, fresh, "extent of {} after {}", mv.def.name, label);
            }
        }
    }

    // -------------------------------------------------------------------
    // Parser: printing then reparsing is the identity.
    // -------------------------------------------------------------------
    #[test]
    fn parser_roundtrip(view in arbitrary_view()) {
        let printed = view.to_string();
        let reparsed = parse_view(&printed)
            .unwrap_or_else(|e| panic!("reparse failed: {e}\n{printed}"));
        prop_assert_eq!(view, reparsed);
    }

    // -------------------------------------------------------------------
    // Cost model: all factors are non-negative and finite; transfer and
    // messages are monotone in the number of populated sites.
    // -------------------------------------------------------------------
    #[test]
    fn cost_factors_are_finite_and_nonnegative(
        dist in prop::collection::vec(1usize..5, 1..5),
        js in 1e-4f64..0.02,
    ) {
        let plan = MaintenancePlan::uniform(&dist, js).unwrap();
        for v in [
            cf_messages(&plan, true),
            cf_transfer(&plan),
            cf_io(&plan, IoBound::Lower),
            cf_io(&plan, IoBound::Upper),
        ] {
            prop_assert!(v.is_finite() && v >= 0.0, "factor {v}");
        }
        prop_assert!(cf_io(&plan, IoBound::Lower) <= cf_io(&plan, IoBound::Upper) + 1e-12);
        prop_assert!(
            cf_io(&plan, IoBound::Midpoint) <= cf_io(&plan, IoBound::Upper) + 1e-12
        );
    }

    #[test]
    fn splitting_a_site_never_reduces_transfer(
        dist in prop::collection::vec(1usize..4, 2..5),
    ) {
        // Moving the last site's relations out to a fresh site adds a round
        // trip: CF_T must not decrease.
        let merged = {
            let mut d = dist.clone();
            let last = d.pop().unwrap();
            *d.last_mut().unwrap() += last;
            d
        };
        let split_plan = MaintenancePlan::uniform(&dist, 0.005).unwrap();
        let merged_plan = MaintenancePlan::uniform(&merged, 0.005).unwrap();
        prop_assert!(cf_transfer(&merged_plan) <= cf_transfer(&split_plan) + 1e-9);
        prop_assert!(
            cf_messages(&merged_plan, true) <= cf_messages(&split_plan, true) + 1e-9
        );
    }

    // -------------------------------------------------------------------
    // Normalization: outputs in [0, 1], min → 0, max → 1, order-preserving.
    // -------------------------------------------------------------------
    #[test]
    fn normalization_bounds_and_monotonicity(
        costs in prop::collection::vec(0.0f64..1e6, 1..10),
    ) {
        let normalized = normalize_costs(&costs);
        prop_assert_eq!(normalized.len(), costs.len());
        for v in &normalized {
            prop_assert!((0.0..=1.0).contains(v), "normalized {v}");
        }
        for i in 0..costs.len() {
            for j in 0..costs.len() {
                if costs[i] < costs[j] {
                    prop_assert!(normalized[i] <= normalized[j]);
                }
            }
        }
    }

    // -------------------------------------------------------------------
    // Synchronize + rank: every emitted rewriting is VE-legal, scores lie
    // in [0, 1], the ranking is sorted, and all indispensable attributes
    // survive in every rewriting.
    // -------------------------------------------------------------------
    #[test]
    fn synchronization_and_ranking_invariants(
        view in arbitrary_view(),
        replicas in 0usize..3,
        drop_attr in 0usize..6,
    ) {
        let mkb = mkb_with_replicas(replicas);
        let change = SchemaChange::DeleteAttribute {
            relation: "R".into(),
            attribute: format!("A{drop_attr}"),
        };
        let outcome = synchronize(&view, &change, &mkb, &SyncOptions::default()).unwrap();
        let params = QcParams::default();
        let scored = rank_rewritings(
            &view,
            &outcome.rewritings,
            &mkb,
            &params,
            WorkloadModel::SingleUpdate,
        )
        .unwrap();

        // Indispensable attributes must survive in every rewriting.
        let indispensable: Vec<&str> = view
            .select
            .iter()
            .filter(|s| !s.evolution.dispensable)
            .map(|s| s.output_name())
            .collect();
        for rw in &outcome.rewritings {
            let outputs = rw.view.output_columns();
            for attr in &indispensable {
                prop_assert!(
                    outputs.iter().any(|o| o == attr),
                    "indispensable `{attr}` lost in {}",
                    rw.view
                );
            }
            prop_assert!(rw.extent.satisfies(view.ve), "illegal extent {}", rw.extent);
        }

        // Scores bounded and sorted.
        let mut last = f64::INFINITY;
        for s in &scored {
            prop_assert!((0.0..=1.0).contains(&s.qc), "qc {}", s.qc);
            prop_assert!((0.0..=1.0).contains(&s.divergence.dd));
            prop_assert!((0.0..=1.0).contains(&s.divergence.dd_attr));
            prop_assert!((0.0..=1.0).contains(&s.divergence.dd_ext));
            prop_assert!((0.0..=1.0).contains(&s.normalized_cost));
            prop_assert!(s.cost >= 0.0 && s.cost.is_finite());
            prop_assert!(s.qc <= last + 1e-12, "not sorted");
            last = s.qc;
        }
    }

    // -------------------------------------------------------------------
    // Renames are always survivable and quality-neutral.
    // -------------------------------------------------------------------
    #[test]
    fn renames_are_lossless(view in arbitrary_view(), idx in 0usize..6) {
        let mkb = mkb_with_replicas(0);
        let change = SchemaChange::RenameAttribute {
            relation: "R".into(),
            from: format!("A{idx}"),
            to: "Renamed".into(),
        };
        let outcome = synchronize(&view, &change, &mkb, &SyncOptions::default()).unwrap();
        if outcome.affected {
            prop_assert_eq!(outcome.rewritings.len(), 1);
            let rw = &outcome.rewritings[0];
            prop_assert_eq!(rw.extent, eve::sync::ExtentRelationship::Equal);
            // Interface is fully preserved.
            prop_assert_eq!(rw.view.output_columns(), view.output_columns());
        }
        prop_assert!(outcome.survives());
    }

    // -------------------------------------------------------------------
    // More replicas never hurt: the rewriting count under delete-relation
    // is monotone in the number of equivalent replicas.
    // -------------------------------------------------------------------
    #[test]
    fn redundancy_is_monotone(view in arbitrary_view(), n in 1usize..3) {
        let change = SchemaChange::DeleteRelation { relation: "R".into() };
        let smaller = synchronize(
            &view, &change, &mkb_with_replicas(n), &SyncOptions::default()
        ).unwrap();
        let larger = synchronize(
            &view, &change, &mkb_with_replicas(n + 1), &SyncOptions::default()
        ).unwrap();
        prop_assert!(larger.rewritings.len() >= smaller.rewritings.len());
    }
}

// ---------------------------------------------------------------------
// Physical planner differential: planned ≡ naive view evaluation
// ---------------------------------------------------------------------

/// Builds the `T0..T{n-1}` extents (schema `(K, P)`) from generated rows.
fn exec_extents(all_rows: &[Vec<(i64, i64)>]) -> std::collections::BTreeMap<String, Relation> {
    use eve::relational::Schema;
    let schema = Schema::of(&[("K", DataType::Int), ("P", DataType::Int)]).unwrap();
    all_rows
        .iter()
        .enumerate()
        .map(|(i, rows)| {
            let name = format!("T{i}");
            let rel = Relation::with_tuples(
                &name,
                schema.clone(),
                rows.iter().map(|&(k, p)| tup![k, p]).collect(),
            )
            .unwrap();
            (name, rel)
        })
        .collect()
}

/// A chain-join view over the first `n` extents with optional literal
/// conditions, as E-SQL source (bindings `B0..B{n-1}`).
fn exec_view_sql(n: usize, literals: &[(usize, i64)]) -> String {
    let select: Vec<String> = (0..n)
        .map(|i| format!("B{i}.P AS P{i}"))
        .chain(std::iter::once("B0.K AS K0".to_owned()))
        .collect();
    let from: Vec<String> = (0..n).map(|i| format!("T{i} B{i}")).collect();
    let mut conds: Vec<String> = (1..n).map(|i| format!("B{}.K = B{i}.K", i - 1)).collect();
    for &(j, v) in literals {
        conds.push(format!("B{}.P > {v}", j % n));
    }
    let where_clause = if conds.is_empty() {
        String::new()
    } else {
        format!(" WHERE {}", conds.join(" AND "))
    };
    format!(
        "CREATE VIEW V AS SELECT {} FROM {}{}",
        select.join(", "),
        from.join(", "),
        where_clause
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // -------------------------------------------------------------------
    // `evaluate_view` (cost-ordered planner) produces exactly the bag the
    // naive left-to-right reference produces, on every generated view and
    // extent set — with and without declared statistics.
    // -------------------------------------------------------------------
    #[test]
    fn planned_evaluate_view_equals_naive(
        n in 1usize..4,
        rows in prop::collection::vec(
            prop::collection::vec((-4i64..5, -4i64..5), 0..10), 3..=3
        ),
        literals in prop::collection::vec((0usize..3, -4i64..5), 0..2),
    ) {
        use eve::system::query::{evaluate_view, evaluate_view_naive, evaluate_view_with_stats};

        let extents = exec_extents(&rows);
        let view = parse_view(&exec_view_sql(n, &literals)).unwrap();

        let naive = evaluate_view_naive(&view, &extents).unwrap();
        let planned = evaluate_view(&view, &extents).unwrap();
        prop_assert_eq!(planned.name(), naive.name());
        prop_assert_eq!(planned.schema(), naive.schema());
        let mut a = naive.tuples().to_vec();
        let mut b = planned.tuples().to_vec();
        a.sort();
        b.sort();
        prop_assert_eq!(&a, &b, "planned ≢ naive for {}", view);

        // Declared statistics may change the join order, never the bag.
        let stats: std::collections::BTreeMap<String, eve::relational::RelationStats> = extents
            .iter()
            .map(|(name, rel)| {
                let mut s = eve::relational::RelationStats::from_relation(rel);
                s.cardinality = (s.cardinality + 7) * 3; // deliberately wrong scale
                (name.clone(), s)
            })
            .collect();
        let declared = evaluate_view_with_stats(&view, &extents, &stats).unwrap();
        let mut c = declared.tuples().to_vec();
        c.sort();
        prop_assert_eq!(&a, &c, "declared-stats plan diverged for {}", view);
    }
}

// ---------------------------------------------------------------------
// Engine-level differential: after a mixed batched workload (data updates
// + capability changes), every materialized extent must equal a *naive*
// recomputation of its (possibly rewritten) definition over the live site
// extents — the planner-driven maintenance and re-materialization paths
// yield exactly the reference semantics, while survival verdicts and
// message totals stay pinned by `apply_batch_equals_sequential_application`
// above.
// ---------------------------------------------------------------------
#[test]
fn planner_driven_engine_matches_naive_recomputation() {
    let sites = 3;
    let mut engine = multi_site_engine(sites);
    let specs: Vec<(u32, u8, i64)> = (0..24)
        .map(|i| (i % sites, (i % 8) as u8, i64::from(i) * 7 % 60))
        .collect();
    let ops = realize_ops(sites, &specs);
    engine.apply_batch(ops).unwrap();

    let views: Vec<(String, eve::esql::ViewDef, Relation)> = engine
        .views()
        .map(|mv| (mv.def.name.clone(), mv.def.clone(), mv.extent.clone()))
        .collect();
    assert!(!views.is_empty(), "workload must leave surviving views");
    for (name, def, extent) in views {
        let mut extents = std::collections::BTreeMap::new();
        for item in &def.from {
            let site_id = engine.mkb().relation(&item.relation).unwrap().site.0;
            let site = engine.sites_mut().get(&site_id).unwrap();
            extents.insert(
                item.relation.clone(),
                site.relation(&item.relation).unwrap().clone(),
            );
        }
        let naive = eve::system::query::evaluate_view_naive(&def, &extents).unwrap();
        let mut a = extent.tuples().to_vec();
        let mut b = naive.tuples().to_vec();
        a.sort();
        b.sort();
        assert_eq!(a, b, "extent of {name} diverged from naive recomputation");
    }
}

// ---------------------------------------------------------------------
// Planner ↔ QC-Model cross-check on the shared view-execution shapes
// (wide / star / chain join): with declared statistics attached, the
// planner's scan I/O is the analytic model's `Σ ⌈|R|/bfr⌉` recomputation
// charge (the paper's Appendix-A term) — or less, when the cost model
// routes a selective literal clause through a secondary index instead of
// a full scan. The planned bag is checked against the naive evaluator on
// the same shapes, so the estimate is never read off a wrong plan.
// ---------------------------------------------------------------------
#[test]
#[allow(clippy::cast_precision_loss)]
fn planner_io_estimate_matches_analytic_recompute_io() {
    use eve::qc::cost::cf_recompute_io;
    use eve::qc::RelSpec;
    use eve::system::query::{evaluate_view_naive, plan_view};

    for workload in eve_bench::fixtures::workloads().unwrap() {
        let plan = plan_view(&workload.view, &workload.extents, &workload.stats).unwrap();

        let mut planned = plan.execute().unwrap().tuples().to_vec();
        let mut naive = evaluate_view_naive(&workload.view, &workload.extents)
            .unwrap()
            .tuples()
            .to_vec();
        planned.sort();
        naive.sort();
        assert!(!planned.is_empty(), "{} produced no rows", workload.name);
        assert_eq!(planned, naive, "planned ≢ naive on {}", workload.name);

        let specs: Vec<RelSpec> = workload
            .view
            .from
            .iter()
            .enumerate()
            .map(|(from_item, item)| {
                let s = &workload.stats[&item.relation];
                RelSpec {
                    name: item.relation.clone(),
                    cardinality: s.cardinality as f64,
                    tuple_bytes: s.tuple_bytes as f64,
                    selectivity: s.selectivity,
                    blocking_factor: s.blocking_factor as f64,
                    join_selectivity: 0.005,
                    from_item,
                    conditions: Vec::new(),
                }
            })
            .collect();
        let analytic_io = cf_recompute_io(&specs);

        let est = plan.estimate();
        assert!(
            est.io_blocks <= analytic_io + 1e-9,
            "{}: planner {} vs analytic {analytic_io}",
            workload.name,
            est.io_blocks,
        );
        if est.index_scans == 0 {
            assert!(
                (est.io_blocks - analytic_io).abs() < 1e-9,
                "{}: without an index scan the estimates must agree \
                 exactly: planner {} vs analytic {analytic_io}",
                workload.name,
                est.io_blocks,
            );
        }
    }
}
