//! Which adopted rewritings keep the view's old extent at commit, on the
//! canonical one-site space (`R1_a`, `R1_b ≡ R1_c`, views `V1` over
//! `R1_a A ⋈ R1_b B` and `W1` over `R1_c`).
//!
//! A swap of the deleted relation onto a partner carries the extent only
//! when the rewriting keeps every alias, SELECT item and condition, and the
//! partner holds the bag the deleted relation held. Each case asserts the
//! `engine.views_carried` / `engine.views_recomputed` /
//! `engine.carry_rows_compared` deltas, that a carried extent is the old
//! storage itself, and that every extent is the bag a fresh evaluation
//! yields under the same schema.
//!
//! The counters are process-wide, so the cases run one at a time, and no
//! other suite shares this binary.

use std::sync::Mutex;

use eve::misd::{
    AttributeInfo, PcConstraint, PcRelationship, PcSide, RelationInfo, SchemaChange, SiteId,
};
use eve::relational::{tup, DataType, Relation, Schema, Tuple};
use eve::system::{DataUpdate, EveEngine};

static COUNTERS: Mutex<()> = Mutex::new(());

/// `(carried, recomputed, rows compared)` so far in this process.
fn counters() -> [u64; 3] {
    let registry = eve_trace::global();
    [
        "engine.views_carried",
        "engine.views_recomputed",
        "engine.carry_rows_compared",
    ]
    .map(|name| registry.counter(name).get())
}

/// The fixture row of key `k`.
fn row(k: i64) -> Tuple {
    tup![k, k % 5]
}

fn update(e: &mut EveEngine, relation: &str, inserts: Vec<Tuple>, deletes: Vec<Tuple>) {
    e.notify_data_update(&DataUpdate {
        relation: relation.into(),
        inserts,
        deletes,
    })
    .unwrap();
}

fn delete_and_check(
    e: &mut EveEngine,
    relation: &str,
    carried: &[&str],
    recomputed: &[&str],
    rows_compared: u64,
) {
    let change = SchemaChange::DeleteRelation {
        relation: relation.into(),
    };
    check(e, change, carried, recomputed, rows_compared);
}

/// Applies `change` and checks the outcome: the counter deltas, which
/// views kept their old extent (by storage identity), and that every
/// extent is a fresh evaluation's bag under the same schema.
fn check(
    e: &mut EveEngine,
    change: SchemaChange,
    carried: &[&str],
    recomputed: &[&str],
    rows_compared: u64,
) {
    let before: Vec<(String, Relation)> = e
        .views()
        .map(|mv| (mv.def.name.clone(), mv.extent.clone()))
        .collect();
    let start = counters();
    let reports = e.notify_capability_change(&change, None).unwrap();
    let end = counters();
    assert_eq!(
        [end[0] - start[0], end[1] - start[1], end[2] - start[2]],
        [carried.len() as u64, recomputed.len() as u64, rows_compared],
        "carried, recomputed, rows compared"
    );
    for report in reports.iter().filter(|r| r.affected) {
        assert!(report.survived, "{} died", report.view_name);
    }
    for (name, old) in before {
        let Ok(mv) = e.view(&name) else { continue };
        let kept = mv.extent.shares_tuples_with(&old);
        if carried.contains(&name.as_str()) {
            assert!(kept, "{name} was recomputed");
        } else if recomputed.contains(&name.as_str()) {
            assert!(!kept, "{name} was carried");
        }
        let fresh = e.evaluate(&mv.def).unwrap();
        assert_eq!(mv.extent.schema(), fresh.schema(), "schema of {name}");
        let mut held = mv.extent.tuples().to_vec();
        let mut want = fresh.tuples().to_vec();
        held.sort();
        want.sort();
        assert_eq!(held, want, "extent of {name}");
    }
}

fn space() -> EveEngine {
    eve_bench::fixtures::build_space(1).unwrap()
}

#[test]
fn a_replica_holding_the_same_bag_in_another_order_is_carried() {
    let _serial = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let mut e = space();
    // Move two rows of the replica to its end: same bag, another order.
    update(&mut e, "R1_c", vec![row(0), row(1)], vec![row(0), row(1)]);
    let rows = |name: &str| e.extents().find(|r| r.name() == name).unwrap().tuples();
    assert_ne!(rows("R1_b"), rows("R1_c"));
    delete_and_check(&mut e, "R1_b", &["V1"], &[], 40);
}

#[test]
fn a_declared_equivalent_replica_with_one_other_tuple_is_recomputed() {
    let _serial = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let mut e = space();
    // Same cardinality, one tuple differs: the PC constraint still says ≡.
    update(&mut e, "R1_c", vec![tup![3, 4]], vec![row(3)]);
    delete_and_check(&mut e, "R1_b", &[], &["V1"], 40);
}

#[test]
fn a_swap_that_merges_into_an_existing_binding_is_recomputed() {
    let _serial = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let mut e = space();
    e.define_view_sql(
        "CREATE VIEW M1 (VE = '~') AS SELECT B.K, C.P AS CP \
         FROM R1_b B (RR = true), R1_c C WHERE B.K = C.K",
    )
    .unwrap();
    // `V1` swaps onto the same replica and is carried; one bag check
    // serves both views.
    delete_and_check(&mut e, "R1_b", &["V1"], &["M1"], 40);
    let merged = &e.view("M1").unwrap().def;
    assert_eq!(merged.from.len(), 1, "{merged}");
}

#[test]
fn a_partner_that_renames_an_attribute_is_recomputed() {
    let _serial = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let mut e = space();
    let rows: Vec<Tuple> = (0..40).map(row).collect();
    for (name, second) in [("R1_e", "P"), ("R1_d", "Q")] {
        e.register_relation(
            RelationInfo::new(
                name,
                SiteId(1),
                vec![
                    AttributeInfo::new("K", DataType::Int),
                    AttributeInfo::new(second, DataType::Int),
                ],
                10,
            ),
            Relation::with_tuples(
                name,
                Schema::of(&[("K", DataType::Int), (second, DataType::Int)]).unwrap(),
                rows.clone(),
            )
            .unwrap(),
        )
        .unwrap();
    }
    e.mkb_mut()
        .add_pc_constraint(PcConstraint::new(
            PcSide::projection("R1_e", &["K", "P"]),
            PcRelationship::Equivalent,
            PcSide::projection("R1_d", &["K", "Q"]),
        ))
        .unwrap();
    e.define_view_sql("CREATE VIEW X1 (VE = '~') AS SELECT E.K, E.P AS EP FROM R1_e E (RR = true)")
        .unwrap();
    delete_and_check(&mut e, "R1_e", &[], &["X1"], 0);
    assert!(e.view("X1").unwrap().def.to_string().contains("E.Q"));
}

/// Only `X` reads the deleted attribute, so the swap moves `X` onto the
/// replica and leaves `Y` on the projected `R1_b`.
#[test]
fn a_self_join_onto_a_replica_with_the_same_bag_is_carried() {
    let _serial = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let mut e = space();
    e.define_view_sql(
        "CREATE VIEW S1 (VE = '~') AS SELECT X.K, X.P AS XP, Y.K AS YK \
         FROM R1_b X (RR = true), R1_b Y WHERE X.K = Y.K",
    )
    .unwrap();
    check(
        &mut e,
        SchemaChange::DeleteAttribute {
            relation: "R1_b".into(),
            attribute: "P".into(),
        },
        &["S1", "V1"],
        &[],
        40,
    );
    let swapped = e.view("S1").unwrap().def.to_string();
    assert!(
        swapped.contains("FROM R1_c X (RR = true), R1_b Y"),
        "{swapped}"
    );
}

/// Deleting every binding of the relation: the second swap merges into
/// the first, which the carry declines.
#[test]
fn a_self_join_whose_swaps_merge_is_recomputed() {
    let _serial = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let mut e = space();
    e.define_view_sql(
        "CREATE VIEW S1 (VE = '~') AS SELECT X.K, Y.P AS YP \
         FROM R1_b X (RR = true), R1_b Y (RR = true) WHERE X.K = Y.K",
    )
    .unwrap();
    delete_and_check(&mut e, "R1_b", &["V1"], &["S1"], 40);
}
