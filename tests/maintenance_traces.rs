//! Maintenance traces pinned against the build that still hashed the whole
//! hosted relation per delta join: `tests/golden/maintenance_traces.txt` was
//! written by that build running the script below. Extents (row order
//! included), every `MaintenanceTrace` and every site's I/O and message
//! counters must come out byte for byte the same now that the site-side
//! join probes the hosted relation's hash index — and the index must be
//! where the probes leave it. After every step each view's extent must also
//! be bag-equal to a fresh evaluation of its definition.
//!
//! The transcript changed twice since, and nothing else in it changed:
//! - A view's row order after a rename is its maintained order: adopting a
//!   pure rename keeps the old extent instead of re-evaluating it in plan
//!   order. From `rename-relation X → X2` on, `V3`'s rows are permuted
//!   (1,169 lines in 12 step blocks, the same sorted multiset).
//! - Maintenance ships only the deletes the source performed. The absent
//!   tuple of `delete Z and one absent tuple` no longer travels (`V3`'s
//!   trace: 3,456 → 2,136 bytes), and `delete R ×3 (two present)` no
//!   longer removes a third copy's join rows from `V2` (its trace:
//!   864 → 576 bytes, 6 → 4 I/Os, −8 → −6 rows; site 3: 54 → 52 I/Os;
//!   `V2` keeps `(0, 't0', 7)` and `(0, 't0', 12)` twice, as evaluation
//!   does).

use std::fmt::Write as _;
use std::path::PathBuf;

use eve::misd::{
    AttributeInfo, PcConstraint, PcRelationship, PcSide, RelationInfo, SchemaChange, SiteId,
};
use eve::relational::{tup, DataType, IndexKind, Relation, Schema, Tuple};
use eve::system::{DataUpdate, EveEngine, EvolutionOp};

/// Small blocks, so that two or three matches already span blocks and a
/// count taken after the residual filter would charge fewer I/Os.
const BFR: u64 = 2;

fn register(e: &mut EveEngine, name: &str, site: u32, cols: &[(&str, DataType)], rows: Vec<Tuple>) {
    let attrs = cols
        .iter()
        .map(|(n, ty)| AttributeInfo::new(*n, *ty))
        .collect();
    let mut info = RelationInfo::new(name, SiteId(site), attrs, rows.len() as u64);
    info.blocking_factor = BFR;
    let extent = Relation::with_tuples(name, Schema::of(cols).unwrap(), rows).unwrap();
    e.register_relation(info, extent).unwrap();
}

/// Three sites. `V3` chains `X@1 ⋈ Y@2 ⋈ Z@3`, so an update of `Z` reaches
/// `X`'s site before any clause to `X` is resolvable (the keyless visit)
/// and then joins `Y` on two columns at once. `V2` joins `R@1 ⋈ M@2` on an
/// Int and a Text column with a residual `<`; `M2@3 ≡ M` is the replica
/// `delete-relation M` falls back to.
fn engine() -> EveEngine {
    use DataType::{Int, Text};
    let mut e = EveEngine::new();
    for (id, name) in [(1, "one"), (2, "two"), (3, "three")] {
        e.add_site(SiteId(id), name).unwrap();
    }
    let kj = [("K", Int), ("J", Int)];
    register(
        &mut e,
        "X",
        1,
        &kj,
        (0..12).map(|k| tup![k, k % 4]).collect(),
    );
    register(
        &mut e,
        "Y",
        2,
        &kj,
        (0..10).map(|k| tup![k % 4, k % 3]).collect(),
    );
    register(
        &mut e,
        "Z",
        3,
        &[("K", Int), ("J", Int), ("T", Text)],
        (0..9)
            .map(|k| tup![k % 3, k, format!("z{}", k % 2)])
            .collect(),
    );
    let kpt = [("K", Int), ("P", Int), ("T", Text)];
    let m_rows: Vec<Tuple> = (0..14)
        .map(|k| tup![k % 3, k, format!("t{}", k % 2)])
        .collect();
    register(
        &mut e,
        "R",
        1,
        &kpt,
        (0..11)
            .map(|k| tup![k % 5, 6, format!("t{}", k % 2)])
            .collect(),
    );
    register(&mut e, "M", 2, &kpt, m_rows.clone());
    register(&mut e, "M2", 3, &kpt, m_rows);
    e.mkb_mut()
        .add_pc_constraint(PcConstraint::new(
            PcSide::projection("M", &["K", "P", "T"]),
            PcRelationship::Equivalent,
            PcSide::projection("M2", &["K", "P", "T"]),
        ))
        .unwrap();
    e.define_view_sql(
        "CREATE VIEW V3 (VE = '~') AS SELECT X.K AS XK, Y.K AS YK, Z.J AS ZJ \
         FROM X, Y, Z WHERE (X.J = Y.K) AND (Y.J = Z.K)",
    )
    .unwrap();
    e.define_view_sql(
        "CREATE VIEW V2 (VE = '~') AS SELECT R.K, R.T AS RT, M.P AS MP \
         FROM R, M (RR = true) WHERE (R.K = M.K) AND (R.T = M.T) AND (R.P < M.P)",
    )
    .unwrap();
    e
}

/// Applies one batch and appends what it did: the per-view traces or
/// evolution reports, then every view (definition, extent in stored order)
/// and every site's counters.
fn step(e: &mut EveEngine, out: &mut String, label: &str, ops: Vec<EvolutionOp>) {
    let outcome = e.apply_batch(ops).unwrap();
    writeln!(out, "== {label}").unwrap();
    for (view, t) in &outcome.traces {
        writeln!(
            out,
            "trace {view}: {} msgs, {} bytes, {} I/Os, +{} -{} rows",
            t.messages, t.bytes, t.ios, t.view_inserts, t.view_deletes
        )
        .unwrap();
    }
    for r in &outcome.reports {
        writeln!(
            out,
            "report {}: affected={} survived={} candidates={}",
            r.view_name, r.affected, r.survived, r.candidates
        )
        .unwrap();
    }
    for mv in e.views() {
        let mut kept = mv.extent.tuples().to_vec();
        let mut fresh = e.evaluate(&mv.def).unwrap().tuples().to_vec();
        kept.sort();
        fresh.sort();
        assert_eq!(
            kept, fresh,
            "{label}: extent of {} is not its definition's bag",
            mv.def.name
        );
        writeln!(out, "view {}", mv.def).unwrap();
        for t in mv.extent.tuples() {
            writeln!(out, "  {t}").unwrap();
        }
    }
    for (id, site) in e.sites_mut().iter() {
        writeln!(
            out,
            "site {id}: {} I/Os, {} msgs",
            site.io_count(),
            site.message_count()
        )
        .unwrap();
    }
}

fn hosted<'a>(e: &'a mut EveEngine, site: u32, relation: &str) -> &'a Relation {
    e.sites_mut()[&site].relation(relation).unwrap()
}

#[track_caller]
fn assert_probed(e: &mut EveEngine, site: u32, relation: &str, col: usize) {
    assert!(
        hosted(e, site, relation).has_index(col, IndexKind::Hash),
        "`{relation}` has no hash index on column {col}"
    );
}

#[test]
fn maintenance_traces_reproduce_the_parent_build() {
    use EvolutionOp as Op;
    let mut e = engine();
    let mut out = String::new();
    let s = &mut out;

    // Inserts and deletes at every binding, single- and multi-tuple.
    step(
        &mut e,
        s,
        "insert X",
        vec![Op::insert("X", vec![tup![20, 1]])],
    );
    step(
        &mut e,
        s,
        "insert Y ×3 (one without partner)",
        vec![Op::insert("Y", vec![tup![1, 2], tup![1, 2], tup![9, 9]])],
    );
    step(
        &mut e,
        s,
        "insert Z (keyless visit at X's site)",
        vec![Op::insert("Z", vec![tup![2, 40, "z0"], tup![0, 41, "z1"]])],
    );
    step(
        &mut e,
        s,
        "delete X",
        vec![Op::delete("X", vec![tup![3, 3]])],
    );
    step(
        &mut e,
        s,
        "delete Y (asked twice, present thrice)",
        vec![Op::delete("Y", vec![tup![1, 2], tup![1, 2]])],
    );
    step(
        &mut e,
        s,
        "delete Z and one absent tuple",
        vec![Op::delete("Z", vec![tup![0, 3, "z1"], tup![7, 7, "zz"]])],
    );
    step(
        &mut e,
        s,
        "insert R (one text key M never held)",
        vec![Op::insert(
            "R",
            vec![
                tup![2, 1, "t0"],
                tup![2, 1, "never-in-M"],
                tup![4, 0, "t1"],
                tup![0, 6, "t0"], // three key matches, one passes `R.P < M.P`
            ],
        )],
    );
    step(
        &mut e,
        s,
        "insert M",
        vec![Op::insert("M", vec![tup![0, 9, "t0"]])],
    );
    step(
        &mut e,
        s,
        "delete R",
        vec![Op::delete("R", vec![tup![0, 6, "t0"]])],
    );
    step(
        &mut e,
        s,
        "delete M ×2 with an insert",
        vec![Op::Data(DataUpdate {
            relation: "M".into(),
            inserts: vec![tup![1, 8, "t1"]],
            deletes: vec![tup![1, 10, "t0"], tup![1, 13, "t1"]],
        })],
    );
    assert_probed(&mut e, 2, "Y", 0); // X.J = Y.K, and first of (Y.K, Y.J) from Z
    assert_probed(&mut e, 1, "X", 1); // X.J = Y.K from Y
    assert_probed(&mut e, 3, "Z", 0); // Y.J = Z.K
    assert_probed(&mut e, 2, "M", 0); // R.K = M.K, first of two key columns
    assert_probed(&mut e, 1, "R", 0);
    assert!(
        !hosted(&mut e, 2, "M").has_index(2, IndexKind::Hash),
        "further key columns are verified on the candidates, not indexed"
    );

    // rename-relation keeps the storage, and the index with it.
    step(
        &mut e,
        s,
        "rename-relation X → X2",
        vec![Op::change(SchemaChange::RenameRelation {
            from: "X".into(),
            to: "X2".into(),
        })],
    );
    assert_probed(&mut e, 1, "X2", 1);
    step(
        &mut e,
        s,
        "one batch over all three sites",
        vec![
            Op::insert("X2", vec![tup![21, 2], tup![22, 2]]),
            Op::insert("Y", vec![tup![2, 0]]),
            Op::delete("Z", vec![tup![2, 40, "z0"]]),
            Op::insert("R", vec![tup![1, 0, "t1"]]),
            Op::delete("X2", vec![tup![21, 2]]),
        ],
    );

    step(
        &mut e,
        s,
        "rename-attribute Y.J → Y.J2",
        vec![Op::change(SchemaChange::RenameAttribute {
            relation: "Y".into(),
            from: "J".into(),
            to: "J2".into(),
        })],
    );
    step(
        &mut e,
        s,
        "insert Z after the rename",
        vec![Op::insert("Z", vec![tup![1, 50, "z0"]])],
    );
    step(
        &mut e,
        s,
        "insert Y after the rename",
        vec![Op::insert("Y", vec![tup![3, 1]])],
    );

    // delete-attribute rebuilds the hosted extent: the next probe rebuilds
    // the index over the new storage.
    step(
        &mut e,
        s,
        "delete-attribute Z.T",
        vec![Op::change(SchemaChange::DeleteAttribute {
            relation: "Z".into(),
            attribute: "T".into(),
        })],
    );
    assert!(!hosted(&mut e, 3, "Z").has_index(0, IndexKind::Hash));
    step(
        &mut e,
        s,
        "insert Y probes the rebuilt Z",
        vec![Op::insert("Y", vec![tup![0, 2]])],
    );
    assert_probed(&mut e, 3, "Z", 0);
    step(
        &mut e,
        s,
        "delete Z after delete-attribute",
        vec![Op::delete("Z", vec![tup![1, 50], tup![1, 1]])],
    );

    // delete-relation: V2 adopts the replica, which was never probed.
    step(
        &mut e,
        s,
        "delete-relation M",
        vec![Op::change(SchemaChange::DeleteRelation {
            relation: "M".into(),
        })],
    );
    assert!(e.view("V2").unwrap().def.to_string().contains("M2"));
    assert!(!hosted(&mut e, 3, "M2").has_index(0, IndexKind::Hash));
    step(
        &mut e,
        s,
        "insert R probes the adopted replica",
        vec![Op::insert("R", vec![tup![0, 2, "t0"], tup![0, 2, "t0"]])],
    );
    assert_probed(&mut e, 3, "M2", 0);
    step(
        &mut e,
        s,
        "update M2",
        vec![Op::Data(DataUpdate {
            relation: "M2".into(),
            inserts: vec![tup![0, 7, "t0"]],
            deletes: vec![tup![1, 4, "t0"]],
        })],
    );
    step(
        &mut e,
        s,
        "delete R ×3 (two present)",
        vec![Op::delete(
            "R",
            vec![tup![0, 2, "t0"], tup![0, 2, "t0"], tup![0, 2, "t0"]],
        )],
    );

    let golden =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/maintenance_traces.txt");
    let expected = std::fs::read_to_string(&golden).unwrap();
    assert!(
        out == expected,
        "maintenance transcript diverged from {}; first differing line: {:?}",
        golden.display(),
        out.lines()
            .zip(expected.lines())
            .enumerate()
            .find(|(_, (a, b))| a != b)
    );
}
