//! Property suites for the two steps of a base update that read the hosted
//! relation's hash index instead of the whole relation.
//!
//! 1. **Probe ≡ build** — `exec::join_with_counts` returns the rows of
//!    `algebra::join` in the same order and the match counts of a nested
//!    loop, for one-, two- and three-column equi keys over Int, Bool and
//!    Text (whichever comes first is the probed column), with a residual
//!    clause, on a `next` whose indexes were warmed *before* a random run
//!    of inserts and deletes — so an incrementally maintained index is held
//!    against the truth, and against a cold copy that builds its own.
//! 2. **`Relation::delete`, indexed ≡ scanned** — the earliest occurrences
//!    go, whatever finds them; the columnar image and every live index
//!    equal a from-scratch rebuild; a delete that matches nothing detaches
//!    nothing.
//! 3. **Through the product ≡ over the product** —
//!    `exec::join_through_product(Δ, R, N, on)` returns the rows, schema and
//!    match counts of `join_with_counts` over the materialised `Δ × R`, for
//!    one- and two-column keys from `N` to each factor written either way
//!    round, with a residual clause, duplicates and an empty delta. It
//!    declines (`None`) without a key to either factor, on a mismatched key
//!    type, and when `N` and `R` share storage.
//!
//! Case counts honour `PROPTEST_CASES` (CI smoke 64, nightly 256).

use proptest::prelude::*;

use eve_relational::exec::{join_through_product, join_with_counts};
use eve_relational::{
    algebra, intern, ColumnDef, ColumnRef, ColumnarBatch, CompOp, DataType, IndexKind, Predicate,
    PrimitiveClause, Relation, Schema, Tuple, Value,
};

/// A delta text no stored row ever holds and nothing may intern: the probe
/// has to miss on it without asking the pool to remember it.
const NEVER_INTERNED: &str = "maintain-props-text-never-interned-§";

/// `(I, B, S, V)`: three key columns of different types and a payload the
/// residual clause compares.
type Row = (i64, bool, String, i64);

fn arb_row() -> impl Strategy<Value = Row> {
    (0i64..4, any::<bool>(), "[ab]{0,2}", 0i64..6)
}

fn tuple((i, b, s, v): &Row) -> Tuple {
    Tuple::new(vec![
        Value::Int(*i),
        Value::Bool(*b),
        Value::from(s.as_str()),
        Value::Int(*v),
    ])
}

fn relation(binding: &str, rows: &[Row]) -> Relation {
    let col = |name: &str, ty| ColumnDef::new(ColumnRef::qualified(binding, name), ty);
    let schema = Schema::new(vec![
        col("I", DataType::Int),
        col("B", DataType::Bool),
        col("S", DataType::Text),
        col("V", DataType::Int),
    ])
    .unwrap();
    Relation::with_tuples(binding, schema, rows.iter().map(tuple).collect()).unwrap()
}

/// One mutation of `next` after its indexes were warmed.
#[derive(Debug, Clone)]
enum Op {
    Insert(Row),
    /// Deletes the row at this position (modulo the cardinality), twice
    /// over — the second request only bites when the row has a duplicate.
    Delete(usize),
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            arb_row().prop_map(Op::Insert),
            (0usize..64).prop_map(Op::Delete)
        ],
        0..16,
    )
}

fn apply(rel: &mut Relation, ops: &[Op]) {
    for op in ops {
        match op {
            Op::Insert(row) => rel.insert(tuple(row)).unwrap(),
            Op::Delete(_) if rel.is_empty() => {}
            Op::Delete(at) => {
                let victim = rel.tuples()[at % rel.cardinality()].clone();
                rel.delete(&[victim.clone(), victim]);
            }
        }
    }
}

fn eq(d: &str, n: &str) -> PrimitiveClause {
    PrimitiveClause::eq(ColumnRef::qualified("D", d), ColumnRef::qualified("N", n))
}

/// Key shapes for a join through `D × R` to `N`: the pairs to `D`, the
/// pairs to `R`, and whether the join can run without the product. A pair
/// names the factor's column first.
type ThroughShape = (
    &'static [(&'static str, &'static str)],
    &'static [(&'static str, &'static str)],
    bool,
);

const THROUGH_SHAPES: &[ThroughShape] = &[
    (&[("I", "I")], &[("S", "S")], true),
    (&[("S", "S"), ("B", "B")], &[("I", "I")], true),
    (&[("I", "I")], &[("V", "V"), ("B", "B")], true),
    (&[("B", "B"), ("I", "I")], &[("S", "S"), ("I", "I")], true),
    (&[("V", "I")], &[("I", "V")], true),
    (&[], &[("I", "I")], false),
    (&[("I", "I")], &[], false),
    (&[("I", "S")], &[("I", "I")], false),
    (&[("I", "I")], &[("S", "S"), ("I", "S")], false),
];

/// Every key shape `join_with_counts` distinguishes. The first pair names
/// the probed column; `D.I = N.S` compares Int with Text and takes the
/// projected-tuple fallback; the empty shape is the keyless scan.
fn key_shapes() -> Vec<Vec<(&'static str, &'static str)>> {
    vec![
        vec![("I", "I")],
        vec![("B", "B")],
        vec![("S", "S")],
        vec![("I", "I"), ("S", "S")],
        vec![("S", "S"), ("B", "B")],
        vec![("B", "B"), ("I", "I"), ("S", "S")],
        vec![("V", "V"), ("S", "S"), ("I", "I")],
        vec![("I", "S")],
        vec![("I", "I"), ("I", "S")],
        vec![],
    ]
}

/// How many `next` tuples each delta tuple matches on the key pairs alone
/// — before the residual — by nested loop. No key: the whole relation.
fn nested_loop_counts(delta: &Relation, next: &Relation, keys: &[(&str, &str)]) -> Vec<usize> {
    let pairs: Vec<(usize, usize)> = keys
        .iter()
        .map(|(d, n)| {
            (
                delta
                    .schema()
                    .resolve(&ColumnRef::qualified("D", *d), "D")
                    .unwrap(),
                next.schema()
                    .resolve(&ColumnRef::qualified("N", *n), "N")
                    .unwrap(),
            )
        })
        .collect();
    delta
        .tuples()
        .iter()
        .map(|dt| {
            next.tuples()
                .iter()
                .filter(|nt| pairs.iter().all(|&(d, n)| dt.get(d) == nt.get(n)))
                .count()
        })
        .collect()
}

/// The reference for [`Relation::delete`]: one scan per requested tuple,
/// removing its first remaining occurrence.
fn delete_one_by_one(stored: &[Tuple], victims: &[Tuple]) -> Vec<Tuple> {
    let mut left = stored.to_vec();
    for v in victims {
        if let Some(at) = left.iter().position(|t| t == v) {
            left.remove(at);
        }
    }
    left
}

fn scan_rows(rel: &Relation, col: usize, op: CompOp, key: &Value) -> Vec<u32> {
    rel.tuples()
        .iter()
        .enumerate()
        .filter(|(_, t)| op.eval(t.get(col).try_cmp(key).unwrap()))
        .map(|(i, _)| u32::try_from(i).unwrap())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn index_probe_join_equals_built_join(
        delta_rows in prop::collection::vec(arb_row(), 0..8),
        never_at in prop::option::of(0usize..8),
        next_rows in prop::collection::vec(arb_row(), 0..14),
        ops in arb_ops(),
        with_residual in any::<bool>(),
    ) {
        let mut delta_rows = delta_rows;
        if let Some(at) = never_at {
            if let Some(row) = delta_rows.get_mut(at) {
                row.2 = NEVER_INTERNED.to_owned();
            }
        }
        let delta = relation("D", &delta_rows);

        // Warm first, mutate afterwards: what the joins below probe has
        // been through `insert_row` / `remove_rows`, not through a build.
        let mut next = relation("N", &next_rows);
        for col in 0..3 {
            next.warm_index(col, IndexKind::Hash);
        }
        apply(&mut next, &ops);
        let builds = next.index_stats().builds;

        for keys in key_shapes() {
            let mut on: Vec<PrimitiveClause> = keys.iter().map(|(d, n)| eq(d, n)).collect();
            if with_residual {
                on.push(PrimitiveClause::cols(
                    ColumnRef::qualified("D", "V"),
                    CompOp::Lt,
                    ColumnRef::qualified("N", "V"),
                ));
            }
            let reference = algebra::join(&delta, &next, &Predicate::new(on.clone())).unwrap();
            let counts = nested_loop_counts(&delta, &next, &keys);

            let (joined, got) = join_with_counts(&delta, &next, &on).unwrap();
            prop_assert_eq!(joined.tuples(), reference.tuples(), "maintained, keys {:?}", &keys);
            prop_assert_eq!(&got, &counts, "maintained counts, keys {:?}", &keys);

            // A cold copy of the same rows builds its index on this probe.
            let cold = Relation::with_tuples("N", next.schema().clone(), next.tuples().to_vec())
                .unwrap();
            let (joined, got) = join_with_counts(&delta, &cold, &on).unwrap();
            prop_assert_eq!(joined.tuples(), reference.tuples(), "rebuilt, keys {:?}", &keys);
            prop_assert_eq!(&got, &counts, "rebuilt counts, keys {:?}", &keys);
            let probed = !delta.is_empty() && !keys.is_empty() && !keys.contains(&("I", "S"));
            prop_assert_eq!(cold.index_stats().hash_indexes, u64::from(probed));
            // One hit per delta tuple, added when the join ends.
            let hits = if probed { delta.cardinality() as u64 } else { 0 };
            prop_assert_eq!(cold.index_stats().hits, hits, "hits, keys {:?}", &keys);
        }
        // `V` is the one probed column the warm-up left out.
        let lazily = u64::from(!delta.is_empty());
        prop_assert_eq!(next.index_stats().builds, builds + lazily, "probes do not rebuild");
        prop_assert!(intern::lookup(NEVER_INTERNED).is_none(), "a probe interns nothing");
    }

    #[test]
    fn delete_is_the_same_with_and_without_indexes(
        rows in prop::collection::vec(arb_row(), 0..16),
        picks in prop::collection::vec((any::<bool>(), 0usize..64, arb_row()), 0..10),
        repeat in 1usize..4,
    ) {
        // Victims: stored rows (by position) or random rows that may be
        // absent, the whole request repeated up to three times — more often
        // than most rows are present.
        let mut victims: Vec<Tuple> = Vec::new();
        for (stored, at, row) in &picks {
            victims.push(if *stored && !rows.is_empty() {
                tuple(&rows[at % rows.len()])
            } else {
                tuple(row)
            });
        }
        let asked = victims.len() * repeat;
        let victims: Vec<Tuple> = victims.iter().cycle().take(asked).cloned().collect();
        let stored: Vec<Tuple> = rows.iter().map(tuple).collect();
        let expected = delete_one_by_one(&stored, &victims);

        let setups: [&[(usize, IndexKind)]; 4] = [
            &[],
            &[(0, IndexKind::Hash)],
            &[(2, IndexKind::Hash), (0, IndexKind::Sorted)],
            &[(1, IndexKind::Hash), (2, IndexKind::Hash), (3, IndexKind::Sorted)],
        ];
        for indexes in setups {
            let mut rel = relation("N", &rows);
            let _ = rel.columnar();
            for &(col, kind) in indexes {
                rel.warm_index(col, kind);
            }
            let alias = rel.clone();

            let removed = rel.delete(&victims).len();
            prop_assert_eq!(removed, stored.len() - expected.len(), "{:?}", indexes);
            prop_assert_eq!(rel.tuples(), &expected[..], "earliest occurrences go: {:?}", indexes);
            prop_assert_eq!(rel.generation(), u64::from(removed > 0));
            prop_assert_eq!(rel.shares_tuples_with(&alias), removed == 0, "detach iff removed");
            prop_assert_eq!(alias.tuples(), &stored[..], "the alias keeps every row");

            prop_assert_eq!(
                &*rel.columnar(),
                &ColumnarBatch::from_tuples(rel.schema(), rel.tuples())
            );
            for &(col, kind) in indexes {
                prop_assert!(rel.has_index(col, kind), "maintained, not dropped");
                let mut keys: Vec<Value> = stored.iter().map(|t| t.get(col).clone()).collect();
                keys.extend(victims.iter().map(|t| t.get(col).clone()));
                for key in &keys {
                    let got = match kind {
                        IndexKind::Hash => rel.index_eq_rows(col, key),
                        IndexKind::Sorted => rel.index_range_rows(col, CompOp::Eq, key),
                    };
                    prop_assert_eq!(got, scan_rows(&rel, col, CompOp::Eq, key), "{:?} {}", kind, col);
                    if kind == IndexKind::Sorted {
                        prop_assert_eq!(
                            rel.index_range_rows(col, CompOp::Lt, key),
                            scan_rows(&rel, col, CompOp::Lt, key)
                        );
                    }
                }
            }
            // A delete finds its victims by probe: a setup with no hash
            // index gets one on column 0, built once, by the first delete
            // that reaches a stored row.
            let probed = !victims.is_empty() && !stored.is_empty();
            let built = probed && !indexes.iter().any(|&(_, kind)| kind == IndexKind::Hash);
            prop_assert_eq!(rel.has_index(0, IndexKind::Hash), built || indexes.contains(&(0, IndexKind::Hash)));
            prop_assert_eq!(
                rel.index_stats().builds,
                (indexes.len() + usize::from(built)) as u64,
                "no rebuild"
            );
        }
    }
    #[test]
    fn join_through_product_equals_the_join_over_the_product(
        delta_rows in prop::collection::vec(arb_row(), 0..6),
        deferred_rows in prop::collection::vec(arb_row(), 0..8),
        next_rows in prop::collection::vec(arb_row(), 0..12),
        deferred_ops in arb_ops(),
        next_ops in arb_ops(),
        flip in any::<bool>(),
        residual_on_deferred in prop::option::of(any::<bool>()),
    ) {
        let delta = relation("D", &delta_rows);
        // Indexes warmed before the mutations, as on a hosted relation.
        let mut deferred = relation("R", &deferred_rows);
        let mut next = relation("N", &next_rows);
        for col in 0..4 {
            deferred.warm_index(col, IndexKind::Hash);
            next.warm_index(col, IndexKind::Hash);
        }
        apply(&mut deferred, &deferred_ops);
        apply(&mut next, &next_ops);
        let product = join_with_counts(&delta, &deferred, &[]).unwrap().0;

        for &(to_delta, to_deferred, keyed) in THROUGH_SHAPES {
            let mut on: Vec<PrimitiveClause> = to_delta.iter().map(|(d, n)| eq(d, n)).collect();
            for (r, n) in to_deferred {
                let (r, n) = (ColumnRef::qualified("R", *r), ColumnRef::qualified("N", *n));
                on.push(if flip { PrimitiveClause::eq(n, r) } else { PrimitiveClause::eq(r, n) });
            }
            if let Some(on_deferred) = residual_on_deferred {
                on.push(PrimitiveClause::cols(
                    ColumnRef::qualified(if on_deferred { "R" } else { "D" }, "V"),
                    CompOp::Lt,
                    ColumnRef::qualified("N", "V"),
                ));
            }
            let (want, want_counts) = join_with_counts(&product, &next, &on).unwrap();
            let got = join_through_product(&delta, &deferred, &next, &on).unwrap();
            let Some((joined, counts)) = got else {
                prop_assert!(!keyed, "declined, keys {:?} {:?}", to_delta, to_deferred);
                continue;
            };
            prop_assert!(keyed, "joined through, keys {:?} {:?}", to_delta, to_deferred);
            prop_assert_eq!(joined.name(), want.name());
            prop_assert_eq!(joined.schema(), want.schema());
            prop_assert_eq!(joined.tuples(), want.tuples(), "keys {:?} {:?}", to_delta, to_deferred);
            prop_assert_eq!(&counts, &want_counts, "counts, keys {:?} {:?}", to_delta, to_deferred);
        }

        // `N` over the storage of `R`: one index lock, so no join through.
        let shared = deferred.rebind("N", next.schema().clone()).unwrap();
        let on = vec![eq("I", "I"), PrimitiveClause::eq(
            ColumnRef::qualified("R", "S"),
            ColumnRef::qualified("N", "S"),
        )];
        prop_assert!(join_through_product(&delta, &deferred, &shared, &on).unwrap().is_none());
    }
}
