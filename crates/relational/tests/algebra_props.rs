//! Property-based tests of the relational algebra laws.

use proptest::prelude::*;

use eve_relational::algebra::{
    cartesian, difference, intersect, join, project, rename_columns, select, union,
};
use eve_relational::{
    ColumnRef, CompOp, DataType, Predicate, PrimitiveClause, Relation, Schema, Tuple, Value,
};

fn small_relation(name: &'static str, cols: usize) -> impl Strategy<Value = Relation> {
    prop::collection::vec(prop::collection::vec(-5i64..5, cols..=cols), 0..12).prop_map(
        move |rows| {
            let schema = Schema::new(
                (0..cols)
                    .map(|i| {
                        eve_relational::ColumnDef::new(
                            ColumnRef::qualified(name, format!("C{i}")),
                            DataType::Int,
                        )
                    })
                    .collect(),
            )
            .unwrap();
            Relation::with_tuples(
                name,
                schema,
                rows.into_iter()
                    .map(|vals| Tuple::new(vals.into_iter().map(Value::Int).collect()))
                    .collect(),
            )
            .unwrap()
        },
    )
}

fn threshold_pred(name: &'static str, col: usize, v: i64) -> Predicate {
    Predicate::single(PrimitiveClause::lit(
        ColumnRef::qualified(name, format!("C{col}")),
        CompOp::Gt,
        Value::Int(v),
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn selection_commutes_and_composes(r in small_relation("R", 2), a in -5i64..5, b in -5i64..5) {
        let pa = threshold_pred("R", 0, a);
        let pb = threshold_pred("R", 1, b);
        let ab = select(&select(&r, &pa).unwrap(), &pb).unwrap();
        let ba = select(&select(&r, &pb).unwrap(), &pa).unwrap();
        let both = select(&r, &pa.and(&pb)).unwrap();
        prop_assert_eq!(ab.tuples(), ba.tuples());
        prop_assert_eq!(ab.tuples(), both.tuples());
    }

    #[test]
    fn selection_is_idempotent_and_shrinking(r in small_relation("R", 2), a in -5i64..5) {
        let p = threshold_pred("R", 0, a);
        let once = select(&r, &p).unwrap();
        let twice = select(&once, &p).unwrap();
        prop_assert_eq!(once.tuples(), twice.tuples());
        prop_assert!(once.cardinality() <= r.cardinality());
    }

    #[test]
    fn projection_is_idempotent(r in small_relation("R", 3)) {
        let cols = [ColumnRef::parse("R.C1"), ColumnRef::parse("R.C0")];
        let once = project(&r, &cols, true).unwrap();
        let again_cols = [ColumnRef::parse("R.C1"), ColumnRef::parse("R.C0")];
        let twice = project(&once, &again_cols, true).unwrap();
        prop_assert_eq!(once.tuples(), twice.tuples());
        prop_assert!(once.cardinality() <= r.cardinality());
    }

    #[test]
    fn join_is_select_of_cartesian(r in small_relation("R", 2), s in small_relation("S", 2)) {
        let on = Predicate::single(PrimitiveClause::eq(
            ColumnRef::parse("R.C0"),
            ColumnRef::parse("S.C0"),
        ));
        let joined = join(&r, &s, &on).unwrap();
        let reference = select(&cartesian(&r, &s).unwrap(), &on).unwrap();
        let mut a = joined.tuples().to_vec();
        let mut b = reference.tuples().to_vec();
        a.sort();
        b.sort();
        prop_assert_eq!(a, b);
        // Cardinality bound: |R ⋈ S| ≤ |R|·|S|.
        prop_assert!(joined.cardinality() <= r.cardinality() * s.cardinality());
    }

    #[test]
    fn join_commutes_up_to_column_order(r in small_relation("R", 2), s in small_relation("S", 2)) {
        let on = Predicate::single(PrimitiveClause::eq(
            ColumnRef::parse("R.C0"),
            ColumnRef::parse("S.C0"),
        ));
        let rs = join(&r, &s, &on).unwrap();
        let sr = join(&s, &r, &on).unwrap();
        // Project both onto a canonical column order.
        let cols = [
            ColumnRef::parse("R.C0"),
            ColumnRef::parse("R.C1"),
            ColumnRef::parse("S.C0"),
            ColumnRef::parse("S.C1"),
        ];
        let a = project(&rs, &cols, true).unwrap();
        let b = project(&sr, &cols, true).unwrap();
        prop_assert_eq!(a.tuples(), b.tuples());
    }

    #[test]
    fn set_operations_obey_set_laws(r in small_relation("R", 2), s in small_relation("R", 2)) {
        // Same schema (both named R): union/intersect/difference laws.
        let u = union(&r, &s).unwrap();
        let i = intersect(&r, &s).unwrap();
        let d_rs = difference(&r, &s).unwrap();
        let d_sr = difference(&s, &r).unwrap();
        // |R ∪ S| = |R \ S| + |S \ R| + |R ∩ S| (distinct counts).
        prop_assert_eq!(
            u.cardinality(),
            d_rs.cardinality() + d_sr.cardinality() + i.cardinality()
        );
        // Intersection is contained in both.
        prop_assert!(difference(&i, &r).unwrap().is_empty());
        prop_assert!(difference(&i, &s).unwrap().is_empty());
        // Difference disjoint from the subtrahend.
        prop_assert!(intersect(&d_rs, &s).unwrap().is_empty());
        // Union is commutative.
        let u2 = union(&s, &r).unwrap();
        let (ud, u2d) = (u.distinct(), u2.distinct());
        prop_assert_eq!(ud.tuples(), u2d.tuples());
    }

    #[test]
    fn rename_preserves_extent(r in small_relation("R", 2)) {
        let renamed = rename_columns(
            &r,
            &[ColumnRef::bare("X"), ColumnRef::bare("Y")],
        ).unwrap();
        prop_assert_eq!(renamed.cardinality(), r.cardinality());
        prop_assert_eq!(renamed.tuples(), r.tuples());
    }

    // -------------------------------------------------------------------
    // Common-subset-of-attributes sizes (Fig. 7).
    // -------------------------------------------------------------------

    #[test]
    fn measured_sizes_bound_overlap(r in small_relation("R", 2), s in small_relation("R", 2)) {
        let sizes = eve_relational::common::measure_common_sizes(&r, &s).unwrap();
        prop_assert!(sizes.overlap <= sizes.original);
        prop_assert!(sizes.overlap <= sizes.rewriting);
    }

    #[test]
    fn selectivity_matches_definition(r in small_relation("R", 1), v in -5i64..5) {
        let p = threshold_pred("R", 0, v);
        let sel = p.selectivity(&r).unwrap();
        let selected = select(&r, &p).unwrap();
        if r.is_empty() {
            prop_assert_eq!(sel, 1.0);
        } else {
            #[allow(clippy::cast_precision_loss)]
            let expect = selected.cardinality() as f64 / r.cardinality() as f64;
            prop_assert!((sel - expect).abs() < 1e-12);
        }
    }

    /// `same_bag` holds exactly when both sides sort to the same tuples
    /// under the same schema: over a shuffle of a relation, then no edit,
    /// a duplicated row, a changed value, or a row replaced by a copy of
    /// another (same cardinality, other multiplicities).
    #[test]
    fn same_bag_iff_equal_sorted_tuples(
        r in small_relation("R", 2),
        keys in prop::collection::vec(any::<u64>(), 0..12),
        edit in 0u8..5,
        pick in 0usize..12,
        v in -5i64..5,
    ) {
        let mut order: Vec<usize> = (0..r.cardinality()).collect();
        order.sort_by_key(|&i| (keys.get(i).copied().unwrap_or(0), i));
        let mut rows: Vec<Tuple> = order.iter().map(|&i| r.tuples()[i].clone()).collect();
        let n = rows.len();
        match edit {
            1 if n > 0 => rows.push(rows[pick % n].clone()),
            2 if n > 0 => rows[pick % n] = Tuple::new(vec![Value::Int(v), Value::Int(v)]),
            3 if n > 1 => rows[pick % n] = rows[(pick + 1) % n].clone(),
            _ => {}
        }
        let other = Relation::with_tuples("S", r.schema().clone(), rows).unwrap();
        let sorted = |rel: &Relation| {
            let mut t = rel.tuples().to_vec();
            t.sort();
            t
        };
        let expected = sorted(&r) == sorted(&other);
        prop_assert_eq!(r.same_bag(&other), expected);
        prop_assert_eq!(other.same_bag(&r), expected);
        // Same tuples under other column names are another schema.
        let renamed = Schema::new(
            r.schema()
                .columns()
                .iter()
                .map(|c| eve_relational::ColumnDef::new(ColumnRef::bare(format!("{}x", c.column.name)), c.ty))
                .collect(),
        )
        .unwrap();
        let relabelled = other.rebind("S", renamed).unwrap();
        prop_assert!(!r.same_bag(&relabelled));
    }
}
