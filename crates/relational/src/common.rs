//! Common-subset-of-attributes operators (paper Fig. 7, Definitions 1–2).
//!
//! When a legal rewriting `V_i` preserves a different interface than the
//! original view `V`, extents are compared **after projecting both sides onto
//! the common attribute names** and removing duplicates:
//!
//! * `V^(V_i) = π_{Attr(V) ∩ Attr(V_i)} V` (Definition 1),
//! * `|V^(V_i)|`, `|V_i^(V)|` and `|V ∩~ V_i|` (Figure 7), the sizes the
//!   extent-divergence formulas read ([`measure_common_sizes`]).
//!
//! Matching is by *output column name* — in the paper's Example 2, `V_1(A,B)`
//! and `V_2(B,C,D)` share the column `B` regardless of which base relation
//! supplied it.

use crate::error::{Error, Result};
use crate::relation::Relation;
use crate::schema::ColumnRef;

/// The common attribute names of two relations, in `a`'s column order.
#[must_use]
pub(crate) fn common_attributes(a: &Relation, b: &Relation) -> Vec<String> {
    a.schema()
        .columns()
        .iter()
        .filter(|ca| {
            b.schema()
                .columns()
                .iter()
                .any(|cb| cb.column.name == ca.column.name)
        })
        .map(|c| c.column.name.clone())
        .collect()
}

/// `V^(other)` — projection of `rel` onto the attributes it shares with
/// `other`, duplicates removed (Definition 1).
///
/// # Errors
///
/// [`Error::SchemaMismatch`] when the relations share no attributes
/// (`Attr(V) ∩ Attr(V_i) ≠ ∅` is a precondition in the paper).
pub(crate) fn project_common(rel: &Relation, other: &Relation) -> Result<Relation> {
    let common = common_attributes(rel, other);
    if common.is_empty() {
        return Err(Error::SchemaMismatch {
            detail: format!(
                "relations `{}` and `{}` share no attributes",
                rel.name(),
                other.name()
            ),
        });
    }
    let cols: Vec<ColumnRef> = common.into_iter().map(ColumnRef::bare).collect();
    crate::algebra::project(rel, &cols, true)
}

fn common_pair(a: &Relation, b: &Relation) -> Result<(Relation, Relation)> {
    let pa = project_common(a, b)?;
    let pb = project_common(b, a)?;
    // Align b's projection to a's column order (common_attributes preserves
    // the order of the *first* argument, which may differ between the calls).
    let order: Vec<ColumnRef> = pa
        .schema()
        .columns()
        .iter()
        .map(|c| ColumnRef::bare(c.column.name.clone()))
        .collect();
    let pb = crate::algebra::project(&pb, &order, true)?;
    if !pa.schema().union_compatible(pb.schema()) {
        return Err(Error::SchemaMismatch {
            detail: format!(
                "common attributes of `{}` and `{}` have mismatched types",
                a.name(),
                b.name()
            ),
        });
    }
    Ok((pa, pb))
}

/// Sizes needed by the extent-divergence formulas (Eq. 13–15), computed
/// exactly from materialized extents:
/// `|V^(Vi)|`, `|Vi^(V)|` and `|V ∩~ Vi|`, all with duplicates removed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommonExtentSizes {
    /// `|V^(V_i)|` — original view projected on common attributes.
    pub original: usize,
    /// `|V_i^(V)|` — rewriting projected on common attributes.
    pub rewriting: usize,
    /// `|V ∩~ V_i|` — overlap on common attributes.
    pub overlap: usize,
}

/// Measures [`CommonExtentSizes`] for an original view extent and a rewriting
/// extent.
///
/// # Errors
///
/// Propagates projection/compatibility failures.
pub fn measure_common_sizes(
    original: &Relation,
    rewriting: &Relation,
) -> Result<CommonExtentSizes> {
    let (po, pr) = common_pair(original, rewriting)?;
    let overlap = crate::algebra::intersect(&po, &pr)?.cardinality();
    Ok(CommonExtentSizes {
        original: po.cardinality(),
        rewriting: pr.cardinality(),
        overlap,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::{difference, intersect};
    use crate::schema::Schema;
    use crate::tup;
    use crate::types::DataType;

    /// Data in the spirit of the paper's Example 2 (Fig. 5): original view
    /// V(A,B,C,D) plus rewritings V1(A,B) and V2(B,C,D), constructed so that
    /// the paper's stated counts hold exactly — V1 and V2 each preserve
    /// *three* tuples of V on the common attributes, V1 generates *one*
    /// surplus tuple and V2 generates *four* (§5.1).
    fn example2() -> (Relation, Relation, Relation) {
        let v = Relation::with_tuples(
            "V",
            Schema::of(&[
                ("A", DataType::Int),
                ("B", DataType::Int),
                ("C", DataType::Int),
                ("D", DataType::Int),
            ])
            .unwrap(),
            vec![
                tup![1, 1, 1, 2],
                tup![1, 6, 3, 5],
                tup![2, 2, 4, 6],
                tup![2, 3, 1, 3],
                tup![3, 9, 7, 9],
                tup![3, 6, 5, 0],
            ],
        )
        .unwrap();
        // V1 = SELECT A, B FROM S — preserves (1,1), (1,6), (2,2); surplus (6,4).
        let v1 = Relation::with_tuples(
            "V1",
            Schema::of(&[("A", DataType::Int), ("B", DataType::Int)]).unwrap(),
            vec![tup![1, 1], tup![1, 6], tup![2, 2], tup![6, 4]],
        )
        .unwrap();
        // V2 = SELECT B, C, D FROM T — preserves (1,1,2), (6,3,5), (2,4,6);
        // surplus (7,6,7), (8,1,7), (8,7,2), (6,4,6).
        let v2 = Relation::with_tuples(
            "V2",
            Schema::of(&[
                ("B", DataType::Int),
                ("C", DataType::Int),
                ("D", DataType::Int),
            ])
            .unwrap(),
            vec![
                tup![1, 1, 2],
                tup![6, 3, 5],
                tup![2, 4, 6],
                tup![7, 6, 7],
                tup![8, 1, 7],
                tup![8, 7, 2],
                tup![6, 4, 6],
            ],
        )
        .unwrap();
        (v, v1, v2)
    }

    #[test]
    fn common_attribute_discovery() {
        let (v, v1, v2) = example2();
        assert_eq!(common_attributes(&v, &v1), vec!["A", "B"]);
        assert_eq!(common_attributes(&v, &v2), vec!["B", "C", "D"]);
        assert_eq!(common_attributes(&v1, &v2), vec!["B"]);
    }

    #[test]
    fn example2_v1_preserves_three_tuples_one_surplus() {
        // §5.1: "V1 generates one surplus tuple that was not in the original
        // view V" and preserves three tuples on the common attributes {A,B}.
        let (v, v1, _) = example2();
        let sizes = measure_common_sizes(&v, &v1).unwrap();
        assert_eq!(sizes.overlap, 3);
        let (pv, pv1) = common_pair(&v, &v1).unwrap();
        let inter = intersect(&pv, &pv1).unwrap();
        assert_eq!(inter.tuples(), &[tup![1, 1], tup![1, 6], tup![2, 2]]);
        let surplus = difference(&pv1, &pv).unwrap();
        assert_eq!(surplus.tuples(), &[tup![6, 4]]);
    }

    #[test]
    fn example2_v2_preserves_three_tuples_four_surplus() {
        // §5.1: "V2 returns four surplus tuples that were not in V" and
        // preserves three tuples on the common attributes {B,C,D}.
        let (v, _, v2) = example2();
        let (pv, pv2) = common_pair(&v, &v2).unwrap();
        let inter = intersect(&pv, &pv2).unwrap();
        assert_eq!(inter.cardinality(), 3);
        assert_eq!(
            inter.tuples(),
            &[tup![1, 1, 2], tup![2, 4, 6], tup![6, 3, 5]]
        );
        let surplus = difference(&pv2, &pv).unwrap();
        assert_eq!(surplus.cardinality(), 4);
    }

    #[test]
    fn disjoint_schemas_error() {
        let a = Relation::empty("A", Schema::of(&[("X", DataType::Int)]).unwrap());
        let b = Relation::empty("B", Schema::of(&[("Y", DataType::Int)]).unwrap());
        assert!(project_common(&a, &b).is_err());
    }

    #[test]
    fn common_pair_alignment_handles_different_column_order() {
        let a = Relation::with_tuples(
            "A",
            Schema::of(&[("X", DataType::Int), ("Y", DataType::Int)]).unwrap(),
            vec![tup![1, 2]],
        )
        .unwrap();
        let b = Relation::with_tuples(
            "B",
            Schema::of(&[("Y", DataType::Int), ("X", DataType::Int)]).unwrap(),
            vec![tup![2, 1]],
        )
        .unwrap();
        let (pa, pb) = common_pair(&a, &b).unwrap();
        assert_eq!(pa.tuples(), pb.tuples());
    }

    #[test]
    fn mismatched_common_types_error() {
        let a = Relation::empty("A", Schema::of(&[("X", DataType::Int)]).unwrap());
        let b = Relation::empty("B", Schema::of(&[("X", DataType::Text)]).unwrap());
        assert!(common_pair(&a, &b).is_err());
    }

    #[test]
    fn measure_sizes_dedups() {
        let a = Relation::with_tuples(
            "A",
            Schema::of(&[("X", DataType::Int)]).unwrap(),
            vec![tup![1], tup![1], tup![2]],
        )
        .unwrap();
        let b = Relation::with_tuples(
            "B",
            Schema::of(&[("X", DataType::Int)]).unwrap(),
            vec![tup![2], tup![2], tup![3]],
        )
        .unwrap();
        let s = measure_common_sizes(&a, &b).unwrap();
        assert_eq!(
            s,
            CommonExtentSizes {
                original: 2,
                rewriting: 2,
                overlap: 1
            }
        );
    }
}
