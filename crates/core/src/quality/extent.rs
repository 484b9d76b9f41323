//! Extent quality: `DD_ext` from lost and surplus tuples (§5.4.2–5.4.3).
//!
//! The extent of a rewriting `V_i` diverges from the original `V` in two
//! ways, both measured on the common subset of attributes with duplicates
//! removed:
//!
//! ```text
//! D1 = |V \~ V_i| / |V^(V_i)|     — fraction of original tuples lost (Eq. 13)
//! D2 = |V_i \~ V| / |V_i^(V)|     — fraction of surplus tuples      (Eq. 14)
//! DD_ext = ρ1·D1 + ρ2·D2                                            (Eq. 15)
//! ```
//!
//! The three sizes can be *measured* on materialized extents
//! ([`ExtentSizes::measured`]) or *estimated* from the MKB
//! ([`estimate_extent_sizes`]). Estimation follows §5.4.3: the view-level
//! overlap is the product of per-factor overlaps (replaced relations
//! contribute their PC-estimated intersection, Fig. 9/10; every other factor
//! is shared between `V` and `V_i` and cancels in the `D1`/`D2` ratios).

use eve_misd::Mkb;
use eve_relational::{Operand, PrimitiveClause, Relation};
use eve_sync::{LegalRewriting, RewriteAction};

use eve_esql::ViewDef;

use crate::error::{Error, Result};

/// The three extent sizes entering Eq. 15: `|V^(V_i)|`, `|V_i^(V)|` and
/// `|V ∩~ V_i|`. For estimated sizes these are *relative* magnitudes — only
/// the ratios matter, common factors having cancelled.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExtentSizes {
    /// `|V^(V_i)|` — original view on the common attributes.
    pub original: f64,
    /// `|V_i^(V)|` — rewriting on the common attributes.
    pub rewriting: f64,
    /// `|V ∩~ V_i|` — shared tuples (≤ min of the other two).
    pub overlap: f64,
}

impl ExtentSizes {
    /// Builds sizes, clamping the overlap into `[0, min(original, rewriting)]`.
    #[must_use]
    pub fn new(original: f64, rewriting: f64, overlap: f64) -> ExtentSizes {
        let original = original.max(0.0);
        let rewriting = rewriting.max(0.0);
        ExtentSizes {
            original,
            rewriting,
            overlap: overlap.clamp(0.0, original.min(rewriting)),
        }
    }

    /// Measures the sizes exactly on two materialized extents (Definition 1
    /// and Fig. 7 set operators, duplicates removed).
    ///
    /// # Errors
    ///
    /// Propagates projection/compatibility failures.
    pub fn measured(original: &Relation, rewriting: &Relation) -> Result<ExtentSizes> {
        let sizes = eve_relational::common::measure_common_sizes(original, rewriting)?;
        #[allow(clippy::cast_precision_loss)]
        Ok(ExtentSizes::new(
            sizes.original as f64,
            sizes.rewriting as f64,
            sizes.overlap as f64,
        ))
    }

    /// `DD_ext-D1`: fraction of original tuples not preserved (Eq. 13).
    #[must_use]
    pub fn d1(&self) -> f64 {
        if self.original <= 0.0 {
            0.0
        } else {
            (self.original - self.overlap) / self.original
        }
    }

    /// `DD_ext-D2`: fraction of the new extent that is surplus (Eq. 14).
    #[must_use]
    pub fn d2(&self) -> f64 {
        if self.rewriting <= 0.0 {
            0.0
        } else {
            (self.rewriting - self.overlap) / self.rewriting
        }
    }

    /// `DD_ext = ρ1·D1 + ρ2·D2` (Eq. 15), clamped to `[0, 1]`.
    ///
    /// The `VE`-specific shortcuts of Eq. 16/17 fall out automatically: a
    /// superset rewriting has `overlap = original` hence `D1 = 0`, a subset
    /// rewriting has `overlap = rewriting` hence `D2 = 0`.
    #[must_use]
    pub fn dd_ext(&self, rho_d1: f64, rho_d2: f64) -> f64 {
        (rho_d1 * self.d1() + rho_d2 * self.d2()).clamp(0.0, 1.0)
    }
}

/// Classifies a dropped condition: a clause comparing columns of two
/// different bindings is a join predicate (its removal multiplies the extent
/// by `1/js`), anything else is a local selection (`1/σ`).
fn is_join_clause(clause: &PrimitiveClause) -> bool {
    match &clause.right {
        Operand::Column(rc) => clause.left.qualifier != rc.qualifier,
        Operand::Literal(_) => false,
    }
}

fn binding_relation(view: &ViewDef, binding: &str) -> Option<String> {
    view.from_item(binding).map(|f| f.relation.clone())
}

/// Estimates [`ExtentSizes`] for a rewriting from MKB statistics and the
/// rewriting's provenance (§5.4.3).
///
/// Walks the repair actions, multiplying the factor each contributes to
/// `|V|`, `|V_i|` and `|V ∩~ V_i|` (all other query factors are shared and
/// cancel in `D1`/`D2`):
///
/// * **swapped relation** `R → T`: `|V| ∝ |R|`, `|V_i| ∝ |T|`,
///   overlap `∝ |R ∩~ T|` from the PC constraints (the paper's
///   `|V ∩~ V_1| ≈ js_{T,S} · |R ∩~ T| · |S|` computation for Example 4),
/// * **dropped condition**: the original carries the condition's selectivity
///   (`σ` local, `js` join), the rewriting does not; overlap = original,
/// * **replaced attribute** (`old ⊒ new` fragment): the rewriting keeps only
///   tuples whose value exists in the new fragment,
/// * **dropped attribute / rename**: no extent effect.
///
/// Relations no longer in the MKB (the deleted ones) contribute their last
/// known statistics if still registered — callers must estimate against the
/// *pre-change* MKB, which is also what synchronization uses.
///
/// # Errors
///
/// [`Error::Misd`] if a referenced relation is unknown to the MKB.
pub(crate) fn estimate_extent_sizes(
    original: &ViewDef,
    rewriting: &LegalRewriting,
    mkb: &Mkb,
) -> Result<ExtentSizes> {
    let mut orig = 1.0f64;
    let mut rewr = 1.0f64;
    let mut ovl = 1.0f64;

    for action in &rewriting.provenance.actions {
        match action {
            RewriteAction::SwappedRelation {
                old_relation,
                new_relation,
                ..
            } => {
                #[allow(clippy::cast_precision_loss)]
                let old_card = mkb.relation(old_relation)?.cardinality as f64;
                #[allow(clippy::cast_precision_loss)]
                let new_card = mkb.relation(new_relation)?.cardinality as f64;
                let (_, est) = mkb.relation_overlap(old_relation, new_relation)?;
                orig *= old_card;
                rewr *= new_card;
                ovl *= est.size;
            }
            RewriteAction::DroppedCondition { clause } => {
                let factor = if is_join_clause(clause) {
                    // Identify the joined relations to look up a js override.
                    let left_rel = clause
                        .left
                        .qualifier
                        .as_deref()
                        .and_then(|b| binding_relation(original, b));
                    let right_rel = match &clause.right {
                        Operand::Column(c) => c
                            .qualifier
                            .as_deref()
                            .and_then(|b| binding_relation(original, b)),
                        Operand::Literal(_) => None,
                    };
                    match (left_rel, right_rel) {
                        (Some(l), Some(r)) => mkb.join_selectivity(&l, &r),
                        _ => mkb.default_join_selectivity(),
                    }
                } else {
                    // Local selection: the owning relation's registered σ.
                    clause
                        .left
                        .qualifier
                        .as_deref()
                        .and_then(|b| binding_relation(original, b))
                        .and_then(|rel| mkb.relation(&rel).ok().map(|r| r.selectivity))
                        .unwrap_or(0.5)
                };
                // A dropped predicate widens the rewriting: the original is
                // the selected fragment of the new extent.
                orig *= factor;
                ovl *= factor;
            }
            RewriteAction::ReplacedAttribute {
                old,
                new,
                relationship,
            } => {
                if *relationship == eve_misd::PcRelationship::Superset {
                    // Old fragment ⊇ new: tuples with values outside the new
                    // fragment are lost.
                    let old_rel =
                        binding_relation(original, &old.0).ok_or_else(|| Error::BadView {
                            detail: format!("unknown binding `{}` in original view", old.0),
                        })?;
                    #[allow(clippy::cast_precision_loss)]
                    let old_card = mkb.relation(&old_rel)?.cardinality as f64;
                    let (_, est) = mkb.relation_overlap(&old_rel, &new.0)?;
                    let kept = if old_card > 0.0 {
                        (est.size / old_card).clamp(0.0, 1.0)
                    } else {
                        1.0
                    };
                    rewr *= kept;
                    ovl *= kept;
                }
                // Subset/Equivalent fragments preserve the extent under the
                // key-join reading (see eve-sync::extent).
            }
            RewriteAction::DroppedRelation { relation, .. } => {
                // Removing the join with R divides the extent by js·|R|;
                // projected on the common attributes the original cannot
                // exceed the remainder, so the shared factor caps at 1.
                #[allow(clippy::cast_precision_loss)]
                let card = mkb.relation(relation)?.cardinality as f64;
                let js = mkb.default_join_selectivity();
                let factor = (js * card).min(1.0);
                orig *= factor;
                ovl *= factor;
            }
            RewriteAction::DroppedAttribute { .. }
            | RewriteAction::RewroteCondition { .. }
            | RewriteAction::AddedJoinRelation { .. }
            | RewriteAction::Renamed { .. } => {}
        }
    }

    Ok(ExtentSizes::new(orig, rewr, ovl))
}

#[cfg(test)]
mod tests {
    use super::*;
    use eve_misd::{AttributeInfo, PcConstraint, PcRelationship, PcSide, RelationInfo, SiteId};
    use eve_relational::{DataType, Schema, Tuple, Value};
    use eve_sync::{ExtentRelationship, Provenance};

    #[test]
    fn d1_d2_arithmetic() {
        let s = ExtentSizes::new(10.0, 8.0, 6.0);
        assert!((s.d1() - 0.4).abs() < 1e-12);
        assert!((s.d2() - 0.25).abs() < 1e-12);
        assert!((s.dd_ext(0.5, 0.5) - 0.325).abs() < 1e-12);
    }

    #[test]
    fn overlap_clamped_to_min_side() {
        let s = ExtentSizes::new(5.0, 3.0, 99.0);
        assert_eq!(s.overlap, 3.0);
        assert_eq!(s.d2(), 0.0);
        let neg = ExtentSizes::new(5.0, 3.0, -1.0);
        assert_eq!(neg.overlap, 0.0);
    }

    #[test]
    fn empty_sides_do_not_divide_by_zero() {
        let s = ExtentSizes::new(0.0, 0.0, 0.0);
        assert_eq!(s.d1(), 0.0);
        assert_eq!(s.d2(), 0.0);
        assert_eq!(s.dd_ext(0.5, 0.5), 0.0);
    }

    #[test]
    fn subset_and_superset_shortcuts() {
        // Subset rewriting: overlap = rewriting ⇒ D2 = 0 (Eq. 17 case).
        let sub = ExtentSizes::new(4000.0, 2000.0, 2000.0);
        assert_eq!(sub.d2(), 0.0);
        assert!((sub.d1() - 0.5).abs() < 1e-12);
        // Superset rewriting: overlap = original ⇒ D1 = 0 (Eq. 16 case).
        let sup = ExtentSizes::new(4000.0, 5000.0, 4000.0);
        assert_eq!(sup.d1(), 0.0);
        assert!((sup.d2() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn measured_sizes_from_relations() {
        let mk = |name: &str, vals: &[i64]| {
            Relation::with_tuples(
                name,
                Schema::of(&[("A", DataType::Int)]).unwrap(),
                vals.iter()
                    .map(|&v| Tuple::new(vec![Value::Int(v)]))
                    .collect(),
            )
            .unwrap()
        };
        let v = mk("V", &[1, 2, 3, 4]);
        let vi = mk("Vi", &[3, 4, 5]);
        let s = ExtentSizes::measured(&v, &vi).unwrap();
        assert_eq!(
            s,
            ExtentSizes {
                original: 4.0,
                rewriting: 3.0,
                overlap: 2.0
            }
        );
    }

    /// Experiment 4 MKB fragment: R2 (4000) with the containment chain.
    fn exp4_mkb() -> Mkb {
        let mut m = Mkb::new();
        m.register_site(SiteId(1), "one").unwrap();
        let attrs = || {
            vec![
                AttributeInfo::new("A", DataType::Int),
                AttributeInfo::new("B", DataType::Int),
                AttributeInfo::new("C", DataType::Int),
            ]
        };
        for (name, card) in [
            ("R1", 400u64),
            ("R2", 4000),
            ("S1", 2000),
            ("S2", 3000),
            ("S3", 4000),
            ("S4", 5000),
            ("S5", 6000),
        ] {
            m.register_relation(RelationInfo::new(name, SiteId(1), attrs(), card))
                .unwrap();
        }
        let proj = |r: &str| PcSide::projection(r, &["A", "B", "C"]);
        for (a, rel, b) in [
            ("S1", PcRelationship::Subset, "S2"),
            ("S2", PcRelationship::Subset, "S3"),
            ("S3", PcRelationship::Equivalent, "R2"),
            ("S3", PcRelationship::Subset, "S4"),
            ("S4", PcRelationship::Subset, "S5"),
        ] {
            m.add_pc_constraint(PcConstraint::new(proj(a), rel, proj(b)))
                .unwrap();
        }
        m
    }

    fn swap_rewriting(
        target: &str,
        rel: PcRelationship,
        ext: ExtentRelationship,
    ) -> LegalRewriting {
        let view = eve_esql::parse_view(&format!(
            "CREATE VIEW V (VE = '~') AS SELECT R1.X, {target}.A (AR = true) FROM R1, {target} (RR = true)"
        ))
        .unwrap();
        LegalRewriting {
            view,
            provenance: Provenance {
                actions: vec![RewriteAction::SwappedRelation {
                    binding: "R2".into(),
                    old_relation: "R2".into(),
                    new_relation: target.into(),
                    relationship: rel,
                }],
            },
            extent: ext,
        }
    }

    #[test]
    fn experiment4_dd_ext_values() {
        // Table 4 column DD_ext: V1 0.25, V2 0.13, V3 0.00, V4 0.10, V5 0.17.
        let mkb = exp4_mkb();
        let original = eve_esql::parse_view(
            "CREATE VIEW V (VE = '~') AS SELECT R1.X, R2.A (AR = true) FROM R1, R2 (RR = true)",
        )
        .unwrap();
        let cases = [
            (
                "S1",
                PcRelationship::Superset,
                ExtentRelationship::Subset,
                0.25,
            ),
            (
                "S2",
                PcRelationship::Superset,
                ExtentRelationship::Subset,
                0.125,
            ),
            (
                "S3",
                PcRelationship::Equivalent,
                ExtentRelationship::Equal,
                0.0,
            ),
            (
                "S4",
                PcRelationship::Subset,
                ExtentRelationship::Superset,
                0.1,
            ),
            (
                "S5",
                PcRelationship::Subset,
                ExtentRelationship::Superset,
                1.0 / 6.0,
            ),
        ];
        for (target, rel, ext, want) in cases {
            let rw = swap_rewriting(target, rel, ext);
            let sizes = estimate_extent_sizes(&original, &rw, &mkb).unwrap();
            let got = sizes.dd_ext(0.5, 0.5);
            assert!(
                (got - want).abs() < 1e-9,
                "{target}: dd_ext = {got}, want {want}"
            );
        }
    }

    #[test]
    fn dropped_local_condition_shows_surplus() {
        let mkb = exp4_mkb();
        let original = eve_esql::parse_view(
            "CREATE VIEW V (VE = '~') AS SELECT R1.X FROM R1 WHERE R1.X > 10 (CD = true)",
        )
        .unwrap();
        let view = eve_esql::parse_view("CREATE VIEW V (VE = '~') AS SELECT R1.X FROM R1").unwrap();
        let rw = LegalRewriting {
            view,
            provenance: Provenance {
                actions: vec![RewriteAction::DroppedCondition {
                    clause: PrimitiveClause::lit(
                        eve_relational::ColumnRef::parse("R1.X"),
                        eve_relational::CompOp::Gt,
                        Value::Int(10),
                    ),
                }],
            },
            extent: ExtentRelationship::Superset,
        };
        let sizes = estimate_extent_sizes(&original, &rw, &mkb).unwrap();
        // σ = 0.5 ⇒ D1 = 0, D2 = 1 − 0.5 = 0.5.
        assert_eq!(sizes.d1(), 0.0);
        assert!((sizes.d2() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn replaced_attribute_superset_fragment_loses_tuples() {
        let mkb = exp4_mkb();
        let original =
            eve_esql::parse_view("CREATE VIEW V (VE = '~') AS SELECT R2.A (AR = true) FROM R2")
                .unwrap();
        let view =
            eve_esql::parse_view("CREATE VIEW V (VE = '~') AS SELECT S1.A (AR = true) FROM S1")
                .unwrap();
        let rw = LegalRewriting {
            view,
            provenance: Provenance {
                actions: vec![RewriteAction::ReplacedAttribute {
                    old: ("R2".into(), "A".into()),
                    new: ("S1".into(), "A".into()),
                    relationship: PcRelationship::Superset,
                }],
            },
            extent: ExtentRelationship::Subset,
        };
        let sizes = estimate_extent_sizes(&original, &rw, &mkb).unwrap();
        // overlap(R2, S1) = 2000 of 4000 ⇒ half the tuples survive.
        assert!((sizes.d1() - 0.5).abs() < 1e-12);
        assert_eq!(sizes.d2(), 0.0);
    }
}
