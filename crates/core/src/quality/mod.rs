//! Quality: the total degree of divergence `DD(V_i)` (§5.4.4, Eq. 20).
//!
//! ```text
//! DD(V_i) = ρ_attr · DD_attr(V_i) + ρ_ext · DD_ext(V_i)
//! ```

pub mod extent;
pub mod interface;

pub use extent::ExtentSizes;
pub use interface::{dd_attr, interface_quality};

use eve_esql::ViewDef;
use eve_misd::Mkb;
use eve_relational::Relation;
use eve_sync::LegalRewriting;

use crate::error::Result;
use crate::params::QcParams;

/// The quality breakdown of one rewriting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DivergenceReport {
    /// Interface divergence `DD_attr` (§5.4.1).
    pub dd_attr: f64,
    /// Extent divergence `DD_ext` (§5.4.2).
    pub dd_ext: f64,
    /// Total `DD` (Eq. 20).
    pub dd: f64,
}

/// Computes the total degree of divergence using *estimated* extent sizes
/// (§5.4.3) from the pre-change MKB.
///
/// # Errors
///
/// Parameter validation or MKB lookup failures.
pub fn degree_of_divergence(
    original: &ViewDef,
    rewriting: &LegalRewriting,
    mkb: &Mkb,
    params: &QcParams,
) -> Result<DivergenceReport> {
    params.validate()?;
    let a = dd_attr(original, &rewriting.view, params.w1, params.w2);
    let sizes = extent::estimate_extent_sizes(original, rewriting, mkb)?;
    let e = sizes.dd_ext(params.rho_d1, params.rho_d2);
    Ok(DivergenceReport {
        dd_attr: a,
        dd_ext: e,
        dd: (params.rho_attr * a + params.rho_ext * e).clamp(0.0, 1.0),
    })
}

/// Computes the total degree of divergence from *materialized* extents —
/// the ground-truth counterpart used to validate the estimator.
///
/// # Errors
///
/// Parameter validation or relational failures.
pub fn degree_of_divergence_measured(
    original: &ViewDef,
    rewriting: &ViewDef,
    original_extent: &Relation,
    rewriting_extent: &Relation,
    params: &QcParams,
) -> Result<DivergenceReport> {
    params.validate()?;
    let a = dd_attr(original, rewriting, params.w1, params.w2);
    let sizes = ExtentSizes::measured(original_extent, rewriting_extent)?;
    let e = sizes.dd_ext(params.rho_d1, params.rho_d2);
    Ok(DivergenceReport {
        dd_attr: a,
        dd_ext: e,
        dd: (params.rho_attr * a + params.rho_ext * e).clamp(0.0, 1.0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use eve_misd::{AttributeInfo, PcConstraint, PcRelationship, PcSide, RelationInfo, SiteId};
    use eve_relational::DataType;
    use eve_sync::{ExtentRelationship, Provenance, RewriteAction};

    fn mkb() -> Mkb {
        let mut m = Mkb::new();
        m.register_site(SiteId(1), "one").unwrap();
        for (name, card) in [("R", 4000u64), ("S", 2000)] {
            m.register_relation(RelationInfo::new(
                name,
                SiteId(1),
                vec![AttributeInfo::new("A", DataType::Int)],
                card,
            ))
            .unwrap();
        }
        m.add_pc_constraint(PcConstraint::new(
            PcSide::projection("S", &["A"]),
            PcRelationship::Subset,
            PcSide::projection("R", &["A"]),
        ))
        .unwrap();
        m
    }

    #[test]
    fn dd_combines_interface_and_extent() {
        let m = mkb();
        let original = eve_esql::parse_view(
            "CREATE VIEW V (VE = '~') AS SELECT R.A (AD = true, AR = true) FROM R (RR = true)",
        )
        .unwrap();
        let view = eve_esql::parse_view(
            "CREATE VIEW V (VE = '~') AS SELECT S.A (AD = true, AR = true) FROM S (RR = true)",
        )
        .unwrap();
        let rw = LegalRewriting {
            view,
            provenance: Provenance {
                actions: vec![RewriteAction::SwappedRelation {
                    binding: "R".into(),
                    old_relation: "R".into(),
                    new_relation: "S".into(),
                    relationship: PcRelationship::Superset,
                }],
            },
            extent: ExtentRelationship::Subset,
        };
        let params = QcParams::default();
        let rep = degree_of_divergence(&original, &rw, &m, &params).unwrap();
        // Interface fully preserved.
        assert_eq!(rep.dd_attr, 0.0);
        // Extent: half the tuples lost, none surplus ⇒ DD_ext = 0.25.
        assert!((rep.dd_ext - 0.25).abs() < 1e-12);
        assert!((rep.dd - 0.3 * 0.25).abs() < 1e-12);
    }

    #[test]
    fn invalid_params_rejected() {
        let m = mkb();
        let original =
            eve_esql::parse_view("CREATE VIEW V (VE = '~') AS SELECT R.A FROM R").unwrap();
        let rw = LegalRewriting {
            view: original.clone(),
            provenance: Provenance::default(),
            extent: ExtentRelationship::Equal,
        };
        let bad = QcParams {
            rho_attr: 0.9,
            rho_ext: 0.9,
            ..QcParams::default()
        };
        assert!(degree_of_divergence(&original, &rw, &m, &bad).is_err());
    }

    #[test]
    fn identity_rewriting_has_zero_divergence() {
        let m = mkb();
        let original =
            eve_esql::parse_view("CREATE VIEW V (VE = '~') AS SELECT R.A (AD = true) FROM R")
                .unwrap();
        let rw = LegalRewriting {
            view: original.clone(),
            provenance: Provenance::default(),
            extent: ExtentRelationship::Equal,
        };
        let rep = degree_of_divergence(&original, &rw, &m, &QcParams::default()).unwrap();
        assert_eq!(rep.dd, 0.0);
    }

    #[test]
    fn measured_divergence_matches_hand_computation() {
        use eve_relational::{Schema, Tuple, Value};
        let original_view = eve_esql::parse_view(
            "CREATE VIEW V (VE = '~') AS SELECT R.A (AD = true, AR = true) FROM R",
        )
        .unwrap();
        let rewriting_view = eve_esql::parse_view(
            "CREATE VIEW V (VE = '~') AS SELECT S.A (AD = true, AR = true) FROM S",
        )
        .unwrap();
        let mk = |name: &str, vals: &[i64]| {
            eve_relational::Relation::with_tuples(
                name,
                Schema::of(&[("A", DataType::Int)]).unwrap(),
                vals.iter()
                    .map(|&v| Tuple::new(vec![Value::Int(v)]))
                    .collect(),
            )
            .unwrap()
        };
        let old_ext = mk("V", &[1, 2, 3, 4]);
        let new_ext = mk("Vi", &[3, 4, 5, 6, 7, 8]);
        let rep = degree_of_divergence_measured(
            &original_view,
            &rewriting_view,
            &old_ext,
            &new_ext,
            &QcParams::default(),
        )
        .unwrap();
        assert_eq!(rep.dd_attr, 0.0);
        // D1 = 2/4, D2 = 4/6 ⇒ DD_ext = 0.5·0.5 + 0.5·(2/3).
        let want = 0.5 * 0.5 + 0.5 * (2.0 / 3.0);
        assert!((rep.dd_ext - want).abs() < 1e-12);
    }
}
