//! Overlap-size estimation from PC constraints (paper §5.4.3, Fig. 9/10).
//!
//! To score the extent quality of a rewriting, EVE must estimate
//! `|R1 ∩~ R2|` — how many tuples the dropped relation `R1` and its
//! replacement `R2` share on the corresponding attributes. A PC constraint
//! `π(σ_{C1} R1) ⊑ π(σ_{C2} R2)` determines this size *exactly* in seven of
//! the twelve (selection-shape × direction) cases and gives a *minimal bound*
//! in the remaining five (the asterisked subsets of Fig. 9):
//!
//! | `C1`/`C2`   | `⊆`              | `≡`                   | `⊇`              |
//! |-------------|------------------|-----------------------|------------------|
//! | no / no     | `|R1|` exact     | `|R1| = |R2|` exact   | `|R2|` exact     |
//! | no / yes    | `|R1|` exact     | `|R1| = σ₂|R2|` exact | `≥ σ₂|R2|`       |
//! | yes / no    | `≥ σ₁|R1|`       | `|R2| = σ₁|R1|` exact | `|R2|` exact     |
//! | yes / yes   | `≥ σ₁|R1|`       | `≥ σ₁|R1| = σ₂|R2|`   | `≥ σ₂|R2|`       |
//!
//! When no PC constraint links two relations, the overlap must be assumed
//! zero (§5.4.3 last paragraph).

use crate::constraints::{PcConstraint, PcRelationship};

/// An estimated intersection size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverlapEstimate {
    /// Estimated number of shared (projected, deduplicated) tuples. For
    /// inexact cases this is the *minimal* value the constraint guarantees.
    pub size: f64,
    /// Whether the constraint pins the size exactly (`true`) or only bounds
    /// it from below (`false`) — the asterisked cases of Fig. 9.
    pub exact: bool,
}

impl OverlapEstimate {
    /// The "no information" estimate: without a PC constraint relations must
    /// be assumed disjoint (§5.4.3).
    pub(crate) const UNKNOWN: OverlapEstimate = OverlapEstimate {
        size: 0.0,
        exact: false,
    };
}

/// Statistics needed to evaluate one PC constraint: fragment cardinalities
/// and the selectivities of the two selection conditions (only consulted for
/// sides that actually carry a selection).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverlapInputs {
    /// `|R1|` — cardinality of the left relation.
    pub left_card: f64,
    /// `|R2|` — cardinality of the right relation.
    pub right_card: f64,
    /// Selectivity `σ₁` of the left selection condition.
    pub left_selectivity: f64,
    /// Selectivity `σ₂` of the right selection condition.
    pub right_selectivity: f64,
}

/// Estimates `|R1 ∩~ R2|` from one PC constraint (Fig. 10).
#[must_use]
pub fn estimate_overlap(pc: &PcConstraint, inputs: OverlapInputs) -> OverlapEstimate {
    let left_sel = pc.left.has_selection();
    let right_sel = pc.right.has_selection();
    let l_frag = if left_sel {
        inputs.left_selectivity * inputs.left_card
    } else {
        inputs.left_card
    };
    let r_frag = if right_sel {
        inputs.right_selectivity * inputs.right_card
    } else {
        inputs.right_card
    };
    match pc.relationship {
        // left fragment ⊆ right fragment: everything in σ(R1) is in R2; when
        // the left side is unselected the whole of R1 is covered (exact).
        PcRelationship::Subset => OverlapEstimate {
            size: l_frag,
            exact: !left_sel,
        },
        // left fragment ⊇ right fragment: symmetric.
        PcRelationship::Superset => OverlapEstimate {
            size: r_frag,
            exact: !right_sel,
        },
        PcRelationship::Equivalent => {
            if left_sel && right_sel {
                // σ(R1) = σ(R2): only the selected fragments are known equal.
                OverlapEstimate {
                    size: l_frag.min(r_frag),
                    exact: false,
                }
            } else {
                // At most one side selected: the unselected side is wholly
                // contained in the other relation, so the overlap is the
                // smaller fragment, exactly.
                OverlapEstimate {
                    size: l_frag.min(r_frag),
                    exact: true,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraints::PcSide;
    use eve_relational::{ColumnRef, CompOp, Predicate, PrimitiveClause, Value};

    fn selected_side(rel: &str) -> PcSide {
        PcSide::selected(
            rel,
            &["A"],
            Predicate::single(PrimitiveClause::lit(
                ColumnRef::bare("A"),
                CompOp::Gt,
                Value::Int(0),
            )),
        )
    }

    fn inputs() -> OverlapInputs {
        OverlapInputs {
            left_card: 1000.0,
            right_card: 4000.0,
            left_selectivity: 0.3,
            right_selectivity: 0.2,
        }
    }

    fn pc(left_selected: bool, rel: PcRelationship, right_selected: bool) -> PcConstraint {
        let l = if left_selected {
            selected_side("R1")
        } else {
            PcSide::projection("R1", &["A"])
        };
        let r = if right_selected {
            selected_side("R2")
        } else {
            PcSide::projection("R2", &["A"])
        };
        PcConstraint::new(l, rel, r)
    }

    #[test]
    fn twelve_cases_of_fig_10() {
        use PcRelationship::{Equivalent, Subset, Superset};
        let cases = [
            // (left_sel, rel, right_sel, size, exact)
            (false, Subset, false, 1000.0, true),
            (false, Subset, true, 1000.0, true),
            (true, Subset, false, 300.0, false),
            (true, Subset, true, 300.0, false),
            (false, Equivalent, false, 1000.0, true),
            (false, Equivalent, true, 800.0, true), // min(1000, 0.2·4000)
            (true, Equivalent, false, 300.0, true), // min(0.3·1000, 4000)
            (true, Equivalent, true, 300.0, false),
            (false, Superset, false, 4000.0, true),
            (false, Superset, true, 800.0, false),
            (true, Superset, false, 4000.0, true),
            (true, Superset, true, 800.0, false),
        ];
        for (ls, rel, rs, size, exact) in cases {
            let est = estimate_overlap(&pc(ls, rel, rs), inputs());
            assert!(
                (est.size - size).abs() < 1e-9 && est.exact == exact,
                "case ({ls}, {rel:?}, {rs}): got {est:?}, want size {size} exact {exact}"
            );
        }
    }

    #[test]
    fn exactly_five_inexact_cases() {
        use PcRelationship::{Equivalent, Subset, Superset};
        let mut inexact = 0;
        for rel in [Subset, Equivalent, Superset] {
            for ls in [false, true] {
                for rs in [false, true] {
                    if !estimate_overlap(&pc(ls, rel, rs), inputs()).exact {
                        inexact += 1;
                    }
                }
            }
        }
        assert_eq!(inexact, 5, "Fig. 9 marks exactly five subsets with *");
    }

    #[test]
    fn unknown_estimate_is_zero() {
        let unknown = OverlapEstimate::UNKNOWN;
        assert_eq!(unknown.size, 0.0);
        assert!(!unknown.exact);
    }

    #[test]
    fn experiment4_chain_endpoints() {
        // Experiment 4: PC(S1 ⊆ S3) with |S1| = 2000 ⇒ overlap(S3, S1) = 2000.
        let c = pc(false, PcRelationship::Subset, false);
        let est = estimate_overlap(
            &c,
            OverlapInputs {
                left_card: 2000.0,
                right_card: 4000.0,
                left_selectivity: 1.0,
                right_selectivity: 1.0,
            },
        );
        assert_eq!(est.size, 2000.0);
        assert!(est.exact);
    }
}
