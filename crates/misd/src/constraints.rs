//! Semantic constraints between information sources (paper Fig. 4).

use std::fmt;

use eve_relational::{Predicate, PrimitiveClause};

/// The containment direction of a PC constraint: `left ⊑ right`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PcRelationship {
    /// `⊆` — the left fragment is contained in the right fragment.
    Subset,
    /// `≡` — the fragments are equal at all times (complete constraint).
    Equivalent,
    /// `⊇` — the left fragment contains the right fragment.
    Superset,
}

impl PcRelationship {
    /// The relationship seen from the other side (`a ⊆ b` ⇔ `b ⊇ a`).
    #[must_use]
    pub fn flipped(self) -> PcRelationship {
        match self {
            PcRelationship::Subset => PcRelationship::Superset,
            PcRelationship::Equivalent => PcRelationship::Equivalent,
            PcRelationship::Superset => PcRelationship::Subset,
        }
    }

    /// Composition along a chain: if `a ⊑₁ b` and `b ⊑₂ c`, then `a (⊑₁∘⊑₂) c`
    /// — `None` when the directions conflict (e.g. `⊆` then `⊇`), in which
    /// case nothing can be concluded.
    #[must_use]
    pub fn compose(self, next: PcRelationship) -> Option<PcRelationship> {
        use PcRelationship::{Equivalent, Subset, Superset};
        match (self, next) {
            (Equivalent, r) => Some(r),
            (r, Equivalent) => Some(r),
            (Subset, Subset) => Some(Subset),
            (Superset, Superset) => Some(Superset),
            (Subset, Superset) | (Superset, Subset) => None,
        }
    }

    /// Symbol used in displays.
    #[must_use]
    pub fn symbol(self) -> &'static str {
        match self {
            PcRelationship::Subset => "⊆",
            PcRelationship::Equivalent => "≡",
            PcRelationship::Superset => "⊇",
        }
    }
}

impl fmt::Display for PcRelationship {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// One side of a PC constraint: `π_{attrs}(σ_{selection}(relation))`.
///
/// `attrs[i]` on the left side corresponds positionally to `attrs[i]` on the
/// right side (the paper requires `TC(R1.A_is) = TC(R2.A_ns)` for each `s`).
/// Selection predicates use bare column names referring to the relation's own
/// attributes; [`Predicate::always_true`] encodes the paper's "no selection
/// condition" case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PcSide {
    /// Relation name.
    pub relation: String,
    /// Projection attribute list (the correspondence columns).
    pub attrs: Vec<String>,
    /// Selection condition (conjunctive; possibly tautologically true).
    pub selection: Predicate,
}

impl PcSide {
    /// Side with no selection condition.
    #[must_use]
    pub fn projection(relation: impl Into<String>, attrs: &[&str]) -> PcSide {
        PcSide {
            relation: relation.into(),
            attrs: attrs.iter().map(|s| (*s).to_owned()).collect(),
            selection: Predicate::always_true(),
        }
    }

    /// Side with a selection condition.
    #[must_use]
    pub fn selected(relation: impl Into<String>, attrs: &[&str], selection: Predicate) -> PcSide {
        PcSide {
            relation: relation.into(),
            attrs: attrs.iter().map(|s| (*s).to_owned()).collect(),
            selection,
        }
    }

    /// Whether the side has a (non-trivial) selection condition — the paper's
    /// "yes" in the no/yes–yes/no case analysis (§5.4.3).
    #[must_use]
    pub(crate) fn has_selection(&self) -> bool {
        !self.selection.is_true()
    }
}

impl fmt::Display for PcSide {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "π[{}](", self.attrs.join(","))?;
        if self.has_selection() {
            write!(f, "σ[{}]", self.selection)?;
        }
        write!(f, "{})", self.relation)
    }
}

/// A partial/complete (PC) constraint `left ⊑ right` (Eq. 5).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PcConstraint {
    /// Left fragment.
    pub left: PcSide,
    /// Containment direction.
    pub relationship: PcRelationship,
    /// Right fragment.
    pub right: PcSide,
}

impl PcConstraint {
    /// Builds a constraint.
    #[must_use]
    pub fn new(left: PcSide, relationship: PcRelationship, right: PcSide) -> PcConstraint {
        PcConstraint {
            left,
            relationship,
            right,
        }
    }

    /// The constraint with sides (and direction) swapped; semantically
    /// identical.
    #[must_use]
    pub fn flipped(&self) -> PcConstraint {
        PcConstraint {
            left: self.right.clone(),
            relationship: self.relationship.flipped(),
            right: self.left.clone(),
        }
    }

    /// Whether both sides are selection-free (the `no/no` row of Fig. 9/10);
    /// only such constraints participate in transitive chains.
    #[must_use]
    pub fn is_selection_free(&self) -> bool {
        !self.left.has_selection() && !self.right.has_selection()
    }
}

impl fmt::Display for PcConstraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PC: {} {} {}", self.left, self.relationship, self.right)
    }
}

/// A join constraint `JC_{R1,R2}` (Eq. 4): `R1 ⋈_{C1 ∧ … ∧ Cl} R2` is a
/// meaningful join. Clause columns are qualified with the two relation names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinConstraint {
    /// First relation.
    pub left: String,
    /// Second relation.
    pub right: String,
    /// Join condition clauses.
    pub condition: Vec<PrimitiveClause>,
}

impl JoinConstraint {
    /// Builds a join constraint.
    #[must_use]
    pub fn new(
        left: impl Into<String>,
        right: impl Into<String>,
        condition: Vec<PrimitiveClause>,
    ) -> JoinConstraint {
        JoinConstraint {
            left: left.into(),
            right: right.into(),
            condition,
        }
    }

    /// Whether this constraint joins relations `a` and `b` (either order).
    #[must_use]
    pub(crate) fn connects(&self, a: &str, b: &str) -> bool {
        (self.left == a && self.right == b) || (self.left == b && self.right == a)
    }

    /// The partner relation when `rel` is one endpoint.
    #[must_use]
    pub(crate) fn partner_of(&self, rel: &str) -> Option<&str> {
        if self.left == rel {
            Some(&self.right)
        } else if self.right == rel {
            Some(&self.left)
        } else {
            None
        }
    }

    /// The join condition as a conjunctive predicate.
    #[must_use]
    pub fn predicate(&self) -> Predicate {
        Predicate::new(self.condition.clone())
    }
}

impl fmt::Display for JoinConstraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JC[{}, {}]: {}", self.left, self.right, self.predicate())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eve_relational::{ColumnRef, CompOp, Value};

    #[test]
    fn relationship_flip() {
        assert_eq!(PcRelationship::Subset.flipped(), PcRelationship::Superset);
        assert_eq!(
            PcRelationship::Equivalent.flipped(),
            PcRelationship::Equivalent
        );
    }

    #[test]
    fn relationship_composition_table() {
        use PcRelationship::{Equivalent, Subset, Superset};
        assert_eq!(Subset.compose(Subset), Some(Subset));
        assert_eq!(Subset.compose(Equivalent), Some(Subset));
        assert_eq!(Equivalent.compose(Superset), Some(Superset));
        assert_eq!(Equivalent.compose(Equivalent), Some(Equivalent));
        assert_eq!(Superset.compose(Superset), Some(Superset));
        assert_eq!(Subset.compose(Superset), None);
        assert_eq!(Superset.compose(Subset), None);
    }

    #[test]
    fn orientation() {
        let pc = PcConstraint::new(
            PcSide::projection("R", &["A", "B"]),
            PcRelationship::Subset,
            PcSide::projection("S", &["X", "Y"]),
        );
        let from_s = pc.flipped();
        assert_eq!(from_s.left, pc.right);
        assert_eq!(from_s.right, pc.left);
        assert_eq!(from_s.relationship, PcRelationship::Superset);
        assert_eq!(from_s.flipped(), pc);
    }

    #[test]
    fn selection_free_detection() {
        let free = PcConstraint::new(
            PcSide::projection("R", &["A"]),
            PcRelationship::Subset,
            PcSide::projection("S", &["A"]),
        );
        assert!(free.is_selection_free());
        let selected = PcConstraint::new(
            PcSide::selected(
                "R",
                &["A"],
                Predicate::single(PrimitiveClause::lit(
                    ColumnRef::bare("A"),
                    CompOp::Gt,
                    Value::Int(0),
                )),
            ),
            PcRelationship::Subset,
            PcSide::projection("S", &["A"]),
        );
        assert!(!selected.is_selection_free());
    }

    #[test]
    fn join_constraint_navigation() {
        let jc = JoinConstraint::new(
            "Customer",
            "FlightRes",
            vec![PrimitiveClause::eq(
                ColumnRef::parse("Customer.Name"),
                ColumnRef::parse("FlightRes.PName"),
            )],
        );
        assert!(jc.connects("FlightRes", "Customer"));
        assert_eq!(jc.partner_of("Customer"), Some("FlightRes"));
        assert_eq!(jc.partner_of("Hotel"), None);
        assert_eq!(
            jc.to_string(),
            "JC[Customer, FlightRes]: (Customer.Name = FlightRes.PName)"
        );
    }

    #[test]
    fn pc_display() {
        let pc = PcConstraint::new(
            PcSide::projection("R", &["A"]),
            PcRelationship::Subset,
            PcSide::projection("S", &["A"]),
        );
        assert_eq!(pc.to_string(), "PC: π[A](R) ⊆ π[A](S)");
    }
}
