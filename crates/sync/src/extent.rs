//! Extent relationships between an original view and a rewriting.
//!
//! Legality with respect to the E-SQL `VE` parameter requires knowing how the
//! rewriting's extent relates to the original extent *on the common subset of
//! attributes* (paper §5.3, Fig. 8). Each repair action contributes a local
//! relationship; the overall relationship is their composition in a small
//! lattice.

use eve_esql::ViewExtent;
use eve_misd::PcRelationship;

/// Relationship of a rewriting's extent to the original view's extent, on
/// the common attributes (Fig. 8's four cases).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExtentRelationship {
    /// New extent equals the old one (Fig. 8a).
    #[default]
    Equal,
    /// New extent is a superset of the old one (Fig. 8b).
    Superset,
    /// New extent is a subset of the old one (Fig. 8c).
    Subset,
    /// Overlapping but neither contains the other, or unknown (Fig. 8d).
    Approximate,
}

impl ExtentRelationship {
    /// Composes the effects of two successive repair actions.
    ///
    /// `Equal` is the identity; same-direction containments reinforce; mixed
    /// directions yield [`ExtentRelationship::Approximate`].
    #[must_use]
    pub fn compose(self, other: ExtentRelationship) -> ExtentRelationship {
        use ExtentRelationship::{Approximate, Equal, Subset, Superset};
        match (self, other) {
            (Equal, r) => r,
            (r, Equal) => r,
            (Subset, Subset) => Subset,
            (Superset, Superset) => Superset,
            _ => Approximate,
        }
    }

    /// Whether this relationship satisfies a view's `VE` preference:
    ///
    /// * `VE ≡` accepts only `Equal`,
    /// * `VE ⊇` accepts `Equal` and `Superset`,
    /// * `VE ⊆` accepts `Equal` and `Subset`,
    /// * `VE ≈` accepts anything.
    #[must_use]
    pub fn satisfies(self, ve: ViewExtent) -> bool {
        use ExtentRelationship::{Approximate, Equal, Subset, Superset};
        match ve {
            ViewExtent::Equal => self == Equal,
            ViewExtent::Superset => matches!(self, Equal | Superset),
            ViewExtent::Subset => matches!(self, Equal | Subset),
            ViewExtent::Approximate => matches!(self, Equal | Superset | Subset | Approximate),
        }
    }

    /// The extent effect of swapping a relation for a PC partner, where
    /// `old ⊑ new` is the constraint oriented from the old relation:
    /// replacing with a *superset* relation enlarges the view extent, with a
    /// *subset* relation shrinks it (Experiment 4's two regimes).
    #[must_use]
    pub(crate) fn from_relation_swap(old_to_new: PcRelationship) -> ExtentRelationship {
        match old_to_new {
            PcRelationship::Equivalent => ExtentRelationship::Equal,
            PcRelationship::Subset => ExtentRelationship::Superset,
            PcRelationship::Superset => ExtentRelationship::Subset,
        }
    }

    /// The extent effect of replacing one attribute through a PC constraint
    /// plus a join with the providing relation. Under EVE's key-join reading
    /// of join constraints, an `old ⊆ new` or `old ≡ new` fragment keeps
    /// every original tuple and introduces none (`Equal`); `old ⊇ new` may
    /// lose tuples whose value has no counterpart (`Subset`).
    #[must_use]
    pub(crate) fn from_attr_replacement(old_to_new: PcRelationship) -> ExtentRelationship {
        match old_to_new {
            PcRelationship::Equivalent | PcRelationship::Subset => ExtentRelationship::Equal,
            PcRelationship::Superset => ExtentRelationship::Subset,
        }
    }
}

impl std::fmt::Display for ExtentRelationship {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ExtentRelationship::Equal => "equal",
            ExtentRelationship::Superset => "superset",
            ExtentRelationship::Subset => "subset",
            ExtentRelationship::Approximate => "approximate",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ExtentRelationship::{Approximate, Equal, Subset, Superset};

    #[test]
    fn composition_identity_and_absorption() {
        for r in [Equal, Subset, Superset, Approximate] {
            assert_eq!(Equal.compose(r), r);
            assert_eq!(r.compose(Equal), r);
            assert_eq!(Approximate.compose(r), Approximate);
            assert_eq!(r.compose(Approximate), Approximate);
        }
    }

    #[test]
    fn composition_directions() {
        assert_eq!(Subset.compose(Subset), Subset);
        assert_eq!(Superset.compose(Superset), Superset);
        assert_eq!(Subset.compose(Superset), Approximate);
        assert_eq!(Superset.compose(Subset), Approximate);
    }

    #[test]
    fn composition_is_commutative_and_associative() {
        let all = [Equal, Subset, Superset, Approximate];
        for a in all {
            for b in all {
                assert_eq!(a.compose(b), b.compose(a));
                for c in all {
                    assert_eq!(a.compose(b).compose(c), a.compose(b.compose(c)));
                }
            }
        }
    }

    #[test]
    fn ve_compliance_matrix() {
        use eve_esql::ViewExtent as VE;
        // (relationship, ve, legal)
        let cases = [
            (Equal, VE::Equal, true),
            (Subset, VE::Equal, false),
            (Superset, VE::Equal, false),
            (Approximate, VE::Equal, false),
            (Equal, VE::Subset, true),
            (Subset, VE::Subset, true),
            (Superset, VE::Subset, false),
            (Approximate, VE::Subset, false),
            (Equal, VE::Superset, true),
            (Superset, VE::Superset, true),
            (Subset, VE::Superset, false),
            (Approximate, VE::Superset, false),
            (Equal, VE::Approximate, true),
            (Subset, VE::Approximate, true),
            (Superset, VE::Approximate, true),
            (Approximate, VE::Approximate, true),
        ];
        for (rel, ve, want) in cases {
            assert_eq!(rel.satisfies(ve), want, "{rel} vs VE {ve}");
        }
    }

    #[test]
    fn relation_swap_mapping_matches_experiment_4() {
        // Replacing R2 with subset S1 loses tuples; with superset S4 gains.
        assert_eq!(
            ExtentRelationship::from_relation_swap(PcRelationship::Superset),
            Subset
        );
        assert_eq!(
            ExtentRelationship::from_relation_swap(PcRelationship::Subset),
            Superset
        );
        assert_eq!(
            ExtentRelationship::from_relation_swap(PcRelationship::Equivalent),
            Equal
        );
    }

    #[test]
    fn attr_replacement_mapping() {
        assert_eq!(
            ExtentRelationship::from_attr_replacement(PcRelationship::Subset),
            Equal
        );
        assert_eq!(
            ExtentRelationship::from_attr_replacement(PcRelationship::Superset),
            Subset
        );
    }
}
