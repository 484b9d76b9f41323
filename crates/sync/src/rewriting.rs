//! Legal rewritings and their provenance.

use std::fmt;

use eve_esql::ViewDef;
use eve_misd::PcRelationship;
use eve_relational::PrimitiveClause;

use crate::extent::ExtentRelationship;

/// One elementary repair performed while synchronizing a view.
#[derive(Debug, Clone, PartialEq)]
pub enum RewriteAction {
    /// A dispensable SELECT item was removed (`AD = true`).
    DroppedAttribute {
        /// FROM binding the attribute came from.
        binding: String,
        /// Attribute name.
        attribute: String,
    },
    /// A replaceable SELECT item was re-sourced from another relation
    /// (`AR = true`, via a PC constraint).
    ReplacedAttribute {
        /// Old `binding.attribute`.
        old: (String, String),
        /// New `relation.attribute`.
        new: (String, String),
        /// PC relationship of the old fragment to the new one.
        relationship: PcRelationship,
    },
    /// A dispensable WHERE conjunct was removed (`CD = true`).
    DroppedCondition {
        /// The removed clause.
        clause: PrimitiveClause,
    },
    /// A replaceable WHERE conjunct had an attribute substituted
    /// (`CR = true`).
    RewroteCondition {
        /// The old clause.
        old: PrimitiveClause,
        /// The new clause.
        new: PrimitiveClause,
    },
    /// A dispensable FROM item (plus its attributes and conditions) was
    /// removed (`RD = true`).
    DroppedRelation {
        /// The removed binding.
        binding: String,
        /// The base relation it referenced.
        relation: String,
    },
    /// A replaceable FROM item was swapped for a PC partner (`RR = true`).
    SwappedRelation {
        /// The old binding name.
        binding: String,
        /// The old base relation.
        old_relation: String,
        /// The replacement relation.
        new_relation: String,
        /// PC relationship of the old relation to the new one.
        relationship: PcRelationship,
    },
    /// A relation was added to FROM to host replacement attributes, joined
    /// through a join constraint.
    AddedJoinRelation {
        /// The added relation.
        relation: String,
        /// Display form of the join clauses appended to WHERE.
        join: String,
    },
    /// A component was renamed following a rename capability change.
    Renamed {
        /// Old name (qualified for attributes).
        from: String,
        /// New name.
        to: String,
    },
}

impl fmt::Display for RewriteAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RewriteAction::DroppedAttribute { binding, attribute } => {
                write!(f, "drop attribute {binding}.{attribute}")
            }
            RewriteAction::ReplacedAttribute {
                old,
                new,
                relationship,
            } => write!(
                f,
                "replace attribute {}.{} with {}.{} ({} fragment)",
                old.0, old.1, new.0, new.1, relationship
            ),
            RewriteAction::DroppedCondition { clause } => write!(f, "drop condition ({clause})"),
            RewriteAction::RewroteCondition { old, new } => {
                write!(f, "rewrite condition ({old}) as ({new})")
            }
            RewriteAction::DroppedRelation { binding, relation } => {
                write!(f, "drop relation {relation} (binding {binding})")
            }
            RewriteAction::SwappedRelation {
                binding,
                old_relation,
                new_relation,
                relationship,
            } => write!(
                f,
                "swap relation {old_relation} (binding {binding}) for {new_relation} ({relationship})"
            ),
            RewriteAction::AddedJoinRelation { relation, join } => {
                write!(f, "add relation {relation} joined via {join}")
            }
            RewriteAction::Renamed { from, to } => write!(f, "rename {from} to {to}"),
        }
    }
}

/// The trail of repairs that produced one rewriting.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Provenance {
    /// Actions in application order.
    pub actions: Vec<RewriteAction>,
}

impl Provenance {
    /// Number of recorded actions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.actions.len()
    }

    /// Whether no action was needed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }
}

impl fmt::Display for Provenance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, a) in self.actions.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(f, "{a}")?;
        }
        Ok(())
    }
}

/// A legal rewriting: the new view definition, how it was obtained, and how
/// its extent relates to the original view's extent.
#[derive(Debug, Clone, PartialEq)]
pub struct LegalRewriting {
    /// The rewritten view definition (same view name as the original).
    pub view: ViewDef,
    /// The repair trail.
    pub provenance: Provenance,
    /// Extent relationship to the original view (already `VE`-checked).
    pub extent: ExtentRelationship,
}

impl LegalRewriting {
    /// Whether the rewriting reads exactly the tuples the original view
    /// read, so the old extent *is* the new one (view adaptation's trivial
    /// case, V′ = V): its extent is ≡ and every repair is a rename. A rename
    /// keeps every binding and output name, and the site keeps the renamed
    /// relation's storage.
    #[must_use]
    pub fn reads_the_same_tuples(&self) -> bool {
        self.extent == ExtentRelationship::Equal
            && self
                .provenance
                .actions
                .iter()
                .all(|a| matches!(a, RewriteAction::Renamed { .. }))
    }

    /// The relation pair `(R, R′)` when the rewriting is `original` with
    /// one or more FROM items over `R` moved onto `R′` and nothing else
    /// changed: each moved item keeps its alias, and SELECT, WHERE, `VE`
    /// and the output names are untouched. The moved bindings read from
    /// `R′` exactly what they read from `R`, so wherever the two hold the
    /// same bag, and the bindings left on `R` read what they read before,
    /// the old extent is the new one, whatever the extent relationship
    /// claims. A swap that merged into an existing binding, dropped a
    /// component or mapped an attribute to another name is `None`.
    #[must_use]
    pub fn substituted_relation<'a>(&'a self, original: &'a ViewDef) -> Option<(&'a str, &'a str)> {
        let view = &self.view;
        if view.from.len() != original.from.len()
            || view.select != original.select
            || view.conditions != original.conditions
            || view.ve != original.ve
            || view.column_names != original.column_names
        {
            return None;
        }
        let mut pair: Option<(&str, &str)> = None;
        for (new, old) in view.from.iter().zip(&original.from) {
            if new.relation == old.relation {
                if new != old {
                    return None;
                }
                continue;
            }
            if new.alias.is_none() || new.alias != old.alias || new.evolution != old.evolution {
                return None;
            }
            let swap = (old.relation.as_str(), new.relation.as_str());
            if pair.is_some_and(|p| p != swap) {
                return None;
            }
            pair = Some(swap);
        }
        pair
    }
}

impl fmt::Display for LegalRewriting {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "-- extent: {}; repairs: {}",
            self.extent, self.provenance
        )?;
        write!(f, "{}", self.view)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn action_display() {
        let a = RewriteAction::DroppedAttribute {
            binding: "R".into(),
            attribute: "B".into(),
        };
        assert_eq!(a.to_string(), "drop attribute R.B");
        let s = RewriteAction::SwappedRelation {
            binding: "R".into(),
            old_relation: "R".into(),
            new_relation: "S".into(),
            relationship: PcRelationship::Subset,
        };
        assert_eq!(s.to_string(), "swap relation R (binding R) for S (⊆)");
    }

    #[test]
    fn provenance_display_joins_actions() {
        let p = Provenance {
            actions: vec![
                RewriteAction::DroppedCondition {
                    clause: PrimitiveClause::lit(
                        eve_relational::ColumnRef::parse("R.A"),
                        eve_relational::CompOp::Gt,
                        eve_relational::Value::Int(10),
                    ),
                },
                RewriteAction::Renamed {
                    from: "R.A".into(),
                    to: "R.B".into(),
                },
            ],
        };
        assert_eq!(
            p.to_string(),
            "drop condition (R.A > 10); rename R.A to R.B"
        );
        assert_eq!(p.len(), 2);
        assert!(!p.is_empty());
    }

    #[test]
    fn only_an_equal_pure_rename_reads_the_same_tuples() {
        let rewriting = |extent, actions| LegalRewriting {
            view: eve_esql::parse_view("CREATE VIEW V AS SELECT R.A FROM S R").unwrap(),
            provenance: Provenance { actions },
            extent,
        };
        let renamed = RewriteAction::Renamed {
            from: "R".into(),
            to: "S".into(),
        };
        let dropped = RewriteAction::DroppedAttribute {
            binding: "R".into(),
            attribute: "B".into(),
        };
        let equal = ExtentRelationship::Equal;
        assert!(rewriting(equal, vec![renamed.clone()]).reads_the_same_tuples());
        assert!(
            !rewriting(ExtentRelationship::Subset, vec![renamed.clone()]).reads_the_same_tuples()
        );
        assert!(!rewriting(equal, vec![renamed, dropped]).reads_the_same_tuples());
    }

    #[test]
    fn only_an_aliased_relation_swap_substitutes_a_relation() {
        let original = eve_esql::parse_view(
            "CREATE VIEW V AS SELECT X.K, Y.P AS YP FROM R X, R Y, S Z \
             WHERE X.K = Y.K AND Y.K = Z.K",
        )
        .unwrap();
        let substituted = |sql: &str| {
            LegalRewriting {
                view: eve_esql::parse_view(sql).unwrap(),
                provenance: Provenance::default(),
                extent: ExtentRelationship::Subset,
            }
            .substituted_relation(&original)
            .map(|(from, to)| (from.to_owned(), to.to_owned()))
        };
        // Bindings of R onto M, aliases kept, whatever the extent
        // relationship says; a binding may stay on R.
        for sql in [
            "CREATE VIEW V AS SELECT X.K, Y.P AS YP FROM M X, M Y, S Z \
             WHERE X.K = Y.K AND Y.K = Z.K",
            "CREATE VIEW V AS SELECT X.K, Y.P AS YP FROM M X, R Y, S Z \
             WHERE X.K = Y.K AND Y.K = Z.K",
        ] {
            assert_eq!(
                substituted(sql),
                Some(("R".to_owned(), "M".to_owned())),
                "{sql}"
            );
        }
        for sql in [
            // Two different substitutions.
            "CREATE VIEW V AS SELECT X.K, Y.P AS YP FROM M X, M Y, T Z \
             WHERE X.K = Y.K AND Y.K = Z.K",
            // An attribute mapped to another name.
            "CREATE VIEW V AS SELECT X.K, Y.Q AS YP FROM M X, M Y, S Z \
             WHERE X.K = Y.K AND Y.K = Z.K",
            // A merge into an existing binding.
            "CREATE VIEW V AS SELECT Z.K, Y.P AS YP FROM M Y, S Z \
             WHERE Z.K = Y.K AND Y.K = Z.K",
            // Another alias.
            "CREATE VIEW V AS SELECT X.K, Y.P AS YP FROM M X, M W, S Z \
             WHERE X.K = Y.K AND Y.K = Z.K",
            // A dropped condition.
            "CREATE VIEW V AS SELECT X.K, Y.P AS YP FROM M X, M Y, S Z WHERE X.K = Y.K",
            // Nothing substituted.
            "CREATE VIEW V AS SELECT X.K, Y.P AS YP FROM R X, R Y, S Z \
             WHERE X.K = Y.K AND Y.K = Z.K",
        ] {
            assert_eq!(substituted(sql), None, "{sql}");
        }
        // An unaliased item changes its binding name with its relation.
        let bare = eve_esql::parse_view("CREATE VIEW V AS SELECT R.K FROM R").unwrap();
        let swapped = LegalRewriting {
            view: eve_esql::parse_view("CREATE VIEW V AS SELECT M.K FROM M").unwrap(),
            provenance: Provenance::default(),
            extent: ExtentRelationship::Equal,
        };
        assert_eq!(swapped.substituted_relation(&bare), None);
    }
}
