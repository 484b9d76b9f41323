//! The MKB evolver and consistency checker (paper Fig. 1).
//!
//! Capability changes (§3.3) arrive from information sources as
//! [`SchemaChange`]s. [`Mkb::check_change`] holds every guard a change must
//! pass; [`Mkb::apply_change`] runs it, then updates the relation registry
//! and keeps the constraint store consistent: constraints that mention deleted
//! components are dropped (or narrowed, for PC projection lists), renames are
//! rewritten through. The PC-constraint index is maintained in place: each
//! arm that edits constraints re-derives the changed relation's index keys
//! and its PC partners'. [`check_consistency`] audits an MKB for dangling
//! references — the paper's *MKB Consistency Checker* component.

use eve_relational::ColumnRef;

use crate::constraints::PcConstraint;
use crate::error::{Error, Result};
use crate::mkb::Mkb;
use crate::source::{AttributeInfo, RelationInfo};

/// A capability (schema) change at an information source. These are the six
/// change kinds the paper lists as "commonly found in commercial systems"
/// (§3.3).
#[derive(Debug, Clone, PartialEq)]
pub enum SchemaChange {
    /// `delete-attribute R.A`
    DeleteAttribute {
        /// Relation owning the attribute.
        relation: String,
        /// The attribute being removed.
        attribute: String,
    },
    /// `add-attribute R.A`
    AddAttribute {
        /// Relation gaining the attribute.
        relation: String,
        /// The new attribute.
        attribute: AttributeInfo,
    },
    /// `change-attribute-name R.A → R.B`
    RenameAttribute {
        /// Relation owning the attribute.
        relation: String,
        /// Current name.
        from: String,
        /// New name.
        to: String,
    },
    /// `delete-relation R`
    DeleteRelation {
        /// The relation being removed.
        relation: String,
    },
    /// `add-relation R`
    AddRelation {
        /// The new relation's full description.
        relation: RelationInfo,
    },
    /// `change-relation-name R → S`
    RenameRelation {
        /// Current name.
        from: String,
        /// New name.
        to: String,
    },
}

impl std::fmt::Display for SchemaChange {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchemaChange::DeleteAttribute {
                relation,
                attribute,
            } => write!(f, "delete-attribute {relation}.{attribute}"),
            SchemaChange::AddAttribute {
                relation,
                attribute,
            } => write!(f, "add-attribute {relation}.{}", attribute.name),
            SchemaChange::RenameAttribute { relation, from, to } => {
                write!(
                    f,
                    "change-attribute-name {relation}.{from} -> {relation}.{to}"
                )
            }
            SchemaChange::DeleteRelation { relation } => write!(f, "delete-relation {relation}"),
            SchemaChange::AddRelation { relation } => write!(f, "add-relation {}", relation.name),
            SchemaChange::RenameRelation { from, to } => {
                write!(f, "change-relation-name {from} -> {to}")
            }
        }
    }
}

fn clause_mentions(clause: &eve_relational::PrimitiveClause, rel: &str, attr: &str) -> bool {
    clause
        .columns()
        .iter()
        .any(|c| c.qualifier.as_deref() == Some(rel) && c.name == attr)
}

impl Mkb {
    /// Whether `change` may be applied to this MKB: every guard of
    /// [`Mkb::apply_change`], run without touching anything. The engine
    /// runs it before any site, view or generation moves, so a change the
    /// MKB refuses leaves the whole information space as it was.
    ///
    /// # Errors
    ///
    /// [`Error::UnknownRelation`] / [`Error::UnknownAttribute`] for a
    /// component the change names but the MKB lacks;
    /// [`Error::DuplicateRelation`] / [`Error::DuplicateAttribute`] for a
    /// name it would create twice; what [`Mkb::register_relation`] refuses
    /// for `add-relation`.
    pub fn check_change(&self, change: &SchemaChange) -> Result<()> {
        match change {
            SchemaChange::DeleteAttribute {
                relation,
                attribute,
            } => self.attribute(relation, attribute).map(|_| ()),
            SchemaChange::AddAttribute {
                relation,
                attribute,
            } => self.check_attribute_unused(relation, &attribute.name),
            SchemaChange::RenameAttribute { relation, from, to } => {
                self.attribute(relation, from)?;
                self.check_attribute_unused(relation, to)
            }
            SchemaChange::DeleteRelation { relation } => self.relation(relation).map(|_| ()),
            SchemaChange::AddRelation { relation } => self.check_registrable(relation),
            SchemaChange::RenameRelation { from, to } => {
                self.relation(from)?;
                if self.has_relation(to) {
                    return Err(Error::DuplicateRelation {
                        relation: to.clone(),
                    });
                }
                Ok(())
            }
        }
    }

    fn check_attribute_unused(&self, relation: &str, attribute: &str) -> Result<()> {
        if self.relation(relation)?.has_attribute(attribute) {
            return Err(Error::DuplicateAttribute {
                relation: relation.to_owned(),
                attribute: attribute.to_owned(),
            });
        }
        Ok(())
    }

    /// Applies a capability change, evolving relations and constraints.
    ///
    /// View synchronization must run *before* the change is applied — the
    /// constraints about a deleted component are exactly what the
    /// synchronizer mines for replacements.
    ///
    /// # Errors
    ///
    /// What [`Mkb::check_change`] returns; the MKB is then untouched.
    pub fn apply_change(&mut self, change: &SchemaChange) -> Result<()> {
        self.check_change(change)?;
        match change {
            SchemaChange::DeleteAttribute {
                relation,
                attribute,
            } => {
                let keys = self.index_keys_touching(&[relation]);
                let info = self.relation_entry(relation)?;
                info.attributes.retain(|a| &a.name != attribute);
                self.drop_constraints_on_attr(relation, attribute);
                self.reindex(keys);
            }
            SchemaChange::AddAttribute {
                relation,
                attribute,
            } => {
                let info = self.relation_entry(relation)?;
                info.attributes.push(attribute.clone());
            }
            SchemaChange::RenameAttribute { relation, from, to } => {
                let keys = self.index_keys_touching(&[relation]);
                let info = self.relation_entry(relation)?;
                for a in &mut info.attributes {
                    if &a.name == from {
                        a.name = to.clone();
                    }
                }
                self.rename_attr_in_constraints(relation, from, to);
                self.reindex(keys);
            }
            SchemaChange::DeleteRelation { relation } => {
                let keys = self.index_keys_touching(&[relation]);
                self.relations_mut().remove(relation);
                self.join_constraints_mut()
                    .retain(|jc| jc.partner_of(relation).is_none());
                self.pc_constraints_mut()
                    .retain(|pc| pc.left.relation != *relation && pc.right.relation != *relation);
                self.join_selectivities_mut()
                    .retain(|(a, b), _| a != relation && b != relation);
                self.reindex(keys);
            }
            SchemaChange::AddRelation { relation } => self.register_relation(relation.clone())?,
            SchemaChange::RenameRelation { from, to } => {
                let keys = self.index_keys_touching(&[from, to]);
                let Some(mut info) = self.relations_mut().remove(from) else {
                    return Err(Error::UnknownRelation {
                        relation: from.clone(),
                    });
                };
                info.name = to.clone();
                self.relations_mut().insert(to.clone(), info);
                self.rename_relation_in_constraints(from, to);
                self.reindex(keys);
            }
        }
        Ok(())
    }

    /// A relation's entry, to edit in place. [`Mkb::check_change`] has
    /// already found it, so the error only guards the invariant.
    fn relation_entry(&mut self, relation: &str) -> Result<&mut RelationInfo> {
        self.relations_mut()
            .get_mut(relation)
            .ok_or_else(|| Error::UnknownRelation {
                relation: relation.to_owned(),
            })
    }

    fn drop_constraints_on_attr(&mut self, relation: &str, attribute: &str) {
        self.join_constraints_mut().retain(|jc| {
            !jc.condition
                .iter()
                .any(|c| clause_mentions(c, relation, attribute))
        });
        // PC constraints: remove the correspondence position; drop the whole
        // constraint when the projection empties or a selection mentions the
        // deleted attribute.
        let mut kept: Vec<PcConstraint> = Vec::new();
        for mut pc in std::mem::take(self.pc_constraints_mut()) {
            let selection_hit = [&pc.left, &pc.right].iter().any(|side| {
                side.relation == relation
                    && side
                        .selection
                        .clauses()
                        .iter()
                        .any(|c| c.columns().iter().any(|col| col.name == attribute))
            });
            if selection_hit {
                continue;
            }
            let mut remove_positions: Vec<usize> = Vec::new();
            if pc.left.relation == relation {
                for (i, a) in pc.left.attrs.iter().enumerate() {
                    if a == attribute {
                        remove_positions.push(i);
                    }
                }
            }
            if pc.right.relation == relation {
                for (i, a) in pc.right.attrs.iter().enumerate() {
                    if a == attribute && !remove_positions.contains(&i) {
                        remove_positions.push(i);
                    }
                }
            }
            if !remove_positions.is_empty() {
                remove_positions.sort_unstable();
                for &i in remove_positions.iter().rev() {
                    pc.left.attrs.remove(i);
                    pc.right.attrs.remove(i);
                }
                if pc.left.attrs.is_empty() {
                    continue;
                }
            }
            kept.push(pc);
        }
        *self.pc_constraints_mut() = kept;
    }

    fn rename_attr_in_constraints(&mut self, relation: &str, from: &str, to: &str) {
        for jc in self.join_constraints_mut() {
            for clause in &mut jc.condition {
                *clause = clause.map_columns(&mut |c| {
                    if c.qualifier.as_deref() == Some(relation) && c.name == from {
                        ColumnRef::qualified(relation, to)
                    } else {
                        c.clone()
                    }
                });
            }
        }
        for pc in self.pc_constraints_mut() {
            for side in [&mut pc.left, &mut pc.right] {
                if side.relation == relation {
                    for a in &mut side.attrs {
                        if a == from {
                            *a = to.to_owned();
                        }
                    }
                    let renamed: Vec<eve_relational::PrimitiveClause> = side
                        .selection
                        .clauses()
                        .iter()
                        .map(|c| {
                            c.map_columns(&mut |col| {
                                if col.qualifier.is_none() && col.name == from {
                                    ColumnRef::bare(to)
                                } else {
                                    col.clone()
                                }
                            })
                        })
                        .collect();
                    side.selection = eve_relational::Predicate::new(renamed);
                }
            }
        }
    }

    fn rename_relation_in_constraints(&mut self, from: &str, to: &str) {
        for jc in self.join_constraints_mut() {
            if jc.left == from {
                jc.left = to.to_owned();
            }
            if jc.right == from {
                jc.right = to.to_owned();
            }
            for clause in &mut jc.condition {
                *clause = clause.map_columns(&mut |c| {
                    if c.qualifier.as_deref() == Some(from) {
                        ColumnRef::qualified(to, c.name.clone())
                    } else {
                        c.clone()
                    }
                });
            }
        }
        for pc in self.pc_constraints_mut() {
            for side in [&mut pc.left, &mut pc.right] {
                if side.relation == from {
                    side.relation = to.to_owned();
                }
            }
        }
        let js = std::mem::take(self.join_selectivities_mut());
        for ((a, b), v) in js {
            let a = if a == from { to.to_owned() } else { a };
            let b = if b == from { to.to_owned() } else { b };
            let key = if a <= b { (a, b) } else { (b, a) };
            self.join_selectivities_mut().insert(key, v);
        }
    }
}

/// One problem found by the consistency checker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Inconsistency {
    /// Human-readable description of the dangling reference or mismatch.
    pub detail: String,
}

impl std::fmt::Display for Inconsistency {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.detail)
    }
}

/// Audits the MKB for constraint references to missing relations/attributes
/// and for PC correspondence arity/type mismatches — the paper's *MKB
/// Consistency Checker* (Fig. 1). A consistent MKB yields an empty list.
#[must_use]
pub fn check_consistency(mkb: &Mkb) -> Vec<Inconsistency> {
    let mut out = Vec::new();
    let mut push = |detail: String| out.push(Inconsistency { detail });

    for jc in mkb.join_constraints() {
        for rel in [&jc.left, &jc.right] {
            if !mkb.has_relation(rel) {
                push(format!("{jc} references missing relation `{rel}`"));
            }
        }
        for clause in &jc.condition {
            for col in clause.columns() {
                let Some(q) = col.qualifier.as_deref() else {
                    push(format!("{jc} has unqualified column `{col}`"));
                    continue;
                };
                if mkb.has_relation(q) && mkb.attribute(q, &col.name).is_err() {
                    push(format!("{jc} references missing attribute `{col}`"));
                }
            }
        }
    }

    for pc in mkb.pc_constraints() {
        if pc.left.attrs.len() != pc.right.attrs.len() {
            push(format!("{pc} has mismatched projection arities"));
        }
        for side in [&pc.left, &pc.right] {
            if !mkb.has_relation(&side.relation) {
                push(format!(
                    "{pc} references missing relation `{}`",
                    side.relation
                ));
                continue;
            }
            for a in &side.attrs {
                if mkb.attribute(&side.relation, a).is_err() {
                    push(format!(
                        "{pc} references missing attribute `{}.{a}`",
                        side.relation
                    ));
                }
            }
        }
        if mkb.has_relation(&pc.left.relation) && mkb.has_relation(&pc.right.relation) {
            for (la, ra) in pc.left.attrs.iter().zip(&pc.right.attrs) {
                if let (Ok(l), Ok(r)) = (
                    mkb.attribute(&pc.left.relation, la),
                    mkb.attribute(&pc.right.relation, ra),
                ) {
                    if l.ty != r.ty {
                        push(format!(
                            "{pc}: correspondence {la} ↔ {ra} has mismatched types"
                        ));
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraints::{JoinConstraint, PcRelationship, PcSide};
    use crate::source::SiteId;
    use eve_relational::{ColumnRef, DataType, PrimitiveClause};

    fn attr(name: &str) -> AttributeInfo {
        AttributeInfo::new(name, DataType::Int)
    }

    fn mkb() -> Mkb {
        let mut m = Mkb::new();
        m.register_site(SiteId(1), "one").unwrap();
        m.register_site(SiteId(2), "two").unwrap();
        m.register_relation(RelationInfo::new(
            "R",
            SiteId(1),
            vec![attr("A"), attr("B")],
            100,
        ))
        .unwrap();
        m.register_relation(RelationInfo::new(
            "S",
            SiteId(2),
            vec![attr("A"), attr("C")],
            200,
        ))
        .unwrap();
        m.add_join_constraint(JoinConstraint::new(
            "R",
            "S",
            vec![PrimitiveClause::eq(
                ColumnRef::parse("R.A"),
                ColumnRef::parse("S.A"),
            )],
        ))
        .unwrap();
        m.add_pc_constraint(PcConstraint::new(
            PcSide::projection("R", &["A", "B"]),
            PcRelationship::Subset,
            PcSide::projection("S", &["A", "C"]),
        ))
        .unwrap();
        m
    }

    #[test]
    fn delete_attribute_narrows_pc_and_drops_jc() {
        let mut m = mkb();
        m.apply_change(&SchemaChange::DeleteAttribute {
            relation: "R".into(),
            attribute: "A".into(),
        })
        .unwrap();
        assert!(!m.relation("R").unwrap().has_attribute("A"));
        // The JC on R.A is gone.
        assert!(m.join_constraint_between("R", "S").is_none());
        // The PC correspondence (A ↔ A) is removed but (B ↔ C) survives.
        assert_eq!(m.pc_constraints().len(), 1);
        assert_eq!(m.pc_constraints()[0].left.attrs, vec!["B"]);
        assert_eq!(m.pc_constraints()[0].right.attrs, vec!["C"]);
        assert!(check_consistency(&m).is_empty());
    }

    #[test]
    fn delete_attribute_dropping_last_correspondence_drops_pc() {
        let mut m = mkb();
        m.apply_change(&SchemaChange::DeleteAttribute {
            relation: "R".into(),
            attribute: "A".into(),
        })
        .unwrap();
        m.apply_change(&SchemaChange::DeleteAttribute {
            relation: "R".into(),
            attribute: "B".into(),
        })
        .unwrap();
        assert!(m.pc_constraints().is_empty());
    }

    #[test]
    fn delete_relation_drops_everything() {
        let mut m = mkb();
        m.set_join_selectivity("R", "S", 0.001);
        m.apply_change(&SchemaChange::DeleteRelation {
            relation: "R".into(),
        })
        .unwrap();
        assert!(!m.has_relation("R"));
        assert!(m.join_constraints().is_empty());
        assert!(m.pc_constraints().is_empty());
        assert!((m.join_selectivity("R", "S") - 0.005).abs() < 1e-12);
        assert!(check_consistency(&m).is_empty());
    }

    #[test]
    fn rename_attribute_rewrites_constraints() {
        let mut m = mkb();
        m.apply_change(&SchemaChange::RenameAttribute {
            relation: "R".into(),
            from: "A".into(),
            to: "Key".into(),
        })
        .unwrap();
        assert!(m.relation("R").unwrap().has_attribute("Key"));
        let jc = m.join_constraint_between("R", "S").unwrap();
        assert_eq!(jc.condition[0].left, ColumnRef::parse("R.Key"));
        assert_eq!(m.pc_constraints()[0].left.attrs[0], "Key");
        assert!(check_consistency(&m).is_empty());
    }

    #[test]
    fn rename_relation_rewrites_constraints_and_js() {
        let mut m = mkb();
        m.set_join_selectivity("R", "S", 0.002);
        m.apply_change(&SchemaChange::RenameRelation {
            from: "R".into(),
            to: "R2".into(),
        })
        .unwrap();
        assert!(m.has_relation("R2") && !m.has_relation("R"));
        let jc = m.join_constraint_between("R2", "S").unwrap();
        assert_eq!(jc.condition[0].left, ColumnRef::parse("R2.A"));
        assert_eq!(m.pc_constraints()[0].left.relation, "R2");
        assert!((m.join_selectivity("R2", "S") - 0.002).abs() < 1e-12);
        assert!(check_consistency(&m).is_empty());
    }

    #[test]
    fn add_attribute_and_relation() {
        let mut m = mkb();
        m.apply_change(&SchemaChange::AddAttribute {
            relation: "R".into(),
            attribute: attr("D"),
        })
        .unwrap();
        assert!(m.relation("R").unwrap().has_attribute("D"));
        let dup = m.apply_change(&SchemaChange::AddAttribute {
            relation: "R".into(),
            attribute: attr("D"),
        });
        assert!(dup.is_err());
        m.apply_change(&SchemaChange::AddRelation {
            relation: RelationInfo::new("U", SiteId(1), vec![attr("X")], 10),
        })
        .unwrap();
        assert!(m.has_relation("U"));
    }

    #[test]
    fn rename_to_existing_name_rejected() {
        let mut m = mkb();
        assert!(m
            .apply_change(&SchemaChange::RenameRelation {
                from: "R".into(),
                to: "S".into(),
            })
            .is_err());
        assert!(m
            .apply_change(&SchemaChange::RenameAttribute {
                relation: "R".into(),
                from: "A".into(),
                to: "B".into(),
            })
            .is_err());
    }

    #[test]
    fn delete_unknown_components_rejected() {
        let mut m = mkb();
        assert!(m
            .apply_change(&SchemaChange::DeleteRelation {
                relation: "Z".into()
            })
            .is_err());
        assert!(m
            .apply_change(&SchemaChange::DeleteAttribute {
                relation: "R".into(),
                attribute: "Z".into()
            })
            .is_err());
    }

    #[test]
    fn consistency_checker_flags_manual_corruption() {
        let mut m = mkb();
        // Bypass validation to inject a dangling constraint.
        m.pc_constraints_mut().push(PcConstraint::new(
            PcSide::projection("Ghost", &["X"]),
            PcRelationship::Subset,
            PcSide::projection("S", &["A"]),
        ));
        let problems = check_consistency(&m);
        assert_eq!(problems.len(), 1);
        assert!(problems[0].detail.contains("Ghost"));
    }

    #[test]
    fn pc_selection_on_deleted_attribute_drops_constraint() {
        use eve_relational::{CompOp, Predicate, Value};
        let mut m = mkb();
        m.add_pc_constraint(PcConstraint::new(
            PcSide::selected(
                "R",
                &["B"],
                Predicate::single(PrimitiveClause::lit(
                    ColumnRef::bare("A"),
                    CompOp::Gt,
                    Value::Int(0),
                )),
            ),
            PcRelationship::Subset,
            PcSide::projection("S", &["C"]),
        ))
        .unwrap();
        m.apply_change(&SchemaChange::DeleteAttribute {
            relation: "R".into(),
            attribute: "A".into(),
        })
        .unwrap();
        // Only the original (narrowed) PC survives; the selected one is gone.
        assert_eq!(m.pc_constraints().len(), 1);
        assert!(m.pc_constraints()[0].left.selection.is_true());
    }

    #[test]
    fn generation_delta_per_change_kind_is_pinned() {
        // Snapshots persist the generation and time travel addresses
        // states by it, so each kind moves it by a fixed amount, whether
        // the index is built or not. (A relation rename moves it once more
        // per join-selectivity override it re-keys.)
        let cases = [
            (
                SchemaChange::DeleteAttribute {
                    relation: "R".into(),
                    attribute: "B".into(),
                },
                4,
            ),
            (
                SchemaChange::AddAttribute {
                    relation: "R".into(),
                    attribute: attr("D"),
                },
                1,
            ),
            (
                SchemaChange::RenameAttribute {
                    relation: "R".into(),
                    from: "A".into(),
                    to: "K".into(),
                },
                3,
            ),
            (
                SchemaChange::DeleteRelation {
                    relation: "R".into(),
                },
                4,
            ),
            (
                SchemaChange::AddRelation {
                    relation: RelationInfo::new("U", SiteId(1), vec![attr("X")], 10),
                },
                1,
            ),
            (
                SchemaChange::RenameRelation {
                    from: "R".into(),
                    to: "R2".into(),
                },
                6,
            ),
        ];
        for warm in [false, true] {
            for (change, delta) in &cases {
                let mut m = mkb();
                m.set_join_selectivity("R", "S", 0.002);
                if warm {
                    assert_eq!(m.pc_constraints_of("R").len(), 1);
                }
                let before = m.generation();
                m.apply_change(change).unwrap();
                assert_eq!(m.generation() - before, *delta, "{change}, warm {warm}");
            }
        }
    }

    #[test]
    fn change_display() {
        assert_eq!(
            SchemaChange::DeleteRelation {
                relation: "R".into()
            }
            .to_string(),
            "delete-relation R"
        );
        assert_eq!(
            SchemaChange::RenameAttribute {
                relation: "R".into(),
                from: "A".into(),
                to: "B".into()
            }
            .to_string(),
            "change-attribute-name R.A -> R.B"
        );
    }
}
