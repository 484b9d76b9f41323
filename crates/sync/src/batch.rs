//! The batched evolution op stream.
//!
//! Heavy-traffic warehouses see evolution operations in bursts — many data
//! updates interleaved with occasional capability changes — rather than as
//! isolated events. [`EvolutionOp`] is the one spelling of such a burst
//! (data updates, capability changes including relation drops), and
//! [`DataUpdate`] the one spelling of a data update, whether it travels in
//! a batch or alone; the executor lives in `eve-system`
//! (`EveEngine::apply_batch`), which applies the ops in order exactly as
//! the op-by-op paths would.
//!
//! [`touched_relation`] is the prefilter both sides share: a capability
//! change can only affect views whose FROM clause names the relation it
//! touches.

use eve_misd::SchemaChange;
use eve_relational::{Relation, Tuple};

/// A base-data update: tuples inserted into and deleted from one relation.
#[derive(Debug, Clone, PartialEq)]
pub struct DataUpdate {
    /// Updated relation (registered name).
    pub relation: String,
    /// Inserted tuples.
    pub inserts: Vec<Tuple>,
    /// Deleted tuples.
    pub deletes: Vec<Tuple>,
}

impl DataUpdate {
    /// An insert-only update.
    #[must_use]
    pub fn insert(relation: impl Into<String>, tuples: Vec<Tuple>) -> DataUpdate {
        DataUpdate {
            relation: relation.into(),
            inserts: tuples,
            deletes: Vec::new(),
        }
    }

    /// A delete-only update.
    #[must_use]
    pub fn delete(relation: impl Into<String>, tuples: Vec<Tuple>) -> DataUpdate {
        DataUpdate {
            relation: relation.into(),
            inserts: Vec::new(),
            deletes: tuples,
        }
    }
}

/// One operation of a batched evolution workload.
#[derive(Debug, Clone)]
pub enum EvolutionOp {
    /// A base-data update at the source hosting its relation.
    Data(DataUpdate),
    /// A capability (schema) change, including relation drops. The optional
    /// extent seeds `add-relation` changes.
    Capability {
        /// The schema change.
        change: SchemaChange,
        /// New extent for `add-relation` (ignored otherwise).
        new_extent: Option<Relation>,
    },
}

impl EvolutionOp {
    /// An insert-only data op.
    #[must_use]
    pub fn insert(relation: impl Into<String>, tuples: Vec<Tuple>) -> EvolutionOp {
        EvolutionOp::Data(DataUpdate::insert(relation, tuples))
    }

    /// A delete-only data op.
    #[must_use]
    pub fn delete(relation: impl Into<String>, tuples: Vec<Tuple>) -> EvolutionOp {
        EvolutionOp::Data(DataUpdate::delete(relation, tuples))
    }

    /// A capability change without a new extent.
    #[must_use]
    pub fn change(change: SchemaChange) -> EvolutionOp {
        EvolutionOp::Capability {
            change,
            new_extent: None,
        }
    }
}

/// The relation a capability change touches directly (`None` for
/// `add-relation`, which cannot affect existing views). Only views binding
/// this relation in FROM can be affected — the soundness basis of the
/// batched engine's prefilter.
#[must_use]
pub fn touched_relation(change: &SchemaChange) -> Option<&str> {
    match change {
        SchemaChange::DeleteAttribute { relation, .. }
        | SchemaChange::AddAttribute { relation, .. }
        | SchemaChange::RenameAttribute { relation, .. }
        | SchemaChange::DeleteRelation { relation } => Some(relation),
        SchemaChange::RenameRelation { from, .. } => Some(from),
        SchemaChange::AddRelation { .. } => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eve_misd::{AttributeInfo, RelationInfo, SiteId};
    use eve_relational::DataType;

    #[test]
    fn touched_relation_names_the_changed_relation() {
        let attr = || AttributeInfo::new("A", DataType::Int);
        let touching = [
            SchemaChange::DeleteRelation {
                relation: "R".into(),
            },
            SchemaChange::DeleteAttribute {
                relation: "R".into(),
                attribute: "A".into(),
            },
            SchemaChange::AddAttribute {
                relation: "R".into(),
                attribute: attr(),
            },
            SchemaChange::RenameAttribute {
                relation: "R".into(),
                from: "A".into(),
                to: "B".into(),
            },
            SchemaChange::RenameRelation {
                from: "R".into(),
                to: "S".into(),
            },
        ];
        for change in &touching {
            assert_eq!(touched_relation(change), Some("R"), "{change}");
        }
        let add = SchemaChange::AddRelation {
            relation: RelationInfo::new("N", SiteId(1), vec![attr()], 0),
        };
        assert_eq!(touched_relation(&add), None);
    }
}
