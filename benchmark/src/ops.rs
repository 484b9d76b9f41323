//! The generated request vocabulary.
//!
//! An [`Op`] is structured, so one generated op can be handed to every rung
//! of the differential ladder in the form that rung takes: a wire
//! [`RequestBody`] for the client rung, a shell line for the shell rung,
//! pre-built [`EvolutionOp`]s for the durable and engine rungs. The served
//! program only ever sees the wire form.

use eve_misd::SchemaChange;
use eve_relational::{Tuple, Value};
use eve_server::RequestBody;
use eve_sync::EvolutionOp;

/// The latency class an op is reported under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum OpKind {
    /// `Query` of a materialized view.
    Read,
    /// Data-update statements, `Apply` batches, view definitions and
    /// `checkpoint` statements (checkpoint stalls belong to the write tail).
    Write,
    /// Capability-change statements.
    Change,
    /// `Stats` probes: counted in throughput, in no latency class.
    Other,
}

impl OpKind {
    /// The three latency classes, in report order.
    pub const TIMED: [OpKind; 3] = [OpKind::Read, OpKind::Write, OpKind::Change];

    /// The metric-name prefix of the class (`read`, `write`, `change`).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            OpKind::Read => "read",
            OpKind::Write => "write",
            OpKind::Change => "change",
            OpKind::Other => "other",
        }
    }
}

/// One generated request.
#[derive(Debug, Clone)]
pub enum Op {
    /// `update <relation> insert|delete (<tuple>)` — a single-tuple update.
    Update {
        /// Updated relation.
        relation: String,
        /// Insert (`true`) or delete.
        insert: bool,
        /// The tuple.
        tuple: Tuple,
    },
    /// An `Apply` batch of data updates.
    Apply(Vec<EvolutionOp>),
    /// `change <capability change>`.
    Change(SchemaChange),
    /// `view CREATE VIEW …`.
    DefineView(String),
    /// `checkpoint`.
    Checkpoint,
    /// `Query` of the named view.
    Query(String),
    /// `Stats`.
    Stats,
}

/// Renders a tuple in the shell's literal syntax.
fn tuple_literal(tuple: &Tuple) -> String {
    let fields: Vec<String> = tuple
        .values()
        .iter()
        .map(|v| match v {
            Value::Text(s) => format!("'{s}'"),
            other => other.to_string(),
        })
        .collect();
    format!("({})", fields.join(", "))
}

/// Renders a capability change in the shell's `change` syntax (only the
/// four variants the shell accepts are ever generated).
fn change_line(change: &SchemaChange) -> String {
    match change {
        SchemaChange::DeleteRelation { relation } => format!("change delete-relation {relation}"),
        SchemaChange::DeleteAttribute {
            relation,
            attribute,
        } => format!("change delete-attribute {relation}.{attribute}"),
        SchemaChange::RenameRelation { from, to } => format!("change rename-relation {from} {to}"),
        SchemaChange::RenameAttribute { relation, from, to } => {
            format!("change rename-attribute {relation}.{from} {to}")
        }
        SchemaChange::AddAttribute { .. } | SchemaChange::AddRelation { .. } => {
            unreachable!("the generator emits only shell-expressible changes")
        }
    }
}

impl Op {
    /// The latency class.
    #[must_use]
    pub fn kind(&self) -> OpKind {
        match self {
            Op::Query(_) => OpKind::Read,
            Op::Update { .. } | Op::Apply(_) | Op::DefineView(_) | Op::Checkpoint => OpKind::Write,
            Op::Change(_) => OpKind::Change,
            Op::Stats => OpKind::Other,
        }
    }

    /// Whether the op changes tenant state (and so belongs in the serial
    /// oracle's script and in the per-mutation disk accounting).
    #[must_use]
    pub fn is_mutation(&self) -> bool {
        !matches!(self, Op::Query(_) | Op::Stats)
    }

    /// The shell line of a statement op (`None` for `Apply`, `Query` and
    /// `Stats`, which have their own wire requests).
    #[must_use]
    pub fn line(&self) -> Option<String> {
        match self {
            Op::Update {
                relation,
                insert,
                tuple,
            } => Some(format!(
                "update {relation} {} {}",
                if *insert { "insert" } else { "delete" },
                tuple_literal(tuple)
            )),
            Op::Change(change) => Some(change_line(change)),
            Op::DefineView(sql) => Some(format!("view {sql}")),
            Op::Checkpoint => Some("checkpoint".to_owned()),
            Op::Apply(_) | Op::Query(_) | Op::Stats => None,
        }
    }

    /// The wire request the served program receives for this op.
    #[must_use]
    pub fn request(&self) -> RequestBody {
        match self {
            Op::Apply(ops) => RequestBody::Apply { ops: ops.clone() },
            Op::Query(view) => RequestBody::Query { view: view.clone() },
            Op::Stats => RequestBody::Stats,
            statement => RequestBody::Statement {
                esql: statement.line().expect("statement ops have a line"),
            },
        }
    }

    /// The op as pre-built evolution ops, for the rungs below the shell
    /// parser (`None` for ops that are not an evolution batch).
    #[must_use]
    pub fn evolution_ops(&self) -> Option<Vec<EvolutionOp>> {
        match self {
            Op::Update {
                relation,
                insert,
                tuple,
            } => Some(vec![if *insert {
                EvolutionOp::insert(relation.clone(), vec![tuple.clone()])
            } else {
                EvolutionOp::delete(relation.clone(), vec![tuple.clone()])
            }]),
            Op::Apply(ops) => Some(ops.clone()),
            Op::Change(change) => Some(vec![EvolutionOp::change(change.clone())]),
            Op::DefineView(_) | Op::Checkpoint | Op::Query(_) | Op::Stats => None,
        }
    }

    /// A canonical text rendering, used to compare generated streams byte
    /// for byte.
    #[must_use]
    pub fn canonical(&self) -> String {
        match self {
            Op::Apply(ops) => format!("apply {ops:?}"),
            Op::Query(view) => format!("query {view}"),
            Op::Stats => "stats".to_owned(),
            statement => statement.line().expect("statement ops have a line"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eve_relational::tup;

    #[test]
    fn update_renders_the_shell_literal_syntax() {
        let op = Op::Update {
            relation: "R".into(),
            insert: true,
            tuple: tup![7, "x y", -3],
        };
        assert_eq!(op.line().unwrap(), "update R insert (7, 'x y', -3)");
        assert_eq!(op.kind(), OpKind::Write);
        assert!(op.is_mutation());
        assert_eq!(op.evolution_ops().unwrap().len(), 1);
    }

    #[test]
    fn every_shell_change_variant_renders() {
        let cases = [
            (
                SchemaChange::DeleteRelation {
                    relation: "R".into(),
                },
                "change delete-relation R",
            ),
            (
                SchemaChange::DeleteAttribute {
                    relation: "R".into(),
                    attribute: "A".into(),
                },
                "change delete-attribute R.A",
            ),
            (
                SchemaChange::RenameRelation {
                    from: "R".into(),
                    to: "S".into(),
                },
                "change rename-relation R S",
            ),
            (
                SchemaChange::RenameAttribute {
                    relation: "R".into(),
                    from: "A".into(),
                    to: "B".into(),
                },
                "change rename-attribute R.A B",
            ),
        ];
        for (change, line) in cases {
            assert_eq!(Op::Change(change).line().unwrap(), line);
        }
    }

    #[test]
    fn reads_are_not_mutations() {
        assert!(!Op::Query("V".into()).is_mutation());
        assert!(!Op::Stats.is_mutation());
        assert!(Op::Checkpoint.is_mutation());
        assert_eq!(Op::Stats.kind(), OpKind::Other);
    }
}
