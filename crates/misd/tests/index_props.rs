//! Property test of the MKB's PC-constraint index: the index maintained in
//! place through random streams of constraint additions and capability
//! changes answers every lookup exactly as a cold copy that builds it from
//! scratch — same entries, same order.
//!
//! Lookups are interleaved at random points, so mutations land on a cold
//! index (the first lookup builds it from the edited store) as well as on a
//! warm one (the mutation re-derives the keys it touches). Every check reads
//! a clone, which carries the index in whatever state it is in without
//! warming the original.

use proptest::prelude::*;

use eve_misd::{
    AttributeInfo, Mkb, PcConstraint, PcRelationship, PcSide, RelationInfo, SchemaChange, SiteId,
};
use eve_relational::{ColumnRef, CompOp, DataType, Predicate, PrimitiveClause, Value};

/// One generated step: `(kind, a, b, c, flags)`; the numbers pick
/// relations, attributes and arities among what the MKB holds right then.
type Step = (u8, usize, usize, usize, u8);

/// Relation names the stream has used, deleted ones included: lookups of
/// names that no longer exist must agree too.
struct Universe {
    relations: Vec<String>,
    fresh: usize,
}

impl Universe {
    fn fresh(&mut self, prefix: &str) -> String {
        self.fresh += 1;
        format!("{prefix}{}", self.fresh)
    }

    /// A live relation most of the time, else any name ever used.
    fn relation(&self, mkb: &Mkb, i: usize) -> String {
        let live: Vec<&str> = mkb.relations().map(|r| r.name.as_str()).collect();
        if i % 7 == 6 || live.is_empty() {
            self.relations[(i / 7) % self.relations.len()].clone()
        } else {
            live[(i / 7) % live.len()].to_owned()
        }
    }
}

/// An attribute of `rel` most of the time, else a name it may not have.
fn attribute(mkb: &Mkb, rel: &str, i: usize) -> String {
    let attrs = mkb
        .relation(rel)
        .map(|info| info.attributes.as_slice())
        .unwrap_or_default();
    if attrs.is_empty() || i % 9 == 8 {
        format!("A{}", i % 5)
    } else {
        attrs[(i / 9) % attrs.len()].name.clone()
    }
}

fn int_attrs(names: &[&str]) -> Vec<AttributeInfo> {
    names
        .iter()
        .map(|n| AttributeInfo::new(*n, DataType::Int))
        .collect()
}

fn initial() -> (Mkb, Universe) {
    let mut mkb = Mkb::new();
    mkb.register_site(SiteId(1), "one").unwrap();
    let mut universe = Universe {
        relations: Vec::new(),
        fresh: 0,
    };
    for name in ["R0", "R1", "R2", "R3"] {
        let mut attrs = int_attrs(&["A0", "A1", "A2", "A3"]);
        // A text column: correspondences with it mostly fail the type check.
        attrs.push(AttributeInfo::new("T", DataType::Text));
        mkb.register_relation(RelationInfo::new(name, SiteId(1), attrs, 100))
            .unwrap();
        universe.relations.push(name.to_owned());
    }
    (mkb, universe)
}

/// A projection side over `arity` attributes of `rel` (repeats allowed),
/// with a `attr > 0` selection when `selected`.
fn pc_side(mkb: &Mkb, rel: &str, arity: usize, seed: usize, selected: bool) -> PcSide {
    let attrs: Vec<String> = (0..arity)
        .map(|k| attribute(mkb, rel, seed / (k + 1) + k))
        .collect();
    let refs: Vec<&str> = attrs.iter().map(String::as_str).collect();
    if selected {
        let on = attribute(mkb, rel, seed / 5);
        PcSide::selected(
            rel,
            &refs,
            Predicate::single(PrimitiveClause::lit(
                ColumnRef::bare(on),
                CompOp::Gt,
                Value::Int(0),
            )),
        )
    } else {
        PcSide::projection(rel, &refs)
    }
}

/// Applies one step; errors (unknown names, duplicates, type mismatches)
/// are part of the stream and must leave the index exact too.
fn apply(mkb: &mut Mkb, universe: &mut Universe, (kind, a, b, c, flags): Step) {
    let rel = universe.relation(mkb, a);
    let change = match kind % 10 {
        0 | 1 => {
            // Self-constraints whenever both picks land on one relation.
            let other = universe.relation(mkb, b);
            let arity = 1 + c % 3;
            let relationship = match flags % 3 {
                0 => PcRelationship::Subset,
                1 => PcRelationship::Equivalent,
                _ => PcRelationship::Superset,
            };
            let pc = PcConstraint::new(
                pc_side(mkb, &rel, arity, c, flags & 4 != 0),
                relationship,
                pc_side(mkb, &other, arity, b ^ c, flags & 8 != 0),
            );
            let _ = mkb.add_pc_constraint(pc);
            return;
        }
        2 => SchemaChange::DeleteAttribute {
            attribute: attribute(mkb, &rel, b),
            relation: rel,
        },
        3 => {
            let name = if flags & 1 == 0 {
                universe.fresh("N")
            } else {
                attribute(mkb, &rel, b)
            };
            SchemaChange::AddAttribute {
                relation: rel,
                attribute: AttributeInfo::new(name, DataType::Int),
            }
        }
        4 => {
            let to = if flags & 1 == 0 {
                universe.fresh("M")
            } else {
                attribute(mkb, &rel, c)
            };
            SchemaChange::RenameAttribute {
                from: attribute(mkb, &rel, b),
                relation: rel,
                to,
            }
        }
        5 => SchemaChange::DeleteRelation { relation: rel },
        6 => {
            let name = if flags & 1 == 0 {
                universe.fresh("Q")
            } else {
                rel
            };
            universe.relations.push(name.clone());
            SchemaChange::AddRelation {
                relation: RelationInfo::new(name, SiteId(1), int_attrs(&["A0", "A1"]), 50),
            }
        }
        7 => {
            let to = if flags & 1 == 0 {
                universe.fresh("P")
            } else {
                universe.relation(mkb, b)
            };
            universe.relations.push(to.clone());
            SchemaChange::RenameRelation { from: rel, to }
        }
        8 => {
            // A lookup: warms the index if it was cold.
            let _ = mkb.pc_constraints_of(&rel);
            return;
        }
        _ => {
            // A cold copy from here on: the next mutations meet no index.
            *mkb = Mkb::from_state(&mkb.export_state()).unwrap();
            return;
        }
    };
    let _ = mkb.apply_change(&change);
}

/// Every lookup the index serves, on a clone of `mkb`, against a cold copy
/// that builds the index from scratch.
fn check_against_rebuild(mkb: &Mkb, universe: &Universe) -> Result<(), TestCaseError> {
    let maintained = mkb.clone();
    let rebuilt = Mkb::from_state(&mkb.export_state())
        .map_err(|e| TestCaseError::fail(format!("state does not restore: {e}")))?;
    for rel in &universe.relations {
        prop_assert_eq!(
            maintained.pc_constraints_of(rel),
            rebuilt.pc_constraints_of(rel),
            "pc_constraints_of({})",
            rel
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn maintained_index_equals_rebuilt(
        steps in prop::collection::vec((0u8..10, 0usize..1000, 0usize..1000, 0usize..1000, 0u8..16), 1..48),
    ) {
        let (mut mkb, mut universe) = initial();
        for step in steps {
            apply(&mut mkb, &mut universe, step);
            check_against_rebuild(&mkb, &universe)?;
        }
    }
}
