//! Primitive clauses and conjunctive predicates.
//!
//! The paper's WHERE clauses are conjunctions of *primitive clauses* of the
//! form `(attr θ attr)` or `(attr θ value)` with `θ ∈ {<, ≤, =, ≥, >}`
//! (§3.1). We additionally support `≠`, which some MKB consistency checks
//! need, but the E-SQL surface syntax only produces the paper's five.

use std::cmp::Ordering;
use std::fmt;

use crate::error::Result;
use crate::relation::Relation;
use crate::schema::{ColumnRef, Schema};
use crate::tuple::Tuple;
use crate::types::Value;

/// Comparison operator `θ`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CompOp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `=`
    Eq,
    /// `>=`
    Ge,
    /// `>`
    Gt,
    /// `<>` (not part of the paper's θ set; used internally)
    Ne,
}

impl CompOp {
    /// Evaluates the operator on an [`Ordering`].
    #[must_use]
    pub fn eval(self, ord: Ordering) -> bool {
        match self {
            CompOp::Lt => ord == Ordering::Less,
            CompOp::Le => ord != Ordering::Greater,
            CompOp::Eq => ord == Ordering::Equal,
            CompOp::Ge => ord != Ordering::Less,
            CompOp::Gt => ord == Ordering::Greater,
            CompOp::Ne => ord != Ordering::Equal,
        }
    }

    /// The operator with its operands swapped (`a θ b` ⇔ `b θ' a`).
    #[must_use]
    pub fn flipped(self) -> CompOp {
        match self {
            CompOp::Lt => CompOp::Gt,
            CompOp::Le => CompOp::Ge,
            CompOp::Eq => CompOp::Eq,
            CompOp::Ge => CompOp::Le,
            CompOp::Gt => CompOp::Lt,
            CompOp::Ne => CompOp::Ne,
        }
    }
}

impl fmt::Display for CompOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CompOp::Lt => "<",
            CompOp::Le => "<=",
            CompOp::Eq => "=",
            CompOp::Ge => ">=",
            CompOp::Gt => ">",
            CompOp::Ne => "<>",
        };
        f.write_str(s)
    }
}

/// Right-hand side of a primitive clause: another column or a constant.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Operand {
    /// A column reference.
    Column(ColumnRef),
    /// A literal value.
    Literal(Value),
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Column(c) => write!(f, "{c}"),
            Operand::Literal(v) => write!(f, "{v}"),
        }
    }
}

/// A primitive clause `left θ right`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PrimitiveClause {
    /// Left column.
    pub left: ColumnRef,
    /// Comparison operator.
    pub op: CompOp,
    /// Right column or literal.
    pub right: Operand,
}

impl PrimitiveClause {
    /// `left θ right-column` clause.
    #[must_use]
    pub fn cols(left: ColumnRef, op: CompOp, right: ColumnRef) -> PrimitiveClause {
        PrimitiveClause {
            left,
            op,
            right: Operand::Column(right),
        }
    }

    /// `left θ literal` clause.
    #[must_use]
    pub fn lit(left: ColumnRef, op: CompOp, value: Value) -> PrimitiveClause {
        PrimitiveClause {
            left,
            op,
            right: Operand::Literal(value),
        }
    }

    /// Equality join clause `a = b` (the paper assumes equijoins, §6.1).
    #[must_use]
    pub fn eq(left: ColumnRef, right: ColumnRef) -> PrimitiveClause {
        PrimitiveClause::cols(left, CompOp::Eq, right)
    }

    /// Evaluates the clause on `tuple` with respect to `schema`.
    ///
    /// # Errors
    ///
    /// Column resolution or type comparison failures.
    pub fn eval(&self, schema: &Schema, tuple: &Tuple, relation: &str) -> Result<bool> {
        let li = schema.resolve(&self.left, relation)?;
        let lv = tuple.get(li);
        let rv = match &self.right {
            Operand::Column(c) => tuple.get(schema.resolve(c, relation)?),
            Operand::Literal(v) => v,
        };
        Ok(self.op.eval(lv.try_cmp(rv)?))
    }

    /// All column references in the clause.
    #[must_use]
    pub fn columns(&self) -> Vec<&ColumnRef> {
        match &self.right {
            Operand::Column(c) => vec![&self.left, c],
            Operand::Literal(_) => vec![&self.left],
        }
    }

    /// Whether the clause mentions a column of relation/alias `qualifier`
    /// (matches bare references too, via the provided resolver set).
    #[must_use]
    pub fn references_qualifier(&self, qualifier: &str) -> bool {
        self.columns()
            .iter()
            .any(|c| c.qualifier.as_deref() == Some(qualifier))
    }

    /// Returns the clause with every column rewritten through `f`.
    #[must_use]
    pub fn map_columns(&self, f: &mut impl FnMut(&ColumnRef) -> ColumnRef) -> PrimitiveClause {
        PrimitiveClause {
            left: f(&self.left),
            op: self.op,
            right: match &self.right {
                Operand::Column(c) => Operand::Column(f(c)),
                Operand::Literal(v) => Operand::Literal(v.clone()),
            },
        }
    }
}

impl fmt::Display for PrimitiveClause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.left, self.op, self.right)
    }
}

/// A conjunction of primitive clauses (the paper's WHERE shape, and the body
/// of join and PC constraints).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Predicate {
    clauses: Vec<PrimitiveClause>,
}

impl Predicate {
    /// The always-true predicate (empty conjunction).
    #[must_use]
    pub fn always_true() -> Predicate {
        Predicate::default()
    }

    /// Builds a conjunction.
    #[must_use]
    pub fn new(clauses: Vec<PrimitiveClause>) -> Predicate {
        Predicate { clauses }
    }

    /// A single-clause predicate.
    #[must_use]
    pub fn single(clause: PrimitiveClause) -> Predicate {
        Predicate {
            clauses: vec![clause],
        }
    }

    /// The clauses of the conjunction.
    #[must_use]
    pub fn clauses(&self) -> &[PrimitiveClause] {
        &self.clauses
    }

    /// Whether this is the tautologically true condition. The paper's PC
    /// constraints distinguish "no/yes" selection conditions this way (§5.4.3).
    #[must_use]
    pub fn is_true(&self) -> bool {
        self.clauses.is_empty()
    }

    /// Conjunction of this predicate with another.
    #[must_use]
    pub fn and(&self, other: &Predicate) -> Predicate {
        let mut clauses = self.clauses.clone();
        clauses.extend(other.clauses.iter().cloned());
        Predicate { clauses }
    }

    /// Evaluates the conjunction on a tuple.
    ///
    /// # Errors
    ///
    /// Propagates clause evaluation failures.
    pub fn eval(&self, schema: &Schema, tuple: &Tuple, relation: &str) -> Result<bool> {
        for c in &self.clauses {
            if !c.eval(schema, tuple, relation)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Checks the predicate is well-formed against a schema (all columns
    /// resolve, compared types match) without evaluating it.
    ///
    /// # Errors
    ///
    /// Resolution or type errors.
    pub fn type_check(&self, schema: &Schema, relation: &str) -> Result<()> {
        for c in &self.clauses {
            let li = schema.resolve(&c.left, relation)?;
            let lt = schema.column(li).ty;
            let rt = match &c.right {
                Operand::Column(rc) => schema.column(schema.resolve(rc, relation)?).ty,
                Operand::Literal(v) => v.data_type(),
            };
            if !lt.comparable_with(rt) {
                return Err(crate::error::Error::TypeMismatch {
                    left: lt,
                    right: rt,
                    context: "predicate type check",
                });
            }
        }
        Ok(())
    }

    /// Measured selectivity of the predicate on a relation: fraction of
    /// tuples satisfying it. Empty relations report selectivity 1.0.
    ///
    /// # Errors
    ///
    /// Propagates evaluation failures.
    pub fn selectivity(&self, rel: &Relation) -> Result<f64> {
        if rel.is_empty() {
            return Ok(1.0);
        }
        let mut hits = 0usize;
        for t in rel.tuples() {
            if self.eval(rel.schema(), t, rel.name())? {
                hits += 1;
            }
        }
        #[allow(clippy::cast_precision_loss)]
        Ok(hits as f64 / rel.cardinality() as f64)
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.clauses.is_empty() {
            return f.write_str("TRUE");
        }
        for (i, c) in self.clauses.iter().enumerate() {
            if i > 0 {
                write!(f, " AND ")?;
            }
            write!(f, "({c})")?;
        }
        Ok(())
    }
}

impl From<PrimitiveClause> for Predicate {
    fn from(c: PrimitiveClause) -> Self {
        Predicate::single(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tup;
    use crate::types::DataType;

    fn schema() -> Schema {
        Schema::of(&[
            ("A", DataType::Int),
            ("B", DataType::Int),
            ("C", DataType::Text),
        ])
        .unwrap()
    }

    #[test]
    fn op_eval_table() {
        use Ordering::*;
        assert!(CompOp::Lt.eval(Less));
        assert!(!CompOp::Lt.eval(Equal));
        assert!(CompOp::Le.eval(Equal));
        assert!(CompOp::Eq.eval(Equal));
        assert!(!CompOp::Eq.eval(Greater));
        assert!(CompOp::Ge.eval(Greater));
        assert!(CompOp::Gt.eval(Greater));
        assert!(CompOp::Ne.eval(Less));
        assert!(!CompOp::Ne.eval(Equal));
    }

    #[test]
    fn flipped_is_involutive_on_symmetric_ops() {
        for op in [CompOp::Lt, CompOp::Le, CompOp::Eq, CompOp::Ge, CompOp::Gt] {
            assert_eq!(op.flipped().flipped(), op);
        }
    }

    #[test]
    fn clause_eval_column_vs_literal() {
        let s = schema();
        let c = PrimitiveClause::lit(ColumnRef::bare("A"), CompOp::Gt, Value::Int(10));
        assert!(c.eval(&s, &tup![11, 0, "x"], "R").unwrap());
        assert!(!c.eval(&s, &tup![10, 0, "x"], "R").unwrap());
    }

    #[test]
    fn clause_eval_column_vs_column() {
        let s = schema();
        let c = PrimitiveClause::eq(ColumnRef::bare("A"), ColumnRef::bare("B"));
        assert!(c.eval(&s, &tup![3, 3, "x"], "R").unwrap());
        assert!(!c.eval(&s, &tup![3, 4, "x"], "R").unwrap());
    }

    #[test]
    fn predicate_conjunction() {
        let s = schema();
        let p = Predicate::new(vec![
            PrimitiveClause::lit(ColumnRef::bare("A"), CompOp::Ge, Value::Int(1)),
            PrimitiveClause::lit(ColumnRef::bare("B"), CompOp::Lt, Value::Int(5)),
        ]);
        assert!(p.eval(&s, &tup![1, 4, "x"], "R").unwrap());
        assert!(!p.eval(&s, &tup![1, 5, "x"], "R").unwrap());
    }

    #[test]
    fn always_true_is_true() {
        let p = Predicate::always_true();
        assert!(p.is_true());
        assert!(p.eval(&schema(), &tup![0, 0, "x"], "R").unwrap());
        assert_eq!(p.to_string(), "TRUE");
    }

    #[test]
    fn type_check_catches_mismatch() {
        let s = schema();
        let p = Predicate::single(PrimitiveClause::lit(
            ColumnRef::bare("C"),
            CompOp::Eq,
            Value::Int(1),
        ));
        assert!(p.type_check(&s, "R").is_err());
        let ok = Predicate::single(PrimitiveClause::lit(
            ColumnRef::bare("C"),
            CompOp::Eq,
            Value::from("Asia"),
        ));
        assert!(ok.type_check(&s, "R").is_ok());
    }

    #[test]
    fn measured_selectivity() {
        let rel = Relation::with_tuples(
            "R",
            Schema::of(&[("A", DataType::Int)]).unwrap(),
            (0..10).map(|i| tup![i]).collect(),
        )
        .unwrap();
        let p = Predicate::single(PrimitiveClause::lit(
            ColumnRef::bare("A"),
            CompOp::Lt,
            Value::Int(5),
        ));
        let sel = p.selectivity(&rel).unwrap();
        assert!((sel - 0.5).abs() < 1e-12);
    }

    #[test]
    fn display_forms() {
        let c = PrimitiveClause::lit(ColumnRef::parse("F.Dest"), CompOp::Eq, Value::from("Asia"));
        assert_eq!(c.to_string(), "F.Dest = 'Asia'");
        let p = Predicate::new(vec![
            PrimitiveClause::eq(ColumnRef::parse("C.Name"), ColumnRef::parse("F.PName")),
            c,
        ]);
        assert_eq!(p.to_string(), "(C.Name = F.PName) AND (F.Dest = 'Asia')");
    }

    #[test]
    fn map_columns_rewrites_both_sides() {
        let c = PrimitiveClause::eq(ColumnRef::parse("R.A"), ColumnRef::parse("R.B"));
        let mapped = c.map_columns(&mut |cr| ColumnRef::qualified("T", cr.name.clone()));
        assert_eq!(mapped.to_string(), "T.A = T.B");
    }

    #[test]
    fn references_qualifier_checks_both_sides() {
        let c = PrimitiveClause::eq(ColumnRef::parse("R.A"), ColumnRef::parse("S.B"));
        assert!(c.references_qualifier("R"));
        assert!(c.references_qualifier("S"));
        assert!(!c.references_qualifier("T"));
    }
}
