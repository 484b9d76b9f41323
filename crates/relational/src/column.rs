//! Column-major tuple storage.
//!
//! A [`ColumnarBatch`] is the physical, column-oriented image of a
//! relation's tuple vector: one typed vector per column, with text columns
//! holding interned [`Symbol`] ids instead of `String`s. Batches are built
//! lazily per relation (cached in the shared storage, see
//! [`crate::relation::Relation`]) and maintained incrementally across
//! `insert`/`delete` instead of being rebuilt.
//!
//! The executor uses batches for two things:
//!
//! * **vectorized filters** — a pushed-down conjunction is compiled once
//!   into column indices ([`compile_clauses`]) and evaluated per column
//!   over the typed vectors, producing an ascending selection vector, and
//! * **interned join keys** — [`scalar_key`] maps every value to a `u64`
//!   that is equal exactly when the values are equal (ints/bools by value,
//!   floats by bit pattern — valid because [`crate::types::Value::float`]
//!   normalizes `-0.0` and rejects NaN — and text by symbol id), so hash
//!   joins hash machine words instead of cloning key tuples.

use crate::intern::{self, Symbol};
use crate::predicate::{CompOp, Operand, Predicate};
use crate::schema::Schema;
use crate::tuple::Tuple;
use crate::types::{DataType, Value};

/// One typed column vector.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// 64-bit integers.
    Int(Vec<i64>),
    /// 64-bit floats (never NaN; see [`Value::float`]).
    Float(Vec<f64>),
    /// Booleans.
    Bool(Vec<bool>),
    /// Interned text.
    Text(Vec<Symbol>),
}

impl Column {
    fn with_capacity(ty: DataType, cap: usize) -> Column {
        match ty {
            DataType::Int => Column::Int(Vec::with_capacity(cap)),
            DataType::Float => Column::Float(Vec::with_capacity(cap)),
            DataType::Bool => Column::Bool(Vec::with_capacity(cap)),
            DataType::Text => Column::Text(Vec::with_capacity(cap)),
        }
    }

    fn push(&mut self, v: &Value) {
        match (self, v) {
            (Column::Int(c), Value::Int(x)) => c.push(*x),
            (Column::Float(c), Value::Float(x)) => c.push(*x),
            (Column::Bool(c), Value::Bool(x)) => c.push(*x),
            (Column::Text(c), Value::Text(x)) => c.push(intern::intern(x)),
            _ => unreachable!("relation storage validated value types against the schema"),
        }
    }

    fn remove_rows(&mut self, removed: &[u32]) {
        match self {
            Column::Int(c) => compact(c, removed),
            Column::Float(c) => compact(c, removed),
            Column::Bool(c) => compact(c, removed),
            Column::Text(c) => compact(c, removed),
        }
    }

    /// Number of rows.
    #[must_use]
    pub fn len(&self) -> usize {
        match self {
            Column::Int(c) => c.len(),
            Column::Float(c) => c.len(),
            Column::Bool(c) => c.len(),
            Column::Text(c) => c.len(),
        }
    }

    /// Whether the column holds no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Scalar `u64` key of row `r` (see module docs for the encoding).
    #[must_use]
    #[allow(clippy::cast_sign_loss)]
    pub(crate) fn key_at(&self, r: usize) -> u64 {
        match self {
            Column::Int(c) => c[r] as u64,
            Column::Float(c) => c[r].to_bits(),
            Column::Bool(c) => u64::from(c[r]),
            Column::Text(c) => u64::from(c[r].id()),
        }
    }
}

/// Column-major image of a relation's tuples.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnarBatch {
    columns: Vec<Column>,
    rows: usize,
}

impl ColumnarBatch {
    /// Builds the batch from row storage. Text values are interned here —
    /// the one-time cost the cached batch amortizes across queries.
    #[must_use]
    pub fn from_tuples(schema: &Schema, tuples: &[Tuple]) -> ColumnarBatch {
        let mut columns: Vec<Column> = schema
            .columns()
            .iter()
            .map(|c| Column::with_capacity(c.ty, tuples.len()))
            .collect();
        for t in tuples {
            for (col, v) in columns.iter_mut().zip(t.values()) {
                col.push(v);
            }
        }
        ColumnarBatch {
            columns,
            rows: tuples.len(),
        }
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The column at index `i`.
    #[must_use]
    pub fn column(&self, i: usize) -> &Column {
        &self.columns[i]
    }

    /// Appends one row (incremental maintenance under `insert`).
    pub(crate) fn push_row(&mut self, t: &Tuple) {
        for (col, v) in self.columns.iter_mut().zip(t.values()) {
            col.push(v);
        }
        self.rows += 1;
    }

    /// Drops the rows at the given ascending positions (incremental
    /// maintenance under `delete`); remaining rows keep their order.
    pub(crate) fn remove_rows(&mut self, removed: &[u32]) {
        for col in &mut self.columns {
            col.remove_rows(removed);
        }
        self.rows -= removed.len();
    }
}

/// Drops the elements at the ascending, distinct positions `removed`,
/// keeping the rest in order. Works in place from the first position:
/// the prefix before it is not touched. A caller that wants the dropped
/// elements takes them out first.
pub(crate) fn compact<T>(v: &mut Vec<T>, removed: &[u32]) {
    let Some(first) = removed.first().map(|&r| r as usize) else {
        return;
    };
    let mut victims = removed.iter().map(|&r| r as usize).peekable();
    let mut write = first;
    for read in first..v.len() {
        if victims.next_if_eq(&read).is_none() {
            v.swap(write, read);
            write += 1;
        }
    }
    v.truncate(write);
}

/// Scalar `u64` key for a value: equal keys ⇔ equal values, within a typed
/// column. Text is interned (inserting), so build and probe sides agree.
#[must_use]
#[allow(clippy::cast_sign_loss)]
pub(crate) fn scalar_key(v: &Value) -> u64 {
    match v {
        Value::Int(x) => *x as u64,
        Value::Float(x) => x.to_bits(),
        Value::Bool(x) => u64::from(*x),
        Value::Text(x) => u64::from(intern::intern(x).id()),
    }
}

/// A pushdown clause compiled to column indices for vectorized evaluation.
pub(crate) enum VecClause {
    /// `col θ literal`.
    Lit {
        col: usize,
        op: CompOp,
        value: Value,
    },
    /// `col θ col` within the same relation.
    Cols {
        left: usize,
        op: CompOp,
        right: usize,
    },
}

/// Compiles a pushed-down conjunction against a relation schema. Returns
/// `None` when any clause fails to resolve or compares mismatched types —
/// the executor then falls back to the row-at-a-time path (which surfaces
/// the proper error).
pub(crate) fn compile_clauses(
    pred: &Predicate,
    schema: &Schema,
    relation: &str,
) -> Option<Vec<VecClause>> {
    let mut out = Vec::with_capacity(pred.clauses().len());
    for c in pred.clauses() {
        let li = schema.resolve(&c.left, relation).ok()?;
        match &c.right {
            Operand::Literal(v) => {
                if schema.column(li).ty != v.data_type() {
                    return None;
                }
                out.push(VecClause::Lit {
                    col: li,
                    op: c.op,
                    value: v.clone(),
                });
            }
            Operand::Column(rc) => {
                let ri = schema.resolve(rc, relation).ok()?;
                if schema.column(li).ty != schema.column(ri).ty {
                    return None;
                }
                out.push(VecClause::Cols {
                    left: li,
                    op: c.op,
                    right: ri,
                });
            }
        }
    }
    Some(out)
}

/// Evaluates compiled clauses over rows `[start, end)` of the batch,
/// leaving the ascending selection vector of surviving row ids in `sel`.
/// `tuples` backs the (rare) text range comparisons, which compare strings
/// rather than symbol ids. `sel` is a caller-owned scratch buffer — a
/// worker reuses one buffer across every range it runs instead of
/// allocating per range.
pub(crate) fn filter_batch_range(
    batch: &ColumnarBatch,
    tuples: &[Tuple],
    clauses: &[VecClause],
    start: u32,
    end: u32,
    sel: &mut Vec<u32>,
) {
    sel.clear();
    sel.extend(start..end);
    for clause in clauses {
        if sel.is_empty() {
            break;
        }
        match clause {
            VecClause::Lit { col, op, value } => {
                refine_lit(batch.column(*col), *col, *op, value, tuples, sel);
            }
            VecClause::Cols { left, op, right } => {
                refine_cols(batch, *left, *op, *right, tuples, sel);
            }
        }
    }
}

fn refine_lit(
    column: &Column,
    col: usize,
    op: CompOp,
    value: &Value,
    tuples: &[Tuple],
    sel: &mut Vec<u32>,
) {
    match (column, value) {
        (Column::Int(c), Value::Int(x)) => sel.retain(|&r| op.eval(c[r as usize].cmp(x))),
        (Column::Float(c), Value::Float(x)) => {
            sel.retain(|&r| op.eval(c[r as usize].total_cmp(x)));
        }
        (Column::Bool(c), Value::Bool(x)) => sel.retain(|&r| op.eval(c[r as usize].cmp(x))),
        (Column::Text(c), Value::Text(x)) => match op {
            // Equality over symbols: an un-interned literal matches nothing.
            CompOp::Eq => match intern::lookup(x) {
                Some(sym) => sel.retain(|&r| c[r as usize] == sym),
                None => sel.clear(),
            },
            // An un-interned literal equals no stored value: Ne keeps all.
            CompOp::Ne => {
                if let Some(sym) = intern::lookup(x) {
                    sel.retain(|&r| c[r as usize] != sym);
                }
            }
            // Range comparisons are lexicographic over the source strings.
            _ => sel.retain(|&r| text_cmp(tuples, r, col, op, x)),
        },
        _ => unreachable!("compile_clauses type-checked the literal"),
    }
}

fn refine_cols(
    batch: &ColumnarBatch,
    left: usize,
    op: CompOp,
    right: usize,
    tuples: &[Tuple],
    sel: &mut Vec<u32>,
) {
    match (batch.column(left), batch.column(right)) {
        (Column::Int(a), Column::Int(b)) => {
            sel.retain(|&r| op.eval(a[r as usize].cmp(&b[r as usize])));
        }
        (Column::Float(a), Column::Float(b)) => {
            sel.retain(|&r| op.eval(a[r as usize].total_cmp(&b[r as usize])));
        }
        (Column::Bool(a), Column::Bool(b)) => {
            sel.retain(|&r| op.eval(a[r as usize].cmp(&b[r as usize])));
        }
        (Column::Text(a), Column::Text(b)) => match op {
            CompOp::Eq => sel.retain(|&r| a[r as usize] == b[r as usize]),
            CompOp::Ne => sel.retain(|&r| a[r as usize] != b[r as usize]),
            _ => sel.retain(|&r| {
                let (lv, rv) = (tuples[r as usize].get(left), tuples[r as usize].get(right));
                match (lv, rv) {
                    (Value::Text(l), Value::Text(rt)) => op.eval(l.as_str().cmp(rt.as_str())),
                    _ => unreachable!("schema typed both columns TEXT"),
                }
            }),
        },
        _ => unreachable!("compile_clauses type-checked the column pair"),
    }
}

fn text_cmp(tuples: &[Tuple], r: u32, col: usize, op: CompOp, lit: &str) -> bool {
    match tuples[r as usize].get(col) {
        Value::Text(s) => op.eval(s.as_str().cmp(lit)),
        _ => unreachable!("schema typed the column TEXT"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::PrimitiveClause;
    use crate::schema::ColumnRef;

    fn schema() -> Schema {
        Schema::of(&[
            ("A", DataType::Int),
            ("B", DataType::Text),
            ("C", DataType::Float),
        ])
        .unwrap()
    }

    fn row(a: i64, b: &str, c: f64) -> Tuple {
        Tuple::new(vec![
            Value::Int(a),
            Value::from(b),
            Value::float(c).unwrap(),
        ])
    }

    fn tuples() -> Vec<Tuple> {
        vec![
            row(1, "x", 1.5),
            row(2, "y", 2.5),
            row(3, "x", 0.5),
            row(4, "z", 4.5),
        ]
    }

    /// The selection over every row of the batch: one range, as a serial
    /// scan runs it.
    fn filter_all(b: &ColumnarBatch, rows: &[Tuple], clauses: &[VecClause]) -> Vec<u32> {
        let mut sel = Vec::new();
        let end = u32::try_from(b.rows()).unwrap();
        filter_batch_range(b, rows, clauses, 0, end, &mut sel);
        sel
    }

    #[test]
    fn batch_mirrors_tuples() {
        let b = ColumnarBatch::from_tuples(&schema(), &tuples());
        assert_eq!(b.rows(), 4);
        assert_eq!(b.column(0), &Column::Int(vec![1, 2, 3, 4]));
        match b.column(1) {
            Column::Text(syms) => {
                assert_eq!(syms[0], syms[2], "equal strings share a symbol");
                assert_ne!(syms[0], syms[1]);
            }
            other => panic!("expected text column, got {other:?}"),
        }
    }

    #[test]
    fn push_and_remove_maintain_rows() {
        let mut b = ColumnarBatch::from_tuples(&schema(), &tuples());
        b.push_row(&row(5, "w", 5.5));
        assert_eq!(b.rows(), 5);
        assert_eq!(b.column(0), &Column::Int(vec![1, 2, 3, 4, 5]));
        b.remove_rows(&[1, 3]);
        assert_eq!(b.rows(), 3);
        assert_eq!(b.column(0), &Column::Int(vec![1, 3, 5]));
    }

    #[test]
    fn vectorized_filter_matches_row_eval() {
        let s = schema();
        let rows = tuples();
        let b = ColumnarBatch::from_tuples(&s, &rows);
        let pred = Predicate::new(vec![
            PrimitiveClause::lit(ColumnRef::bare("A"), CompOp::Ge, Value::Int(2)),
            PrimitiveClause::lit(ColumnRef::bare("B"), CompOp::Eq, Value::from("x")),
        ]);
        let compiled = compile_clauses(&pred, &s, "R").unwrap();
        let sel = filter_all(&b, &rows, &compiled);
        let reference: Vec<u32> = rows
            .iter()
            .enumerate()
            .filter(|(_, t)| pred.eval(&s, t, "R").unwrap())
            .map(|(i, _)| u32::try_from(i).unwrap())
            .collect();
        assert_eq!(sel, reference);
        assert_eq!(sel, vec![2]);
    }

    #[test]
    fn uninterned_literal_matches_nothing() {
        let s = schema();
        let rows = tuples();
        let b = ColumnarBatch::from_tuples(&s, &rows);
        let pred = Predicate::single(PrimitiveClause::lit(
            ColumnRef::bare("B"),
            CompOp::Eq,
            Value::from("eve-column-test-never-interned"),
        ));
        let compiled = compile_clauses(&pred, &s, "R").unwrap();
        assert!(filter_all(&b, &rows, &compiled).is_empty());
    }

    #[test]
    fn mismatched_literal_type_refuses_to_compile() {
        let s = schema();
        let pred = Predicate::single(PrimitiveClause::lit(
            ColumnRef::bare("B"),
            CompOp::Eq,
            Value::Int(1),
        ));
        assert!(compile_clauses(&pred, &s, "R").is_none());
    }

    #[test]
    fn scalar_keys_agree_with_value_equality() {
        assert_eq!(scalar_key(&Value::Int(-1)), scalar_key(&Value::Int(-1)));
        assert_ne!(scalar_key(&Value::Int(-1)), scalar_key(&Value::Int(1)));
        let z = Value::float(0.0).unwrap();
        let nz = Value::float(-0.0).unwrap();
        assert_eq!(scalar_key(&z), scalar_key(&nz), "normalized -0.0");
        assert_eq!(
            scalar_key(&Value::from("same")),
            scalar_key(&Value::from("same"))
        );
        assert_ne!(
            scalar_key(&Value::from("same")),
            scalar_key(&Value::from("diff"))
        );
    }
}
