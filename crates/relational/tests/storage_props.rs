//! Model-based property suite for relation storage: a `Relation` and a
//! plain `Vec<Tuple>` model go through the same long run of random steps —
//! inserts, deletes with duplicate and absent victims, clone-then-mutate,
//! and index warms at any point — and after every step:
//!
//! * `tuples()` equals the model, row for row;
//! * every held hash index answers `index_eq_rows` and every held sorted
//!   index answers `index_range_rows` exactly as a scan does, for every
//!   key (a sorted index with one range operator per step in turn, and
//!   with all six every 64th step);
//! * `columnar()` equals `ColumnarBatch::from_tuples` over the model;
//! * `distinct_to_string()` equals `distinct().to_string()` of a fresh
//!   relation over the model, byte for byte, so no write leaves the
//!   storage's rendered rows stale;
//! * the last clone taken still holds the rows it was taken with (and,
//!   every 8th step, its own indexes, image and rendering still agree
//!   with them).
//!
//! A render step renders twice more. Both answers come from the text the
//! check before it (or, first, the setup) kept: two
//! `relational.render_cache_hits`, no `relational.rows_formatted`.
//!
//! Every check renders, so the next write is recorded against kept text
//! and the check after it folds that write in, editing single lines: a
//! line is rendered only for a tuple whose count of stored copies rose
//! from 0, so a check after `k` written tuples moves
//! `relational.render_patched_rows` by at most `k`. The starting relation
//! holds several hundred distinct rows beside the random ones, so its
//! text spans several chunks of about 256 lines and the random writes
//! patch chunks throughout it. Steps cover each kind of line edit:
//!
//! * adding copies of stored rows, which renders no line;
//! * draining a stored row one copy at a time (a check after each
//!   delete): its line goes with its last copy only, and no line is
//!   rendered;
//! * inserting rows that sort before or after every stored one, below the
//!   first chunk's first line and above the last chunk's last line;
//! * growing the first chunk past 512 lines, in writes under the share
//!   the kept text takes, so a fold cuts it;
//! * emptying the first chunk: every copy of the lowest 513 distinct rows
//!   goes, in the same small writes, and a chunk never holds more;
//! * flooding the relation with more written tuples than the kept text
//!   takes (one per eight rows), which drops the text: the check after a
//!   flood renders every row afresh, and the run as a whole patches rows.
//!
//! A delete lists its victims' index ids instead of renumbering the
//! survivors' entries; once the list is long enough one pass renumbers
//! them all. Each case deletes enough rows to renumber several times,
//! which the suite checks on `relational.index_entries_renumbered`.
//!
//! Case counts honour `PROPTEST_CASES` (CI smoke 64, nightly 256).

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

use eve_trace::Counter;
use proptest::prelude::*;

use eve_relational::{
    tup, ColumnDef, ColumnRef, ColumnarBatch, CompOp, DataType, IndexKind, Relation, Schema, Tuple,
    Value,
};

/// `(I, B, S)`: an int, a bool and a text column over small domains, so
/// keys repeat and duplicates are common.
type Row = (i64, bool, String);

const INTS: std::ops::Range<i64> = 0..5;
const TEXTS: &[&str] = &["", "a", "b", "aa", "ab", "ba", "bb"];
const OPS: [CompOp; 6] = [
    CompOp::Lt,
    CompOp::Le,
    CompOp::Eq,
    CompOp::Ge,
    CompOp::Gt,
    CompOp::Ne,
];

fn arb_row() -> impl Strategy<Value = Row> {
    (INTS, any::<bool>(), "[ab]{0,2}")
}

fn tuple((i, b, s): &Row) -> Tuple {
    Tuple::new(vec![
        Value::Int(*i),
        Value::Bool(*b),
        Value::from(s.as_str()),
    ])
}

fn schema() -> Schema {
    let col = |name: &str, ty| ColumnDef::new(ColumnRef::bare(name), ty);
    Schema::new(vec![
        col("I", DataType::Int),
        col("B", DataType::Bool),
        col("S", DataType::Text),
    ])
    .unwrap()
}

/// Every value a column can hold: the keys each index is probed with.
fn keys(col: usize) -> Vec<Value> {
    match col {
        0 => INTS.map(Value::Int).collect(),
        1 => vec![Value::Bool(false), Value::Bool(true)],
        _ => TEXTS.iter().map(|&s| Value::from(s)).collect(),
    }
}

/// The `k`th bulk row: ints 1–3, both bools, a distinct digit text that
/// sorts between the random rows' texts `""` and `"a"`.
fn bulk_row(k: usize) -> Tuple {
    tuple(&(
        1 + i64::try_from(k % 3).unwrap(),
        k.is_multiple_of(2),
        format!("{k:03}"),
    ))
}

#[derive(Debug, Clone)]
enum Step {
    Insert(Vec<Row>),
    /// Insert one more copy of each stored row picked (by position,
    /// modulo the cardinality).
    Copy(Vec<usize>),
    /// Delete the picked stored row's copies one at a time.
    Drain(usize),
    /// Insert a row below (`true`) or above every stored one.
    Outside(bool),
    /// Insert copies of stored rows, one more than an eighth of the
    /// distinct rows.
    Flood,
    /// Insert 513 new rows below every stored one, a sixteenth of the
    /// distinct rows per write, with a check after each write.
    Grow,
    /// Delete every copy of the lowest 513 distinct rows, a sixteenth of
    /// the distinct rows per delete, with a check after each delete.
    Empty,
    /// Victims: a stored row (by position, modulo the cardinality) or a
    /// random row that may be absent; the request holds duplicates often.
    Delete(Vec<(bool, usize, Row)>),
    /// Keep a clone; later steps mutate the original only.
    Clone,
    Warm(usize, IndexKind),
    Render,
}

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        prop::collection::vec(arb_row(), 1..4).prop_map(Step::Insert),
        prop::collection::vec(arb_row(), 1..4).prop_map(Step::Insert),
        prop::collection::vec((any::<bool>(), 0usize..256, arb_row()), 1..5).prop_map(Step::Delete),
        prop::collection::vec((any::<bool>(), 0usize..256, arb_row()), 1..5).prop_map(Step::Delete),
        prop::collection::vec(0usize..2048, 1..4).prop_map(Step::Copy),
        (0usize..2048).prop_map(Step::Drain),
        any::<bool>().prop_map(Step::Outside),
        Just(Step::Clone),
        (
            0usize..3,
            prop::sample::select(vec![IndexKind::Hash, IndexKind::Sorted])
        )
            .prop_map(|(col, kind)| Step::Warm(col, kind)),
        Just(Step::Render),
    ]
}

/// The reference delete: the first remaining occurrence of each victim, in
/// request order; returns the removed rows in row order.
fn model_delete(model: &mut Vec<Tuple>, victims: &[Tuple]) -> Vec<Tuple> {
    let mut gone = vec![false; model.len()];
    for v in victims {
        if let Some(at) = (0..model.len()).find(|&i| !gone[i] && model[i] == *v) {
            gone[at] = true;
        }
    }
    let mut kept = Vec::with_capacity(model.len());
    let mut removed = Vec::new();
    for (t, g) in model.drain(..).zip(gone) {
        if g {
            removed.push(t);
        } else {
            kept.push(t);
        }
    }
    *model = kept;
    removed
}

fn scan(rows: &[Tuple], col: usize, op: CompOp, key: &Value) -> Vec<u32> {
    rows.iter()
        .enumerate()
        .filter(|(_, t)| op.eval(t.get(col).try_cmp(key).unwrap()))
        .map(|(i, _)| u32::try_from(i).unwrap())
        .collect()
}

/// `rel` holds `model` row for row, and every held index and the
/// columnar image agree with it. Each index is probed with every key its
/// column can hold; a sorted index with one range operator per step, in
/// turn, and with all of them every 64th step.
fn check(rel: &Relation, model: &[Tuple], round: usize) -> Result<(), String> {
    if rel.tuples() != model {
        return Err(format!("rows {:?} != model {model:?}", rel.tuples()));
    }
    let ops: &[CompOp] = if round.is_multiple_of(64) {
        &OPS
    } else {
        std::slice::from_ref(&OPS[round % OPS.len()])
    };
    for (col, kind) in held(rel) {
        let keys = keys(col);
        let picked = keys.iter().flat_map(|k| ops.iter().map(move |&op| (k, op)));
        for (key, op) in picked {
            let (got, want) = match kind {
                IndexKind::Hash => (
                    rel.index_eq_rows(col, key),
                    scan(model, col, CompOp::Eq, key),
                ),
                IndexKind::Sorted => (
                    rel.index_range_rows(col, op, key),
                    scan(model, col, op, key),
                ),
            };
            if got != want {
                return Err(format!(
                    "{kind:?} {col} {op:?} {key:?}: {got:?} != {want:?}"
                ));
            }
        }
    }
    if *rel.columnar() != ColumnarBatch::from_tuples(rel.schema(), model) {
        return Err("columnar image differs from a rebuild".to_owned());
    }
    let fresh = Relation::with_tuples(rel.name(), rel.schema().clone(), model.to_vec())
        .map_err(|e| e.to_string())?;
    if rel.distinct_to_string() != fresh.distinct().to_string() {
        return Err(format!(
            "rendered {:?} != fresh {:?}",
            rel.distinct_to_string(),
            fresh.distinct().to_string()
        ));
    }
    Ok(())
}

/// The indexes a relation holds, as `(column, kind)`.
fn held(rel: &Relation) -> Vec<(usize, IndexKind)> {
    (0..3)
        .flat_map(|col| [(col, IndexKind::Hash), (col, IndexKind::Sorted)])
        .filter(|&(col, kind)| rel.has_index(col, kind))
        .collect()
}

/// The counters a run moved that the suites check at its end.
struct Moved {
    /// Deletes that renumbered the deleted-id list of an index.
    renumbering_deletes: usize,
    /// `relational.render_patched_rows` over the run.
    patched: u64,
}

/// The counters are process-wide: each suite holds this while it runs.
static COUNTERS: Mutex<()> = Mutex::new(());

/// Rows a grow inserts and an empty deletes: one more than a chunk of
/// kept text ever holds after a fold.
const PAST_A_CHUNK: usize = 513;

/// A relation and its model under one run of steps, checked after
/// every step and inside the steps that write in several rounds.
struct Run {
    rel: Relation,
    model: Vec<Tuple>,
    /// Tuples recorded since the last check.
    written: u64,
    patched: Arc<Counter>,
}

impl Run {
    fn insert(&mut self, t: Tuple) {
        self.rel.insert(t.clone()).unwrap();
        self.model.push(t);
        self.written += 1;
    }

    fn delete(&mut self, victims: &[Tuple]) -> Result<(), TestCaseError> {
        let expected = model_delete(&mut self.model, victims);
        let removed = self.rel.delete(victims);
        prop_assert_eq!(&removed, &expected, "removed rows, in row order");
        self.written += removed.len() as u64;
        Ok(())
    }

    /// [`check`], and that its renders rendered at most one line per
    /// tuple written since the last check, or none at all when `none`.
    fn check(&mut self, round: usize, none: bool) -> Result<(), String> {
        let before = self.patched.get();
        check(&self.rel, &self.model, round)?;
        let lines = self.patched.get() - before;
        let most = if none { 0 } else { self.written };
        if lines > most {
            return Err(format!(
                "rendered {lines} lines after {} written tuples (at most {most})",
                self.written
            ));
        }
        self.written = 0;
        Ok(())
    }

    fn distinct(&self) -> usize {
        self.model.iter().collect::<BTreeSet<_>>().len()
    }
}

/// Runs `steps` on a relation over `model` and on the model, checking
/// after every step (and after every write of a drain, a grow and an
/// empty).
fn run(
    model: Vec<Tuple>,
    warm: &[(usize, IndexKind)],
    steps: &[Step],
) -> Result<Moved, TestCaseError> {
    let renumbered = eve_trace::global().counter("relational.index_entries_renumbered");
    let hits = eve_trace::global().counter("relational.render_cache_hits");
    let formatted = eve_trace::global().counter("relational.rows_formatted");
    let patched = eve_trace::global().counter("relational.render_patched_rows");
    let patched_before = patched.get();
    let rel = Relation::with_tuples("R", schema(), model.clone()).unwrap();
    let _ = rel.columnar();
    let _ = rel.distinct_to_string();
    for &(col, kind) in warm {
        rel.warm_index(col, kind);
    }
    let mut run = Run {
        rel,
        model,
        written: 0,
        patched: Arc::clone(&patched),
    };
    let mut clone: Option<(Relation, Vec<Tuple>)> = None;
    let mut renumbering_deletes = 0usize;
    for (round, step) in steps.iter().enumerate() {
        let formatted_before = formatted.get();
        let renumbered_before = renumbered.get();
        let fail = |e: String| TestCaseError::fail(format!("after {step:?}: {e}"));
        match step {
            Step::Insert(rows) => {
                for row in rows {
                    run.insert(tuple(row));
                }
            }
            Step::Delete(picks) => {
                let victims: Vec<Tuple> = picks
                    .iter()
                    .map(|(stored, at, row)| match run.model.len() {
                        n if *stored && n > 0 => run.model[at % n].clone(),
                        _ => tuple(row),
                    })
                    .collect();
                run.delete(&victims)?;
            }
            Step::Copy(picks) => {
                for at in picks {
                    if let Some(t) = run.model.get(at % run.model.len().max(1)).cloned() {
                        run.insert(t);
                    }
                }
            }
            Step::Drain(at) => {
                let picked = run.model.get(at % run.model.len().max(1)).cloned();
                while let Some(t) = picked.as_ref().filter(|t| run.model.contains(t)) {
                    let renumbered_before = renumbered.get();
                    run.delete(std::slice::from_ref(t))?;
                    renumbering_deletes += usize::from(renumbered.get() > renumbered_before);
                    run.check(round, true)
                        .map_err(|e| TestCaseError::fail(format!("draining {t:?}: {e}")))?;
                    let line = format!("  {t}\n");
                    prop_assert_eq!(
                        run.rel.distinct_to_string().contains(&line),
                        run.model.contains(t),
                        "the line goes with the last copy"
                    );
                }
            }
            Step::Outside(below) => {
                let round = i64::try_from(round).unwrap();
                let i = if *below { -1 - round } else { 5 + round };
                run.insert(tuple(&(i, false, String::new())));
            }
            Step::Flood => {
                for k in 0..=run.distinct() / 8 {
                    let t = run.model.get(k).cloned().unwrap_or_else(|| bulk_row(k));
                    run.insert(t);
                }
            }
            Step::Grow => {
                let base = -10_000 * (i64::try_from(round).unwrap() + 1);
                let mut rows = (0..PAST_A_CHUNK as i64).map(|j| tup![base - j, false, ""]);
                loop {
                    let batch: Vec<Tuple> = rows.by_ref().take(run.distinct() / 16 + 1).collect();
                    if batch.is_empty() {
                        break;
                    }
                    for t in batch {
                        run.insert(t);
                    }
                    run.check(round, false).map_err(fail)?;
                }
            }
            Step::Empty => {
                let lowest: BTreeSet<Tuple> = run.model.iter().cloned().collect();
                let lowest: BTreeSet<Tuple> = lowest.into_iter().take(PAST_A_CHUNK).collect();
                let mut victims: Vec<Tuple> = run
                    .model
                    .iter()
                    .filter(|t| lowest.contains(t))
                    .cloned()
                    .collect();
                while !victims.is_empty() {
                    let rest = victims.split_off(victims.len().min(run.distinct() / 16 + 1));
                    let renumbered_before = renumbered.get();
                    run.delete(&victims)?;
                    renumbering_deletes += usize::from(renumbered.get() > renumbered_before);
                    run.check(round, true).map_err(fail)?;
                    victims = rest;
                }
            }
            Step::Clone => clone = Some((run.rel.clone(), run.model.clone())),
            Step::Warm(col, kind) => run.rel.warm_index(*col, *kind),
            Step::Render => {
                let (hits_before, formatted_before) = (hits.get(), formatted.get());
                prop_assert_eq!(run.rel.distinct_to_string(), run.rel.distinct_to_string());
                prop_assert_eq!(hits.get() - hits_before, 2, "both renders hit");
                prop_assert_eq!(formatted.get(), formatted_before, "no row rendered again");
            }
        }
        if let Step::Delete(_) = step {
            renumbering_deletes += usize::from(renumbered.get() > renumbered_before);
        }
        // Copies of stored rows and deletes render no line.
        let none = matches!(step, Step::Copy(_) | Step::Delete(_) | Step::Empty);
        run.check(round, none).map_err(fail)?;
        if let Step::Flood = step {
            prop_assert_eq!(
                formatted.get() - formatted_before,
                run.distinct() as u64,
                "a flood drops the text: the check renders every row afresh"
            );
        }
        if let Some((copy, rows)) = &clone {
            prop_assert_eq!(
                copy.tuples(),
                &rows[..],
                "the clone is untouched, after {:?}",
                step
            );
            if round.is_multiple_of(8) {
                check(copy, rows, round).map_err(|e| fail(format!("clone: {e}")))?;
            }
        }
    }
    Ok(Moved {
        renumbering_deletes,
        patched: patched.get() - patched_before,
    })
}

/// `steps` with a flood at each round `floods` names (modulo their
/// count), then each of `then` at its round.
fn place(mut steps: Vec<Step>, floods: &[usize], then: &[(usize, Step)]) -> Vec<Step> {
    let n = steps.len();
    for &at in floods {
        steps[at % n] = Step::Flood;
    }
    for (at, step) in then {
        steps[at % n] = step.clone();
    }
    steps
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn storage_matches_a_vec_model_across_renumbers(
        initial in prop::collection::vec(arb_row(), 0..24),
        floods in prop::collection::vec(0usize..750, 1..3),
        warm in prop::collection::vec(
            (0usize..3, prop::sample::select(vec![IndexKind::Hash, IndexKind::Sorted])),
            0..4,
        ),
        steps in prop::collection::vec(arb_step(), 700..800),
    ) {
        let _alone = COUNTERS.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let steps = place(steps, &floods, &[]);
        let moved = run(initial.iter().map(tuple).collect(), &warm, &steps)?;
        // Every delete after the first keeps a hash index live, so each
        // lists its victims, and the run deletes enough rows to pass the
        // renumber length (64 ids) several times.
        prop_assert!(
            moved.renumbering_deletes >= 3,
            "the deleted-id list was renumbered by {} deletes",
            moved.renumbering_deletes
        );
        prop_assert!(moved.patched > 0, "some check patched the text");
    }

    #[test]
    fn patches_across_chunks_match_a_fresh_render(
        initial in prop::collection::vec(arb_row(), 0..24),
        bulk in 520usize..760,
        floods in prop::collection::vec(0usize..110, 1..3),
        grow in 0usize..110,
        empty in 0usize..110,
        steps in prop::collection::vec(arb_step(), 100..120),
    ) {
        let _alone = COUNTERS.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let model = (0..bulk).map(bulk_row).chain(initial.iter().map(tuple)).collect();
        let steps = place(steps, &floods, &[(grow, Step::Grow), (empty, Step::Empty)]);
        let moved = run(model, &[], &steps)?;
        prop_assert!(moved.patched > 0, "some check patched the text");
    }
}
