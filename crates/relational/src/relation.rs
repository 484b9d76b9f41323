//! Named, typed, in-memory relations over shared tuple storage.
//!
//! A relation's storage keeps its distinct rows rendered as text, patched
//! per written tuple, so a view's answer is a copy of kept text:
//! [`Relation::distinct_to_string`] copies it into a new `String`, and
//! [`Relation::write_distinct`] appends it to a caller's buffer, such as
//! the response frame that carries it, through the same lookup.

use std::cmp::Ordering;
use std::collections::{BTreeSet, HashMap};
use std::fmt::{self, Write as _};
use std::hash::BuildHasherDefault;
use std::ops::Range;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError, RwLock, Weak};

use crate::column::{compact, ColumnarBatch};
use crate::error::{Error, Result};
use crate::exec::KeyHasher;
use crate::index::{IndexKind, IndexSet, IndexStats};
use crate::predicate::CompOp;
use crate::schema::Schema;
use crate::tuple::Tuple;
use crate::types::Value;

/// Lines per chunk of kept text that a render cuts. A fold copies every
/// chunk a written tuple falls in, so this bounds the bytes it moves per
/// written tuple.
const CHUNK_ROWS: usize = 256;

/// Kept text takes pending writes up to one per this many of its rows;
/// the write past that drops the text, and the next read renders afresh.
const PATCH_SHARE: usize = 8;

/// Shared physical storage behind a [`Relation`]: the row-ordered tuple
/// vector plus the lazily built columnar image, secondary indexes and
/// rendered distinct rows.
///
/// The caches live *inside* the shared storage so that every zero-copy
/// alias of a relation (clones, rebinds, plan bindings) reuses one
/// columnar batch, one index set and one rendering. Mutations go through
/// [`Relation::storage_mut`], which calls [`Arc::make_mut`]. Only a second
/// *strong* alias makes it detach — clone the columnar image and indexes
/// along with the rows and then maintain them incrementally, so a warmed
/// index survives copy-on-write instead of being rebuilt; an
/// [`ExtentHandle`] is a `Weak` and never causes one. Each detach adds its
/// rows to `relational.detach_rows`. The rendered rows are patched, not
/// rebuilt: a write records each tuple it writes with its sign beside
/// them ([`Storage::record`]), and the next read folds those into the
/// kept lines' counts without reading the stored tuples. A detach copies
/// neither the text nor the recorded tuples.
#[derive(Debug, Default)]
struct Storage {
    tuples: Vec<Tuple>,
    /// Mutation counter: bumped by `insert`/`delete` on this storage.
    generation: u64,
    /// Column-major image, built on first columnar access.
    columnar: OnceLock<Arc<ColumnarBatch>>,
    /// Secondary indexes, built on first probe.
    indexes: Mutex<IndexSet>,
    /// The distinct rows as text, built by the first
    /// [`Relation::distinct_to_string`] and patched by later ones. Hits
    /// share the read side; a render or a fold takes the write side, so
    /// no reader sees a half-folded text. A fold that panicked poisons
    /// the lock; the next write or read drops the text it left.
    rendered: RwLock<Option<Rendered>>,
}

/// The distinct rows of one storage, rendered: the text of
/// [`Relation::distinct_to_string`] below its header line, in sorted
/// chunks, with the tuples written since the chunks were last brought up
/// to date. The header names the relation, and aliases of one storage may
/// have different names, so it is not kept.
///
/// Each line keeps its tuple and how many copies of it the storage held
/// at the last fold (the counting method of incremental view
/// maintenance: Gupta, Mumick & Subrahmanian, SIGMOD 1993), so a fold
/// needs only the written tuples. Chunk `i` holds the lines of the
/// distinct tuples `t` with `chunks[i].first() <= t <
/// chunks[i + 1].first()`; the first chunk has no lower bound and the
/// last no upper one. A chunk is never empty, and `pending` is empty
/// whenever `chunks` is (the [`PATCH_SHARE`] bound allows no pending
/// write against no rows).
#[derive(Debug)]
struct Rendered {
    chunks: Vec<Chunk>,
    /// How many distinct rows the chunks hold.
    rows: usize,
    /// Bytes of text the chunks hold.
    bytes: usize,
    /// Every tuple inserted (`+1`) or deleted (`-1`) since the last
    /// fold, duplicates included, in write order.
    pending: Vec<(Tuple, isize)>,
}

/// A run of consecutive lines of a [`Rendered`] text, with what a fold
/// needs to edit single lines: each line's tuple, its count and where
/// it ends. The tuples' values lie end to end in one slice, so keeping
/// them costs no allocation per line.
#[derive(Debug)]
struct Chunk {
    /// The values of the lines' distinct tuples, sorted, one tuple after
    /// another: `values.len() / lines.len()` per tuple.
    values: Box<[Value]>,
    lines: Box<[Line]>,
    /// One `  <tuple>` line per distinct row, in sorted order.
    text: Box<str>,
}

/// One line of a [`Chunk`].
#[derive(Debug, Clone, Copy)]
struct Line {
    /// How many copies of the line's tuple are stored (never 0).
    count: usize,
    /// Where the line ends in the chunk's text.
    end: usize,
}

/// One line edit of a fold.
enum Edit {
    /// A new line for a tuple with this many stored copies.
    Add(Tuple, usize),
    /// The line's last stored copy went.
    Remove,
}

impl Clone for Storage {
    fn clone(&self) -> Storage {
        crate::index::mirrors()
            .detach_rows
            .add(self.tuples.len() as u64);
        let cloned = Storage {
            tuples: self.tuples.clone(),
            generation: self.generation,
            columnar: OnceLock::new(),
            indexes: Mutex::new(self.lock_indexes().clone()),
            rendered: RwLock::new(None),
        };
        if let Some(batch) = self.columnar.get() {
            let _ = cloned.columnar.set(Arc::clone(batch));
        }
        cloned
    }
}

impl Storage {
    fn new(tuples: Vec<Tuple>) -> Storage {
        Storage {
            tuples,
            ..Storage::default()
        }
    }

    /// The indexes, locked. A probe, write or detach that panicked under
    /// the lock may have left an index half-edited, so a poisoned lock
    /// drops every index (the next probe builds the one it needs afresh)
    /// and is cleared, as the render lock is.
    fn lock_indexes(&self) -> MutexGuard<'_, IndexSet> {
        self.indexes.lock().unwrap_or_else(|poisoned| {
            let mut indexes = poisoned.into_inner();
            *indexes = IndexSet::default();
            self.indexes.clear_poison();
            indexes
        })
    }

    /// Notes `written` (tuples just inserted, `sign` `+1`, or deleted,
    /// `-1`) against the kept text: they join its pending tuples, unless
    /// that would pass one per [`PATCH_SHARE`] rows, in which case the
    /// text is dropped. A storage that keeps no text records nothing, and
    /// one whose lock a panicking fold poisoned drops what it kept.
    fn record(&mut self, written: &[Tuple], sign: isize) {
        let Ok(kept) = self.rendered.get_mut() else {
            self.rendered = RwLock::new(None);
            return;
        };
        match kept {
            Some(text) if text.pending.len() + written.len() <= text.rows / PATCH_SHARE => {
                text.pending
                    .extend(written.iter().map(|t| (t.clone(), sign)));
            }
            _ => *kept = None,
        }
    }
}

impl Rendered {
    /// Renders the distinct rows of `tuples`, each with its count of
    /// copies, in chunks of about [`CHUNK_ROWS`] lines.
    fn of(tuples: &[Tuple]) -> Rendered {
        let mut sorted: Vec<&Tuple> = tuples.iter().collect();
        sorted.sort_unstable();
        let mut lines = Lines::default();
        for run in sorted.chunk_by(|a, b| a == b) {
            lines.push(run[0].values(), run.len());
        }
        let mut chunks = Vec::with_capacity(lines.lines.len().div_ceil(CHUNK_ROWS));
        lines.cut(CHUNK_ROWS, &mut chunks);
        Rendered::from_chunks(chunks)
    }

    fn from_chunks(chunks: Vec<Chunk>) -> Rendered {
        Rendered {
            rows: chunks.iter().map(|c| c.lines.len()).sum(),
            bytes: chunks.iter().map(|c| c.text.len()).sum(),
            chunks,
            pending: Vec::new(),
        }
    }

    /// Folds the pending tuples into the lines' counts and empties
    /// `pending`, without reading the storage. The pending tuples are
    /// sorted and summed per tuple; each net change finds its chunk and
    /// line by binary search. A count rising from 0 renders and inserts
    /// that one line, a count falling to 0 removes its line, and every
    /// touched chunk's text is rebuilt in one pass that copies the spans
    /// between its edits. A chunk left empty goes; one grown past twice
    /// [`CHUNK_ROWS`] is cut again. Returns the lines rendered, at most
    /// one per pending tuple.
    fn fold(&mut self) -> usize {
        let mut pending = std::mem::take(&mut self.pending);
        pending.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        let mut net: Vec<(Tuple, isize)> = Vec::with_capacity(pending.len());
        for (t, sign) in pending {
            match net.last_mut() {
                Some((last, n)) if *last == t => *n += sign,
                _ => net.push((t, sign)),
            }
        }
        net.retain(|(_, n)| *n != 0);
        let chunks = &self.chunks;
        // The last chunk starting at or below `t`, or the first chunk;
        // ascending, as `net` is.
        let at: Vec<usize> = net
            .iter()
            .map(|(t, _)| {
                chunks
                    .partition_point(|c| c.first() <= t.values())
                    .saturating_sub(1)
            })
            .collect();
        let mut net = at.into_iter().zip(net).peekable();
        let mut rendered = 0;
        let mut next = Vec::with_capacity(self.chunks.len() + net.len());
        for (i, mut chunk) in std::mem::take(&mut self.chunks).into_iter().enumerate() {
            let mut edits = Vec::new();
            while let Some((_, (t, n))) = net.next_if(|(at, _)| *at == i) {
                match chunk.find(t.values()) {
                    Ok(line) => {
                        let count = chunk.lines[line]
                            .count
                            .checked_add_signed(n)
                            .expect("a fold removes no more copies than are stored");
                        if count == 0 {
                            edits.push((line, Edit::Remove));
                        } else {
                            chunk.lines[line].count = count;
                        }
                    }
                    Err(line) => {
                        let count = usize::try_from(n)
                            .expect("a fold removes a row the kept text does not hold");
                        edits.push((line, Edit::Add(t, count)));
                    }
                }
            }
            if edits.is_empty() {
                next.push(chunk);
            } else {
                rendered += chunk.edit(edits, &mut next);
            }
        }
        *self = Rendered::from_chunks(next);
        rendered
    }

    /// Writes the answer of `relation` after what `out` holds: its header
    /// line, then the kept lines.
    fn write(&self, relation: &Relation, out: &mut impl Sink) {
        // Writing into memory cannot fail.
        let _ = write_header(out, relation, self.rows);
        out.reserve_exact(self.bytes);
        for chunk in &self.chunks {
            let _ = out.write_str(&chunk.text);
        }
    }
}

/// Where an answer is written: a `String`, or the bytes of the frame
/// that carries it ([`Bytes`]). The header goes first, so the text is
/// reserved once it is known how much room the header took.
trait Sink: fmt::Write {
    fn reserve_exact(&mut self, additional: usize);
}

impl Sink for String {
    fn reserve_exact(&mut self, additional: usize) {
        String::reserve_exact(self, additional);
    }
}

/// A byte buffer that UTF-8 text is appended to, as a [`Sink`].
struct Bytes<'a>(&'a mut Vec<u8>);

impl fmt::Write for Bytes<'_> {
    fn write_str(&mut self, text: &str) -> fmt::Result {
        self.0.extend_from_slice(text.as_bytes());
        Ok(())
    }
}

impl Sink for Bytes<'_> {
    fn reserve_exact(&mut self, additional: usize) {
        self.0.reserve_exact(additional);
    }
}

impl Chunk {
    /// Values per tuple.
    fn arity(&self) -> usize {
        self.values.len() / self.lines.len()
    }

    /// The tuple of the first line.
    fn first(&self) -> &[Value] {
        &self.values[..self.arity()]
    }

    /// The line of `tuple` (`Ok`), or the line it would go before
    /// (`Err`), by binary search.
    fn find(&self, tuple: &[Value]) -> std::result::Result<usize, usize> {
        let arity = tuple.len();
        let (mut lo, mut hi) = (0, self.lines.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.values[mid * arity..(mid + 1) * arity].cmp(tuple) {
                Ordering::Less => lo = mid + 1,
                Ordering::Greater => hi = mid,
                Ordering::Equal => return Ok(mid),
            }
        }
        Err(lo)
    }

    /// Applies `edits` (each at the line it sits before or removes,
    /// ascending, an insert before a removal at one line) and pushes the
    /// result onto `out`, cut when past twice [`CHUNK_ROWS`] lines.
    /// Returns the lines rendered.
    fn edit(mut self, edits: Vec<(usize, Edit)>, out: &mut Vec<Chunk>) -> usize {
        let arity = self.arity();
        let added = edits
            .iter()
            .filter(|(_, e)| matches!(e, Edit::Add(..)))
            .count();
        let rows = self.lines.len() + added;
        let mut lines = Lines {
            values: Vec::with_capacity(rows * arity),
            lines: Vec::with_capacity(rows),
            text: String::with_capacity(self.text.len()),
        };
        let mut old = std::mem::take(&mut self.values).into_vec().into_iter();
        // The old lines before `copied` are copied or removed.
        let mut copied = 0;
        for (line, edit) in edits {
            lines.copy(&self, &mut old, arity, copied..line);
            copied = line;
            match edit {
                Edit::Add(t, count) => lines.push(t.values(), count),
                Edit::Remove => {
                    old.by_ref().take(arity).for_each(drop);
                    copied += 1;
                }
            }
        }
        lines.copy(&self, &mut old, arity, copied..self.lines.len());
        lines.cut(2 * CHUNK_ROWS, out);
        added
    }
}

/// Lines on their way into chunks, held as a [`Chunk`] holds them.
#[derive(Default)]
struct Lines {
    values: Vec<Value>,
    lines: Vec<Line>,
    text: String,
}

impl Lines {
    /// Renders the line of `tuple`, stored `count` times, after the others.
    fn push(&mut self, tuple: &[Value], count: usize) {
        write_line(&mut self.text, tuple);
        self.values.extend_from_slice(tuple);
        self.lines.push(Line {
            count,
            end: self.text.len(),
        });
    }

    /// Copies the lines `range` of `chunk` after the others, their text in
    /// one span; `values` yields `chunk`'s values from `range.start` on.
    fn copy(
        &mut self,
        chunk: &Chunk,
        values: &mut std::vec::IntoIter<Value>,
        arity: usize,
        range: Range<usize>,
    ) {
        let (from, to) = (
            start_of(&chunk.lines, range.start),
            start_of(&chunk.lines, range.end),
        );
        let shift = self.text.len();
        self.lines
            .extend(chunk.lines[range.clone()].iter().map(|line| Line {
                count: line.count,
                end: line.end - from + shift,
            }));
        self.text.push_str(&chunk.text[from..to]);
        self.values
            .extend(values.by_ref().take(range.len() * arity));
    }

    /// Pushes the lines onto `chunks`: nothing when there are none, one
    /// chunk, each slice at its exact size, when they are at most `most`,
    /// and else even pieces of at most [`CHUNK_ROWS`] lines.
    fn cut(self, most: usize, chunks: &mut Vec<Chunk>) {
        let rows = self.lines.len();
        if rows <= most {
            if rows > 0 {
                chunks.push(Chunk {
                    values: self.values.into_boxed_slice(),
                    lines: self.lines.into_boxed_slice(),
                    text: self.text.into_boxed_str(),
                });
            }
            return;
        }
        let arity = self.values.len() / rows;
        let size = rows.div_ceil(rows.div_ceil(CHUNK_ROWS));
        let mut values = self.values.into_iter();
        for from in (0..rows).step_by(size) {
            let to = (from + size).min(rows);
            let (start, end) = (start_of(&self.lines, from), self.lines[to - 1].end);
            chunks.push(Chunk {
                values: values.by_ref().take((to - from) * arity).collect(),
                lines: self.lines[from..to]
                    .iter()
                    .map(|line| Line {
                        count: line.count,
                        end: line.end - start,
                    })
                    .collect(),
                text: self.text[start..end].into(),
            });
        }
    }
}

/// Where line `line` starts in a text whose lines are `lines`.
fn start_of(lines: &[Line], line: usize) -> usize {
    line.checked_sub(1).map_or(0, |prev| lines[prev].end)
}

/// An in-memory relation: a name, a schema and a bag of tuples.
///
/// Tuples are stored in insertion order; [`Relation::distinct`] produces the
/// set semantics the paper uses when comparing view extents ("with duplicates
/// removed first", §5.4.2).
///
/// Tuple storage is `Arc`-shared with copy-on-write semantics: cloning a
/// relation (site scans, warehouse extents, plan-time bindings) shares the
/// underlying storage, and the first mutation through [`Relation::insert`] /
/// [`Relation::delete`] detaches a private copy. This is what lets the
/// physical execution layer ([`crate::plan`] / [`crate::exec`]) pass extents
/// around without ever copying tuple data. The shared storage also carries
/// the columnar image ([`Relation::columnar`]) and lazily built secondary
/// indexes, both maintained incrementally across mutations.
#[derive(Debug, Clone)]
pub struct Relation {
    name: String,
    schema: Schema,
    store: Arc<Storage>,
}

impl PartialEq for Relation {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.schema == other.schema
            && self.store.tuples == other.store.tuples
    }
}

impl Eq for Relation {}

impl Relation {
    /// Creates an empty relation.
    #[must_use]
    pub fn empty(name: impl Into<String>, schema: Schema) -> Relation {
        Relation {
            name: name.into(),
            schema,
            store: Arc::new(Storage::default()),
        }
    }

    /// Creates a relation and inserts all `tuples`, checking arity and types
    /// in a single pass. A failing tuple rejects the whole batch — no
    /// partially populated relation is ever observable.
    ///
    /// # Errors
    ///
    /// [`Error::ArityMismatch`] or [`Error::TypeMismatch`].
    pub fn with_tuples(
        name: impl Into<String>,
        schema: Schema,
        tuples: Vec<Tuple>,
    ) -> Result<Relation> {
        for t in &tuples {
            validate_against(&schema, t)?;
        }
        Ok(Relation {
            name: name.into(),
            schema,
            store: Arc::new(Storage::new(tuples)),
        })
    }

    /// Internal constructor for tuples already known to satisfy `schema`
    /// (outputs of algebra operators and plan execution). Skips per-tuple
    /// validation.
    pub(crate) fn from_validated(
        name: impl Into<String>,
        schema: Schema,
        tuples: Vec<Tuple>,
    ) -> Relation {
        Relation {
            name: name.into(),
            schema,
            store: Arc::new(Storage::new(tuples)),
        }
    }

    /// Zero-copy re-labelling: a new relation over the **same** shared tuple
    /// storage, under a different name and schema. The new schema must be
    /// positionally identical in types and declared sizes (only column
    /// names/qualifiers may change) — this is the cheap path behind view
    /// bindings and column renames.
    ///
    /// # Errors
    ///
    /// [`Error::SchemaMismatch`] when arity, a column type, or a declared
    /// byte size differs.
    pub fn rebind(&self, name: impl Into<String>, schema: Schema) -> Result<Relation> {
        if schema.arity() != self.schema.arity() {
            return Err(Error::SchemaMismatch {
                detail: format!(
                    "rebind expects arity {}, got {}",
                    self.schema.arity(),
                    schema.arity()
                ),
            });
        }
        for (old, new) in self.schema.columns().iter().zip(schema.columns()) {
            if old.ty != new.ty || old.byte_size != new.byte_size {
                return Err(Error::SchemaMismatch {
                    detail: format!(
                        "rebind changes column `{}` ({}/{}B) to `{}` ({}/{}B)",
                        old.column, old.ty, old.byte_size, new.column, new.ty, new.byte_size
                    ),
                });
            }
        }
        Ok(Relation {
            name: name.into(),
            schema,
            store: Arc::clone(&self.store),
        })
    }

    /// Whether two relations alias the same shared tuple storage (no data
    /// comparison). Diagnostic hook for the copy-on-write contract.
    #[must_use]
    pub fn shares_tuples_with(&self, other: &Relation) -> bool {
        Arc::ptr_eq(&self.store, &other.store)
    }

    /// Relation name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the relation.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Number of tuples — the paper's cardinality `|R|` (§6.1 statistic 1).
    #[must_use]
    pub fn cardinality(&self) -> usize {
        self.store.tuples.len()
    }

    /// Whether the relation holds no tuples.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.store.tuples.is_empty()
    }

    /// The schema.
    #[must_use]
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The tuples in insertion order.
    #[must_use]
    pub fn tuples(&self) -> &[Tuple] {
        &self.store.tuples
    }

    /// Mutation count of this storage (0 for freshly built relations).
    /// Aliases sharing storage observe the same generation.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.store.generation
    }

    /// The column-major image of the tuples, built on first access and
    /// cached in the shared storage (every alias reuses it).
    #[must_use]
    pub fn columnar(&self) -> Arc<ColumnarBatch> {
        Arc::clone(
            self.store.columnar.get_or_init(|| {
                Arc::new(ColumnarBatch::from_tuples(&self.schema, &self.store.tuples))
            }),
        )
    }

    /// Whether the columnar image has been materialized.
    #[must_use]
    pub fn columnar_built(&self) -> bool {
        self.store.columnar.get().is_some()
    }

    /// Ascending row ids whose `col` value equals `key`, served by the
    /// (lazily built) hash index.
    #[must_use]
    pub fn index_eq_rows(&self, col: usize, key: &Value) -> Vec<u32> {
        self.store
            .lock_indexes()
            .lookup_eq(col, key, &self.store.tuples)
    }

    /// Locks the hash index on `col` for a run of equality probes (one
    /// delta join, one delete). The index is built on the first probe and
    /// then lives in the shared storage, maintained across mutations.
    pub(crate) fn hash_probe(&self, col: usize) -> HashProbe<'_> {
        HashProbe {
            indexes: self.store.lock_indexes(),
            tuples: &self.store.tuples,
            col,
            probes: 0,
            scratch: Vec::new(),
        }
    }

    /// Ascending row ids whose `col` value satisfies `value θ key`, served
    /// by the (lazily built) sorted index.
    #[must_use]
    pub fn index_range_rows(&self, col: usize, op: CompOp, key: &Value) -> Vec<u32> {
        self.store
            .lock_indexes()
            .lookup_range(col, op, key, &self.store.tuples)
    }

    /// Builds the index of `kind` on `col` now (instead of on first probe).
    pub fn warm_index(&self, col: usize, kind: IndexKind) {
        self.store
            .lock_indexes()
            .warm(col, kind, &self.store.tuples);
    }

    /// Whether an index of `kind` exists on `col`.
    #[must_use]
    pub fn has_index(&self, col: usize, kind: IndexKind) -> bool {
        self.store.lock_indexes().has(col, kind)
    }

    /// Index counters for this storage.
    #[must_use]
    pub fn index_stats(&self) -> IndexStats {
        self.store.lock_indexes().stats()
    }

    /// Clears the index hit/build/maintenance counters (not the indexes).
    pub fn reset_index_counters(&self) {
        self.store.lock_indexes().reset_counters();
    }

    /// Inserts a tuple after validating arity and column types. Detaches a
    /// private copy of the tuple storage when it is currently shared, and
    /// incrementally maintains the columnar image and any live indexes.
    ///
    /// # Errors
    ///
    /// [`Error::ArityMismatch`] or [`Error::TypeMismatch`].
    pub fn insert(&mut self, tuple: Tuple) -> Result<()> {
        self.validate(&tuple)?;
        let store = self.storage_mut();
        store.record(std::slice::from_ref(&tuple), 1);
        if let Some(batch) = store.columnar.get_mut() {
            Arc::make_mut(batch).push_row(&tuple);
        }
        unpoisoned(&mut store.indexes).insert_row(&tuple, &store.tuples);
        store.tuples.push(tuple);
        Ok(())
    }

    /// Deletes (one occurrence of) every tuple in `tuples` that is present.
    /// Returns the tuples actually removed, in row order: a requested tuple
    /// the relation does not hold (or holds fewer times than requested) is
    /// missing from it.
    ///
    /// For each distinct requested tuple the *earliest* occurrences are
    /// removed, as many as it was requested. The rows are found by probing
    /// a hash index (built on column 0 when the storage has none) before
    /// anything is touched, so a delete that matches nothing leaves shared
    /// storage shared. The indexes drop only the victims'
    /// entries and renumber none of the others; the tuple vector and the
    /// columnar image compact in place from the first victim.
    pub fn delete(&mut self, tuples: &[Tuple]) -> Vec<Tuple> {
        if tuples.is_empty() || self.store.tuples.is_empty() {
            return Vec::new();
        }
        let removed_rows = self.earliest_rows_of(tuples);
        if removed_rows.is_empty() {
            return Vec::new(); // no copy-on-write detach for a no-op delete
        }
        let store = self.storage_mut();
        unpoisoned(&mut store.indexes).remove_rows(&removed_rows, &store.tuples);
        let removed: Vec<Tuple> = removed_rows
            .iter()
            .map(|&r| std::mem::replace(&mut store.tuples[r as usize], Tuple::new(Vec::new())))
            .collect();
        store.record(&removed, -1);
        compact(&mut store.tuples, &removed_rows);
        if let Some(batch) = store.columnar.get_mut() {
            Arc::make_mut(batch).remove_rows(&removed_rows);
        }
        removed
    }

    /// The storage, for a write: a private copy when another relation
    /// still shares it ([`Arc::make_mut`]), with its generation bumped.
    /// The caller records the tuples it writes ([`Storage::record`]), so
    /// no write leaves stale text. A copy starts with no text; when only
    /// `Weak` handles remain, `make_mut` moves the storage and it keeps
    /// its text and pending tuples.
    fn storage_mut(&mut self) -> &mut Storage {
        let store = Arc::make_mut(&mut self.store);
        store.generation += 1;
        store
    }

    /// Ascending positions of the rows [`Relation::delete`] removes for
    /// `victims`, found by probing the hash index on the lowest hashed
    /// column — built on column 0, through the same lazy build a probe
    /// does, when the relation has none. Only the rows sharing a victim's
    /// key are compared, and no stored tuple is hashed.
    fn earliest_rows_of(&self, victims: &[Tuple]) -> Vec<u32> {
        let mut pending: HashMap<&Tuple, usize> = HashMap::with_capacity(victims.len());
        for t in victims {
            *pending.entry(t).or_insert(0) += 1;
        }
        let stored = &self.store.tuples;
        let mut rows = Vec::new();
        if self.schema.arity() == 0 {
            // No column to index: every stored tuple is the empty tuple,
            // so the earliest rows go, once per empty victim.
            let n = pending.get(&Tuple::new(Vec::new())).map_or(0, |&n| n);
            return (0..u32::try_from(n.min(stored.len())).expect("row id fits u32")).collect();
        }
        let col = self.store.lock_indexes().hash_col().unwrap_or(0);
        let mut probe = self.hash_probe(col);
        for (victim, n) in pending {
            // A victim too short to have the column is in no row.
            let Some(key) = victim.values().get(col) else {
                continue;
            };
            let same = probe
                .rows(key)
                .iter()
                .filter(|&&r| stored[r as usize] == *victim);
            rows.extend(same.take(n));
        }
        rows.sort_unstable();
        rows
    }

    /// Whether `other` holds the same bag of tuples under the same schema:
    /// equal schemas, equal cardinalities, and every tuple as often on one
    /// side as on the other. Names and row order do not matter.
    ///
    /// Replicas that match row for row are settled by one positional
    /// pass. Past the first position where the two differ, the remaining
    /// tuples of both sides are counted in a map hashed with
    /// [`KeyHasher`], so a reordered replica costs one hash per row.
    #[must_use]
    pub fn same_bag(&self, other: &Relation) -> bool {
        if self.schema != other.schema || self.cardinality() != other.cardinality() {
            return false;
        }
        let (mine, theirs) = (&self.store.tuples, &other.store.tuples);
        let start = mine.iter().zip(theirs).take_while(|(a, b)| a == b).count();
        if start == mine.len() {
            return true;
        }
        let mut counts: HashMap<&Tuple, usize, BuildHasherDefault<KeyHasher>> =
            HashMap::with_capacity_and_hasher(mine.len() - start, BuildHasherDefault::default());
        for t in &mine[start..] {
            *counts.entry(t).or_insert(0) += 1;
        }
        // Equal lengths: every tuple of `theirs` taking one of `mine`'s
        // leaves no count over.
        theirs[start..].iter().all(|t| match counts.get_mut(t) {
            Some(n) if *n > 0 => {
                *n -= 1;
                true
            }
            _ => false,
        })
    }

    /// Validates a tuple against the schema without inserting it.
    ///
    /// # Errors
    ///
    /// [`Error::ArityMismatch`] or [`Error::TypeMismatch`].
    pub fn validate(&self, tuple: &Tuple) -> Result<()> {
        validate_against(&self.schema, tuple)
    }

    /// Returns a new relation with duplicate tuples removed (set semantics).
    /// The surviving tuples are sorted, giving a canonical order.
    #[must_use]
    pub fn distinct(&self) -> Relation {
        let set: BTreeSet<Tuple> = self.store.tuples.iter().cloned().collect();
        Relation {
            name: self.name.clone(),
            schema: self.schema.clone(),
            store: Arc::new(Storage::new(set.into_iter().collect())),
        }
    }

    /// `self.distinct().to_string()`: a header line naming this relation,
    /// then its distinct rows in sorted order, one per line.
    ///
    /// The rows are rendered once and then kept up to date in the shared
    /// storage, each line with the count of its tuple's stored copies.
    /// The first call renders them (copying each distinct tuple's values
    /// once) and adds their count to `relational.rows_formatted`. A write
    /// records the tuples it inserts or deletes beside the text, and the
    /// next call folds them into the counts without reading the stored
    /// tuples: only a tuple whose count rises from 0 is rendered, as one
    /// line added to `relational.render_patched_rows`, and one whose count
    /// falls to 0 loses its line. Past one written tuple per eight rows a
    /// write drops the text instead, and the next call renders afresh.
    /// Every call that finds the text, up to date or patched, through this
    /// relation or any alias of its storage, writes its own header, copies
    /// the text and counts one `relational.render_cache_hits`.
    ///
    /// Calls that find the text up to date copy it in parallel; a render
    /// or a fold excludes every other call on the storage, and runs once
    /// however many calls wait for it. A call that finds the lock poisoned
    /// (a fold panicked) drops the text and renders afresh.
    #[must_use]
    pub fn distinct_to_string(&self) -> String {
        let mut out = String::new();
        self.write_kept(&mut out);
        out
    }

    /// Appends [`Relation::distinct_to_string`]'s text to `out` as UTF-8
    /// bytes, copying the kept text once, straight into `out` (a response
    /// frame, say). It finds, patches or renders the text as that call
    /// does and moves the same counters.
    pub fn write_distinct(&self, out: &mut Vec<u8>) {
        self.write_kept(&mut Bytes(out));
    }

    /// The one lookup behind [`Relation::distinct_to_string`] and
    /// [`Relation::write_distinct`]: finds the kept text (folding or
    /// rendering it first when it must) and writes the answer into `out`
    /// under the render lock.
    fn write_kept(&self, out: &mut impl Sink) {
        let counters = crate::index::mirrors();
        if let Ok(kept) = self.store.rendered.read() {
            if let Some(text) = kept.as_ref().filter(|text| text.pending.is_empty()) {
                counters.render_cache_hits.inc();
                return text.write(self, out);
            }
        }
        let mut kept = self.store.rendered.write().unwrap_or_else(|poisoned| {
            let mut kept = poisoned.into_inner();
            // The panicking fold may have left the chunks half-edited.
            *kept = None;
            self.store.rendered.clear_poison();
            kept
        });
        let text = match &mut *kept {
            Some(text) => {
                // Another call may have folded while this one waited.
                if !text.pending.is_empty() {
                    let patched = text.fold();
                    counters.render_patched_rows.add(patched as u64);
                }
                counters.render_cache_hits.inc();
                text
            }
            None => {
                let text = Rendered::of(&self.store.tuples);
                counters.rows_formatted.add(text.rows as u64);
                kept.insert(text)
            }
        };
        text.write(self, out);
    }

    /// Whether the relation contains a tuple equal to `t`.
    #[must_use]
    pub fn contains(&self, t: &Tuple) -> bool {
        self.store.tuples.iter().any(|x| x == t)
    }

    /// Declared tuple width in bytes (schema-based, the paper's `s_R`).
    #[must_use]
    pub fn tuple_byte_size(&self) -> u64 {
        self.schema.tuple_byte_size()
    }

    /// Total declared size of the extent in bytes.
    #[must_use]
    pub fn extent_byte_size(&self) -> u64 {
        self.tuple_byte_size() * self.store.tuples.len() as u64
    }
}

/// A mark of one extent as it stands now, for checkpoint diffing:
/// [`ExtentHandle::is_of`] tells whether a relation still encodes the same
/// — same name, same schema, same storage allocation — without pinning
/// that storage. The handle holds a `Weak`, so a write to the relation
/// moves its storage to a new allocation instead of copying it (see
/// [`Arc::make_mut`]), and the written relation then reads as changed. A
/// relation dropped and rebuilt under the same name is a new allocation,
/// so it reads as changed too.
#[derive(Debug, Clone)]
pub struct ExtentHandle {
    name: String,
    schema: Schema,
    store: Weak<Storage>,
}

impl ExtentHandle {
    /// The handle of `rel` as it stands now.
    #[must_use]
    pub fn of(rel: &Relation) -> ExtentHandle {
        ExtentHandle {
            name: rel.name.clone(),
            schema: rel.schema.clone(),
            store: Arc::downgrade(&rel.store),
        }
    }

    /// Whether `rel` holds what this handle's relation held when the handle
    /// was taken. The `Weak` keeps its allocation reserved, so no other
    /// storage can have its address.
    #[must_use]
    pub fn is_of(&self, rel: &Relation) -> bool {
        std::ptr::eq(self.store.as_ptr(), Arc::as_ptr(&rel.store))
            && self.name == rel.name
            && self.schema == rel.schema
    }
}

/// A run of equality probes against one column's hash index: the index
/// lock is taken once, row ids are borrowed from the index (or mapped into
/// one reused buffer while deleted ids are listed), not allocated per
/// probe, and the probes are added to the hit counters once, when the run
/// ends.
pub(crate) struct HashProbe<'a> {
    indexes: MutexGuard<'a, IndexSet>,
    tuples: &'a [Tuple],
    col: usize,
    probes: u64,
    scratch: Vec<u32>,
}

impl HashProbe<'_> {
    /// Ascending row ids whose indexed column equals `key`.
    pub(crate) fn rows(&mut self, key: &Value) -> &[u32] {
        self.probes += 1;
        self.indexes
            .eq_rows(self.col, key, self.tuples, &mut self.scratch)
    }
}

impl Drop for HashProbe<'_> {
    fn drop(&mut self) {
        self.indexes.count_hits(self.probes);
    }
}

/// The indexes of a storage being written. A poisoned lock (see
/// [`Storage::lock_indexes`]) is replaced by a fresh one holding no index.
fn unpoisoned(indexes: &mut Mutex<IndexSet>) -> &mut IndexSet {
    if indexes.is_poisoned() {
        *indexes = Mutex::default();
    }
    indexes.get_mut().unwrap_or_else(PoisonError::into_inner)
}

/// Schema validation shared by [`Relation::validate`] and the one-pass
/// [`Relation::with_tuples`] constructor.
fn validate_against(schema: &Schema, tuple: &Tuple) -> Result<()> {
    if tuple.arity() != schema.arity() {
        return Err(Error::ArityMismatch {
            expected: schema.arity(),
            got: tuple.arity(),
        });
    }
    for (v, c) in tuple.values().iter().zip(schema.columns()) {
        if v.data_type() != c.ty {
            return Err(Error::TypeMismatch {
                left: c.ty,
                right: v.data_type(),
                context: "tuple insertion",
            });
        }
    }
    Ok(())
}

/// Writes the header line of `relation` holding `rows` tuples: the first
/// line of both `impl Display for Relation` and
/// [`Relation::distinct_to_string`].
fn write_header(out: &mut impl fmt::Write, relation: &Relation, rows: usize) -> fmt::Result {
    writeln!(out, "{}{} [{rows} tuples]", relation.name, relation.schema)
}

/// Writes the line of one row of kept text, `format!("  {tuple}\n")`
/// byte for byte: ints and texts directly, floats and bools through
/// their `Display`.
fn write_line(out: &mut String, tuple: &[Value]) {
    out.push_str("  (");
    for (i, v) in tuple.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        match v {
            Value::Int(n) => {
                // The decimal digits of `|n|`, last first, into the tail.
                let mut digits = [0u8; 20];
                let mut at = digits.len();
                let mut rest = n.unsigned_abs();
                loop {
                    at -= 1;
                    digits[at] = b'0' + (rest % 10) as u8;
                    rest /= 10;
                    if rest == 0 {
                        break;
                    }
                }
                if *n < 0 {
                    out.push('-');
                }
                out.extend(digits[at..].iter().map(|&d| char::from(d)));
            }
            Value::Text(text) => {
                out.push('\'');
                out.push_str(text);
                out.push('\'');
            }
            Value::Float(_) | Value::Bool(_) => {
                // Writing into a `String` cannot fail.
                let _ = write!(out, "{v}");
            }
        }
    }
    out.push_str(")\n");
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_header(f, self, self.store.tuples.len())?;
        for t in &self.store.tuples {
            writeln!(f, "  {t}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tup;
    use crate::types::DataType;

    fn r() -> Relation {
        Relation::with_tuples(
            "R",
            Schema::of(&[("A", DataType::Int), ("B", DataType::Text)]).unwrap(),
            vec![tup![1, "x"], tup![2, "y"], tup![1, "x"]],
        )
        .unwrap()
    }

    #[test]
    fn insert_validates_arity() {
        let mut rel = r();
        let e = rel.insert(tup![1]).unwrap_err();
        assert!(matches!(
            e,
            Error::ArityMismatch {
                expected: 2,
                got: 1
            }
        ));
    }

    #[test]
    fn insert_validates_types() {
        let mut rel = r();
        let e = rel.insert(tup!["oops", "x"]).unwrap_err();
        assert!(matches!(e, Error::TypeMismatch { .. }));
    }

    #[test]
    fn with_tuples_rejects_bad_middle_tuple_without_partial_state() {
        let schema = Schema::of(&[("A", DataType::Int)]).unwrap();
        let e = Relation::with_tuples("R", schema.clone(), vec![tup![1], tup!["bad"], tup![3]])
            .unwrap_err();
        assert!(matches!(e, Error::TypeMismatch { .. }));
        // The failed constructor leaves nothing behind; an identically
        // named relation builds cleanly from scratch.
        let rel = Relation::with_tuples("R", schema, vec![tup![1], tup![3]]).unwrap();
        assert_eq!(rel.cardinality(), 2);
        assert_eq!(rel.generation(), 0, "construction is not a mutation");
    }

    #[test]
    fn distinct_removes_duplicates() {
        let rel = r();
        assert_eq!(rel.cardinality(), 3);
        assert_eq!(rel.distinct().cardinality(), 2);
        assert_eq!(rel.distinct().cardinality(), 2);
    }

    #[test]
    fn delete_removes_one_occurrence_each() {
        let mut rel = r();
        let removed = rel.delete(&[tup![1, "x"], tup![9, "z"]]);
        assert_eq!(
            removed,
            vec![tup![1, "x"]],
            "the absent tuple is not reported"
        );
        assert_eq!(rel.cardinality(), 2);
        // The second duplicate survives.
        assert!(rel.contains(&tup![1, "x"]));
    }

    #[test]
    fn delete_honors_request_multiplicity() {
        let mut rel = r();
        // Two requests for (1, 'x') remove both occurrences; the extra
        // request for (2, 'y') removes its single occurrence once.
        let removed = rel.delete(&[tup![1, "x"], tup![2, "y"], tup![1, "x"], tup![2, "y"]]);
        assert_eq!(removed.len(), 3);
        assert!(rel.is_empty());
    }

    #[test]
    fn delete_removes_earliest_occurrences_in_order() {
        let mut rel = Relation::with_tuples(
            "R",
            Schema::of(&[("A", DataType::Int)]).unwrap(),
            vec![tup![1], tup![2], tup![1], tup![3], tup![1]],
        )
        .unwrap();
        assert_eq!(rel.delete(&[tup![1], tup![1]]), vec![tup![1], tup![1]]);
        assert_eq!(rel.tuples(), &[tup![2], tup![3], tup![1]]);
    }

    #[test]
    fn a_relation_without_columns_deletes_its_earliest_empty_rows() {
        let empty = || Tuple::new(Vec::new());
        let mut rel =
            Relation::with_tuples("Z", Schema::default(), vec![empty(), empty(), empty()]).unwrap();
        assert!(rel.delete(&[tup![1]]).is_empty(), "no row holds a value");
        assert_eq!(rel.delete(&[empty(), empty()]), vec![empty(), empty()]);
        assert_eq!(rel.cardinality(), 1);
    }

    #[test]
    fn contains_checks_membership() {
        let rel = r();
        assert!(rel.contains(&tup![2, "y"]));
        assert!(!rel.contains(&tup![2, "x"]));
    }

    #[test]
    fn byte_sizes() {
        let rel = r();
        assert_eq!(rel.tuple_byte_size(), 28); // INT 8 + TEXT 20
        assert_eq!(rel.extent_byte_size(), 3 * 28);
    }

    #[test]
    fn distinct_is_sorted_canonically() {
        let rel = Relation::with_tuples(
            "R",
            Schema::of(&[("A", DataType::Int)]).unwrap(),
            vec![tup![3], tup![1], tup![2], tup![1]],
        )
        .unwrap();
        let d = rel.distinct();
        assert_eq!(d.tuples(), &[tup![1], tup![2], tup![3]]);
    }

    #[test]
    fn distinct_to_string_renders_distinct_byte_for_byte() {
        let ints = Relation::with_tuples(
            "R",
            Schema::of(&[("A", DataType::Int)]).unwrap(),
            vec![tup![3], tup![1], tup![2], tup![1], tup![3]],
        )
        .unwrap();
        let empty = Relation::empty("E", Schema::of(&[("A", DataType::Int)]).unwrap());
        let mixed = Relation::with_tuples(
            "M",
            Schema::of(&[("A", DataType::Int), ("B", DataType::Text)]).unwrap(),
            vec![tup![2, "b"], tup![1, "z"], tup![2, "a"], tup![1, "z"]],
        )
        .unwrap();
        let no_columns = Relation::with_tuples(
            "Z",
            Schema::default(),
            vec![Tuple::new(Vec::new()), Tuple::new(Vec::new())],
        )
        .unwrap();
        for rel in [ints, empty, r(), mixed, no_columns] {
            assert_eq!(rel.distinct_to_string(), rel.distinct().to_string());
        }
    }

    #[test]
    fn write_distinct_appends_the_answer_behind_what_the_buffer_holds() {
        let mut rel = Relation::with_tuples(
            "R",
            Schema::of(&[("A", DataType::Int), ("B", DataType::Text)]).unwrap(),
            (0..600).map(|i| tup![i % 300, "é, ''x''"]).collect(),
        )
        .unwrap();
        // Rendered by the first call, a hit on the second, patched on the
        // third.
        for step in 0..3 {
            if step == 2 {
                rel.insert(tup![7, "new"]).unwrap();
            }
            let mut out = b"prefix".to_vec();
            rel.write_distinct(&mut out);
            let want = rel.distinct().to_string();
            assert_eq!(&out[..6], b"prefix");
            assert_eq!(std::str::from_utf8(&out[6..]).unwrap(), want);
            assert_eq!(rel.distinct_to_string(), want);
        }
    }

    #[test]
    fn a_rebind_renders_its_own_header_over_the_shared_rows() {
        let mut rel = r();
        let mut alias = rel
            .rebind(
                "V",
                Schema::of(&[("X", DataType::Int), ("Y", DataType::Text)]).unwrap(),
            )
            .unwrap();
        // The first render keeps the rows in the shared storage; the alias
        // answers from them under its own name and schema.
        assert_eq!(rel.distinct_to_string(), rel.distinct().to_string());
        assert_eq!(alias.distinct_to_string(), alias.distinct().to_string());
        assert!(alias
            .distinct_to_string()
            .starts_with("V(X INT, Y TEXT) [2 tuples]\n"));

        // A write to one alias detaches it and leaves the other's answer.
        let (before_rel, before_alias) = (rel.distinct_to_string(), alias.distinct_to_string());
        alias.insert(tup![0, "w"]).unwrap();
        assert_eq!(rel.distinct_to_string(), before_rel);
        assert_ne!(alias.distinct_to_string(), before_alias);
        assert_eq!(alias.distinct_to_string(), alias.distinct().to_string());
        assert!(rel.delete(&[tup![2, "y"]]).len() == 1);
        assert_eq!(rel.distinct_to_string(), rel.distinct().to_string());
        assert_eq!(alias.distinct_to_string(), alias.distinct().to_string());
        assert!(alias.distinct_to_string().contains("(2, 'y')"));
    }

    /// `n` one-column rows `0, 10, 20, …`, rendered: `n / CHUNK_ROWS`
    /// chunks.
    fn rendered_tens(n: i64) -> Relation {
        let rel = Relation::with_tuples(
            "E",
            Schema::of(&[("A", DataType::Int)]).unwrap(),
            (0..n).map(|i| tup![10 * i]).collect(),
        )
        .unwrap();
        let _ = rel.distinct_to_string();
        rel
    }

    /// The line count of each kept chunk, and how many writes are pending.
    fn kept(rel: &Relation) -> Option<(Vec<usize>, usize)> {
        let kept = rel.store.rendered.read().unwrap();
        kept.as_ref().map(|text| {
            (
                text.chunks.iter().map(|c| c.lines.len()).collect(),
                text.pending.len(),
            )
        })
    }

    #[test]
    fn a_fold_splits_a_chunk_grown_past_twice_its_size() {
        let rows = i64::try_from(CHUNK_ROWS).unwrap();
        let mut rel = rendered_tens(4 * rows);
        assert_eq!(kept(&rel), Some((vec![CHUNK_ROWS; 4], 0)));
        // New values inside the second chunk's range, 100 per fold.
        for round in 0..3 {
            for k in (100 * round..).take(100) {
                rel.insert(tup![10 * (rows + k / 2) + 1 + k % 2]).unwrap();
            }
            assert_eq!(kept(&rel).unwrap().1, 100, "recorded, not dropped");
            assert_eq!(rel.distinct_to_string(), rel.distinct().to_string());
        }
        // 256 → 356 → 456 lines stay one chunk; 556 is cut in three.
        assert_eq!(
            kept(&rel),
            Some((vec![CHUNK_ROWS, 186, 186, 184, CHUNK_ROWS, CHUNK_ROWS], 0))
        );
    }

    #[test]
    fn a_fold_drops_the_chunks_it_empties() {
        let rows = i64::try_from(CHUNK_ROWS).unwrap();
        let mut rel = rendered_tens(16 * rows);
        // The first chunk and the third, each in one delete: an eighth of
        // the rows in all.
        for chunk in [0, 2] {
            let victims: Vec<Tuple> = (chunk * rows..(chunk + 1) * rows)
                .map(|i| tup![10 * i])
                .collect();
            assert_eq!(rel.delete(&victims).len(), CHUNK_ROWS);
        }
        assert_eq!(kept(&rel).unwrap().1, 2 * CHUNK_ROWS);
        assert_eq!(rel.distinct_to_string(), rel.distinct().to_string());
        assert_eq!(kept(&rel), Some((vec![CHUNK_ROWS; 14], 0)));
        // A row below every kept chunk lands in the new first one.
        rel.insert(tup![-1]).unwrap();
        assert_eq!(rel.distinct_to_string(), rel.distinct().to_string());
        let mut lines = vec![CHUNK_ROWS; 14];
        lines[0] += 1;
        assert_eq!(kept(&rel), Some((lines, 0)));
    }

    #[test]
    fn write_line_matches_display_byte_for_byte() {
        let values = [
            Value::Int(i64::MIN),
            Value::Int(i64::MAX),
            Value::Int(-1),
            Value::Int(-40),
            Value::Int(0),
            Value::Int(9),
            Value::Int(10),
            Value::from(""),
            Value::from("it's"),
            Value::from("', '"),
            Value::from("two\nlines"),
            Value::from("naïve ☃ 日本"),
            Value::float(-2.5).unwrap(),
            Value::float(1e21).unwrap(),
            Value::Bool(true),
        ];
        let mut tuples: Vec<Tuple> = values.iter().map(|v| Tuple::new(vec![v.clone()])).collect();
        tuples.push(Tuple::new(Vec::new()));
        tuples.push(Tuple::new(values.to_vec()));
        for t in &tuples {
            let mut line = String::from("before\n");
            write_line(&mut line, t.values());
            assert_eq!(line, format!("before\n  {t}\n"));
        }
    }

    #[test]
    fn a_poisoned_render_lock_drops_the_text_and_renders_afresh() {
        let poison = |rel: &Relation| {
            std::thread::scope(|s| {
                let panicked = s
                    .spawn(|| {
                        let _kept = rel.store.rendered.write().unwrap();
                        panic!("a fold panicked");
                    })
                    .join();
                assert!(panicked.is_err());
            });
            assert!(rel.store.rendered.is_poisoned());
        };
        let mut rel = rendered_tens(2 * i64::try_from(CHUNK_ROWS).unwrap());
        // A read on the poisoned lock.
        poison(&rel);
        assert_eq!(rel.distinct_to_string(), rel.distinct().to_string());
        assert!(!rel.store.rendered.is_poisoned());
        assert_eq!(kept(&rel).unwrap().1, 0, "rendered afresh and kept");
        // A write on the poisoned lock.
        poison(&rel);
        rel.insert(tup![5]).unwrap();
        assert_eq!(kept(&rel), None, "the write dropped the text");
        assert_eq!(rel.distinct_to_string(), rel.distinct().to_string());
        rel.insert(tup![15]).unwrap();
        assert_eq!(kept(&rel).unwrap().1, 1, "the next write is recorded");
        assert_eq!(rel.distinct_to_string(), rel.distinct().to_string());
    }

    #[test]
    fn a_fold_edits_single_lines_and_keeps_counts() {
        let mut rel = rendered_tens(2 * i64::try_from(CHUNK_ROWS).unwrap());
        let patched = |rel: &Relation| {
            let kept = rel.store.rendered.read().unwrap();
            let text = kept.as_ref().unwrap();
            let counts: usize = text
                .chunks
                .iter()
                .flat_map(|c| c.lines.iter().map(|line| line.count))
                .sum();
            (text.rows, counts)
        };
        // Two copies of a stored row and one of a new row, then drain
        // the stored row: its line goes only with its last copy.
        rel.insert(tup![20]).unwrap();
        rel.insert(tup![20]).unwrap();
        rel.insert(tup![21]).unwrap();
        assert_eq!(rel.distinct_to_string(), rel.distinct().to_string());
        assert_eq!(patched(&rel), (2 * CHUNK_ROWS + 1, 2 * CHUNK_ROWS + 3));
        for left in [2, 1, 0] {
            assert_eq!(rel.delete(&[tup![20]]).len(), 1);
            assert_eq!(rel.distinct_to_string(), rel.distinct().to_string());
            assert_eq!(rel.distinct_to_string().contains("  (20)\n"), left > 0);
        }
        // An insert and a delete of one new row in one fold cancel.
        rel.insert(tup![33]).unwrap();
        assert_eq!(rel.delete(&[tup![33]]).len(), 1);
        assert_eq!(rel.distinct_to_string(), rel.distinct().to_string());
        assert_eq!(patched(&rel), (2 * CHUNK_ROWS, 2 * CHUNK_ROWS));
    }

    #[test]
    fn a_detach_leaves_the_copy_with_no_text() {
        let mut rel = rendered_tens(2 * i64::try_from(CHUNK_ROWS).unwrap());
        let mut copy = rel.clone();
        copy.insert(tup![1]).unwrap();
        assert!(!copy.shares_tuples_with(&rel));
        assert_eq!(kept(&copy), None, "a detach copies no text");
        assert_eq!(kept(&rel).unwrap().1, 0, "the original's text stands");
        assert_eq!(copy.distinct_to_string(), copy.distinct().to_string());
        // With only a `Weak` left, the write moves the storage: the text
        // and the recorded tuple go with it.
        let handle = ExtentHandle::of(&rel);
        rel.insert(tup![3]).unwrap();
        assert!(!handle.is_of(&rel));
        assert_eq!(kept(&rel).unwrap().1, 1);
        assert_eq!(rel.distinct_to_string(), rel.distinct().to_string());
    }

    #[test]
    fn clone_shares_storage_until_mutation() {
        let original = r();
        let mut copy = original.clone();
        assert!(copy.shares_tuples_with(&original), "clone is zero-copy");

        copy.insert(tup![7, "z"]).unwrap();
        assert!(
            !copy.shares_tuples_with(&original),
            "insert detaches a private copy"
        );
        assert_eq!(original.cardinality(), 3, "original unaffected");
        assert_eq!(copy.cardinality(), 4);
        assert_eq!(copy.generation(), original.generation() + 1);
    }

    #[test]
    fn delete_copy_on_write_semantics() {
        let original = r();
        let mut copy = original.clone();
        // A delete that matches nothing must not detach the storage.
        assert!(copy.delete(&[tup![9, "q"]]).is_empty());
        assert!(copy.shares_tuples_with(&original));
        // A real delete detaches and leaves the original whole.
        assert_eq!(copy.delete(&[tup![2, "y"]]).len(), 1);
        assert!(!copy.shares_tuples_with(&original));
        assert!(original.contains(&tup![2, "y"]));
        assert!(!copy.contains(&tup![2, "y"]));
    }

    #[test]
    fn rebind_shares_storage_and_checks_types() {
        let rel = r();
        let bound = rel
            .rebind(
                "X",
                Schema::of(&[("A", DataType::Int), ("B", DataType::Text)])
                    .unwrap()
                    .qualify("X"),
            )
            .unwrap();
        assert!(bound.shares_tuples_with(&rel));
        assert_eq!(bound.name(), "X");
        // Arity and type changes are rejected.
        assert!(rel
            .rebind("X", Schema::of(&[("A", DataType::Int)]).unwrap())
            .is_err());
        assert!(rel
            .rebind(
                "X",
                Schema::of(&[("A", DataType::Text), ("B", DataType::Text)]).unwrap()
            )
            .is_err());
    }

    #[test]
    fn columnar_image_is_cached_and_shared() {
        let rel = r();
        assert!(!rel.columnar_built());
        let b1 = rel.columnar();
        assert!(rel.columnar_built());
        let alias = rel.rebind("X", rel.schema().clone().qualify("X")).unwrap();
        let b2 = alias.columnar();
        assert!(Arc::ptr_eq(&b1, &b2), "aliases reuse one batch");
        assert_eq!(b1.rows(), 3);
    }

    #[test]
    fn columnar_image_tracks_mutations() {
        let mut rel = r();
        let _ = rel.columnar();
        rel.insert(tup![7, "q"]).unwrap();
        assert_eq!(rel.columnar().rows(), 4, "insert maintains the batch");
        rel.delete(&[tup![2, "y"]]);
        let batch = rel.columnar();
        assert_eq!(batch.rows(), 3, "delete maintains the batch");
        // Batch contents match the row storage exactly.
        assert_eq!(
            *batch,
            ColumnarBatch::from_tuples(rel.schema(), rel.tuples())
        );
    }

    #[test]
    fn indexes_survive_copy_on_write_detach() {
        let rel = r();
        rel.warm_index(0, IndexKind::Hash);
        let mut copy = rel.clone();
        copy.insert(tup![1, "w"]).unwrap();
        assert!(copy.has_index(0, IndexKind::Hash), "detach keeps indexes");
        assert_eq!(copy.index_eq_rows(0, &Value::Int(1)), vec![0, 2, 3]);
        // The original is untouched.
        assert_eq!(rel.index_eq_rows(0, &Value::Int(1)), vec![0, 2]);
    }

    #[test]
    fn a_poisoned_index_lock_drops_the_indexes_and_answers_as_before() {
        let poison = |rel: &Relation| {
            let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _indexes = rel.store.indexes.lock().unwrap();
                panic!("a probe panicked");
            }));
            assert!(panicked.is_err());
            assert!(rel.store.indexes.is_poisoned());
        };
        let rows = |rel: &Relation| [1, 2, 3].map(|k| rel.index_eq_rows(0, &Value::Int(k)));
        let (mut rel, mut twin) = (r(), r());
        rel.warm_index(0, IndexKind::Hash);
        twin.warm_index(0, IndexKind::Hash);
        // A probe.
        poison(&rel);
        assert_eq!(rows(&rel), rows(&twin));
        assert!(!rel.store.indexes.is_poisoned());
        // An insert into unshared storage.
        poison(&rel);
        rel.insert(tup![3, "w"]).unwrap();
        twin.insert(tup![3, "w"]).unwrap();
        assert_eq!(rel.tuples(), twin.tuples());
        assert_eq!(rows(&rel), rows(&twin));
        // A delete.
        poison(&rel);
        assert_eq!(rel.delete(&[tup![1, "x"]]), twin.delete(&[tup![1, "x"]]));
        assert_eq!(rel.tuples(), twin.tuples());
        assert_eq!(rows(&rel), rows(&twin));
        // A detach clones the poisoned storage.
        poison(&rel);
        let (mut copy, mut twin_copy) = (rel.clone(), twin.clone());
        copy.insert(tup![2, "v"]).unwrap();
        twin_copy.insert(tup![2, "v"]).unwrap();
        assert_eq!(copy.tuples(), twin_copy.tuples());
        assert_eq!(rows(&copy), rows(&twin_copy));
        assert_eq!(rows(&rel), rows(&twin));
        assert!(!rel.store.indexes.is_poisoned());
    }

    #[test]
    fn index_lookup_matches_scan_after_mutations() {
        let mut rel = r();
        rel.warm_index(0, IndexKind::Hash);
        rel.warm_index(0, IndexKind::Sorted);
        rel.insert(tup![2, "z"]).unwrap();
        rel.delete(&[tup![1, "x"]]);
        let scan: Vec<u32> = rel
            .tuples()
            .iter()
            .enumerate()
            .filter(|(_, t)| t.get(0) == &Value::Int(2))
            .map(|(i, _)| u32::try_from(i).unwrap())
            .collect();
        assert_eq!(rel.index_eq_rows(0, &Value::Int(2)), scan);
        assert_eq!(rel.index_range_rows(0, CompOp::Ge, &Value::Int(2)), scan);
    }

    #[test]
    fn first_lazy_text_probe_hits_the_rows_the_build_interns() {
        // Regression: the lazy first build is what interns the stored
        // text keys, so computing the (non-inserting) probe key before
        // the build spuriously missed. The key must be unique to this
        // test — any other interning of it would mask the bug.
        let key = "first-lazy-probe-regression-key-§";
        let rel = Relation::with_tuples(
            "R",
            Schema::of(&[("A", DataType::Int), ("B", DataType::Text)]).unwrap(),
            vec![tup![1, "other"], tup![2, key], tup![3, key]],
        )
        .unwrap();
        assert_eq!(rel.index_eq_rows(1, &Value::from(key)), vec![1, 2]);
    }
}
