//! Named, typed, in-memory relations over shared tuple storage.

use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::hash::BuildHasherDefault;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, Weak};

use crate::column::{compact, ColumnarBatch};
use crate::error::{Error, Result};
use crate::exec::KeyHasher;
use crate::index::{IndexKind, IndexSet, IndexStats};
use crate::predicate::CompOp;
use crate::schema::Schema;
use crate::tuple::Tuple;
use crate::types::Value;

/// Shared physical storage behind a [`Relation`]: the row-ordered tuple
/// vector plus the lazily built columnar image and secondary indexes.
///
/// The caches live *inside* the shared storage so that every zero-copy
/// alias of a relation (clones, rebinds, plan bindings) reuses one
/// columnar batch and one index set. Mutations go through
/// [`Arc::make_mut`]. Only a second *strong* alias makes it detach —
/// clone the caches along with the rows and then maintain them
/// incrementally, so a warmed index survives copy-on-write instead of
/// being rebuilt; an [`ExtentHandle`] is a `Weak` and never causes one.
/// Each detach adds its rows to `relational.detach_rows`.
#[derive(Debug, Default)]
struct Storage {
    tuples: Vec<Tuple>,
    /// Mutation counter: bumped by `insert`/`delete` on this storage.
    generation: u64,
    /// Column-major image, built on first columnar access.
    columnar: OnceLock<Arc<ColumnarBatch>>,
    /// Secondary indexes, built on first probe.
    indexes: Mutex<IndexSet>,
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
            indexes: Mutex::new(self.indexes.lock().expect("index lock poisoned").clone()),
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

    fn lock_indexes(&self) -> MutexGuard<'_, IndexSet> {
        self.store.indexes.lock().expect("index lock poisoned")
    }

    /// Ascending row ids whose `col` value equals `key`, served by the
    /// (lazily built) hash index.
    #[must_use]
    pub fn index_eq_rows(&self, col: usize, key: &Value) -> Vec<u32> {
        self.lock_indexes().lookup_eq(col, key, &self.store.tuples)
    }

    /// Locks the hash index on `col` for a run of equality probes (one
    /// delta join, one delete). The index is built on the first probe and
    /// then lives in the shared storage, maintained across mutations.
    pub(crate) fn hash_probe(&self, col: usize) -> HashProbe<'_> {
        HashProbe {
            indexes: self.lock_indexes(),
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
        self.lock_indexes()
            .lookup_range(col, op, key, &self.store.tuples)
    }

    /// Builds the index of `kind` on `col` now (instead of on first probe).
    pub fn warm_index(&self, col: usize, kind: IndexKind) {
        self.lock_indexes().warm(col, kind, &self.store.tuples);
    }

    /// Whether an index of `kind` exists on `col`.
    #[must_use]
    pub fn has_index(&self, col: usize, kind: IndexKind) -> bool {
        self.lock_indexes().has(col, kind)
    }

    /// Index counters for this storage.
    #[must_use]
    pub fn index_stats(&self) -> IndexStats {
        self.lock_indexes().stats()
    }

    /// Clears the index hit/build/maintenance counters (not the indexes).
    pub fn reset_index_counters(&self) {
        self.lock_indexes().reset_counters();
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
        let store = Arc::make_mut(&mut self.store);
        store.generation += 1;
        if let Some(batch) = store.columnar.get_mut() {
            Arc::make_mut(batch).push_row(&tuple);
        }
        store
            .indexes
            .get_mut()
            .expect("index lock poisoned")
            .insert_row(&tuple, &store.tuples);
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
        let store = Arc::make_mut(&mut self.store);
        store.generation += 1;
        store
            .indexes
            .get_mut()
            .expect("index lock poisoned")
            .remove_rows(&removed_rows, &store.tuples);
        let removed = removed_rows
            .iter()
            .map(|&r| std::mem::replace(&mut store.tuples[r as usize], Tuple::new(Vec::new())))
            .collect();
        compact(&mut store.tuples, &removed_rows);
        if let Some(batch) = store.columnar.get_mut() {
            Arc::make_mut(batch).remove_rows(&removed_rows);
        }
        removed
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
        let col = self.lock_indexes().hash_col().unwrap_or(0);
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

    /// `self.distinct().to_string()`, rendered from borrowed tuples: no
    /// tuple is cloned and no relation is built.
    #[must_use]
    pub fn distinct_to_string(&self) -> String {
        let rows: BTreeSet<&Tuple> = self.store.tuples.iter().collect();
        let mut out = String::new();
        // Writing into a `String` cannot fail.
        let _ = write_rows(&mut out, self, rows.len(), rows);
        out
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

/// Writes a header line for `relation` holding `rows` tuples, then one
/// line per tuple: the text of both `impl Display for Relation` and
/// [`Relation::distinct_to_string`].
fn write_rows<'a>(
    out: &mut impl fmt::Write,
    relation: &Relation,
    rows: usize,
    tuples: impl IntoIterator<Item = &'a Tuple>,
) -> fmt::Result {
    writeln!(out, "{}{} [{rows} tuples]", relation.name, relation.schema)?;
    for t in tuples {
        writeln!(out, "  {t}")?;
    }
    Ok(())
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_rows(f, self, self.store.tuples.len(), self.store.tuples.iter())
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
        for rel in [ints, empty, r(), mixed] {
            assert_eq!(rel.distinct_to_string(), rel.distinct().to_string());
        }
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
