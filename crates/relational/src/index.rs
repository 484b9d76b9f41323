//! Secondary indexes over relation storage.
//!
//! Two physical index kinds back the planner's [`IndexScan`] operator
//! (`crate::plan`): a [`HashIndex`] answering equality probes over the
//! scalar key encoding of [`crate::column`], and a [`SortedIndex`] — row
//! ids ordered by column value — answering range probes. The hash index
//! also serves the view maintainer's site-side delta join
//! (`crate::exec::join_with_counts`) and `Relation::delete`. Both are built
//! lazily the first time they are probed, cached in the relation's
//! shared storage, and **maintained incrementally** across
//! `insert`/`delete` rather than rebuilt, the same policy the MKB inverted
//! indexes established for metadata.
//!
//! Entries hold *index ids*, not row positions. An insert appends an id
//! larger than any held; a delete removes only its victims' entries and
//! records their ids in one ascending list of ids deleted since the last
//! renumber. A probe maps id `e` to the position `e − (listed ids below
//! e)` — the identity while the list is empty — so a delete renumbers no
//! surviving entry. Once the list passes [`RENUMBER_AT`] ids, one pass
//! rewrites every entry to its position and clears the list (positional
//! deltas, Héman et al., SIGMOD 2010, applied to the indexes alone).
//!
//! Every result is returned in ascending row order, so an index-backed
//! scan yields tuples in exactly the order a full scan would — the
//! byte-identity contract the differential suites pin.

use std::cmp::Ordering;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::hash::BuildHasherDefault;
use std::sync::{Arc, OnceLock};

use eve_trace::Counter;

use crate::column::scalar_key;
use crate::exec::KeyHasher;
use crate::intern;
use crate::predicate::CompOp;
use crate::tuple::Tuple;
use crate::types::Value;

/// The two physical index kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum IndexKind {
    /// Hash map from scalar key to row ids — equality probes.
    Hash,
    /// Row ids sorted by column value — range probes.
    Sorted,
}

/// Equality index: scalar key → ascending row ids.
#[derive(Debug, Clone, Default, PartialEq)]
struct HashIndex {
    map: HashMap<u64, RowIds, BuildHasherDefault<KeyHasher>>,
}

/// The ascending row ids of one key. A key held by one row keeps its id
/// inline, so a unique column's index allocates, clones and frees no
/// per-key vector.
#[derive(Debug, Clone, PartialEq)]
enum RowIds {
    One(u32),
    Many(Vec<u32>),
}

impl RowIds {
    fn as_slice(&self) -> &[u32] {
        match self {
            RowIds::One(row) => std::slice::from_ref(row),
            RowIds::Many(rows) => rows,
        }
    }

    fn as_mut_slice(&mut self) -> &mut [u32] {
        match self {
            RowIds::One(row) => std::slice::from_mut(row),
            RowIds::Many(rows) => rows,
        }
    }

    /// Appends a row id larger than every one held.
    fn push(&mut self, row: u32) {
        match self {
            RowIds::One(first) => *self = RowIds::Many(vec![*first, row]),
            RowIds::Many(rows) => rows.push(row),
        }
    }

    /// Removes `row` if held; returns whether no id is left.
    fn remove(&mut self, row: u32) -> bool {
        match self {
            RowIds::One(held) => *held == row,
            RowIds::Many(rows) => {
                if let Ok(at) = rows.binary_search(&row) {
                    rows.remove(at);
                }
                if let [last] = rows[..] {
                    *self = RowIds::One(last);
                }
                self.as_slice().is_empty()
            }
        }
    }
}

impl HashIndex {
    /// Appends `row` under `key`.
    fn add(&mut self, key: u64, row: u32) {
        self.map
            .entry(key)
            .and_modify(|rows| rows.push(row))
            .or_insert(RowIds::One(row));
    }

    /// Removes `row` from under `key`, dropping the key once it holds none.
    fn remove(&mut self, key: u64, row: u32) {
        if let Entry::Occupied(mut rows) = self.map.entry(key) {
            if rows.get_mut().remove(row) {
                rows.remove();
            }
        }
    }
}

/// Range index: row ids ordered by `(column value, row id)`.
#[derive(Debug, Clone, Default, PartialEq)]
struct SortedIndex {
    rows: Vec<u32>,
}

/// Process-wide mirrors of the per-relation counters, in the global
/// registry `index.` family. Per-instance [`IndexStats`] stay exact for
/// the engine's per-relation rollup; these aggregate across all
/// relations for the `metrics` surface. The storage work counters
/// (`relational.`) register with them, so a process that touches an
/// index sees them all.
pub(crate) struct IndexCounters {
    builds: Arc<Counter>,
    hits: Arc<Counter>,
    maintenance: Arc<Counter>,
    renumbered: Arc<Counter>,
    /// Rows deep-copied by copy-on-write detaches of relation storage.
    pub(crate) detach_rows: Arc<Counter>,
    /// Distinct renders answered from the storage's rendered rows, up
    /// to date or patched.
    pub(crate) render_cache_hits: Arc<Counter>,
    /// Rows re-rendered by distinct renders that folded pending writes
    /// into the storage's rendered rows.
    pub(crate) render_patched_rows: Arc<Counter>,
    /// Rows written by distinct renders that found no rendered rows.
    pub(crate) rows_formatted: Arc<Counter>,
}

pub(crate) fn mirrors() -> &'static IndexCounters {
    static COUNTERS: OnceLock<IndexCounters> = OnceLock::new();
    COUNTERS.get_or_init(|| {
        let registry = eve_trace::global();
        IndexCounters {
            builds: registry.counter("index.builds"),
            hits: registry.counter("index.hits"),
            maintenance: registry.counter("index.maintenance_ops"),
            renumbered: registry.counter("relational.index_entries_renumbered"),
            detach_rows: registry.counter("relational.detach_rows"),
            render_cache_hits: registry.counter("relational.render_cache_hits"),
            render_patched_rows: registry.counter("relational.render_patched_rows"),
            rows_formatted: registry.counter("relational.rows_formatted"),
        }
    })
}

/// Deleted ids an [`IndexSet`] lists before one pass renumbers every
/// entry. A probe pays a binary search over the list per returned row; a
/// renumber pays one per entry, once per this many deletes.
const RENUMBER_AT: usize = 64;

/// The position of index id `id`: `id` less the listed ids below it.
fn position(deleted: &[u32], id: u32) -> u32 {
    id - u32::try_from(deleted.partition_point(|&d| d < id)).expect("id count fits u32")
}

/// Counters for the shell `stats` surface.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexStats {
    /// Hash indexes currently materialized.
    pub hash_indexes: u64,
    /// Sorted indexes currently materialized.
    pub sorted_indexes: u64,
    /// Lazy index constructions.
    pub builds: u64,
    /// Lookups answered from an index.
    pub hits: u64,
    /// Incremental maintenance operations (per index, per mutation).
    pub maintenance_ops: u64,
}

impl IndexStats {
    /// Component-wise sum, for engine-level aggregation.
    #[must_use]
    pub fn merged(self, other: IndexStats) -> IndexStats {
        IndexStats {
            hash_indexes: self.hash_indexes + other.hash_indexes,
            sorted_indexes: self.sorted_indexes + other.sorted_indexes,
            builds: self.builds + other.builds,
            hits: self.hits + other.hits,
            maintenance_ops: self.maintenance_ops + other.maintenance_ops,
        }
    }
}

/// The per-relation index collection, keyed by column position.
#[derive(Debug, Clone, Default)]
pub(crate) struct IndexSet {
    hash: BTreeMap<usize, HashIndex>,
    sorted: BTreeMap<usize, SortedIndex>,
    /// Ascending index ids deleted since the last renumber (module docs).
    deleted: Vec<u32>,
    builds: u64,
    hits: u64,
    maintenance: u64,
}

impl IndexSet {
    /// Whether an index of `kind` exists on `col`.
    pub(crate) fn has(&self, col: usize, kind: IndexKind) -> bool {
        match kind {
            IndexKind::Hash => self.hash.contains_key(&col),
            IndexKind::Sorted => self.sorted.contains_key(&col),
        }
    }

    /// Builds the index of `kind` on `col` if absent.
    pub(crate) fn warm(&mut self, col: usize, kind: IndexKind, tuples: &[Tuple]) {
        match kind {
            IndexKind::Hash => self.ensure_hash(col, tuples),
            IndexKind::Sorted => self.ensure_sorted(col, tuples),
        }
    }

    /// A build numbers entries by position, so the indexes already held
    /// are renumbered first and every id equals its position.
    fn ensure_hash(&mut self, col: usize, tuples: &[Tuple]) {
        if !self.hash.contains_key(&col) {
            self.renumber();
            let mut index = HashIndex::default();
            for (i, t) in tuples.iter().enumerate() {
                index.add(
                    scalar_key(t.get(col)),
                    u32::try_from(i).expect("row id fits u32"),
                );
            }
            self.builds += 1;
            mirrors().builds.inc();
            self.hash.insert(col, index);
        }
    }

    fn ensure_sorted(&mut self, col: usize, tuples: &[Tuple]) {
        if !self.sorted.contains_key(&col) {
            self.renumber();
            let mut rows: Vec<u32> =
                (0..u32::try_from(tuples.len()).expect("row count fits u32")).collect();
            // Stable by value keeps equal-valued rows in ascending id order.
            rows.sort_by(|&a, &b| tuples[a as usize].get(col).cmp(tuples[b as usize].get(col)));
            self.builds += 1;
            mirrors().builds.inc();
            self.sorted.insert(col, SortedIndex { rows });
        }
    }

    /// The lowest column carrying a hash index, if any — the one a
    /// whole-tuple lookup ([`crate::Relation::delete`]) narrows by.
    pub(crate) fn hash_col(&self) -> Option<usize> {
        self.hash.keys().next().copied()
    }

    /// Ascending row positions whose `col` value equals `key`, from the
    /// hash index (built on first use): borrowed from the index while no
    /// deleted id is listed, else mapped into `scratch`. An un-interned
    /// text key matches nothing. Counts no hit: the caller reports its
    /// probes through [`IndexSet::count_hits`].
    pub(crate) fn eq_rows<'a>(
        &'a mut self,
        col: usize,
        key: &Value,
        tuples: &[Tuple],
        scratch: &'a mut Vec<u32>,
    ) -> &'a [u32] {
        self.ensure_hash(col, tuples);
        // Probe *after* the build: a lazy first build is what interns the
        // stored text keys, so probing earlier would spuriously miss.
        let ids = probe_key(key)
            .and_then(|k| self.hash[&col].map.get(&k))
            .map_or(&[][..], RowIds::as_slice);
        if self.deleted.is_empty() {
            return ids;
        }
        scratch.clear();
        scratch.extend(ids.iter().map(|&id| position(&self.deleted, id)));
        scratch
    }

    /// Records `n` lookups answered from an index. A run of probes reports
    /// once at its end: the process-wide mirror is one atomic that every
    /// tenant's worker shares, and a delta join probes thousands of times.
    pub(crate) fn count_hits(&mut self, n: u64) {
        self.hits += n;
        mirrors().hits.add(n);
    }

    /// [`IndexSet::eq_rows`], counted and copied out.
    pub(crate) fn lookup_eq(&mut self, col: usize, key: &Value, tuples: &[Tuple]) -> Vec<u32> {
        self.count_hits(1);
        let mut scratch = Vec::new();
        self.eq_rows(col, key, tuples, &mut scratch).to_vec()
    }

    /// Ascending row positions whose `col` value satisfies
    /// `value-at-row θ key`, via the sorted index (built on first use).
    pub(crate) fn lookup_range(
        &mut self,
        col: usize,
        op: CompOp,
        key: &Value,
        tuples: &[Tuple],
    ) -> Vec<u32> {
        self.count_hits(1);
        self.ensure_sorted(col, tuples);
        let deleted = &self.deleted;
        let rows = &self.sorted[&col].rows;
        let value = |id: u32| tuples[position(deleted, id) as usize].get(col);
        let below = rows.partition_point(|&r| value(r).cmp(key) == Ordering::Less);
        let through = rows.partition_point(|&r| value(r).cmp(key) != Ordering::Greater);
        let (first, second): (&[u32], &[u32]) = match op {
            CompOp::Lt => (&rows[..below], &[]),
            CompOp::Le => (&rows[..through], &[]),
            CompOp::Ge => (&rows[below..], &[]),
            CompOp::Gt => (&rows[through..], &[]),
            CompOp::Eq => (&rows[below..through], &[]),
            CompOp::Ne => (&rows[..below], &rows[through..]),
        };
        let mut out: Vec<u32> = first
            .iter()
            .chain(second)
            .map(|&id| position(deleted, id))
            .collect();
        // Scan-order contract: results ascend by row position.
        out.sort_unstable();
        out
    }

    /// Incremental maintenance for an appended row. `tuples` is the
    /// storage *before* the append; the new row's position is
    /// `tuples.len()`, and its id that plus the listed deleted ids.
    pub(crate) fn insert_row(&mut self, t: &Tuple, tuples: &[Tuple]) {
        let row = u32::try_from(tuples.len() + self.deleted.len()).expect("row id fits u32");
        for (&col, idx) in &mut self.hash {
            idx.add(scalar_key(t.get(col)), row);
        }
        let deleted = &self.deleted;
        for (&col, idx) in &mut self.sorted {
            let v = t.get(col);
            // The new id is the largest, so inserting after every
            // value-equal row preserves the (value, id) order.
            let pos = idx.rows.partition_point(|&r| {
                tuples[position(deleted, r) as usize].get(col).cmp(v) != Ordering::Greater
            });
            idx.rows.insert(pos, row);
        }
        self.count_maintenance();
    }

    /// Incremental maintenance for deleted rows: removes the entries of
    /// the rows at ascending positions `removed` — found by key in a hash
    /// index and by a binary search on value in a sorted one — and lists
    /// their ids. `tuples` is the storage *before* the delete. No other
    /// entry changes unless the list passes [`RENUMBER_AT`].
    pub(crate) fn remove_rows(&mut self, removed: &[u32], tuples: &[Tuple]) {
        if self.hash.is_empty() && self.sorted.is_empty() {
            return;
        }
        let ids: Vec<u32> = removed.iter().map(|&p| self.id_at(p)).collect();
        for (&col, idx) in &mut self.hash {
            for (&p, &id) in removed.iter().zip(&ids) {
                idx.remove(scalar_key(tuples[p as usize].get(col)), id);
            }
        }
        let deleted = &self.deleted;
        for (&col, idx) in &mut self.sorted {
            let rows = &idx.rows;
            let mut at: Vec<u32> = removed
                .iter()
                .zip(&ids)
                .map(|(&p, &id)| {
                    let v = tuples[p as usize].get(col);
                    let i = rows.partition_point(|&r| {
                        (tuples[position(deleted, r) as usize].get(col), r) < (v, id)
                    });
                    debug_assert_eq!(rows.get(i), Some(&id), "a victim is indexed");
                    u32::try_from(i).expect("entry index fits u32")
                })
                .collect();
            at.sort_unstable();
            crate::column::compact(&mut idx.rows, &at);
        }
        self.deleted.extend(ids);
        self.deleted.sort_unstable();
        if self.deleted.len() > RENUMBER_AT {
            self.renumber();
        }
        self.count_maintenance();
    }

    /// The index id of the row at `pos`: the `pos`-th id not listed as
    /// deleted. Listed id `d_i` has `d_i − i` live ids below it, a
    /// non-decreasing sequence, so the ids at or below the answer are the
    /// listed ones with `d_i − i ≤ pos`.
    fn id_at(&self, pos: u32) -> u32 {
        let (mut lo, mut hi) = (0, self.deleted.len());
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.deleted[mid] - u32::try_from(mid).expect("id count fits u32") <= pos {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        pos + u32::try_from(lo).expect("id count fits u32")
    }

    /// Rewrites every entry to its position and clears the deleted list.
    fn renumber(&mut self) {
        if self.deleted.is_empty() {
            return;
        }
        let deleted = std::mem::take(&mut self.deleted);
        let entries = self
            .hash
            .values_mut()
            .flat_map(|idx| idx.map.values_mut().flat_map(RowIds::as_mut_slice))
            .chain(self.sorted.values_mut().flat_map(|idx| idx.rows.iter_mut()));
        let mut n = 0u64;
        for id in entries {
            *id = position(&deleted, *id);
            n += 1;
        }
        mirrors().renumbered.add(n);
    }

    /// Records one maintenance operation per live index, added to the
    /// process-wide mirror once per mutation rather than once per index.
    fn count_maintenance(&mut self) {
        let n = (self.hash.len() + self.sorted.len()) as u64;
        if n > 0 {
            self.maintenance += n;
            mirrors().maintenance.add(n);
        }
    }

    /// Counter snapshot.
    pub(crate) fn stats(&self) -> IndexStats {
        IndexStats {
            hash_indexes: self.hash.len() as u64,
            sorted_indexes: self.sorted.len() as u64,
            builds: self.builds,
            hits: self.hits,
            maintenance_ops: self.maintenance,
        }
    }

    /// Clears the hit/build/maintenance counters (shell `reset`).
    pub(crate) fn reset_counters(&mut self) {
        self.builds = 0;
        self.hits = 0;
        self.maintenance = 0;
    }
}

/// Non-inserting scalar key for a probe value: `None` for a text value
/// that was never interned (and therefore cannot occur in any column).
#[allow(clippy::cast_sign_loss)]
fn probe_key(v: &Value) -> Option<u64> {
    match v {
        Value::Int(x) => Some(*x as u64),
        Value::Float(x) => Some(x.to_bits()),
        Value::Bool(x) => Some(u64::from(*x)),
        Value::Text(x) => intern::lookup(x).map(|s| u64::from(s.id())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tup;

    fn rows() -> Vec<Tuple> {
        vec![tup![3, "c"], tup![1, "a"], tup![2, "b"], tup![1, "a"]]
    }

    #[test]
    fn hash_lookup_finds_all_ascending() {
        let tuples = rows();
        let mut set = IndexSet::default();
        assert_eq!(
            set.lookup_eq(0, &Value::Int(1), &tuples),
            vec![1, 3],
            "ascending row ids"
        );
        assert!(set.lookup_eq(0, &Value::Int(9), &tuples).is_empty());
        let s = set.stats();
        assert_eq!(s.builds, 1, "second lookup reuses the index");
        assert_eq!(s.hits, 2);
    }

    #[test]
    fn sorted_range_matches_scan() {
        let tuples = rows();
        let mut set = IndexSet::default();
        assert_eq!(
            set.lookup_range(0, CompOp::Lt, &Value::Int(2), &tuples),
            vec![1, 3]
        );
        assert_eq!(
            set.lookup_range(0, CompOp::Ge, &Value::Int(2), &tuples),
            vec![0, 2]
        );
        assert_eq!(
            set.lookup_range(0, CompOp::Eq, &Value::Int(1), &tuples),
            vec![1, 3]
        );
    }

    #[test]
    fn insert_maintains_both_kinds() {
        let mut tuples = rows();
        let mut set = IndexSet::default();
        set.warm(0, IndexKind::Hash, &tuples);
        set.warm(0, IndexKind::Sorted, &tuples);
        set.insert_row(&tup![1, "z"], &tuples);
        tuples.push(tup![1, "z"]);
        assert_eq!(set.lookup_eq(0, &Value::Int(1), &tuples), vec![1, 3, 4]);
        assert_eq!(
            set.lookup_range(0, CompOp::Le, &Value::Int(1), &tuples),
            vec![1, 3, 4]
        );
        assert!(set.stats().maintenance_ops >= 2);
    }

    #[test]
    fn delete_remaps_survivors() {
        let mut tuples = rows();
        let mut set = IndexSet::default();
        set.warm(0, IndexKind::Hash, &tuples);
        set.warm(0, IndexKind::Sorted, &tuples);
        // Remove rows 0 and 2 (values 3 and 2).
        set.remove_rows(&[0, 2], &tuples);
        tuples.remove(2);
        tuples.remove(0);
        assert_eq!(set.lookup_eq(0, &Value::Int(1), &tuples), vec![0, 1]);
        assert!(set.lookup_eq(0, &Value::Int(3), &tuples).is_empty());
        assert_eq!(
            set.lookup_range(0, CompOp::Ge, &Value::Int(1), &tuples),
            vec![0, 1]
        );
    }

    #[test]
    fn uninterned_text_probe_matches_nothing() {
        let tuples = rows();
        let mut set = IndexSet::default();
        assert!(set
            .lookup_eq(1, &Value::from("eve-index-test-never-interned"), &tuples)
            .is_empty());
        assert_eq!(set.lookup_eq(1, &Value::from("a"), &tuples), vec![1, 3]);
    }
}
