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
//! `insert`/`delete` (append + positional remap) rather than rebuilt, the
//! same policy the MKB inverted indexes established for metadata.
//!
//! Every result is returned in ascending row order, so an index-backed
//! scan yields tuples in exactly the order a full scan would — the
//! byte-identity contract the differential suites pin.

use std::cmp::Ordering;
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

    /// Appends a row id larger than every one held.
    fn push(&mut self, row: u32) {
        match self {
            RowIds::One(first) => *self = RowIds::Many(vec![*first, row]),
            RowIds::Many(rows) => rows.push(row),
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
}

/// Range index: row ids ordered by `(column value, row id)`.
#[derive(Debug, Clone, Default, PartialEq)]
struct SortedIndex {
    rows: Vec<u32>,
}

/// Process-wide mirrors of the per-relation counters, in the global
/// registry `index.` family. Per-instance [`IndexStats`] stay exact for
/// the engine's per-relation rollup; these aggregate across all
/// relations for the `metrics` surface.
struct IndexCounters {
    builds: Arc<Counter>,
    hits: Arc<Counter>,
    maintenance: Arc<Counter>,
}

fn mirrors() -> &'static IndexCounters {
    static COUNTERS: OnceLock<IndexCounters> = OnceLock::new();
    COUNTERS.get_or_init(|| {
        let registry = eve_trace::global();
        IndexCounters {
            builds: registry.counter("index.builds"),
            hits: registry.counter("index.hits"),
            maintenance: registry.counter("index.maintenance_ops"),
        }
    })
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
            IndexKind::Hash => {
                self.ensure_hash(col, tuples);
            }
            IndexKind::Sorted => {
                self.ensure_sorted(col, tuples);
            }
        }
    }

    fn ensure_hash(&mut self, col: usize, tuples: &[Tuple]) -> &HashIndex {
        if !self.hash.contains_key(&col) {
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
        &self.hash[&col]
    }

    fn ensure_sorted(&mut self, col: usize, tuples: &[Tuple]) -> &SortedIndex {
        if !self.sorted.contains_key(&col) {
            let mut rows: Vec<u32> =
                (0..u32::try_from(tuples.len()).expect("row count fits u32")).collect();
            // Stable by value keeps equal-valued rows in ascending id order.
            rows.sort_by(|&a, &b| tuples[a as usize].get(col).cmp(tuples[b as usize].get(col)));
            self.builds += 1;
            mirrors().builds.inc();
            self.sorted.insert(col, SortedIndex { rows });
        }
        &self.sorted[&col]
    }

    /// The lowest column carrying a hash index, if any — the one a
    /// whole-tuple lookup ([`crate::Relation::delete`]) narrows by.
    pub(crate) fn hash_col(&self) -> Option<usize> {
        self.hash.keys().next().copied()
    }

    /// Ascending row ids whose `col` value equals `key`, borrowed from the
    /// hash index (built on first use). An un-interned text key matches
    /// nothing. Counts no hit: the caller reports its probes through
    /// [`IndexSet::count_hits`].
    pub(crate) fn eq_rows(&mut self, col: usize, key: &Value, tuples: &[Tuple]) -> &[u32] {
        let idx = self.ensure_hash(col, tuples);
        // Probe *after* the build: a lazy first build is what interns the
        // stored text keys, so probing earlier would spuriously miss.
        probe_key(key)
            .and_then(|k| idx.map.get(&k))
            .map_or(&[], RowIds::as_slice)
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
        self.eq_rows(col, key, tuples).to_vec()
    }

    /// Ascending row ids whose `col` value satisfies `value-at-row θ key`,
    /// via the sorted index (built on first use).
    pub(crate) fn lookup_range(
        &mut self,
        col: usize,
        op: CompOp,
        key: &Value,
        tuples: &[Tuple],
    ) -> Vec<u32> {
        self.count_hits(1);
        let idx = self.ensure_sorted(col, tuples);
        let rows = &idx.rows;
        let below =
            rows.partition_point(|&r| tuples[r as usize].get(col).cmp(key) == Ordering::Less);
        let through =
            rows.partition_point(|&r| tuples[r as usize].get(col).cmp(key) != Ordering::Greater);
        let mut out: Vec<u32> = match op {
            CompOp::Lt => rows[..below].to_vec(),
            CompOp::Le => rows[..through].to_vec(),
            CompOp::Ge => rows[below..].to_vec(),
            CompOp::Gt => rows[through..].to_vec(),
            CompOp::Eq => rows[below..through].to_vec(),
            CompOp::Ne => {
                let mut v = rows[..below].to_vec();
                v.extend_from_slice(&rows[through..]);
                v
            }
        };
        // Scan-order contract: results ascend by row id.
        out.sort_unstable();
        out
    }

    /// Incremental maintenance for an appended row. `tuples` is the
    /// storage *before* the append; the new row's id is `tuples.len()`.
    pub(crate) fn insert_row(&mut self, t: &Tuple, tuples: &[Tuple]) {
        let row = u32::try_from(tuples.len()).expect("row id fits u32");
        for (&col, idx) in &mut self.hash {
            idx.add(scalar_key(t.get(col)), row);
        }
        for (&col, idx) in &mut self.sorted {
            let v = t.get(col);
            // The new row id is the largest, so inserting after every
            // value-equal row preserves the (value, row) order.
            let pos = idx
                .rows
                .partition_point(|&r| tuples[r as usize].get(col).cmp(v) != Ordering::Greater);
            idx.rows.insert(pos, row);
        }
        self.count_maintenance();
    }

    /// Incremental maintenance for deleted rows: drops the removed ids and
    /// remaps survivors to their post-delete positions. `removed` ascends.
    pub(crate) fn remove_rows(&mut self, removed: &[u32]) {
        let remap = |row: u32| {
            let shift = removed.partition_point(|&r| r < row);
            row - u32::try_from(shift).expect("shift fits u32")
        };
        let keep = |r: &mut u32| {
            if removed.binary_search(r).is_ok() {
                false
            } else {
                *r = remap(*r);
                true
            }
        };
        for idx in self.hash.values_mut() {
            idx.map.retain(|_, rows| match rows {
                RowIds::One(row) => keep(row),
                RowIds::Many(many) => {
                    many.retain_mut(keep);
                    if let [row] = many[..] {
                        *rows = RowIds::One(row);
                    }
                    !rows.as_slice().is_empty()
                }
            });
        }
        for idx in self.sorted.values_mut() {
            idx.rows.retain_mut(keep);
        }
        self.count_maintenance();
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
        set.remove_rows(&[0, 2]);
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
