//! Execution of [`PhysicalPlan`]s over shared storage.
//!
//! Every operator materializes its output, but *inputs are never copied*:
//! scans hand back `Arc`-shared relations ([`Relation::clone`] is
//! pointer-cheap since the copy-on-write storage change), hash-join keys
//! were resolved to column indices at plan time, and only genuinely new
//! tuples (join concatenations, filtered subsets) allocate. A filter that
//! keeps every tuple returns the input's shared storage untouched.
//!
//! Two execution modes share one plan tree ([`ExecMode`]): the default
//! **columnar** mode evaluates pushed-down filters as vectorized passes
//! over the relation's [`crate::column::ColumnarBatch`], serves
//! [`PlanNode::IndexScan`] from the lazily built secondary indexes, and
//! probes hash joins with interned scalar keys (`u64`s instead of cloned
//! key tuples); the **row-oriented** mode is the frozen PR 3 baseline the
//! differential suites compare against byte-for-byte.
//!
//! Each columnar operator has one body over a row range. Serial execution
//! is one worker over one range on the caller's thread (no pool, no
//! `exec.*` counter, no `exec.morsel_run` span); parallel execution runs
//! the body per morsel and concatenates the outputs in morsel order.
//!
//! [`join_with_counts`] is the incremental-maintenance join: each delta
//! tuple probes the hosted relation's hash index, and the join additionally
//! reports how many hosted tuples each delta tuple matched, which is
//! exactly what the Appendix-A probe-I/O accounting
//! (`max(1, ⌈matches/bfr⌉)` capped by a full scan) consumes.
//! [`join_through_product`] is its three-way form for a keyless visit: it
//! joins a relation through `delta × deferred` without building the
//! product.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Mutex;

use crate::column::{self, scalar_key};
use crate::error::Result;
use crate::morsel::{self, ExecOptions};
use crate::plan::{split_equi_keys, PhysicalPlan, PlanNode};
use crate::predicate::{CompOp, Predicate, PrimitiveClause};
use crate::relation::Relation;
use crate::schema::Schema;
use crate::tuple::Tuple;

/// Which physical execution strategy to run a plan with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Row-at-a-time operators over `Tuple` storage — the PR 3 baseline,
    /// kept as the differential reference and benchmark counter-arm.
    RowOriented,
    /// Vectorized filters, index scans and interned-key hash joins over
    /// the columnar layer. The default.
    #[default]
    Columnar,
}

/// Executes a compiled plan, producing the named, projected output relation.
/// Uses the default (columnar) mode.
///
/// # Errors
///
/// Propagates predicate evaluation failures (the planner already
/// type-checked every predicate, so these only occur for pathological
/// schema/value drift after planning).
pub fn execute(plan: &PhysicalPlan) -> Result<Relation> {
    execute_with(plan, ExecMode::Columnar)
}

/// Executes a compiled plan under an explicit [`ExecMode`]. Both modes
/// produce byte-identical output (same tuples, same order). Serial
/// (default [`ExecOptions`]).
///
/// # Errors
///
/// See [`execute`].
pub fn execute_with(plan: &PhysicalPlan, mode: ExecMode) -> Result<Relation> {
    execute_with_options(plan, mode, &ExecOptions::default())
}

// Per-thread scratch for range selection vectors: a worker reuses one
// buffer across every range it runs instead of allocating per range
// (the per-range output is an exact-size copy of the surviving ids).
thread_local! {
    static FILTER_SCRATCH: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

/// Execution context threaded through the operator tree: the mode, the
/// effective worker count (after the planner's tiny-input veto) and the
/// morsel geometry.
#[derive(Clone, Copy)]
struct Ctx<'a> {
    mode: ExecMode,
    workers: usize,
    opts: &'a ExecOptions,
}

impl Ctx<'_> {
    /// Whether an operator over `rows` input rows runs parallel: more than
    /// one worker and more than one morsel.
    fn parallel_over(&self, rows: usize) -> bool {
        self.workers > 1 && self.opts.morsel_count(rows) > 1
    }

    /// Runs one operator's range body `f(start, end)` over `rows` input
    /// rows (see [`Ctx::ranges`]) and concatenates its outputs, counting
    /// the operator in `exec.parallel_ops` when it goes parallel.
    fn per_range<T: Send>(
        &self,
        rows: usize,
        f: impl Fn(usize, usize) -> Result<Vec<T>> + Sync,
    ) -> Result<Vec<T>> {
        let parallel = self.parallel_over(rows);
        if parallel {
            morsel::note_parallel_op();
        }
        Ok(concat_chunks(self.ranges(parallel, rows, f)?))
    }

    /// Runs `f(start, end)` over `rows` input rows and returns its outputs
    /// in row order. Serial is one range, `f(0, rows)` on the caller's
    /// thread; parallel is one range per morsel on [`morsel::run_morsels`].
    fn ranges<T: Send>(
        &self,
        parallel: bool,
        rows: usize,
        f: impl Fn(usize, usize) -> Result<T> + Sync,
    ) -> Result<Vec<T>> {
        if !parallel {
            return Ok(vec![f(0, rows)?]);
        }
        morsel::run_morsels(self.workers, self.opts.morsel_count(rows), |i| {
            let (s, e) = self.opts.morsel_range(i, rows);
            f(s, e)
        })
    }
}

/// Concatenates per-range output chunks in range order — the merge step
/// that keeps parallel output byte-identical to serial execution. A single
/// chunk (serial execution) is returned as it is.
fn concat_chunks<T>(mut chunks: Vec<Vec<T>>) -> Vec<T> {
    if chunks.len() == 1 {
        return chunks.pop().expect("one chunk");
    }
    let total = chunks.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(total);
    for mut chunk in chunks {
        out.append(&mut chunk);
    }
    out
}

/// Clamps a (possibly wild) cardinality estimate into a sane preallocation
/// hint. `0` means "no hint".
fn row_hint(estimated: f64) -> usize {
    if estimated.is_finite() && estimated > 0.0 {
        (estimated as usize).min(1 << 22)
    } else {
        0
    }
}

/// Executes a compiled plan under an explicit mode and [`ExecOptions`].
/// With `parallelism > 1` the columnar operators run morsel-parallel; the
/// output stays byte-identical, order included, to serial execution,
/// because every operator merges per-morsel outputs in morsel order. The
/// planner may veto parallelism for tiny inputs (see
/// [`crate::plan::PlanEstimate::effective_parallelism`]); the row-oriented
/// baseline always runs serial.
///
/// # Errors
///
/// See [`execute`]; additionally surfaces a worker panic as
/// [`crate::error::Error::Parallel`].
pub fn execute_with_options(
    plan: &PhysicalPlan,
    mode: ExecMode,
    opts: &ExecOptions,
) -> Result<Relation> {
    let _query_span = eve_trace::span("exec.query");
    if mode == ExecMode::Columnar {
        // The columnar image is part of the physical storage: build (or
        // reuse — it is cached in the shared storage) each base input's
        // batch up front so vectorized filters and interned join keys
        // read columns instead of re-deriving scalar keys per tuple.
        for input in &plan.inputs {
            let _ = input.relation.columnar();
        }
    }
    let workers = if mode == ExecMode::Columnar && opts.parallelism > 1 {
        if opts.force_parallel {
            opts.parallelism
        } else {
            let effective = plan.estimate().effective_parallelism(opts.parallelism);
            if effective == 1 {
                morsel::note_serial_fallback();
            }
            effective
        }
    } else {
        1
    };
    let ctx = Ctx {
        mode,
        workers,
        opts,
    };
    let joined = eval(plan, &plan.root, ctx, row_hint(plan.estimate().output_rows))?;
    let tuples = joined.tuples();
    let rows = ctx.per_range(tuples.len(), |s, e| {
        Ok(tuples[s..e]
            .iter()
            .map(|t| t.project(&plan.projection))
            .collect())
    })?;
    Ok(Relation::from_validated(
        plan.name.clone(),
        plan.output_schema.clone(),
        rows,
    ))
}

/// Materializes an ascending selection over `rel` — zero-copy when the
/// selection keeps every row.
fn materialize_selection(rel: &Relation, sel: &[u32]) -> Relation {
    if sel.len() == rel.cardinality() {
        return rel.clone(); // shares tuple storage
    }
    let tuples = rel.tuples();
    Relation::from_validated(
        rel.name(),
        rel.schema().clone(),
        sel.iter().map(|&r| tuples[r as usize].clone()).collect(),
    )
}

/// Row-at-a-time filter: ascending row ids satisfying `pred`.
fn filter_rows(rel: &Relation, pred: &Predicate) -> Result<Vec<u32>> {
    let mut sel = Vec::new();
    for (i, t) in rel.tuples().iter().enumerate() {
        if pred.eval(rel.schema(), t, rel.name())? {
            sel.push(u32::try_from(i).expect("row id fits u32"));
        }
    }
    Ok(sel)
}

fn eval(plan: &PhysicalPlan, node: &PlanNode, ctx: Ctx<'_>, out_hint: usize) -> Result<Relation> {
    match node {
        PlanNode::Scan { input, pushdown } => {
            let _span = eve_trace::span("exec.scan");
            let rel = &plan.inputs[*input].relation;
            match pushdown {
                None => Ok(rel.clone()), // zero-copy: shares tuple storage
                Some(pred) => {
                    if ctx.mode == ExecMode::Columnar {
                        if let Some(compiled) =
                            column::compile_clauses(pred, rel.schema(), rel.name())
                        {
                            let batch = rel.columnar();
                            let sel = ctx.per_range(batch.rows(), |s, e| {
                                FILTER_SCRATCH.with(|buf| {
                                    let mut scratch = buf.borrow_mut();
                                    column::filter_batch_range(
                                        &batch,
                                        rel.tuples(),
                                        &compiled,
                                        u32::try_from(s).expect("row id fits u32"),
                                        u32::try_from(e).expect("row id fits u32"),
                                        &mut scratch,
                                    );
                                    Ok(scratch.clone())
                                })
                            })?;
                            return Ok(materialize_selection(rel, &sel));
                        }
                    }
                    let sel = filter_rows(rel, pred)?;
                    Ok(materialize_selection(rel, &sel))
                }
            }
        }
        PlanNode::IndexScan {
            input,
            col,
            op,
            key,
            residual,
            pushdown,
        } => {
            let _span = eve_trace::span("exec.index_scan");
            let rel = &plan.inputs[*input].relation;
            if ctx.mode == ExecMode::RowOriented {
                // Baseline semantics: the index clause is just a filter.
                let sel = filter_rows(rel, pushdown)?;
                return Ok(materialize_selection(rel, &sel));
            }
            let rows = if *op == CompOp::Eq {
                rel.index_eq_rows(*col, key)
            } else {
                rel.index_range_rows(*col, *op, key)
            };
            let sel = match residual {
                None => rows,
                // The residual probe re-checks every index hit against the
                // remaining predicate, range by range over the hit list,
                // merged in range (= ascending row) order.
                Some(pred) => {
                    let tuples = rel.tuples();
                    ctx.per_range(rows.len(), |s, e| {
                        let mut keep = Vec::with_capacity(e - s);
                        for &r in &rows[s..e] {
                            if pred.eval(rel.schema(), &tuples[r as usize], rel.name())? {
                                keep.push(r);
                            }
                        }
                        Ok(keep)
                    })?
                }
            };
            Ok(materialize_selection(rel, &sel))
        }
        PlanNode::HashJoin {
            probe,
            build,
            probe_keys,
            build_keys,
            residual,
            schema,
        } => {
            let probe_rel = eval(plan, probe, ctx, 0)?;
            let build_rel = eval(plan, build, ctx, 0)?;
            let _span = eve_trace::span("exec.join.hash");
            if ctx.mode == ExecMode::Columnar
                && key_types_match(&probe_rel, probe_keys, &build_rel, build_keys)
            {
                return hash_join_columnar_parallel(
                    &probe_rel, &build_rel, probe_keys, build_keys, residual, schema, ctx, out_hint,
                );
            }
            hash_join_rows(
                &probe_rel, &build_rel, probe_keys, build_keys, residual, schema,
            )
        }
        PlanNode::NestedLoop {
            outer,
            inner,
            condition,
            schema,
        } => {
            let outer_rel = eval(plan, outer, ctx, 0)?;
            let inner_rel = eval(plan, inner, ctx, 0)?;
            let _span = eve_trace::span("exec.join.nested");
            let name = format!("{}⋈{}", outer_rel.name(), inner_rel.name());
            let outer_tuples = outer_rel.tuples();
            let inner_tuples = inner_rel.tuples();
            // An empty inner side leaves no outer row to range over.
            let rows = outer_tuples.len() * usize::from(!inner_tuples.is_empty());
            let out = ctx.per_range(rows, |s, e| {
                let mut out = Vec::with_capacity(out_hint * (e - s) / rows.max(1));
                for o in &outer_tuples[s..e] {
                    for i in inner_tuples {
                        let t = o.concat(i);
                        if condition.is_true() || condition.eval(schema, &t, &name)? {
                            out.push(t);
                        }
                    }
                }
                Ok(out)
            })?;
            Ok(Relation::from_validated(name, schema.clone(), out))
        }
    }
}

/// Whether every probe/build key column pair compares the same type. A
/// mismatched pair can never match under `Value` equality; the scalar key
/// encoding cannot express that, so such joins take the row path.
fn key_types_match(
    probe: &Relation,
    probe_keys: &[usize],
    build: &Relation,
    build_keys: &[usize],
) -> bool {
    probe_keys
        .iter()
        .zip(build_keys)
        .all(|(&p, &b)| probe.schema().column(p).ty == build.schema().column(b).ty)
}

/// Join key over the scalar `u64` encoding (see [`crate::column`]).
#[derive(Clone, PartialEq, Eq, Hash)]
enum JoinKey {
    One(u64),
    Many(Box<[u64]>),
}

/// Multiply-xor hasher for [`JoinKey`]s and the hash index's scalar keys:
/// interned scalar keys are already uniform `u64`s, and SipHash would cost
/// more per probe than the table lookup itself — and its per-process keys
/// would lay the same table out differently on every run. Not used for
/// projected-`Tuple` join keys (the row baseline), which hash full values;
/// [`Relation::same_bag`] counts whole tuples with it.
#[derive(Clone, Default)]
pub(crate) struct KeyHasher(u64);

impl std::hash::Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, x: u64) {
        // Golden-ratio multiply, then fold the high bits down so both the
        // bucket index and the control byte see the mixed entropy.
        self.0 = (self.0 ^ x).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 ^= self.0 >> 32;
    }

    fn write_u32(&mut self, x: u32) {
        self.write_u64(u64::from(x));
    }

    fn write_u8(&mut self, x: u8) {
        self.write_u64(u64::from(x));
    }

    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }
}

/// Hash table from scalar join keys to ascending build-side row ids.
type KeyTable = HashMap<JoinKey, Vec<u32>, std::hash::BuildHasherDefault<KeyHasher>>;

fn key_table_with_capacity(n: usize) -> KeyTable {
    KeyTable::with_capacity_and_hasher(n, std::hash::BuildHasherDefault::default())
}

/// Per-row scalar join keys for `cols` over rows `[start, end)`, read
/// from the cached columnar batch when one exists and computed directly
/// from the tuples otherwise (intermediates never pay a full batch build
/// for one key column). Text keys intern through the sharded pool, so
/// concurrent morsels mostly touch different shard locks.
fn join_keys_range(rel: &Relation, cols: &[usize], start: usize, end: usize) -> Vec<JoinKey> {
    if rel.columnar_built() {
        let batch = rel.columnar();
        if let [col] = cols {
            let c = batch.column(*col);
            return (start..end).map(|r| JoinKey::One(c.key_at(r))).collect();
        }
        return (start..end)
            .map(|r| {
                JoinKey::Many(
                    cols.iter()
                        .map(|&col| batch.column(col).key_at(r))
                        .collect(),
                )
            })
            .collect();
    }
    let tuples = &rel.tuples()[start..end];
    if let [col] = cols {
        return tuples
            .iter()
            .map(|t| JoinKey::One(scalar_key(t.get(*col))))
            .collect();
    }
    tuples
        .iter()
        .map(|t| JoinKey::Many(cols.iter().map(|&c| scalar_key(t.get(c))).collect()))
        .collect()
}

/// Hash-join partition count for a worker count: enough partitions that
/// build tasks spread even under moderate key skew.
fn partition_count(workers: usize) -> usize {
    (workers * 2).next_power_of_two().min(64)
}

/// Routes a key to its partition using the high bits of the same
/// [`KeyHasher`] mix the tables bucket with low bits — one hash, two
/// independent-enough bit ranges. A zero mask (one partition) hashes
/// nothing.
fn partition_of(k: &JoinKey, mask: u64) -> usize {
    use std::hash::{Hash, Hasher};
    if mask == 0 {
        return 0;
    }
    let mut h = KeyHasher::default();
    k.hash(&mut h);
    usize::try_from((h.finish() >> 48) & mask).expect("mask fits usize")
}

/// Partitioned hash join over interned scalar keys: hashes `u64`s
/// instead of cloning and hashing projected key tuples.
///
/// Three phases, each deterministic:
///
/// 1. **Scatter** (over build ranges): extract scalar keys for the range
///    and scatter `(key, row)` pairs into per-partition buckets, routed by
///    the high bits of the key hash.
/// 2. **Build** (over partitions): each partition's table is owned by
///    exactly one task — lock-free by partitioning, not by atomics.
///    Buckets are drained in range order, so every key's row list comes
///    out ascending.
/// 3. **Probe** (over probe ranges): read-only lookups against the
///    partition tables; per-range outputs merge in range order.
///
/// Output is therefore the row path's, order included: probe-order outer,
/// ascending build rows inner. A serial join is one range per phase over
/// one partition, and moves no `exec.*` counter.
#[allow(clippy::too_many_arguments)]
fn hash_join_columnar_parallel(
    probe_rel: &Relation,
    build_rel: &Relation,
    probe_keys: &[usize],
    build_keys: &[usize],
    residual: &Predicate,
    schema: &Schema,
    ctx: Ctx<'_>,
    out_hint: usize,
) -> Result<Relation> {
    let name = format!("{}⋈{}", probe_rel.name(), build_rel.name());
    let build_rows = build_rel.cardinality();
    let probe_rows = probe_rel.cardinality();
    let parallel = ctx.parallel_over(probe_rows.max(build_rows));
    let parts = if parallel {
        morsel::note_parallel_op();
        partition_count(ctx.workers)
    } else {
        1
    };
    let mask = (parts - 1) as u64;

    // Phase 1: key extraction + partition scatter.
    let scattered = ctx.ranges(parallel, build_rows, |s, e| {
        let keys = join_keys_range(build_rel, build_keys, s, e);
        let mut buckets: Vec<Vec<(JoinKey, u32)>> = (0..parts).map(|_| Vec::new()).collect();
        for (off, k) in keys.into_iter().enumerate() {
            let p = partition_of(&k, mask);
            buckets[p].push((k, u32::try_from(s + off).expect("row id fits u32")));
        }
        Ok(buckets)
    })?;
    // Wrap each bucket so the owning build task can take it without
    // cloning keys (each bucket is read by exactly one partition task).
    type RangeBuckets = Vec<Mutex<Vec<(JoinKey, u32)>>>;
    let scattered: Vec<RangeBuckets> = scattered
        .into_iter()
        .map(|buckets| buckets.into_iter().map(Mutex::new).collect())
        .collect();

    // Phase 2: one task per partition; tables are lock-free because no
    // two tasks share a partition.
    let build_partition = |p: usize| {
        let cap: usize = scattered
            .iter()
            .map(|m| m[p].lock().expect("bucket poisoned").len())
            .sum();
        let mut table = key_table_with_capacity(cap);
        for range_buckets in &scattered {
            let bucket = std::mem::take(&mut *range_buckets[p].lock().expect("bucket poisoned"));
            for (k, row) in bucket {
                table.entry(k).or_default().push(row);
            }
        }
        Ok(table)
    };
    let tables = if parallel {
        morsel::note_partitions(parts as u64);
        morsel::run_morsels(ctx.workers, parts, build_partition)?
    } else {
        vec![build_partition(0)?]
    };

    // Phase 3: probe against the read-only partition tables.
    let probe_tuples = probe_rel.tuples();
    let build_tuples = build_rel.tuples();
    let chunks = ctx.ranges(parallel, probe_rows, |s, e| {
        let mut out = Vec::with_capacity(if out_hint > 0 {
            out_hint * (e - s) / probe_rows.max(1)
        } else {
            e - s
        });
        let keys = join_keys_range(probe_rel, probe_keys, s, e);
        for (off, k) in keys.into_iter().enumerate() {
            let p = partition_of(&k, mask);
            if let Some(matches) = tables[p].get(&k) {
                let pt = &probe_tuples[s + off];
                for &b in matches {
                    let t = pt.concat(&build_tuples[b as usize]);
                    if residual.is_true() || residual.eval(schema, &t, &name)? {
                        out.push(t);
                    }
                }
            }
        }
        Ok(out)
    })?;
    Ok(Relation::from_validated(
        name,
        schema.clone(),
        concat_chunks(chunks),
    ))
}

/// The PR 3 row-oriented hash join: projected-`Tuple` keys.
fn hash_join_rows(
    probe_rel: &Relation,
    build_rel: &Relation,
    probe_keys: &[usize],
    build_keys: &[usize],
    residual: &Predicate,
    schema: &Schema,
) -> Result<Relation> {
    let name = format!("{}⋈{}", probe_rel.name(), build_rel.name());
    let mut table: HashMap<Tuple, Vec<&Tuple>> = HashMap::new();
    for b in build_rel.tuples() {
        table.entry(b.project(build_keys)).or_default().push(b);
    }
    let mut out = Vec::new();
    for p in probe_rel.tuples() {
        if let Some(matches) = table.get(&p.project(probe_keys)) {
            for b in matches {
                let t = p.concat(b);
                if residual.is_true() || residual.eval(schema, &t, &name)? {
                    out.push(t);
                }
            }
        }
    }
    Ok(Relation::from_validated(name, schema.clone(), out))
}

/// Joins `delta` with `next` under the conjunction `on`, returning the
/// joined relation together with the number of `next`-tuples matched by
/// each delta tuple (for probe-I/O accounting). Equality clauses between
/// the two sides become join keys; remaining clauses filter the result
/// and do not lower the counts. Without any key the join degrades to a
/// scan — every delta tuple "matches" the full relation.
///
/// This is Algorithm 1's per-site delta join, physically: output is
/// delta-major, `next`'s stored order within a key. When the key column
/// types line up, each delta tuple probes `next`'s hash index on the first
/// key column — built on the first probe, kept in `next`'s shared storage
/// and maintained by every later insert and delete — so a join costs the
/// matches, not `|next|`. Mixed-type keys hash projected tuples instead.
///
/// # Errors
///
/// Schema concatenation and predicate failures.
pub fn join_with_counts(
    delta: &Relation,
    next: &Relation,
    on: &[PrimitiveClause],
) -> Result<(Relation, Vec<usize>)> {
    let (keys, residual_clauses) =
        split_equi_keys(delta.schema(), delta.name(), next.schema(), next.name(), on);
    let schema = delta.schema().concat(next.schema())?;
    let name = format!("{}⋈{}", delta.name(), next.name());
    let residual = Predicate::new(residual_clauses);
    residual.type_check(&schema, &name)?;

    let mut out = Vec::new();
    let mut counts = Vec::with_capacity(delta.cardinality());
    if keys.is_empty() {
        for d in delta.tuples() {
            counts.push(next.cardinality());
            for n in next.tuples() {
                let t = d.concat(n);
                if residual.eval(&schema, &t, &name)? {
                    out.push(t);
                }
            }
        }
        return Ok((Relation::from_validated(name, schema, out), counts));
    }

    let (delta_idx, next_idx): (Vec<usize>, Vec<usize>) = keys.into_iter().unzip();
    if key_types_match(delta, &delta_idx, next, &next_idx) {
        let next_tuples = next.tuples();
        let mut probe = next.hash_probe(next_idx[0]);
        // Same-typed values are equal exactly when their scalar keys are,
        // so checking the further key columns by value selects the rows a
        // table over the whole key would have listed.
        let further = || delta_idx[1..].iter().zip(&next_idx[1..]);
        for dt in delta.tuples() {
            let mut matched = 0;
            for &n in probe.rows(dt.get(delta_idx[0])) {
                let nt = &next_tuples[n as usize];
                if further().all(|(&d, &n)| dt.get(d) == nt.get(n)) {
                    matched += 1;
                    let t = dt.concat(nt);
                    if residual.eval(&schema, &t, &name)? {
                        out.push(t);
                    }
                }
            }
            counts.push(matched);
        }
        return Ok((Relation::from_validated(name, schema, out), counts));
    }

    let mut table: HashMap<Tuple, Vec<&Tuple>> = HashMap::new();
    for n in next.tuples() {
        table.entry(n.project(&next_idx)).or_default().push(n);
    }
    for d in delta.tuples() {
        let matches = table
            .get(&d.project(&delta_idx))
            .map_or(&[][..], Vec::as_slice);
        counts.push(matches.len());
        for n in matches {
            let t = d.concat(n);
            if residual.eval(&schema, &t, &name)? {
                out.push(t);
            }
        }
    }
    Ok((Relation::from_validated(name, schema, out), counts))
}

/// Whether `on` holds no equi key between `delta` and `next`, so that
/// [`join_with_counts`] materialises their whole product.
#[must_use]
pub fn joins_keyless(delta: &Relation, next: &Relation, on: &[PrimitiveClause]) -> bool {
    split_equi_keys(delta.schema(), delta.name(), next.schema(), next.name(), on)
        .0
        .is_empty()
}

/// Joins `next` through the product `delta × deferred` without
/// materialising it. The result equals
/// `join_with_counts(&join_with_counts(delta, deferred, &[])?.0, next, on)`:
/// the same rows in the same order (delta row, then `deferred` row id, then
/// `next` row id), the same schema and one match count per product row.
///
/// Each delta tuple probes `next`'s hash index on a key to `delta`, and
/// each `next` match probes `deferred`'s hash index on a key to `deferred`,
/// so the join costs the matches, not `|delta| · |deferred|`.
///
/// Returns `None`, and leaves the product to the caller, when `on` has no
/// equi key from `next` to `delta` or none from `next` to `deferred`, when
/// a key pair compares different types, or when `next` and `deferred`
/// share storage (one index lock cannot be held twice).
///
/// # Errors
///
/// Schema concatenation and predicate failures.
pub fn join_through_product(
    delta: &Relation,
    deferred: &Relation,
    next: &Relation,
    on: &[PrimitiveClause],
) -> Result<Option<(Relation, Vec<usize>)>> {
    if next.shares_tuples_with(deferred) {
        return Ok(None);
    }
    let product_name = format!("{}⋈{}", delta.name(), deferred.name());
    let product = delta.schema().concat(deferred.schema())?;
    let (keys, residual_clauses) =
        split_equi_keys(&product, &product_name, next.schema(), next.name(), on);
    let typed = |rel: &Relation, col: usize, n: usize| {
        rel.schema().column(col).ty == next.schema().column(n).ty
    };
    let width = delta.schema().arity();
    let mut to_delta = Vec::new();
    let mut to_deferred = Vec::new();
    for (p, n) in keys {
        let same_type = if p < width {
            to_delta.push((p, n));
            typed(delta, p, n)
        } else {
            to_deferred.push((p - width, n));
            typed(deferred, p - width, n)
        };
        if !same_type {
            return Ok(None);
        }
    }
    let (Some(&(d0, nd0)), Some(&(r0, nr0))) = (to_delta.first(), to_deferred.first()) else {
        return Ok(None);
    };
    let schema = product.concat(next.schema())?;
    let name = format!("{product_name}⋈{}", next.name());
    let residual = Predicate::new(residual_clauses);
    residual.type_check(&schema, &name)?;

    let next_tuples = next.tuples();
    let deferred_tuples = deferred.tuples();
    let mut next_probe = next.hash_probe(nd0);
    let mut deferred_probe = deferred.hash_probe(r0);
    let mut out = Vec::new();
    let mut counts = vec![0; delta.cardinality() * deferred.cardinality()];
    let mut pairs: Vec<(u32, u32)> = Vec::new();
    for (i, dt) in delta.tuples().iter().enumerate() {
        pairs.clear();
        for &s in next_probe.rows(dt.get(d0)) {
            let st = &next_tuples[s as usize];
            if !to_delta[1..].iter().all(|&(d, n)| dt.get(d) == st.get(n)) {
                continue;
            }
            for &r in deferred_probe.rows(st.get(nr0)) {
                let rt = &deferred_tuples[r as usize];
                if to_deferred[1..]
                    .iter()
                    .all(|&(d, n)| rt.get(d) == st.get(n))
                {
                    pairs.push((r, s));
                }
            }
        }
        // Probe order is `next`-major; the product's order is `deferred`-major.
        pairs.sort_unstable();
        for &(r, s) in &pairs {
            counts[i * deferred.cardinality() + r as usize] += 1;
            let t = dt
                .concat(&deferred_tuples[r as usize])
                .concat(&next_tuples[s as usize]);
            if residual.eval(&schema, &t, &name)? {
                out.push(t);
            }
        }
    }
    Ok(Some((Relation::from_validated(name, schema, out), counts)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{plan, QueryInput, QuerySpec};
    use crate::predicate::CompOp;
    use crate::schema::{ColumnRef, Schema};
    use crate::tup;
    use crate::types::{DataType, Value};
    use crate::{algebra, Predicate};

    fn rel(name: &str, cols: &[(&str, DataType)], rows: Vec<Tuple>) -> Relation {
        Relation::with_tuples(name, Schema::of(cols).unwrap().qualify(name), rows).unwrap()
    }

    fn chain_spec() -> QuerySpec {
        let a = rel(
            "A",
            &[("K", DataType::Int), ("P", DataType::Int)],
            vec![tup![1, 10], tup![2, 20], tup![3, 30]],
        );
        let b = rel(
            "B",
            &[("K", DataType::Int), ("P", DataType::Int)],
            vec![tup![1, 11], tup![3, 31], tup![4, 41]],
        );
        let c = rel(
            "C",
            &[("K", DataType::Int), ("P", DataType::Int)],
            vec![tup![1, 12], tup![2, 22], tup![3, 32]],
        );
        QuerySpec {
            name: "V".into(),
            inputs: vec![
                QueryInput {
                    binding: "A".into(),
                    relation: a,
                    stats: None,
                },
                QueryInput {
                    binding: "B".into(),
                    relation: b,
                    stats: None,
                },
                QueryInput {
                    binding: "C".into(),
                    relation: c,
                    stats: None,
                },
            ],
            clauses: vec![
                PrimitiveClause::eq(ColumnRef::parse("A.K"), ColumnRef::parse("B.K")),
                PrimitiveClause::eq(ColumnRef::parse("B.K"), ColumnRef::parse("C.K")),
            ],
            projection: vec![
                ColumnRef::parse("A.K"),
                ColumnRef::parse("B.P"),
                ColumnRef::parse("C.P"),
            ],
            output: vec![
                ColumnRef::bare("K"),
                ColumnRef::bare("BP"),
                ColumnRef::bare("CP"),
            ],
        }
    }

    #[test]
    fn chain_join_matches_naive_reference() {
        let spec = chain_spec();
        let p = plan(spec).unwrap();
        let out = p.execute().unwrap();
        let mut got = out.tuples().to_vec();
        got.sort();
        assert_eq!(got, vec![tup![1, 11, 12], tup![3, 31, 32]]);
        assert_eq!(out.name(), "V");
        assert_eq!(out.schema().column(1).column, ColumnRef::bare("BP"));
    }

    #[test]
    fn exec_modes_agree_byte_for_byte() {
        let p = plan(chain_spec()).unwrap();
        let columnar = execute_with(&p, ExecMode::Columnar).unwrap();
        let row = execute_with(&p, ExecMode::RowOriented).unwrap();
        assert_eq!(columnar.tuples(), row.tuples(), "same tuples, same order");
        assert_eq!(columnar, row);
    }

    #[test]
    fn exec_modes_agree_on_text_keys() {
        let l = rel(
            "L",
            &[("K", DataType::Text), ("P", DataType::Int)],
            vec![tup!["a", 1], tup!["b", 2], tup!["a", 3]],
        );
        let r_ = rel(
            "R",
            &[("K", DataType::Text), ("Q", DataType::Int)],
            vec![tup!["a", 10], tup!["c", 30], tup!["a", 40]],
        );
        let spec = QuerySpec {
            name: "V".into(),
            inputs: vec![
                QueryInput {
                    binding: "L".into(),
                    relation: l,
                    stats: None,
                },
                QueryInput {
                    binding: "R".into(),
                    relation: r_,
                    stats: None,
                },
            ],
            clauses: vec![PrimitiveClause::eq(
                ColumnRef::parse("L.K"),
                ColumnRef::parse("R.K"),
            )],
            projection: vec![ColumnRef::parse("L.P"), ColumnRef::parse("R.Q")],
            output: vec![ColumnRef::bare("P"), ColumnRef::bare("Q")],
        };
        let p = plan(spec).unwrap();
        let columnar = execute_with(&p, ExecMode::Columnar).unwrap();
        let row = execute_with(&p, ExecMode::RowOriented).unwrap();
        assert_eq!(columnar.tuples(), row.tuples());
        assert_eq!(columnar.cardinality(), 4); // 2 'a' × 2 'a'
    }

    #[test]
    fn scan_without_pushdown_shares_storage() {
        let a = rel("A", &[("K", DataType::Int)], vec![tup![1], tup![2]]);
        let spec = QuerySpec {
            name: "V".into(),
            inputs: vec![QueryInput {
                binding: "A".into(),
                relation: a.clone(),
                stats: None,
            }],
            clauses: vec![],
            projection: vec![ColumnRef::parse("A.K")],
            output: vec![ColumnRef::bare("K")],
        };
        let p = plan(spec).unwrap();
        // The scan itself is zero-copy; only the projection materializes.
        match &p.root {
            PlanNode::Scan { input, pushdown } => {
                assert_eq!(*input, 0);
                assert!(pushdown.is_none());
            }
            other => panic!("expected a bare scan, got {other:?}"),
        }
        let out = p.execute().unwrap();
        assert_eq!(out.tuples(), &[tup![1], tup![2]]);
    }

    #[test]
    fn pushdown_filter_applies_during_scan() {
        let a = rel(
            "A",
            &[("K", DataType::Int)],
            (0..10).map(|k| tup![k]).collect(),
        );
        let spec = QuerySpec {
            name: "V".into(),
            inputs: vec![QueryInput {
                binding: "A".into(),
                relation: a,
                stats: None,
            }],
            clauses: vec![PrimitiveClause::lit(
                ColumnRef::parse("A.K"),
                CompOp::Lt,
                Value::Int(3),
            )],
            projection: vec![ColumnRef::parse("A.K")],
            output: vec![ColumnRef::bare("K")],
        };
        let out = plan(spec).unwrap().execute().unwrap();
        assert_eq!(out.tuples(), &[tup![0], tup![1], tup![2]]);
    }

    #[test]
    fn filter_keeping_everything_is_zero_copy() {
        let a = rel(
            "A",
            &[("K", DataType::Int)],
            (0..10).map(|k| tup![k]).collect(),
        );
        let pred = Predicate::single(PrimitiveClause::lit(
            ColumnRef::parse("A.K"),
            CompOp::Ge,
            Value::Int(0),
        ));
        // Columnar path.
        let sel = filter_rows(&a, &pred).unwrap();
        let kept = materialize_selection(&a, &sel);
        assert!(
            kept.shares_tuples_with(&a),
            "an all-pass filter must not materialize a copy"
        );
        // And through a full plan: the scan output of an all-pass pushdown
        // shares storage with the base extent.
        let spec = QuerySpec {
            name: "V".into(),
            inputs: vec![QueryInput {
                binding: "A".into(),
                relation: a.clone(),
                stats: None,
            }],
            clauses: vec![pred.clauses()[0].clone()],
            projection: vec![ColumnRef::parse("A.K")],
            output: vec![ColumnRef::bare("K")],
        };
        let p = plan(spec).unwrap();
        let opts = ExecOptions::default();
        let ctx = Ctx {
            mode: ExecMode::Columnar,
            workers: 1,
            opts: &opts,
        };
        let scanned = eval(&p, &p.root, ctx, 0).unwrap();
        assert!(scanned.shares_tuples_with(&a));
    }

    #[test]
    fn join_with_counts_matches_algebra_join() {
        let delta = rel(
            "D",
            &[("K", DataType::Int), ("X", DataType::Int)],
            vec![tup![1, 0], tup![2, 0], tup![9, 0]],
        );
        let next = rel(
            "N",
            &[("K", DataType::Int), ("Y", DataType::Int)],
            vec![tup![1, 5], tup![1, 6], tup![2, 7]],
        );
        let on = vec![PrimitiveClause::eq(
            ColumnRef::parse("D.K"),
            ColumnRef::parse("N.K"),
        )];
        let (joined, counts) = join_with_counts(&delta, &next, &on).unwrap();
        assert_eq!(counts, vec![2, 1, 0]);
        let reference = algebra::join(&delta, &next, &Predicate::new(on)).unwrap();
        assert_eq!(joined.tuples(), reference.tuples());
    }

    #[test]
    fn join_with_counts_keyless_scans_everything() {
        let delta = rel("D", &[("X", DataType::Int)], vec![tup![1], tup![2]]);
        let next = rel(
            "N",
            &[("Y", DataType::Int)],
            vec![tup![1], tup![2], tup![3]],
        );
        let on = vec![PrimitiveClause::cols(
            ColumnRef::parse("D.X"),
            CompOp::Lt,
            ColumnRef::parse("N.Y"),
        )];
        let (joined, counts) = join_with_counts(&delta, &next, &on).unwrap();
        assert_eq!(counts, vec![3, 3], "keyless probe scans the relation");
        assert_eq!(joined.cardinality(), 3); // (1,2),(1,3),(2,3)
    }

    /// A join big enough that the planner would accept parallelism on its
    /// own, with text keys so the interned scalar-key path is exercised.
    fn wide_spec() -> QuerySpec {
        let f = rel(
            "F",
            &[("T", DataType::Text), ("X", DataType::Int)],
            (0..3000)
                .map(|i| tup![format!("t{}", i % 100), i])
                .collect(),
        );
        let d = rel(
            "D",
            &[("T", DataType::Text), ("Y", DataType::Int)],
            (0..100).map(|i| tup![format!("t{i}"), i * 10]).collect(),
        );
        QuerySpec {
            name: "W".into(),
            inputs: vec![
                QueryInput {
                    binding: "F".into(),
                    relation: f,
                    stats: None,
                },
                QueryInput {
                    binding: "D".into(),
                    relation: d,
                    stats: None,
                },
            ],
            clauses: vec![
                PrimitiveClause::eq(ColumnRef::parse("F.T"), ColumnRef::parse("D.T")),
                PrimitiveClause::lit(ColumnRef::parse("F.X"), CompOp::Lt, Value::Int(2500)),
            ],
            projection: vec![ColumnRef::parse("F.X"), ColumnRef::parse("D.Y")],
            output: vec![ColumnRef::bare("X"), ColumnRef::bare("Y")],
        }
    }

    #[test]
    fn parallel_execution_is_byte_identical_across_knobs() {
        let p = plan(wide_spec()).unwrap();
        let serial = execute_with(&p, ExecMode::Columnar).unwrap();
        let row = execute_with(&p, ExecMode::RowOriented).unwrap();
        assert_eq!(serial.tuples(), row.tuples());
        for parallelism in [2, 4, 8] {
            for morsel_rows in [1, 7, 64, 4096] {
                let opts = ExecOptions {
                    parallelism,
                    morsel_rows,
                    force_parallel: true,
                };
                let out = execute_with_options(&p, ExecMode::Columnar, &opts).unwrap();
                assert_eq!(
                    out.tuples(),
                    serial.tuples(),
                    "parallelism={parallelism} morsel_rows={morsel_rows}"
                );
                assert_eq!(out, serial);
            }
        }
    }

    #[test]
    fn planner_declines_parallelism_for_tiny_inputs() {
        let p = plan(chain_spec()).unwrap();
        assert_eq!(p.estimate().effective_parallelism(8), 1);
        let fallbacks = eve_trace::global().counter("exec.serial_fallbacks");
        let before = fallbacks.get();
        let out = execute_with_options(&p, ExecMode::Columnar, &ExecOptions::with_parallelism(8))
            .unwrap();
        assert!(fallbacks.get() > before);
        assert_eq!(out, execute_with(&p, ExecMode::Columnar).unwrap());
    }

    #[test]
    fn parallel_execution_moves_the_morsel_counters() {
        let p = plan(wide_spec()).unwrap();
        assert!(
            p.estimate().effective_parallelism(8) > 1,
            "wide spec must be big enough for the planner to accept workers"
        );
        let before = eve_trace::global().snapshot();
        let _ = execute_with_options(
            &p,
            ExecMode::Columnar,
            &ExecOptions {
                parallelism: 4,
                morsel_rows: 64,
                force_parallel: false,
            },
        )
        .unwrap();
        let after = eve_trace::global().snapshot();
        for name in ["exec.morsels", "exec.partitions", "exec.parallel_ops"] {
            assert!(after.counter(name) > before.counter(name), "{name} moved");
        }
    }

    #[test]
    fn mismatched_key_types_fall_back_to_row_join() {
        // `D.K = N.K` with K Int on one side and Text on the other: legal
        // to plan (no type check on key extraction), but no tuple can ever
        // match. The scalar-key path must not report false matches.
        let delta = rel("D", &[("K", DataType::Int)], vec![tup![1], tup![2]]);
        let next = rel("N", &[("K", DataType::Text)], vec![tup!["1"], tup!["a"]]);
        let on = vec![PrimitiveClause::eq(
            ColumnRef::parse("D.K"),
            ColumnRef::parse("N.K"),
        )];
        let (joined, counts) = join_with_counts(&delta, &next, &on).unwrap();
        assert!(joined.is_empty());
        assert_eq!(counts, vec![0, 0]);
    }
}
