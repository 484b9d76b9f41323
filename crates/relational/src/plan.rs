//! Cost-ordered physical query planning.
//!
//! The paper's trade-off analysis (§6) *estimates* maintenance costs from
//! declared statistics; this module brings the same statistics into the
//! measured execution path. A [`QuerySpec`] — the neutral, lowered form of a
//! select-project-join view over bound input extents — is compiled into a
//! [`PhysicalPlan`]:
//!
//! * single-input conditions are **pushed down** into the scans,
//! * hash-join **key columns are resolved at plan time** (no per-tuple
//!   schema lookups during execution),
//! * join order is chosen by a **selectivity-driven greedy search**: start
//!   from the smallest estimated input, repeatedly join the connected input
//!   that minimizes the estimated intermediate cardinality, and build each
//!   hash table on the smaller estimated side,
//! * cardinalities come from declared [`RelationStats`] when the caller
//!   registered them (the MKB's §6.1 statistics), falling back to
//!   **measured** statistics — extent cardinality, sampled selection
//!   selectivity and distinct-key counts — when no declaration exists.
//!
//! Every plan carries a [`PlanEstimate`] (abstract I/O blocks + tuple
//! touches), the measured-side counterpart of the analytic `CF_IO`/`CF_T`
//! factors, so estimated and executed costs can be reported side by side.
//! Execution lives in [`crate::exec`]; the naive left-to-right evaluator the
//! planner is differentially tested against stays in the callers.

use std::collections::HashSet;

use crate::error::{Error, Result};
use crate::predicate::{CompOp, Operand, Predicate, PrimitiveClause};
use crate::relation::Relation;
use crate::schema::{ColumnDef, ColumnRef, Schema};
use crate::stats::RelationStats;
use crate::types::Value;

/// Plan-time selectivity sampling depth for the measured-stat fallback.
const SELECTIVITY_SAMPLE: usize = 256;

/// Default blocking factor when no [`RelationStats`] declare one (the
/// paper's Table 1 value).
const DEFAULT_BLOCKING_FACTOR: u64 = 10;

/// Selectivity assumed for a non-equality join clause during ordering.
const THETA_SELECTIVITY: f64 = 0.5;

/// One bound input of a query: a binding name, the (already
/// binding-qualified) extent, and optionally the declared statistics the
/// planner should trust over measurement.
#[derive(Debug, Clone)]
pub struct QueryInput {
    /// Binding name (FROM alias); informational, the schema already
    /// qualifies columns with it.
    pub binding: String,
    /// The bound extent. `Arc`-shared, so cloning into the plan is free.
    pub relation: Relation,
    /// Declared statistics (cardinality, selectivity, blocking factor).
    /// `None` selects the measured fallback.
    pub stats: Option<RelationStats>,
}

/// The lowered, engine-neutral form of a select-project-join query.
#[derive(Debug, Clone)]
pub struct QuerySpec {
    /// Name of the output relation.
    pub name: String,
    /// Bound inputs in declaration (FROM) order.
    pub inputs: Vec<QueryInput>,
    /// Conjunctive conditions over the inputs' qualified columns.
    pub clauses: Vec<PrimitiveClause>,
    /// Projection columns (resolved against the joined schema).
    pub projection: Vec<ColumnRef>,
    /// Output column names, positionally matching `projection`.
    pub output: Vec<ColumnRef>,
}

/// A physical operator tree. Schemas and key indices are resolved at plan
/// time; execution never consults column names.
#[derive(Debug, Clone)]
pub(crate) enum PlanNode {
    /// Scan of `inputs[input]`, with an optional pushed-down selection.
    Scan {
        /// Index into [`PhysicalPlan::inputs`].
        input: usize,
        /// Selection applied during the scan (single-input clauses).
        pushdown: Option<Predicate>,
    },
    /// Index-backed scan of `inputs[input]`: the most selective
    /// `column θ literal` clause is answered by a secondary index (hash
    /// for `=`, sorted for ranges; built lazily in the relation's shared
    /// storage), the remaining pushed-down clauses filter the matches.
    /// Chosen over [`PlanNode::Scan`] only when the cost model says the
    /// index I/O undercuts the full scan.
    IndexScan {
        /// Index into [`PhysicalPlan::inputs`].
        input: usize,
        /// Column position of the indexed clause in the input schema.
        col: usize,
        /// The indexed clause's operator.
        op: CompOp,
        /// The indexed clause's literal.
        key: Value,
        /// Pushed-down clauses minus the indexed one.
        residual: Option<Predicate>,
        /// The full pushed-down conjunction (indexed clause included);
        /// the row-oriented execution mode evaluates this as a filter.
        pushdown: Predicate,
    },
    /// Hash equi-join: `build` is materialized into a hash table on
    /// `build_keys`, `probe` streams against it. Output tuples are
    /// `probe ++ build`.
    HashJoin {
        /// Probe (outer) side.
        probe: Box<PlanNode>,
        /// Build (inner) side — the smaller estimated input.
        build: Box<PlanNode>,
        /// Key column indices in the probe schema.
        probe_keys: Vec<usize>,
        /// Key column indices in the build schema.
        build_keys: Vec<usize>,
        /// Non-key clauses evaluated on the concatenated tuple.
        residual: Predicate,
        /// Output schema (`probe ++ build`), resolved at plan time.
        schema: Schema,
    },
    /// Fallback θ-join (no usable equality key): filtered nested loop.
    NestedLoop {
        /// Outer side.
        outer: Box<PlanNode>,
        /// Inner side.
        inner: Box<PlanNode>,
        /// Join condition on the concatenated tuple (possibly empty —
        /// cartesian product).
        condition: Predicate,
        /// Output schema (`outer ++ inner`).
        schema: Schema,
    },
}

/// Estimated resource usage of a plan, in the units the paper's cost model
/// uses: block I/Os for reading base extents and tuple touches for CPU work.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanEstimate {
    /// Estimated cardinality of the query result.
    pub output_rows: f64,
    /// Block reads to scan every input once (`Σ ⌈|R|/bfr⌉`, Eq. 32's
    /// full-scan term per relation).
    pub io_blocks: f64,
    /// Tuples touched by selections, hash builds/probes and emitted
    /// intermediates.
    pub cpu_tuples: f64,
    /// Total abstract cost: `io_blocks + cpu_tuples`.
    pub total: f64,
    /// How many leaves the cost model routed through a secondary index
    /// instead of a full scan.
    pub index_scans: u32,
}

impl PlanEstimate {
    /// Abstract cost charged per extra worker: thread wake-up plus morsel
    /// dispatch, in the same tuple-touch units as `cpu_tuples`. A worker
    /// only pays off once it saves more than this.
    pub(crate) const MORSEL_DISPATCH_COST: f64 = 256.0;

    /// Modeled cost of executing this plan with `workers` morsel workers:
    /// I/O stays serial (extents are memory-resident Arc-shared storage,
    /// charged identically either way), CPU tuple touches divide across
    /// workers, and each extra worker charges a flat dispatch overhead.
    /// `parallel_total(1) == total`.
    #[must_use]
    pub(crate) fn parallel_total(&self, workers: usize) -> f64 {
        let w = workers.max(1) as f64;
        self.io_blocks + self.cpu_tuples / w + Self::MORSEL_DISPATCH_COST * (w - 1.0)
    }

    /// The worker count the planner actually runs with when `requested`
    /// workers are offered: the count in `1..=requested` minimizing
    /// [`Self::parallel_total`]. Tiny inputs come back as `1` — the
    /// dispatch overhead would outweigh the per-worker CPU savings — which
    /// is how the planner declines parallelism without a separate flag.
    #[must_use]
    pub(crate) fn effective_parallelism(&self, requested: usize) -> usize {
        let mut best = 1;
        let mut best_cost = self.parallel_total(1);
        for w in 2..=requested {
            let cost = self.parallel_total(w);
            if cost < best_cost {
                best = w;
                best_cost = cost;
            }
        }
        best
    }
}

/// Summary of one join step, for diagnostics and plan-shape assertions.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinSummary {
    /// Bindings on the probe (outer) side.
    pub probe: Vec<String>,
    /// Bindings on the build (inner) side.
    pub build: Vec<String>,
    /// Whether the step is a hash join (vs. nested loop).
    pub hash: bool,
    /// Estimated cardinality of the step's output.
    pub estimated_rows: f64,
}

/// A compiled, executable query plan over shared-storage inputs.
#[derive(Debug, Clone)]
pub struct PhysicalPlan {
    pub(crate) name: String,
    pub(crate) inputs: Vec<QueryInput>,
    pub(crate) root: PlanNode,
    pub(crate) projection: Vec<usize>,
    pub(crate) output_schema: Schema,
    estimate: PlanEstimate,
    order: Vec<usize>,
    joins: Vec<JoinSummary>,
}

impl PhysicalPlan {
    /// The plan's cost estimate.
    #[must_use]
    pub fn estimate(&self) -> PlanEstimate {
        self.estimate
    }

    /// Input indices in the order the plan joins them (first = start of the
    /// greedy chain).
    #[must_use]
    pub fn join_order(&self) -> &[usize] {
        &self.order
    }

    /// Per-join summaries in execution order.
    #[must_use]
    pub fn joins(&self) -> &[JoinSummary] {
        &self.joins
    }

    /// Executes the plan (see [`crate::exec::execute`]).
    ///
    /// # Errors
    ///
    /// Propagates predicate evaluation failures.
    pub fn execute(&self) -> Result<Relation> {
        crate::exec::execute(self)
    }

    /// One-line-per-operator rendering for logs and benchmarks.
    #[must_use]
    pub fn explain(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "plan {} — est rows {:.1}, io {:.0}, cpu {:.0}\n",
            self.name, self.estimate.output_rows, self.estimate.io_blocks, self.estimate.cpu_tuples
        ));
        explain_node(self, &self.root, 1, &mut out);
        out
    }
}

fn explain_node(plan: &PhysicalPlan, node: &PlanNode, depth: usize, out: &mut String) {
    let pad = "  ".repeat(depth);
    match node {
        PlanNode::Scan { input, pushdown } => {
            let i = &plan.inputs[*input];
            match pushdown {
                Some(p) => out.push_str(&format!("{pad}scan {} σ[{p}]\n", i.binding)),
                None => out.push_str(&format!("{pad}scan {}\n", i.binding)),
            }
        }
        PlanNode::IndexScan {
            input,
            op,
            key,
            residual,
            ..
        } => {
            let i = &plan.inputs[*input];
            let kind = if *op == CompOp::Eq { "hash" } else { "sorted" };
            out.push_str(&format!(
                "{pad}index-scan {} ({kind} {op} {key}){}\n",
                i.binding,
                match residual {
                    Some(r) => format!(" σ[{r}]"),
                    None => String::new(),
                }
            ));
        }
        PlanNode::HashJoin {
            probe,
            build,
            probe_keys,
            residual,
            ..
        } => {
            out.push_str(&format!(
                "{pad}hash-join on {} key(s){}\n",
                probe_keys.len(),
                if residual.is_true() {
                    String::new()
                } else {
                    format!(" residual[{residual}]")
                }
            ));
            explain_node(plan, probe, depth + 1, out);
            explain_node(plan, build, depth + 1, out);
        }
        PlanNode::NestedLoop {
            outer,
            inner,
            condition,
            ..
        } => {
            out.push_str(&format!("{pad}nested-loop [{condition}]\n"));
            explain_node(plan, outer, depth + 1, out);
            explain_node(plan, inner, depth + 1, out);
        }
    }
}

/// Splits join clauses between two schemas into hash-key column pairs and
/// residual clauses — exactly the key extraction [`crate::algebra::join`]
/// performs, shared so planner, executor and the delta-join path agree.
pub(crate) fn split_equi_keys(
    left: &Schema,
    left_name: &str,
    right: &Schema,
    right_name: &str,
    clauses: &[PrimitiveClause],
) -> (Vec<(usize, usize)>, Vec<PrimitiveClause>) {
    let mut keys = Vec::new();
    let mut residual = Vec::new();
    for clause in clauses {
        if clause.op == CompOp::Eq {
            if let Operand::Column(rc) = &clause.right {
                if let (Ok(li), Ok(ri)) = (
                    left.resolve(&clause.left, left_name),
                    right.resolve(rc, right_name),
                ) {
                    keys.push((li, ri));
                    continue;
                }
                if let (Ok(ri), Ok(li)) = (
                    right.resolve(&clause.left, right_name),
                    left.resolve(rc, left_name),
                ) {
                    keys.push((li, ri));
                    continue;
                }
            }
        }
        residual.push(clause.clone());
    }
    (keys, residual)
}

/// Whether every column of `clause` resolves in `schema`.
fn resolvable(clause: &PrimitiveClause, schema: &Schema, name: &str) -> bool {
    clause
        .columns()
        .iter()
        .all(|c| schema.resolve(c, name).is_ok())
}

/// Plan-time sampling depth for distinct-key counting.
const DISTINCT_SAMPLE: usize = 1024;

/// Estimated number of distinct values in column `idx` of `rel` (measured
/// join-key statistic), from a bounded prefix sample: a sample that is
/// (almost) all-distinct extrapolates to a unique key, anything else is
/// taken as the full distinct count of a low-cardinality column.
fn distinct_count(rel: &Relation, idx: usize) -> usize {
    let n = rel.cardinality();
    let m = n.min(DISTINCT_SAMPLE);
    let s = rel.tuples()[..m]
        .iter()
        .map(|t| t.get(idx))
        .collect::<HashSet<_>>()
        .len();
    if m > 0 && s * 20 >= m * 19 {
        n // ≥95% of the sample distinct: treat as a key column
    } else {
        s
    }
}

/// Fraction of (up to [`SELECTIVITY_SAMPLE`]) sampled tuples satisfying
/// `pred` — the measured selectivity fallback.
#[allow(clippy::cast_precision_loss)]
fn sampled_selectivity(rel: &Relation, pred: &Predicate) -> Result<f64> {
    let n = rel.cardinality().min(SELECTIVITY_SAMPLE);
    if n == 0 {
        return Ok(1.0);
    }
    let mut hits = 0usize;
    for t in &rel.tuples()[..n] {
        if pred.eval(rel.schema(), t, rel.name())? {
            hits += 1;
        }
    }
    Ok(hits as f64 / n as f64)
}

/// A cost-justified index access path for one leaf.
struct IndexChoice {
    /// Position of the chosen clause in the pushed-down conjunction.
    clause: usize,
    /// Column position of the clause's left side in the input schema.
    col: usize,
    /// Estimated index I/O: one probe + blocks holding the matches.
    est_io: f64,
    /// Estimated matching rows of the indexed clause alone.
    est_matches: f64,
}

/// Weighs every indexable pushed-down clause (`column θ literal` with
/// `θ ∈ {=, <, ≤, ≥, >}`) against the full scan: estimated index I/O is
/// one probe plus `⌈matches/bfr⌉` blocks, with matches from the declared
/// selectivity or a sampled per-clause measurement. Returns the cheapest
/// clause that undercuts `full_io`, or `None` when scanning wins.
fn choose_index_clause(
    rel: &Relation,
    input: &QueryInput,
    pred: &Predicate,
    base_rows: f64,
    bfr: f64,
    full_io: f64,
) -> Result<Option<IndexChoice>> {
    let mut best: Option<IndexChoice> = None;
    for (ci, clause) in pred.clauses().iter().enumerate() {
        if !matches!(
            clause.op,
            CompOp::Eq | CompOp::Lt | CompOp::Le | CompOp::Ge | CompOp::Gt
        ) {
            continue;
        }
        let Operand::Literal(_) = &clause.right else {
            continue;
        };
        let Ok(col) = rel.schema().resolve(&clause.left, &input.binding) else {
            continue;
        };
        let clause_sel = match &input.stats {
            Some(s) => s.selectivity,
            None => sampled_selectivity(rel, &Predicate::single(clause.clone()))?,
        };
        let est_matches = base_rows * clause_sel;
        let est_io = 1.0 + (est_matches / bfr).ceil();
        if est_io < full_io && best.as_ref().is_none_or(|b| est_io < b.est_io) {
            best = Some(IndexChoice {
                clause: ci,
                col,
                est_io,
                est_matches,
            });
        }
    }
    Ok(best)
}

/// One subtree under construction during the greedy search.
struct Sub {
    node: PlanNode,
    schema: Schema,
    est_rows: f64,
    inputs: Vec<usize>,
    name: String,
}

/// Compiles a [`QuerySpec`] into a [`PhysicalPlan`].
///
/// # Errors
///
/// * [`Error::SchemaMismatch`] for an empty input list, conditions that
///   reference no input, or a projection/output length mismatch,
/// * column resolution and predicate type-check failures, exactly where the
///   naive evaluator would raise them.
#[allow(clippy::too_many_lines, clippy::cast_precision_loss)]
pub fn plan(spec: QuerySpec) -> Result<PhysicalPlan> {
    if spec.inputs.is_empty() {
        return Err(Error::SchemaMismatch {
            detail: "query needs at least one input".into(),
        });
    }
    if spec.projection.len() != spec.output.len() {
        return Err(Error::SchemaMismatch {
            detail: format!(
                "projection has {} columns, output names {}",
                spec.projection.len(),
                spec.output.len()
            ),
        });
    }

    // Assign each clause to the first single input that resolves all its
    // columns (pushdown), or keep it for the join phase.
    let mut local: Vec<Vec<PrimitiveClause>> = vec![Vec::new(); spec.inputs.len()];
    let mut pool: Vec<PrimitiveClause> = Vec::new();
    'clauses: for clause in &spec.clauses {
        for (i, input) in spec.inputs.iter().enumerate() {
            if resolvable(clause, input.relation.schema(), &input.binding) {
                local[i].push(clause.clone());
                continue 'clauses;
            }
        }
        pool.push(clause.clone());
    }

    // Leaf subtrees: scans with pushed-down selections and base estimates.
    // When a pushed-down clause compares a column against a literal, the
    // cost model weighs an index-backed scan (one probe plus the blocks
    // holding the estimated matches) against the full scan and takes the
    // cheaper access path.
    let mut cpu_tuples = 0.0f64;
    let mut io_blocks = 0.0f64;
    let mut index_scans = 0u32;
    let mut leaves: Vec<Sub> = Vec::with_capacity(spec.inputs.len());
    for (i, (input, local_clauses)) in spec.inputs.iter().zip(local).enumerate() {
        let rel = &input.relation;
        let base_rows = match &input.stats {
            Some(s) => s.cardinality as f64,
            None => rel.cardinality() as f64,
        };
        let full_io = match &input.stats {
            Some(s) => s.full_scan_ios() as f64,
            None => (rel.cardinality() as u64).div_ceil(DEFAULT_BLOCKING_FACTOR) as f64,
        };
        let bfr = match &input.stats {
            Some(s) => s.blocking_factor as f64,
            None => DEFAULT_BLOCKING_FACTOR as f64,
        };
        if local_clauses.is_empty() {
            io_blocks += full_io;
            leaves.push(Sub {
                node: PlanNode::Scan {
                    input: i,
                    pushdown: None,
                },
                schema: rel.schema().clone(),
                est_rows: base_rows,
                inputs: vec![i],
                name: input.binding.clone(),
            });
            continue;
        }
        let pred = Predicate::new(local_clauses);
        pred.type_check(rel.schema(), &input.binding)?;
        let sel = match &input.stats {
            Some(s) => s.selectivity,
            None => sampled_selectivity(rel, &pred)?,
        };
        let est_rows = base_rows * sel;
        let choice = choose_index_clause(rel, input, &pred, base_rows, bfr, full_io)?;
        let node = match choice {
            Some(c) => {
                io_blocks += c.est_io;
                // Only the matched tuples are touched (plus the probe).
                cpu_tuples += c.est_matches + 1.0;
                index_scans += 1;
                let clause = &pred.clauses()[c.clause];
                let rest: Vec<PrimitiveClause> = pred
                    .clauses()
                    .iter()
                    .enumerate()
                    .filter(|(k, _)| *k != c.clause)
                    .map(|(_, cl)| cl.clone())
                    .collect();
                let Operand::Literal(key) = &clause.right else {
                    unreachable!("index candidates compare against literals");
                };
                PlanNode::IndexScan {
                    input: i,
                    col: c.col,
                    op: clause.op,
                    key: key.clone(),
                    residual: if rest.is_empty() {
                        None
                    } else {
                        Some(Predicate::new(rest))
                    },
                    pushdown: pred,
                }
            }
            None => {
                io_blocks += full_io;
                // The filter pass touches every (estimated) base tuple —
                // priced from the same statistic as the cardinality itself.
                cpu_tuples += base_rows;
                PlanNode::Scan {
                    input: i,
                    pushdown: Some(pred),
                }
            }
        };
        leaves.push(Sub {
            node,
            schema: rel.schema().clone(),
            est_rows,
            inputs: vec![i],
            name: input.binding.clone(),
        });
    }

    // Greedy chain: start from the smallest estimated leaf; repeatedly fold
    // in the connected leaf minimizing the estimated intermediate size.
    let start = leaves
        .iter()
        .enumerate()
        .min_by(|(ai, a), (bi, b)| {
            a.est_rows
                .partial_cmp(&b.est_rows)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(ai.cmp(bi))
        })
        .map(|(i, _)| i)
        .unwrap_or(0);
    let mut cur = leaves.remove(start);
    let mut order: Vec<usize> = cur.inputs.clone();
    let mut joins: Vec<JoinSummary> = Vec::new();

    while !leaves.is_empty() {
        // Score every remaining leaf; prefer connected candidates.
        let mut best: Option<(usize, bool, f64)> = None; // (leaf idx, connected, est)
        let mut first_err: Option<Error> = None;
        for (k, cand) in leaves.iter().enumerate() {
            let combined = match cur.schema.concat(&cand.schema) {
                Ok(s) => s,
                Err(e) => {
                    first_err.get_or_insert(e);
                    continue;
                }
            };
            let applicable: Vec<&PrimitiveClause> = pool
                .iter()
                .filter(|c| resolvable(c, &combined, &cand.name))
                .collect();
            let connected = !applicable.is_empty();
            let mut est = cur.est_rows * cand.est_rows;
            let (keys, residual) = split_equi_keys(
                &cur.schema,
                &cur.name,
                &cand.schema,
                &cand.name,
                &applicable.iter().map(|c| (*c).clone()).collect::<Vec<_>>(),
            );
            for &(_, build_idx) in &keys {
                let base = &spec.inputs[cand.inputs[0]].relation;
                let distinct = distinct_count(base, build_idx).max(1);
                est /= distinct as f64;
            }
            est *= THETA_SELECTIVITY.powi(i32::try_from(residual.len()).unwrap_or(i32::MAX));
            let better = match &best {
                None => true,
                Some((_, best_conn, best_est)) => {
                    (connected && !best_conn) || (connected == *best_conn && est < *best_est)
                }
            };
            if better {
                best = Some((k, connected, est));
            }
        }
        let Some((k, _, est_out)) = best else {
            // Every candidate failed schema concatenation (duplicate
            // qualified columns) — surface the first failure.
            return Err(first_err.unwrap_or(Error::SchemaMismatch {
                detail: "no joinable input".into(),
            }));
        };
        let cand = leaves.remove(k);
        order.extend(&cand.inputs);

        // Consume the clauses that become resolvable at this join.
        let combined = cur.schema.concat(&cand.schema)?;
        let (applicable, rest): (Vec<_>, Vec<_>) = pool
            .into_iter()
            .partition(|c| resolvable(c, &combined, &cand.name));
        pool = rest;

        // Build on the smaller estimated side, probe with the larger.
        let (probe, build) = if cand.est_rows <= cur.est_rows {
            (cur, cand)
        } else {
            (cand, cur)
        };
        let schema = probe.schema.concat(&build.schema)?;
        let name = format!("{}⋈{}", probe.name, build.name);
        let (keys, residual_clauses) = split_equi_keys(
            &probe.schema,
            &probe.name,
            &build.schema,
            &build.name,
            &applicable,
        );
        let residual = Predicate::new(residual_clauses);
        residual.type_check(&schema, &name)?;
        cpu_tuples += probe.est_rows + build.est_rows + est_out;
        joins.push(JoinSummary {
            probe: probe
                .inputs
                .iter()
                .map(|&i| spec.inputs[i].binding.clone())
                .collect(),
            build: build
                .inputs
                .iter()
                .map(|&i| spec.inputs[i].binding.clone())
                .collect(),
            hash: !keys.is_empty(),
            estimated_rows: est_out,
        });
        let mut inputs = probe.inputs.clone();
        inputs.extend(&build.inputs);
        cur = if keys.is_empty() {
            Sub {
                node: PlanNode::NestedLoop {
                    outer: Box::new(probe.node),
                    inner: Box::new(build.node),
                    condition: residual,
                    schema: schema.clone(),
                },
                schema,
                est_rows: est_out,
                inputs,
                name,
            }
        } else {
            let (probe_keys, build_keys): (Vec<usize>, Vec<usize>) = keys.into_iter().unzip();
            Sub {
                node: PlanNode::HashJoin {
                    probe: Box::new(probe.node),
                    build: Box::new(build.node),
                    probe_keys,
                    build_keys,
                    residual,
                    schema: schema.clone(),
                },
                schema,
                est_rows: est_out,
                inputs,
                name,
            }
        };
    }

    if !pool.is_empty() {
        return Err(Error::SchemaMismatch {
            detail: format!(
                "conditions reference no FROM relation: {}",
                Predicate::new(pool)
            ),
        });
    }

    // Projection + rename, resolved at plan time.
    let projection: Vec<usize> = spec
        .projection
        .iter()
        .map(|c| cur.schema.resolve(c, &spec.name))
        .collect::<Result<_>>()?;
    let output_schema = Schema::new(
        projection
            .iter()
            .zip(&spec.output)
            .map(|(&idx, name)| {
                let col = cur.schema.column(idx);
                ColumnDef::sized(name.clone(), col.ty, col.byte_size)
            })
            .collect(),
    )?;
    cpu_tuples += cur.est_rows;

    let estimate = PlanEstimate {
        output_rows: cur.est_rows,
        io_blocks,
        cpu_tuples,
        total: io_blocks + cpu_tuples,
        index_scans,
    };
    Ok(PhysicalPlan {
        name: spec.name,
        inputs: spec.inputs,
        root: cur.node,
        projection,
        output_schema,
        estimate,
        order,
        joins,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tup;
    use crate::types::{DataType, Value};

    fn rel(name: &str, cols: &[(&str, DataType)], rows: Vec<crate::tuple::Tuple>) -> Relation {
        Relation::with_tuples(name, Schema::of(cols).unwrap().qualify(name), rows).unwrap()
    }

    fn input(binding: &str, relation: Relation) -> QueryInput {
        QueryInput {
            binding: binding.into(),
            relation,
            stats: None,
        }
    }

    fn two_way_spec(big_rows: i64, small_rows: i64) -> QuerySpec {
        let big = rel(
            "B",
            &[("K", DataType::Int), ("P", DataType::Int)],
            (0..big_rows).map(|k| tup![k, k % 7]).collect(),
        );
        let small = rel(
            "S",
            &[("K", DataType::Int), ("Q", DataType::Int)],
            (0..small_rows).map(|k| tup![k, k]).collect(),
        );
        QuerySpec {
            name: "V".into(),
            inputs: vec![input("B", big), input("S", small)],
            clauses: vec![PrimitiveClause::eq(
                ColumnRef::parse("B.K"),
                ColumnRef::parse("S.K"),
            )],
            projection: vec![ColumnRef::parse("B.K"), ColumnRef::parse("S.Q")],
            output: vec![ColumnRef::bare("K"), ColumnRef::bare("Q")],
        }
    }

    #[test]
    fn hash_table_builds_on_smaller_side() {
        // FROM order lists the big relation first; the planner must still
        // build the hash table on the small side.
        let p = plan(two_way_spec(200, 5)).unwrap();
        assert_eq!(p.joins().len(), 1);
        let j = &p.joins()[0];
        assert!(j.hash);
        assert_eq!(j.build, vec!["S".to_owned()], "{j:?}");
        assert_eq!(j.probe, vec!["B".to_owned()]);

        // And symmetrically when the small relation comes first.
        let mut spec = two_way_spec(200, 5);
        spec.inputs.reverse();
        let p = plan(spec).unwrap();
        let j = &p.joins()[0];
        assert_eq!(j.build, vec!["S".to_owned()], "{j:?}");
    }

    #[test]
    fn declared_stats_override_measured_cardinality() {
        // Declared statistics say B is tiny and S is huge, contradicting the
        // extents — the planner must trust the declaration (§6.1: the MKB's
        // registered statistics drive the cost model).
        let mut spec = two_way_spec(200, 5);
        spec.inputs[0].stats = Some(RelationStats::new(2, 16));
        spec.inputs[1].stats = Some(RelationStats::new(100_000, 16));
        let p = plan(spec).unwrap();
        let j = &p.joins()[0];
        assert_eq!(j.build, vec!["B".to_owned()], "{j:?}");
    }

    #[test]
    fn join_order_starts_at_most_selective_input() {
        // Three-way chain; C carries a highly selective local filter, so the
        // greedy chain starts there even though it is declared last.
        let a = rel(
            "A",
            &[("K", DataType::Int)],
            (0..50).map(|k| tup![k]).collect(),
        );
        let b = rel(
            "B",
            &[("K", DataType::Int), ("P", DataType::Int)],
            (0..50).map(|k| tup![k, k % 3]).collect(),
        );
        let c = rel(
            "C",
            &[("K", DataType::Int), ("Q", DataType::Int)],
            (0..50).map(|k| tup![k, k]).collect(),
        );
        let spec = QuerySpec {
            name: "V".into(),
            inputs: vec![input("A", a), input("B", b), input("C", c)],
            clauses: vec![
                PrimitiveClause::eq(ColumnRef::parse("A.K"), ColumnRef::parse("B.K")),
                PrimitiveClause::eq(ColumnRef::parse("B.K"), ColumnRef::parse("C.K")),
                PrimitiveClause::lit(ColumnRef::parse("C.Q"), CompOp::Lt, Value::Int(2)),
            ],
            projection: vec![ColumnRef::parse("A.K")],
            output: vec![ColumnRef::bare("K")],
        };
        let p = plan(spec).unwrap();
        assert_eq!(p.join_order()[0], 2, "{}", p.explain());
        // The pushed-down selection sits in C's scan.
        let est = p.estimate();
        assert!(est.output_rows < 10.0, "{est:?}");
        assert!(est.io_blocks > 0.0 && est.total > est.io_blocks);
    }

    #[test]
    fn unresolvable_condition_is_rejected() {
        let mut spec = two_way_spec(5, 5);
        spec.clauses.push(PrimitiveClause::lit(
            ColumnRef::parse("Z.X"),
            CompOp::Eq,
            Value::Int(1),
        ));
        let e = plan(spec).unwrap_err();
        assert!(e.to_string().contains("reference no FROM relation"), "{e}");
    }

    #[test]
    fn empty_inputs_rejected() {
        let spec = QuerySpec {
            name: "V".into(),
            inputs: vec![],
            clauses: vec![],
            projection: vec![],
            output: vec![],
        };
        assert!(plan(spec).is_err());
    }

    #[test]
    fn index_scan_chosen_when_cost_model_wins() {
        // 500 rows, bfr 10 → full scan 50 blocks. The equality clause
        // matches ~5 rows (sampled), so the index path costs 1 probe +
        // ⌈matches/bfr⌉ blocks ≪ 50: the planner must take it.
        let big = rel(
            "R",
            &[("K", DataType::Int), ("P", DataType::Int)],
            (0..500).map(|k| tup![k % 100, k]).collect(),
        );
        let spec = QuerySpec {
            name: "V".into(),
            inputs: vec![input("R", big)],
            clauses: vec![PrimitiveClause::lit(
                ColumnRef::parse("R.K"),
                CompOp::Eq,
                Value::Int(7),
            )],
            projection: vec![ColumnRef::parse("R.P")],
            output: vec![ColumnRef::bare("P")],
        };
        let p = plan(spec).unwrap();
        match &p.root {
            PlanNode::IndexScan {
                op, key, residual, ..
            } => {
                assert_eq!(*op, CompOp::Eq);
                assert_eq!(key, &Value::Int(7));
                assert!(residual.is_none());
            }
            other => panic!("expected an index scan, got {other:?}"),
        }
        let est = p.estimate();
        assert_eq!(est.index_scans, 1);
        assert!(
            est.io_blocks < 50.0,
            "index access must undercut the 50-block full scan: {est:?}"
        );
        // Execution through the index stays correct.
        let out = p.execute().unwrap();
        assert_eq!(out.cardinality(), 5);
        assert_eq!(p.explain().lines().count(), 2, "{}", p.explain());
        assert!(p.explain().contains("index-scan R"), "{}", p.explain());
    }

    #[test]
    fn full_scan_kept_when_index_does_not_pay() {
        // 10 rows fit in one block: a probe + data block can never beat
        // the 1-block full scan, whatever the selectivity.
        let tiny = rel(
            "R",
            &[("K", DataType::Int)],
            (0..10).map(|k| tup![k]).collect(),
        );
        let spec = QuerySpec {
            name: "V".into(),
            inputs: vec![input("R", tiny)],
            clauses: vec![PrimitiveClause::lit(
                ColumnRef::parse("R.K"),
                CompOp::Eq,
                Value::Int(3),
            )],
            projection: vec![ColumnRef::parse("R.K")],
            output: vec![ColumnRef::bare("K")],
        };
        let p = plan(spec).unwrap();
        assert!(
            matches!(
                &p.root,
                PlanNode::Scan {
                    pushdown: Some(_),
                    ..
                }
            ),
            "{:?}",
            p.root
        );
        assert_eq!(p.estimate().index_scans, 0);
    }

    #[test]
    fn range_clause_uses_sorted_index_with_residual() {
        let big = rel(
            "R",
            &[("K", DataType::Int), ("P", DataType::Int)],
            (0..500).map(|k| tup![k, k % 2]).collect(),
        );
        let spec = QuerySpec {
            name: "V".into(),
            inputs: vec![input("R", big)],
            clauses: vec![
                PrimitiveClause::lit(ColumnRef::parse("R.K"), CompOp::Lt, Value::Int(20)),
                PrimitiveClause::lit(ColumnRef::parse("R.P"), CompOp::Eq, Value::Int(1)),
            ],
            projection: vec![ColumnRef::parse("R.K")],
            output: vec![ColumnRef::bare("K")],
        };
        let p = plan(spec).unwrap();
        match &p.root {
            PlanNode::IndexScan { op, residual, .. } => {
                // `K < 20` matches ~20 rows, `P = 1` ~250: the cheaper
                // range clause is indexed, the equality filters residually.
                assert_eq!(*op, CompOp::Lt);
                assert!(residual.is_some());
            }
            other => panic!("expected an index scan, got {other:?}"),
        }
        let out = p.execute().unwrap();
        let expect: Vec<_> = (0..20i64).filter(|k| k % 2 == 1).map(|k| tup![k]).collect();
        assert_eq!(out.tuples(), &expect[..]);
    }

    #[test]
    fn theta_join_degrades_to_nested_loop() {
        let mut spec = two_way_spec(10, 5);
        spec.clauses = vec![PrimitiveClause::cols(
            ColumnRef::parse("B.K"),
            CompOp::Lt,
            ColumnRef::parse("S.K"),
        )];
        let p = plan(spec).unwrap();
        assert!(!p.joins()[0].hash);
        assert!(matches!(p.root, PlanNode::NestedLoop { .. }));
    }
}
