//! The traced run: a differential ladder plus leaf probes.
//!
//! The same generated op `i` is applied to five replicas of one tenant's
//! state, each entered one layer lower than the last:
//!
//! | rung      | entry point                                        |
//! |-----------|----------------------------------------------------|
//! | `client`  | `Client::request` through the running server       |
//! | `tenant`  | `Tenant::execute_mutation` / `Tenant::query`       |
//! | `shell`   | `Shell::execute` over a durable engine             |
//! | `durable` | `DurableEngine::apply_batch` on pre-built ops      |
//! | `engine`  | `EveEngine::apply_batch` on a plain engine         |
//!
//! The difference between two adjacent rungs is the self time of the layer
//! that sits between them; what the engine rung spends is split further by
//! leaf probes that call `sync`, `core`, `misd`, `relational` and `esql`
//! directly on the engine replica's own pre- and post-op state. Nothing
//! inside the crates is instrumented for this: every span here is recorded
//! by the harness around a public call.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use eve_esql::ViewDef;
use eve_misd::SchemaChange;
use eve_relational::{ExecMode, ExecOptions, Relation, RelationStats};
use eve_server::protocol::{
    decode_request, decode_response, encode_request, encode_response, Request, Response,
};
use eve_server::warehouse::Mutation;
use eve_server::warehouse::Tenant;
use eve_server::wire::encode_frame;
use eve_server::{Client, FrameReader, ResponseBody, Server, ServerConfig};
use eve_store::{EvolutionStore, GroupCommitLog, GroupCommitPolicy, LogRecord};
use eve_sync::{synchronize_with_policy, ExplorationPolicy, PartnerCache};
use eve_system::{DurableEngine, EveEngine, Shell};

use crate::metrics::Values;
use crate::ops::{Op, OpKind};
use crate::round::{attach_tenants, open_client, out_dir, prebuild_tenants, Scratch};
use crate::stats;
use crate::workloads::{TenantPlan, Workload};

/// The rungs, shallowest entry first.
pub const RUNGS: [&str; 5] = ["client", "tenant", "shell", "durable", "engine"];

/// The layers self time is attributed to, in report order, each with the
/// metric its share of client-rung time is reported under.
pub const LAYERS: [(&str, &str); 8] = [
    ("server", "share.server"),
    ("system", "share.system"),
    ("store", "share.store"),
    ("sync", "share.sync"),
    ("core", "share.core"),
    ("misd", "share.misd"),
    ("relational", "share.relational"),
    ("esql", "share.esql"),
];

/// One span the harness recorded around a call.
#[derive(Debug, Clone)]
struct HarnessSpan {
    name: &'static str,
    request: u32,
    id: u64,
    parent: u64,
    start_us: f64,
    dur_us: f64,
}

/// Records spans against one origin.
struct Recorder {
    origin: Instant,
    next_id: u64,
    spans: Vec<HarnessSpan>,
}

impl Recorder {
    fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            next_id: 1,
            spans: Vec::new(),
        }
    }

    /// Times `f`, records it as a span of request `request` under
    /// `parent`, and returns `(span id, microseconds, f's result)`.
    fn time<T>(
        &mut self,
        name: &'static str,
        request: u32,
        parent: u64,
        f: impl FnOnce() -> T,
    ) -> (u64, f64, T) {
        let id = self.next_id;
        self.next_id += 1;
        let started = Instant::now();
        let out = std::hint::black_box(f());
        let dur_us = started.elapsed().as_secs_f64() * 1e6;
        self.spans.push(HarnessSpan {
            name,
            request,
            id,
            parent,
            start_us: started.duration_since(self.origin).as_secs_f64() * 1e6,
            dur_us,
        });
        (id, dur_us, out)
    }
}

/// What the ladder measured for one op.
#[derive(Debug, Clone, Default)]
struct OpTimes {
    kind: Option<OpKind>,
    /// Rung times, `RUNGS` order (0 where the op has no such rung).
    rung: [f64; 5],
    search: f64,
    rank: f64,
    misd: f64,
    plan: f64,
    exec: f64,
    parse: f64,
    format: f64,
}

impl OpTimes {
    /// Self time per layer, `LAYERS` order. Signed: adjacent rungs are
    /// separate measurements, so a difference can dip below zero on one op;
    /// keeping the sign makes the parts of an op add up to its client time.
    fn layer_self(&self) -> [f64; 8] {
        let [client, tenant, shell, durable, engine] = self.rung;
        if self.kind == Some(OpKind::Read) {
            // A read has two rungs; below the tenant there is only the
            // extent formatting the probe times directly.
            return [
                client - tenant,
                tenant - self.format,
                0.0,
                0.0,
                0.0,
                0.0,
                self.format,
                0.0,
            ];
        }
        let relational = self.plan + self.exec;
        let leaves = self.search + self.rank + self.misd + relational + self.parse;
        [
            client - shell,
            (shell - durable) + (engine - leaves),
            durable - engine,
            self.search,
            self.rank,
            self.misd,
            relational,
            self.parse,
        ]
    }
}

/// Probe totals that are not per-op times.
#[derive(Debug, Clone, Default)]
struct ProbeCounts {
    codec_us: Vec<f64>,
    append_direct_us: Vec<f64>,
    index_rebuild_us: Vec<f64>,
    clone_us: Vec<f64>,
    rows_out: f64,
    rows_in: f64,
    exec_us: f64,
    ranked: f64,
    changes: f64,
}

/// What the traced run found.
#[derive(Debug, Clone)]
pub struct LadderReport {
    /// Per-layer metric values the ladder is the source of.
    pub values: Values,
    /// Broken gates (a replica diverging from the `client` rung's state).
    pub violations: Vec<String>,
    /// Ops the ladder replayed.
    pub ops: usize,
    /// Where the chrome trace was written.
    pub trace_path: std::path::PathBuf,
}

/// The declared statistics of a view's relations, as the engine hands them
/// to the planner.
fn declared_stats(engine: &EveEngine, view: &ViewDef) -> BTreeMap<String, RelationStats> {
    view.from
        .iter()
        .filter_map(|item| {
            let info = engine.mkb().relation(&item.relation).ok()?;
            Some((
                item.relation.clone(),
                RelationStats {
                    cardinality: info.cardinality,
                    tuple_bytes: info.tuple_bytes(),
                    selectivity: info.selectivity,
                    blocking_factor: info.blocking_factor,
                },
            ))
        })
        .collect()
}

/// The base extents a view reads (zero-copy handles).
fn extents_of(engine: &mut EveEngine, view: &ViewDef) -> Option<BTreeMap<String, Relation>> {
    let mut extents = BTreeMap::new();
    for item in &view.from {
        let site = engine.mkb().relation(&item.relation).ok()?.site.0;
        let extent = engine
            .sites_mut()
            .get(&site)?
            .relation(&item.relation)
            .ok()?
            .clone();
        extents.insert(item.relation.clone(), extent);
    }
    Some(extents)
}

/// Plans and executes `view` directly on the engine replica's extents,
/// adding the two times to `times` and the row counts to `counts`.
fn probe_relational(
    rec: &mut Recorder,
    request: u32,
    parent: u64,
    engine: &mut EveEngine,
    view: &ViewDef,
    times: &mut OpTimes,
    counts: &mut ProbeCounts,
) {
    let Some(extents) = extents_of(engine, view) else {
        return;
    };
    let stats = declared_stats(engine, view);
    let options = engine.exec_options;
    let (_, plan_us, plan) = rec.time("relational.plan", request, parent, || {
        eve_system::query::plan_view(view, &extents, &stats)
    });
    times.plan += plan_us;
    let Ok(plan) = plan else { return };
    let (_, exec_us, out) = rec.time("relational.exec", request, parent, || {
        eve_relational::exec::execute_with_options(&plan, ExecMode::Columnar, &options)
    });
    times.exec += exec_us;
    if let Ok(out) = out {
        counts.exec_us += exec_us;
        counts.rows_out += out.cardinality() as f64;
        counts.rows_in += extents
            .values()
            .map(|r| r.cardinality() as f64)
            .sum::<f64>();
    }
}

/// The wire codec on one request/response pair, called directly:
/// encode + frame + deframe + decode, both directions.
fn codec_round_trip(session: u64, op: &Op, response_text: &str) -> Result<(), String> {
    let fail = |e: eve_server::Error| format!("codec probe: {e}");
    let request = Request {
        session,
        body: op.request(),
    };
    let frame = encode_frame(&encode_request(&request)).map_err(fail)?;
    for payload in FrameReader::decode_all(&frame).map_err(fail)? {
        std::hint::black_box(decode_request(&payload).map_err(fail)?);
    }
    let response = Response {
        session,
        body: ResponseBody::Output {
            text: response_text.to_owned(),
        },
    };
    let frame = encode_frame(&encode_response(&response)).map_err(fail)?;
    for payload in FrameReader::decode_all(&frame).map_err(fail)? {
        std::hint::black_box(decode_response(&payload).map_err(fail)?);
    }
    Ok(())
}

fn output_text(body: Result<ResponseBody, eve_server::Error>, op: &Op) -> Result<String, String> {
    match body {
        Ok(ResponseBody::Output { text }) => Ok(text),
        Ok(ResponseBody::Stats { .. }) => Ok(String::new()),
        other => Err(format!(
            "ladder client rung: `{}` answered {other:?}",
            op.canonical()
        )),
    }
}

/// Opens the pre-built tenant at `root/<name>` as a durable engine with
/// the plan's executor options.
fn open_durable(root: &std::path::Path, plan: &TenantPlan) -> Result<DurableEngine, String> {
    let (mut durable, _) = DurableEngine::open(root.join(&plan.name))
        .map_err(|e| format!("ladder open {}: {e}", plan.name))?;
    durable.engine_mut().exec_options = ExecOptions::with_parallelism(plan.parallelism);
    Ok(durable)
}

/// Replays `ops` through only the `client` rung, tracing off, on a fresh
/// tenant: the like-for-like baseline `trace.overhead_share` compares the
/// traced rung with.
fn untraced_client_pass(plan: &TenantPlan, ops: &[Op]) -> Result<Vec<(OpKind, f64)>, String> {
    let scratch = Scratch::new("ladder-untraced")?;
    let plans = std::slice::from_ref(plan);
    prebuild_tenants(scratch.path(), plans)?;
    let warehouse = attach_tenants(scratch.path(), plans)?;
    let server = Server::start(Arc::clone(&warehouse), ServerConfig::default());
    let mut client = open_client(&server, &plan.name)?;
    let mut times = Vec::with_capacity(ops.len());
    for op in ops {
        let request = op.request();
        let sent = Instant::now();
        let body = client.request(request);
        let us = sent.elapsed().as_secs_f64() * 1e6;
        output_text(body, op)?;
        times.push((op.kind(), us));
    }
    drop(client);
    server.shutdown();
    Ok(times)
}

/// Median of one class's times (0 when the class is empty).
fn class_median(times: &[(OpKind, f64)], kind: OpKind) -> f64 {
    let mut v: Vec<f64> = times
        .iter()
        .filter(|(k, _)| *k == kind)
        .map(|(_, us)| *us)
        .collect();
    stats::median(&mut v)
}

/// The traced client (the tenant's writer) and the ops the ladder replays.
fn traced_stream(workload: &Workload, prefix: usize) -> (usize, Vec<Op>) {
    let client = workload
        .clients
        .iter()
        .find(|c| c.ops.iter().any(Op::is_mutation))
        .unwrap_or(&workload.clients[0]);
    let ops = client
        .ops
        .iter()
        .filter(|op| op.kind() != OpKind::Other)
        .take(prefix)
        .cloned()
        .collect();
    (client.tenant, ops)
}

fn refuse(rung: &str, op: &Op, e: &dyn std::fmt::Display) -> String {
    format!("ladder {rung} rung refused `{}`: {e}", op.canonical())
}

/// The five replicas of one tenant, plus the scratch log the store probe
/// appends to.
struct Replicas {
    client: Client,
    server: Server,
    tenant: Arc<Tenant>,
    shell: Shell,
    durable: DurableEngine,
    engine: EveEngine,
    direct_log: GroupCommitLog,
    /// Keeps the replicas' directories alive (and removes them on drop).
    _scratch: Vec<Scratch>,
}

impl Replicas {
    /// Pre-builds the tenant five times over and opens each copy at its
    /// rung's entry point. All five are recovered from the same bytes, so
    /// none shares tuple storage with the plan or with another.
    fn open(plan: &TenantPlan) -> Result<Replicas, String> {
        let plans = std::slice::from_ref(plan);
        let scratch: Vec<Scratch> = RUNGS
            .iter()
            .map(|rung| Scratch::new(&format!("ladder-{rung}")))
            .collect::<Result<_, _>>()?;
        for s in &scratch {
            prebuild_tenants(s.path(), plans)?;
        }
        let server = Server::start(
            attach_tenants(scratch[0].path(), plans)?,
            ServerConfig::default(),
        );
        let client = open_client(&server, &plan.name)?;
        let tenant = attach_tenants(scratch[1].path(), plans)?
            .existing(&plan.name)
            .map_err(|e| format!("ladder tenant rung: {e}"))?;
        let shell = Shell::with_durable(open_durable(scratch[2].path(), plan)?);
        let durable = open_durable(scratch[3].path(), plan)?;
        // The plain engine is taken out of a recovered durable wrapper.
        let engine = std::mem::take(open_durable(scratch[4].path(), plan)?.engine_mut());
        let direct_log = GroupCommitLog::new(
            EvolutionStore::create(scratch[4].path().join("direct-log"))
                .map_err(|e| format!("ladder scratch store: {e}"))?,
            GroupCommitPolicy::default(),
        );
        Ok(Replicas {
            client,
            server,
            tenant,
            shell,
            durable,
            engine,
            direct_log,
            _scratch: scratch,
        })
    }

    /// Applies op `i` to every rung it has and runs its leaf probes.
    fn apply(
        &mut self,
        rec: &mut Recorder,
        counts: &mut ProbeCounts,
        i: usize,
        op: &Op,
    ) -> Result<OpTimes, String> {
        let request = i as u32;
        let mut times = OpTimes {
            kind: Some(op.kind()),
            ..OpTimes::default()
        };

        let wire_request = op.request();
        let (client_span, us, body) =
            rec.time("client", request, 0, || self.client.request(wire_request));
        times.rung[0] = us;
        let response_text = output_text(body, op)?;
        let session = self.client.session();
        let (_, us, codec) = rec.time("server.codec", request, client_span, || {
            codec_round_trip(session, op, &response_text)
        });
        codec?;
        counts.codec_us.push(us);

        if let Op::Query(view) = op {
            let (tenant_span, us, out) =
                rec.time("tenant", request, client_span, || self.tenant.query(view));
            times.rung[1] = us;
            out.map_err(|e| refuse("tenant", op, &e))?;
            let mv = self
                .engine
                .view(view)
                .map_err(|e| refuse("engine", op, &e))?;
            let (_, us, _) = rec.time("relational.distinct_format", request, tenant_span, || {
                mv.extent.distinct().to_string()
            });
            times.format = us;
            return Ok(times);
        }

        let mutation = match op {
            Op::Apply(batch) => Mutation::Apply(batch.clone()),
            statement => Mutation::Statement(statement.line().expect("statement")),
        };
        let (tenant_span, us, out) = rec.time("tenant", request, client_span, || {
            self.tenant.execute_mutation(mutation)
        });
        times.rung[1] = us;
        out.map_err(|e| refuse("tenant", op, &e))?;

        let (shell_span, us, out) = match op {
            Op::Apply(batch) => {
                let batch = batch.clone();
                rec.time("shell", request, tenant_span, || {
                    self.shell
                        .durable_mut()
                        .and_then(|d| d.apply_batch(batch))
                        .map(drop)
                })
            }
            statement => {
                let line = statement.line().expect("statement");
                rec.time("shell", request, tenant_span, || {
                    self.shell.execute(&line).map(drop)
                })
            }
        };
        times.rung[2] = us;
        out.map_err(|e| refuse("shell", op, &e))?;

        let batch = op.evolution_ops();
        let (durable_span, us, out) = match (op, batch.clone()) {
            (_, Some(batch)) => rec.time("durable", request, shell_span, || {
                self.durable.apply_batch(batch).map(drop)
            }),
            (Op::DefineView(sql), None) => rec.time("durable", request, shell_span, || {
                self.durable.define_view_sql(sql).map(drop)
            }),
            (_, None) => rec.time("durable", request, shell_span, || {
                self.durable.checkpoint().map(drop)
            }),
        };
        times.rung[3] = us;
        out.map_err(|e| refuse("durable", op, &e))?;

        // Store probe: the same record, appended durably to a scratch log.
        let record = match (op, batch.clone()) {
            (_, Some(batch)) => Some(LogRecord::Batch(batch)),
            (Op::DefineView(sql), None) => {
                eve_esql::parse_view(sql).ok().map(LogRecord::DefineView)
            }
            _ => None,
        };
        if let Some(record) = record {
            let (_, us, out) = rec.time("store.append_direct", request, durable_span, || {
                self.direct_log.append_durable(0, record)
            });
            out.map_err(|e| refuse("store probe", op, &e))?;
            counts.append_direct_us.push(us);
        }

        // Leaf probes on the engine replica's pre-op state; they say which
        // views the op re-materializes.
        let mut rematerialized = match op {
            Op::Change(change) => {
                self.probe_change(rec, counts, request, durable_span, change, &mut times)
            }
            _ => Vec::new(),
        };
        if let Op::DefineView(sql) = op {
            let (_, us, parsed) = rec.time("esql.parse", request, durable_span, || {
                eve_esql::parse_view(sql)
            });
            times.parse = us;
            rematerialized.extend(parsed.map(|def| def.name));
        }

        let (engine_span, us, out) = match (op, batch) {
            (_, Some(batch)) => rec.time("engine", request, durable_span, || {
                self.engine.apply_batch(batch).map(|outcome| {
                    outcome
                        .reports
                        .iter()
                        .map(|r| r.candidates as f64)
                        .sum::<f64>()
                })
            }),
            (Op::DefineView(sql), None) => rec.time("engine", request, durable_span, || {
                self.engine.define_view_sql(sql).map(|_| 0.0)
            }),
            // A plain engine has nothing to checkpoint.
            (_, None) => (0, 0.0, Ok(0.0)),
        };
        times.rung[4] = us;
        counts.ranked += out.map_err(|e| refuse("engine", op, &e))?;

        // Leaf probes on the post-op state: what re-materializing each
        // affected (or newly defined) view costs the executor.
        for name in &rematerialized {
            let Ok(def) = self.engine.view(name).map(|mv| mv.def.clone()) else {
                continue;
            };
            probe_relational(
                rec,
                request,
                engine_span,
                &mut self.engine,
                &def,
                &mut times,
                counts,
            );
        }
        Ok(times)
    }

    /// Calls `sync`, `core` and `misd` directly for `change`, on a clone of
    /// the engine replica's pre-change MKB — a clone, so the replica's own
    /// lazily built constraint index stays as cold as the other rungs find
    /// theirs. Returns the views the change affects.
    fn probe_change(
        &self,
        rec: &mut Recorder,
        counts: &mut ProbeCounts,
        request: u32,
        parent: u64,
        change: &SchemaChange,
        times: &mut OpTimes,
    ) -> Vec<String> {
        counts.changes += 1.0;
        let engine = &self.engine;
        let touched = eve_sync::batch::touched_relation(change);
        let candidates: Vec<&ViewDef> = engine
            .views()
            .map(|mv| &mv.def)
            .filter(|def| touched.is_some_and(|rel| def.from.iter().any(|f| f.relation == rel)))
            .collect();
        let probe_mkb = engine.mkb().clone();
        // The index rebuild is timed on its own first, and charged to
        // `misd` only if the search then goes on to use the index.
        let (_, rebuild_us, _) = rec.time("misd.index_rebuild", request, parent, || {
            touched.map(|rel| probe_mkb.pc_constraints_of(rel).len())
        });
        let index_uses_before = probe_mkb.index_stats().0;
        let mut affected = Vec::new();
        for def in candidates {
            let mut partners = PartnerCache::new();
            let (_, us, outcome) = rec.time("sync.search", request, parent, || {
                synchronize_with_policy(
                    def,
                    change,
                    &probe_mkb,
                    &engine.sync_options,
                    &ExplorationPolicy::Exhaustive,
                    &mut partners,
                )
            });
            times.search += us;
            let Ok((outcome, _)) = outcome else { continue };
            if !outcome.affected {
                continue;
            }
            affected.push(def.name.clone());
            // Renames yield their one rewriting without a ranking MKB of
            // their own; deletions are ranked on the pre-change MKB.
            if matches!(
                change,
                SchemaChange::DeleteRelation { .. } | SchemaChange::DeleteAttribute { .. }
            ) {
                let (_, us, _) = rec.time("core.rank", request, parent, || {
                    eve_qc::rank_rewritings(
                        def,
                        &outcome.rewritings,
                        &probe_mkb,
                        &engine.qc_params,
                        engine.workload,
                    )
                });
                times.rank += us;
            }
        }
        if probe_mkb.index_stats().0 > index_uses_before {
            times.misd += rebuild_us;
            counts.index_rebuild_us.push(rebuild_us);
        }
        // Ranking an affected view makes the engine clone the MKB (its
        // index warm from the search, as here) for the ranking copy.
        if !affected.is_empty() {
            let (_, us, _) = rec.time("misd.clone", request, parent, || probe_mkb.clone());
            times.misd += us;
            counts.clone_us.push(us);
        }
        let mut mkb = probe_mkb;
        let (_, us, _) = rec.time("misd.apply_change", request, parent, || {
            mkb.apply_change(change)
        });
        times.misd += us;
        affected
    }

    /// Checks that every replica ended where the `client` rung's did, and
    /// stops the server.
    fn finish(self, plan: &TenantPlan) -> Result<Vec<String>, String> {
        let reference = self
            .server
            .warehouse()
            .existing(&plan.name)
            .map_err(|e| format!("ladder client tenant: {e}"))?
            .fingerprint();
        let mut violations = Vec::new();
        for (rung, fingerprint) in [
            ("tenant", self.tenant.fingerprint()),
            ("shell", self.shell.engine().snapshot_state().to_bytes()),
            ("durable", self.durable.engine().snapshot_state().to_bytes()),
            ("engine", self.engine.snapshot_state().to_bytes()),
        ] {
            if fingerprint != reference {
                violations.push(format!(
                    "ladder: the `{rung}` replica of `{}` differs from the `client` rung's state",
                    plan.name
                ));
            }
        }
        drop(self.client);
        self.server.shutdown();
        Ok(violations)
    }
}

/// Runs the differential ladder over the first `prefix` ops of the
/// workload's writing client and writes `out/<workload>.trace.json`.
///
/// # Errors
///
/// Harness failures: a rung refusing an op the generator produced, I/O on
/// the scratch stores or the trace file.
pub fn run_ladder(workload: &Workload, prefix: usize) -> Result<LadderReport, String> {
    let (tenant_index, ops) = traced_stream(workload, prefix);
    let plan = &workload.tenants[tenant_index];

    eve_trace::set_enabled(false);
    let untraced = untraced_client_pass(plan, &ops)?;

    let mut replicas = Replicas::open(plan)?;
    eve_trace::set_capacity(1 << 18);
    eve_trace::set_enabled(true);
    let mut rec = Recorder::new();
    let mut counts = ProbeCounts::default();
    let mut all: Vec<OpTimes> = Vec::with_capacity(ops.len());
    for (i, op) in ops.iter().enumerate() {
        all.push(replicas.apply(&mut rec, &mut counts, i, op)?);
    }
    eve_trace::set_enabled(false);
    let violations = replicas.finish(plan)?;

    let trace_path = out_dir().join(format!("{}.trace.json", workload.kind.name()));
    write_trace(&trace_path, &rec.spans)?;

    Ok(LadderReport {
        values: summarize(&all, &counts, &untraced),
        violations,
        ops: all.len(),
        trace_path,
    })
}

/// Turns the per-op times into the per-layer metric values.
fn summarize(all: &[OpTimes], counts: &ProbeCounts, untraced: &[(OpKind, f64)]) -> Values {
    let mut values = Values::new();
    let median_of =
        |items: &mut dyn Iterator<Item = f64>| stats::median(&mut items.collect::<Vec<_>>());
    let of_kind = |kind: OpKind| all.iter().filter(move |t| t.kind == Some(kind));
    let mutations = || all.iter().filter(|t| t.kind != Some(OpKind::Read));
    let changes = || of_kind(OpKind::Change);
    let recomputes = || all.iter().filter(|t| t.exec > 0.0);

    values.set(
        "server.wire_self_us",
        median_of(&mut all.iter().map(|t| t.rung[0] - t.rung[1])),
    );
    values.set(
        "server.admission_self_us",
        median_of(&mut mutations().map(|t| t.rung[1] - t.rung[2])),
    );
    values.set(
        "system.shell_parse_self_us",
        median_of(&mut mutations().map(|t| t.rung[2] - t.rung[3])),
    );
    values.set(
        "store.append_self_us",
        median_of(&mut mutations().map(|t| t.rung[3] - t.rung[4])),
    );
    values.set(
        "system.apply_update_us",
        median_of(&mut of_kind(OpKind::Write).map(|t| t.rung[4])),
    );
    values.set(
        "system.apply_change_us",
        median_of(&mut changes().map(|t| t.rung[4])),
    );
    values.set(
        "server.codec_us",
        median_of(&mut counts.codec_us.iter().copied()),
    );
    values.set(
        "store.append_direct_us",
        median_of(&mut counts.append_direct_us.iter().copied()),
    );
    values.set(
        "misd.index_rebuild_us",
        median_of(&mut counts.index_rebuild_us.iter().copied()),
    );
    values.set(
        "misd.clone_us",
        median_of(&mut counts.clone_us.iter().copied()),
    );
    values.set(
        "sync.search_us",
        median_of(&mut changes().map(|t| t.search)),
    );
    values.set("core.rank_us", median_of(&mut changes().map(|t| t.rank)));
    values.set(
        "misd.apply_change_us",
        median_of(&mut changes().map(|t| t.misd)),
    );
    values.set(
        "relational.plan_us",
        median_of(&mut recomputes().map(|t| t.plan)),
    );
    values.set(
        "relational.exec_us",
        median_of(&mut recomputes().map(|t| t.exec)),
    );
    values.set(
        "relational.rows_out_per_s",
        stats::ratio(counts.rows_out, counts.exec_us / 1e6),
    );
    values.set(
        "relational.rows_examined_per_row_out",
        stats::ratio(counts.rows_in, counts.rows_out),
    );
    values.set(
        "relational.distinct_format_us",
        median_of(&mut of_kind(OpKind::Read).map(|t| t.format)),
    );
    values.set(
        "esql.parse_us",
        median_of(&mut all.iter().filter(|t| t.parse > 0.0).map(|t| t.parse)),
    );
    values.set(
        "core.candidates_ranked_per_change",
        stats::ratio(counts.ranked, counts.changes),
    );

    // Shares of all client-rung time.
    let client_total: f64 = all.iter().map(|t| t.rung[0]).sum();
    let mut shares = [0.0; 8];
    for t in all {
        for (share, part) in shares.iter_mut().zip(t.layer_self()) {
            *share += part;
        }
    }
    for share in &mut shares {
        *share = stats::ratio(*share, client_total);
    }
    for ((_, metric), share) in LAYERS.iter().zip(shares) {
        values.set(metric, share);
    }

    // How far the separately measured rungs are from adding up: per class,
    // the medians of the rung-to-rung differences plus the median of the
    // bottom rung, against the median of the client rung.
    let mut unattributed = 0.0;
    for kind in OpKind::TIMED {
        let class: Vec<&OpTimes> = of_kind(kind).collect();
        if class.is_empty() {
            continue;
        }
        let p50 = |f: &dyn Fn(&OpTimes) -> f64| median_of(&mut class.iter().map(|t| f(t)));
        let covered = if kind == OpKind::Read {
            p50(&|t| t.rung[0] - t.rung[1]) + p50(&|t| t.rung[1] - t.format) + p50(&|t| t.format)
        } else {
            (0..4)
                .map(|r| p50(&|t| t.rung[r] - t.rung[r + 1]))
                .sum::<f64>()
                + p50(&|t| t.rung[4])
        };
        let weight = class.iter().map(|t| t.rung[0]).sum::<f64>() / client_total;
        unattributed += weight * (1.0 - stats::ratio(covered, p50(&|t| t.rung[0])));
    }
    values.set("unattributed_share", unattributed);

    // Tracing overhead: traced against untraced client rung, same ops.
    let traced: Vec<(OpKind, f64)> = all
        .iter()
        .map(|t| (t.kind.expect("every op has a kind"), t.rung[0]))
        .collect();
    let untraced_total: f64 = untraced.iter().map(|(_, us)| us).sum();
    let mut overhead = 0.0;
    for kind in OpKind::TIMED {
        let base = class_median(untraced, kind);
        let weight = untraced
            .iter()
            .filter(|(k, _)| *k == kind)
            .map(|(_, us)| us)
            .sum::<f64>()
            / untraced_total;
        overhead += weight * stats::ratio(class_median(&traced, kind) - base, base);
    }
    values.set("trace.overhead_share", overhead);
    values.set(
        "trace.dropped_events",
        eve_trace::span::dropped_events() as f64,
    );
    values
}

/// Writes the harness spans, merged with whatever the crates' own
/// `eve-trace` sites recorded, as one chrome://tracing file.
fn write_trace(path: &std::path::Path, spans: &[HarnessSpan]) -> Result<(), String> {
    let mut out = String::with_capacity(spans.len() * 128 + 64);
    out.push_str("{\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        // One track per span name (pid 2 = the harness), so the rungs of a
        // request read as stacked lanes.
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{:.1},\"dur\":{:.1},\"pid\":2,\"tid\":\"{}\",\
             \"args\":{{\"id\":{},\"parent\":{},\"request\":{}}}}}",
            s.name, s.start_us, s.dur_us, s.name, s.id, s.parent, s.request
        ));
    }
    let inner = eve_trace::chrome_json();
    let inner = inner
        .strip_prefix("{\"traceEvents\":[")
        .and_then(|s| s.strip_suffix("]}"))
        .unwrap_or("");
    if !inner.is_empty() {
        if !spans.is_empty() {
            out.push(',');
        }
        out.push_str(inner);
    }
    out.push_str("]}");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, out).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eve_trace::clear_spans();
    Ok(())
}
