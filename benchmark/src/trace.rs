//! The `--trace 1` run: one untraced two-client round for the counts and
//! the tails, then the traced ladder for the per-layer times.

use std::time::Instant;

use eve_store::EvolutionStore;

use crate::ladder::{run_ladder, LAYERS};
use crate::metrics::Values;
use crate::ops::{Op, OpKind};
use crate::round::{client_threads, run_round, RoundResult, Sample, Scratch};
use crate::run::{check_rounds, oracle_fingerprints, pooled_latencies};
use crate::stats;
use crate::workloads::{Kind, Size, Workload};

/// What a traced run found.
#[derive(Debug, Clone)]
pub struct TraceReport {
    /// The workload.
    pub kind: Kind,
    /// Per-layer metric values.
    pub values: Values,
    /// Requests the untraced round sent.
    pub attempted: u64,
    /// Requests it saw fail.
    pub failed: u64,
    /// Broken gates.
    pub violations: Vec<String>,
    /// Ops the ladder replayed.
    pub ladder_ops: usize,
    /// Where the chrome trace went.
    pub trace_path: std::path::PathBuf,
}

impl TraceReport {
    /// Whether every gate held.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.violations.is_empty()
    }

    /// The layer-share row of the README's table.
    #[must_use]
    pub fn shares(&self) -> Vec<(&'static str, f64)> {
        LAYERS
            .iter()
            .map(|(layer, metric)| (*layer, self.values.get(metric).unwrap_or(0.0)))
            .collect()
    }
}

/// How many ops of the writing client's stream the ladder replays: sized
/// so the five rungs and the probes together take a few seconds.
#[must_use]
pub fn ladder_prefix(kind: Kind, size: Size) -> usize {
    match (size, kind) {
        (Size::Smoke, _) => 60,
        (Size::Full, Kind::UpdateStream) => 700,
        (Size::Full, Kind::ReadMostly) => 400,
        (Size::Full, Kind::EvolveStorm) => 200,
        (Size::Full, Kind::Rematerialize) => 32,
    }
}

/// How much longer reads take when a write from another client on the same
/// tenant is in flight: per view, median latency of the reads that overlap
/// such a write minus that of the reads that do not, averaged over views by
/// overlapping-read count. 0 when no read ever overlaps a foreign write.
fn read_stall_us(workload: &Workload, round: &RoundResult) -> f64 {
    let span = |s: &Sample| (s.start_us, s.start_us + s.latency_us);
    let mut stall = 0.0;
    let mut weight = 0.0;
    for (c, samples) in round.samples.iter().enumerate() {
        let tenant = workload.clients[c].tenant;
        let foreign_writes: Vec<(f64, f64)> = round
            .samples
            .iter()
            .enumerate()
            .filter(|(other, _)| *other != c && workload.clients[*other].tenant == tenant)
            .flat_map(|(_, s)| s.iter())
            .filter(|s| matches!(s.kind, OpKind::Write | OpKind::Change))
            .map(span)
            .collect();
        if foreign_writes.is_empty() {
            continue;
        }
        let mut by_view: std::collections::BTreeMap<&str, (Vec<f64>, Vec<f64>)> =
            Default::default();
        for s in samples.iter().filter(|s| s.kind == OpKind::Read) {
            let Op::Query(view) = &workload.clients[c].ops[s.op as usize] else {
                continue;
            };
            let (start, end) = span(s);
            let overlaps = foreign_writes
                .iter()
                .any(|(ws, we)| *ws < end && start < *we);
            let slot = by_view.entry(view).or_default();
            if overlaps {
                slot.0.push(s.latency_us);
            } else {
                slot.1.push(s.latency_us);
            }
        }
        for (mut overlapping, mut clear) in by_view.into_values() {
            if overlapping.is_empty() || clear.is_empty() {
                continue;
            }
            let n = overlapping.len() as f64;
            stall += n * (stats::median(&mut overlapping) - stats::median(&mut clear));
            weight += n;
        }
    }
    stats::ratio(stall, weight)
}

/// The per-layer values an untraced round is the source of: counts from
/// the registry deltas over its measured phase, the tails, and what the
/// client stopwatch and the server's own histograms say about queueing.
pub fn round_values(workload: &Workload, round: &RoundResult, values: &mut Values) {
    let rounds = std::slice::from_ref(round);
    for (kind, name) in [
        (OpKind::Read, "read_tail_us"),
        (OpKind::Write, "write_tail_us"),
        (OpKind::Change, "change_tail_us"),
    ] {
        values.set(name, stats::tail(&pooled_latencies(rounds, kind)));
    }
    let reg = &round.registry;
    let mutations = round.mutations as f64;

    let all: Vec<&Sample> = round.samples.iter().flatten().collect();
    let client_sum: f64 = all.iter().map(|s| s.latency_us).sum();
    let server_sum: f64 = ["statement", "apply", "query", "stats"]
        .iter()
        .map(|k| reg.histogram(&format!("server.latency_us.{k}")).sum as f64)
        .sum();
    values.set(
        "server.queue_wait_us",
        stats::ratio(client_sum - server_sum, all.len() as f64),
    );
    values.set("server.read_stall_us", read_stall_us(workload, round));
    let reads: Vec<&&Sample> = all.iter().filter(|s| s.kind == OpKind::Read).collect();
    values.set(
        "server.response_bytes_per_read",
        stats::ratio(
            reads.iter().map(|s| f64::from(s.response_bytes)).sum(),
            reads.len() as f64,
        ),
    );
    values.set("server.errors", reg.counter("server.errors"));

    values.set(
        "system.batch_partitions_per_batch",
        stats::ratio(
            reg.counter("engine.batch_partitions"),
            reg.counter("engine.batches"),
        ),
    );
    let hit_ratio = |hits: f64, misses: f64| stats::ratio(hits, hits + misses);
    values.set(
        "system.rewrite_cache_hit_ratio",
        hit_ratio(
            reg.counter("cache.rewrite_hits"),
            reg.counter("cache.rewrite_misses"),
        ),
    );
    values.set(
        "system.partner_cache_hit_ratio",
        hit_ratio(
            reg.counter("cache.partner_hits"),
            reg.counter("cache.partner_misses"),
        ),
    );

    let fsyncs = reg.counter("store.fsyncs");
    values.set("store.fsyncs_per_op", stats::ratio(fsyncs, mutations));
    values.set(
        "store.records_per_fsync",
        stats::ratio(reg.counter("store.records_appended"), fsyncs),
    );
    values.set("store.fsync_mean_us", reg.histogram_mean("store.fsync_us"));
    values.set(
        "store.log_bytes_per_op",
        stats::ratio(reg.counter("store.log_bytes_appended"), mutations),
    );
    let checkpoints: Vec<f64> = round
        .samples
        .iter()
        .enumerate()
        .flat_map(|(c, samples)| {
            let ops = &workload.clients[c].ops;
            samples
                .iter()
                .filter(move |s| matches!(ops[s.op as usize], Op::Checkpoint))
                .map(|s| s.latency_us)
        })
        .collect();
    values.set("store.checkpoint_us", stats::mean(&checkpoints));
    values.set(
        "store.snapshot_bytes",
        stats::ratio(
            reg.counter("store.snapshot_bytes_written"),
            reg.counter("store.snapshots_written"),
        ),
    );
    values.set(
        "store.recover_records_per_s",
        stats::ratio(round.records_replayed as f64, round.recover_s),
    );
    values.set("store.records_replayed", round.records_replayed as f64);

    let changes = reg.counter("engine.capability_changes");
    let materialized = reg.counter_family("search.", ".materialized");
    values.set(
        "sync.candidates_per_change",
        stats::ratio(materialized, changes),
    );
    values.set(
        "sync.emitted_per_change",
        stats::ratio(reg.counter_family("search.", ".emitted"), changes),
    );
    values.set(
        "sync.pruned_per_change",
        stats::ratio(reg.counter_family("search.", ".pruned"), changes),
    );
    values.set(
        "sync.useful_ratio",
        stats::ratio(round.quality.survived as f64, materialized),
    );

    values.set(
        "misd.index_hit_ratio",
        hit_ratio(
            reg.counter("mkb.index_hits"),
            reg.counter("mkb.index_misses"),
        ),
    );
    values.set(
        "misd.relations",
        stats::ratio(
            workload
                .tenants
                .iter()
                .map(|t| t.relations.len() as f64)
                .sum(),
            workload.tenants.len() as f64,
        ),
    );

    values.set("relational.index_hits", reg.counter("index.hits"));
    values.set("relational.index_builds", reg.counter("index.builds"));
    values.set("relational.morsels", reg.counter("exec.morsels"));
    values.set("relational.steals", reg.counter("exec.steals"));
    values.set(
        "relational.serial_fallbacks",
        reg.counter("exec.serial_fallbacks"),
    );
    values.set(
        "relational.intern_hit_ratio",
        hit_ratio(
            reg.counter_family("intern.", ".hits"),
            reg.counter_family("intern.", ".misses"),
        ),
    );
}

/// Opens each tenant's store alone (snapshot decode and log read, no engine
/// rebuild, no replay) and returns the mean time, microseconds.
fn snapshot_load_us(root: &std::path::Path, workload: &Workload) -> Result<f64, String> {
    let mut times = Vec::new();
    for plan in &workload.tenants {
        let started = Instant::now();
        let opened = EvolutionStore::open(root.join(&plan.name))
            .map_err(|e| format!("store open probe {}: {e}", plan.name))?;
        times.push(started.elapsed().as_secs_f64() * 1e6);
        drop(opened);
    }
    Ok(stats::mean(&times))
}

/// Runs the traced measurement of one workload.
///
/// # Errors
///
/// Harness failures; broken gates are reported, not raised.
pub fn run_traced(kind: Kind, seed: u64, size: Size) -> Result<TraceReport, String> {
    eve_trace::set_enabled(false);
    let workload = Workload::generate(kind, seed, size);
    let mut values = Values::new();

    let scratch = Scratch::new(&format!("{}-traced-round", kind.name()))?;
    let round = run_round(&workload, scratch.path(), client_threads())?;
    values.set(
        "store.snapshot_load_us",
        snapshot_load_us(scratch.path(), &workload)?,
    );
    drop(scratch);
    round_values(&workload, &round, &mut values);
    let oracle = oracle_fingerprints(&workload)?;
    let mut violations = check_rounds(&workload, std::slice::from_ref(&round), &oracle);

    let ladder = run_ladder(&workload, ladder_prefix(kind, size))?;
    violations.extend(ladder.violations);
    values.absorb(ladder.values);
    Ok(TraceReport {
        kind,
        values,
        attempted: round.attempted,
        failed: round.failed,
        violations,
        ladder_ops: ladder.ops,
        trace_path: ladder.trace_path,
    })
}
