//! One fixed-work round: set up, measure, restart, tear down.
//!
//! A round builds the workload's tenants from scratch in a fresh warehouse
//! directory, starts an in-process server at its default configuration,
//! replays every client's op stream closed-loop (a client sends its next
//! request only when the previous one is answered), then restarts the
//! warehouse to time recovery. A run is several rounds over the same
//! generated workload, so set-up and recovery are each measured several
//! times and the latency samples of all rounds pool.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};
use std::time::Instant;

use eve_relational::ExecOptions;
use eve_server::{
    AdmissionPolicy, Client, ResponseBody, Server, ServerConfig, TenantBudget, Warehouse,
};
use eve_system::DurableEngine;
use eve_trace::MetricsSnapshot;

use crate::ops::{Op, OpKind};
use crate::workloads::{TenantPlan, Workload};

/// A scratch directory under the benchmark's own `out/`, unique per
/// process and removed when dropped — on success, on a failed gate and on
/// unwinding alike.
#[derive(Debug)]
pub struct Scratch {
    root: PathBuf,
}

impl Scratch {
    /// Creates `out/scratch-<pid>-<tag>` (replacing any leftover).
    ///
    /// # Errors
    ///
    /// I/O failures creating the directory.
    pub fn new(tag: &str) -> Result<Scratch, String> {
        let root = out_dir().join(format!("scratch-{}-{tag}", std::process::id()));
        std::fs::remove_dir_all(&root).ok();
        std::fs::create_dir_all(&root)
            .map_err(|e| format!("cannot create scratch {}: {e}", root.display()))?;
        Ok(Scratch { root })
    }

    /// The directory.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.root
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.root).ok();
    }
}

/// Where the benchmark writes: `$EVE_BENCH_OUT` (set by `run.sh` to the
/// `out/` beside it), else `out/` in the package the binary was built from.
#[must_use]
pub fn out_dir() -> PathBuf {
    std::env::var_os("EVE_BENCH_OUT").map_or_else(
        || Path::new(env!("CARGO_MANIFEST_DIR")).join("out"),
        PathBuf::from,
    )
}

/// One timed request.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Latency class.
    pub kind: OpKind,
    /// Index of the op in its client's stream.
    pub op: u32,
    /// Send time, microseconds since the measured phase began.
    pub start_us: f64,
    /// Client-stopwatch latency, microseconds.
    pub latency_us: f64,
    /// Bytes of response text.
    pub response_bytes: u32,
}

/// What the capability-change reports said, summed over a round.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Quality {
    /// Views a change affected.
    pub affected: u64,
    /// Affected views that adopted a rewriting.
    pub survived: u64,
    /// Sum of the adopted rewritings' QC scores.
    pub qc_sum: f64,
}

impl Quality {
    /// Reads the per-view lines of a `change` statement's output:
    /// `<view>: adopted rewriting (QC <score>, …` or `<view>: no legal
    /// rewriting — dropped`.
    pub fn absorb(&mut self, output: &str) {
        for line in output.lines().skip(1) {
            if let Some(rest) = line.split("adopted rewriting (QC ").nth(1) {
                let score = rest
                    .split([',', ')'])
                    .next()
                    .and_then(|s| s.trim().parse::<f64>().ok());
                if let Some(score) = score {
                    self.affected += 1;
                    self.survived += 1;
                    self.qc_sum += score;
                }
            } else if line.contains("no legal rewriting") {
                self.affected += 1;
            }
        }
    }

    fn add(&mut self, other: Quality) {
        self.affected += other.affected;
        self.survived += other.survived;
        self.qc_sum += other.qc_sum;
    }
}

/// Everything one round measured.
#[derive(Debug, Clone)]
pub struct RoundResult {
    /// Build tenants, open warehouse, attach, start server, open sessions.
    pub setup_s: f64,
    /// Wall of the measured phase.
    pub measured_s: f64,
    /// Shutdown, reopen, attach every tenant, answer one query per tenant.
    pub recover_s: f64,
    /// Per-client samples, in send order.
    pub samples: Vec<Vec<Sample>>,
    /// Requests sent.
    pub attempted: u64,
    /// Requests answered `Err`, refused (queued) or lost.
    pub failed: u64,
    /// The first few failures, for the report.
    pub failures: Vec<String>,
    /// Acknowledged mutations.
    pub mutations: u64,
    /// Bytes under the warehouse root after the measured phase.
    pub disk_bytes: u64,
    /// Rewriting quality from the change reports.
    pub quality: Quality,
    /// Each tenant's fingerprint after the measured phase.
    pub fingerprints: Vec<Vec<u8>>,
    /// Tenants whose fingerprint after the restart differed from the one
    /// before the shutdown (expected empty).
    pub restart_mismatches: Vec<String>,
    /// Log records replayed by the restart.
    pub records_replayed: u64,
    /// Registry counters and histograms accumulated over the measured phase
    /// (global families, the server's own registry, each tenant engine's
    /// instance counters).
    pub registry: RegistryDelta,
}

/// A registry image taken after the measured phase minus the one before.
#[derive(Debug, Clone, Default)]
pub struct RegistryDelta {
    before: MetricsSnapshot,
    after: MetricsSnapshot,
}

impl RegistryDelta {
    /// Builds a delta from its two images.
    #[must_use]
    pub fn between(before: MetricsSnapshot, after: MetricsSnapshot) -> RegistryDelta {
        RegistryDelta { before, after }
    }

    /// The increase of counter `name` (0 if never registered).
    #[must_use]
    pub fn counter(&self, name: &str) -> f64 {
        let get = |s: &MetricsSnapshot| s.counters.get(name).copied().unwrap_or(0);
        get(&self.after).saturating_sub(get(&self.before)) as f64
    }

    /// The summed increase of every counter whose name starts with `prefix`
    /// and ends with `suffix`.
    #[must_use]
    pub fn counter_family(&self, prefix: &str, suffix: &str) -> f64 {
        self.after
            .counters
            .keys()
            .filter(|k| k.starts_with(prefix) && k.ends_with(suffix))
            .map(|k| self.counter(k))
            .sum()
    }

    /// The samples histogram `name` gained, as a histogram image.
    #[must_use]
    pub fn histogram(&self, name: &str) -> eve_trace::HistogramSnapshot {
        let after = self.after.histograms.get(name).copied().unwrap_or_default();
        let before = self
            .before
            .histograms
            .get(name)
            .copied()
            .unwrap_or_default();
        eve_trace::HistogramSnapshot {
            buckets: std::array::from_fn(|i| after.buckets[i].saturating_sub(before.buckets[i])),
            sum: after.sum.saturating_sub(before.sum),
        }
    }

    /// The mean of the samples histogram `name` gained (its bucketed
    /// quantiles are powers of two; the mean keeps the digits).
    #[must_use]
    pub fn histogram_mean(&self, name: &str) -> f64 {
        let h = self.histogram(name);
        crate::stats::ratio(h.sum as f64, h.count() as f64)
    }
}

/// The merged registry image of a serving process: global families, the
/// server's request histograms, every tenant engine's instance counters.
fn registry_image(server: &Server, tenants: &[TenantPlan]) -> MetricsSnapshot {
    let mut image = eve_trace::global()
        .snapshot()
        .merge(server.metrics_registry().snapshot());
    for plan in tenants {
        if let Ok(tenant) = server.warehouse().existing(&plan.name) {
            image = image.merge(tenant.read().engine().telemetry_registry().snapshot());
        }
    }
    image
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|entry| match entry.metadata() {
            Ok(meta) if meta.is_dir() => dir_bytes(&entry.path()),
            Ok(meta) => meta.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Writes each tenant's pre-built state as the sequence-0 snapshot of a
/// fresh store under `root` (tenants in parallel: the box has two cores
/// and the two tenants are independent).
pub fn prebuild_tenants(root: &Path, tenants: &[TenantPlan]) -> Result<(), String> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = tenants
            .iter()
            .map(|plan| {
                scope.spawn(move || {
                    let engine = plan.build()?;
                    DurableEngine::create_with(root.join(&plan.name), engine)
                        .map(drop)
                        .map_err(|e| format!("{}: create_with: {e}", plan.name))
                })
            })
            .collect();
        handles
            .into_iter()
            .try_for_each(|h| h.join().map_err(|_| "tenant build panicked".to_owned())?)
    })
}

/// Opens the warehouse at `root` and attaches every tenant with its
/// executor options (recovering it from disk).
pub fn attach_tenants(root: &Path, tenants: &[TenantPlan]) -> Result<Arc<Warehouse>, String> {
    let warehouse = Warehouse::open(root).map_err(|e| format!("warehouse open: {e}"))?;
    for plan in tenants {
        warehouse
            .tenant_with_exec(
                &plan.name,
                TenantBudget::default(),
                AdmissionPolicy::Reject,
                ExecOptions::with_parallelism(plan.parallelism),
            )
            .map_err(|e| format!("attach {}: {e}", plan.name))?;
    }
    Ok(Arc::new(warehouse))
}

/// Connects a client and opens its session.
pub fn open_client(server: &Server, tenant: &str) -> Result<Client, String> {
    let mut client = server.connect().map_err(|e| format!("connect: {e}"))?;
    client
        .open_session(tenant)
        .map_err(|e| format!("open_session({tenant}): {e}"))?;
    Ok(client)
}

/// What one client thread brings back.
struct ClientRun {
    samples: Vec<Sample>,
    failures: Vec<String>,
    failed: u64,
    mutations: u64,
    quality: Quality,
}

/// Replays `ops` closed-loop on `client`, timing each request.
fn drive(client: &mut Client, ops: &[Op], origin: Instant) -> ClientRun {
    let mut run = ClientRun {
        samples: Vec::with_capacity(ops.len()),
        failures: Vec::new(),
        failed: 0,
        mutations: 0,
        quality: Quality::default(),
    };
    for (i, op) in ops.iter().enumerate() {
        let request = op.request();
        let sent = Instant::now();
        let outcome = client.request(request);
        let latency = sent.elapsed();
        let mut response_bytes = 0usize;
        let failure = match &outcome {
            Ok(ResponseBody::Output { text }) => {
                response_bytes = text.len();
                if let Op::Change(_) = op {
                    run.quality.absorb(text);
                }
                None
            }
            Ok(ResponseBody::Stats { .. }) => None,
            Ok(ResponseBody::Err { detail, .. }) => Some(format!("answered Err: {detail}")),
            Ok(ResponseBody::Queued { .. }) => Some("refused (queued by admission)".to_owned()),
            Ok(other) => Some(format!("unexpected response {other:?}")),
            Err(e) => Some(format!("lost: {e}")),
        };
        match failure {
            None => {
                if op.is_mutation() {
                    run.mutations += 1;
                }
            }
            Some(why) => {
                run.failed += 1;
                if run.failures.len() < 3 {
                    run.failures
                        .push(format!("op {i} `{}`: {why}", op.canonical()));
                }
            }
        }
        run.samples.push(Sample {
            kind: op.kind(),
            op: i as u32,
            start_us: sent.duration_since(origin).as_secs_f64() * 1e6,
            latency_us: latency.as_secs_f64() * 1e6,
            response_bytes: response_bytes as u32,
        });
    }
    run
}

/// How many client threads drive the server: the machine's cores, at most
/// two (the workloads have two client connections).
#[must_use]
pub fn client_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, std::num::NonZeroUsize::get)
        .min(2)
}

/// Runs one round of `workload` in `root` (which must be empty), its
/// client connections driven from `threads` threads: with fewer threads
/// than connections, one thread replays the connections' streams one after
/// the other.
///
/// # Errors
///
/// A set-up, transport or restart failure. Failed *requests* are not
/// errors here: they are counted and reported.
pub fn run_round(workload: &Workload, root: &Path, threads: usize) -> Result<RoundResult, String> {
    // --- set-up -------------------------------------------------------
    let setup_started = Instant::now();
    prebuild_tenants(root, &workload.tenants)?;
    let warehouse = attach_tenants(root, &workload.tenants)?;
    let server = Server::start(Arc::clone(&warehouse), ServerConfig::default());
    let mut clients = Vec::with_capacity(workload.clients.len());
    for plan in &workload.clients {
        clients.push(open_client(&server, &workload.tenants[plan.tenant].name)?);
    }
    let setup_s = setup_started.elapsed().as_secs_f64();

    // --- measured phase -------------------------------------------------
    let before = registry_image(&server, &workload.tenants);
    let origin = Instant::now();
    let runs: Vec<ClientRun> = if threads >= clients.len() {
        let barrier = Barrier::new(clients.len());
        std::thread::scope(|scope| {
            let handles: Vec<_> = clients
                .iter_mut()
                .zip(&workload.clients)
                .map(|(client, plan)| {
                    let barrier = &barrier;
                    scope.spawn(move || {
                        barrier.wait();
                        drive(client, &plan.ops, origin)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().map_err(|_| "client thread panicked".to_owned()))
                .collect::<Result<_, _>>()
        })?
    } else {
        clients
            .iter_mut()
            .zip(&workload.clients)
            .map(|(client, plan)| drive(client, &plan.ops, origin))
            .collect()
    };
    let measured_s = origin.elapsed().as_secs_f64();
    let after = registry_image(&server, &workload.tenants);
    let mut result = RoundResult {
        setup_s,
        measured_s,
        recover_s: 0.0,
        samples: Vec::new(),
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
        mutations: 0,
        disk_bytes: dir_bytes(root),
        quality: Quality::default(),
        fingerprints: Vec::new(),
        restart_mismatches: Vec::new(),
        records_replayed: 0,
        registry: RegistryDelta::between(before, after),
    };
    for run in runs {
        result.attempted += run.samples.len() as u64;
        result.failed += run.failed;
        result.mutations += run.mutations;
        result.quality.add(run.quality);
        result.failures.extend(run.failures);
        result.samples.push(run.samples);
    }
    for plan in &workload.tenants {
        let tenant = warehouse
            .existing(&plan.name)
            .map_err(|e| format!("tenant {} vanished: {e}", plan.name))?;
        result.fingerprints.push(tenant.fingerprint());
    }

    // --- restart phase --------------------------------------------------
    let replayed = eve_trace::global().counter("store.records_replayed");
    let replayed_before = replayed.get();
    let restart_started = Instant::now();
    drop(clients);
    server.shutdown();
    drop(warehouse);
    let warehouse = attach_tenants(root, &workload.tenants)?;
    let server = Server::start(Arc::clone(&warehouse), ServerConfig::default());
    for plan in &workload.tenants {
        let mut client = open_client(&server, &plan.name)?;
        match client.request(Op::Query(plan.probe_view.clone()).request()) {
            Ok(ResponseBody::Output { .. }) => {}
            other => {
                return Err(format!(
                    "restarted tenant {} did not answer `query {}`: {other:?}",
                    plan.name, plan.probe_view
                ))
            }
        }
    }
    result.recover_s = restart_started.elapsed().as_secs_f64();
    result.records_replayed = replayed.get().saturating_sub(replayed_before);
    for (plan, before) in workload.tenants.iter().zip(&result.fingerprints) {
        let tenant = warehouse
            .existing(&plan.name)
            .map_err(|e| format!("restarted tenant {} vanished: {e}", plan.name))?;
        if tenant.fingerprint() != *before {
            result.restart_mismatches.push(plan.name.clone());
        }
    }
    server.shutdown();
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quality_reads_the_change_report_lines() {
        let mut q = Quality::default();
        q.absorb(
            "applied delete-relation R\n  V1: adopted rewriting (QC 0.2500, DD 0.1000) — x\n  \
             V2: no legal rewriting — dropped\n  V3: adopted rewriting (QC 0.7500, DD 0.0) — y",
        );
        assert_eq!(q.affected, 3);
        assert_eq!(q.survived, 2);
        assert!((q.qc_sum - 1.0).abs() < 1e-12);
        // A change that affected nothing has only its header line.
        q.absorb("applied delete-relation S");
        assert_eq!(q.affected, 3);
    }

    #[test]
    fn scratch_is_removed_on_drop() {
        let path = {
            let scratch = Scratch::new("droptest").unwrap();
            std::fs::write(scratch.path().join("f"), b"x").unwrap();
            scratch.path().to_owned()
        };
        assert!(!path.exists());
    }
}
