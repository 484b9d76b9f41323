//! The untraced run: rounds until the time budget is spent, the serial
//! oracle, the correctness gate and the end-to-end metrics.

use std::time::Instant;

use eve_system::Shell;

use crate::metrics::Values;
use crate::ops::{Op, OpKind};
use crate::round::{client_threads, run_round, RoundResult, Scratch};
use crate::stats;
use crate::workloads::{Kind, Size, Workload};

/// How many rounds a run makes.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Keep starting rounds until their measured phases add up to this.
    pub seconds: f64,
    /// Never fewer rounds than this, so set-up and recovery are each
    /// measured several times and reported as medians.
    pub min_rounds: usize,
    /// Never more rounds than this.
    pub max_rounds: usize,
}

impl Budget {
    /// The budget of a `--seconds` run.
    #[must_use]
    pub fn seconds(seconds: f64) -> Budget {
        Budget {
            seconds,
            min_rounds: 3,
            max_rounds: 8,
        }
    }

    /// Exactly `rounds` rounds, whatever they take.
    #[must_use]
    pub fn rounds(rounds: usize) -> Budget {
        Budget {
            seconds: 0.0,
            min_rounds: rounds,
            max_rounds: rounds,
        }
    }
}

/// A run stops starting rounds once it has been going this long, whatever
/// its budget says: the contract gives a run 180 s.
const WALL_CAP_S: f64 = 75.0;

/// What an untraced run found.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The workload.
    pub kind: Kind,
    /// End-to-end metric values.
    pub values: Values,
    /// Requests sent over all rounds.
    pub attempted: u64,
    /// Requests answered `Err`, refused or lost.
    pub failed: u64,
    /// Every broken correctness gate, in words (empty = correct).
    pub violations: Vec<String>,
    /// Rounds run.
    pub rounds: usize,
    /// Samples behind each latency class (read, write, change).
    pub samples: [usize; 3],
}

impl RunReport {
    /// Whether every gate held.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Replays each tenant's mutations, in order, through a plain [`Shell`]
/// (no store, no server) and returns the resulting fingerprints: what the
/// served tenants must be byte-identical to. Tenants replay in parallel.
///
/// # Errors
///
/// The first statement the oracle shell rejects.
pub fn oracle_fingerprints(workload: &Workload) -> Result<Vec<Vec<u8>>, String> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workload.tenants.len())
            .map(|t| {
                scope.spawn(move || -> Result<Vec<u8>, String> {
                    let plan = &workload.tenants[t];
                    let mut shell = Shell::new();
                    *shell.engine_mut() = plan.build()?;
                    for op in workload.mutations_of(t) {
                        let outcome = match op {
                            Op::Apply(ops) => shell.engine_mut().apply_batch(ops.clone()).map(drop),
                            // A plain shell has no store to checkpoint.
                            Op::Checkpoint => Ok(()),
                            statement => shell
                                .execute(&statement.line().expect("mutations are statements"))
                                .map(drop),
                        };
                        outcome.map_err(|e| {
                            format!("oracle {}: `{}` failed: {e}", plan.name, op.canonical())
                        })?;
                    }
                    Ok(shell.engine().snapshot_state().to_bytes())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "oracle thread panicked".to_owned())?)
            .collect()
    })
}

/// The process's peak resident set (`VmHWM`), MiB.
#[must_use]
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// All rounds' latencies of one class, sorted.
#[must_use]
pub fn pooled_latencies(rounds: &[RoundResult], kind: OpKind) -> Vec<f64> {
    let mut pooled: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.samples.iter().flatten())
        .filter(|s| s.kind == kind)
        .map(|s| s.latency_us)
        .collect();
    pooled.sort_by(f64::total_cmp);
    pooled
}

/// Checks every round against the oracle and the restart gate, and that
/// the exact counts repeat from round to round (the rounds replay one op
/// stream, so anything else is nondeterminism in the served program).
/// Returns every violation, in words.
#[must_use]
pub fn check_rounds(
    workload: &Workload,
    rounds: &[RoundResult],
    oracle: &[Vec<u8>],
) -> Vec<String> {
    let mut violations = Vec::new();
    for (i, round) in rounds.iter().enumerate() {
        for why in &round.failures {
            violations.push(format!("round {i}: request failed: {why}"));
        }
        if round.failed > round.failures.len() as u64 {
            violations.push(format!(
                "round {i}: {} requests failed in all",
                round.failed
            ));
        }
        for (t, plan) in workload.tenants.iter().enumerate() {
            if round.fingerprints[t] != oracle[t] {
                violations.push(format!(
                    "round {i}: served tenant `{}` differs from its serial oracle",
                    plan.name
                ));
            }
        }
        for name in &round.restart_mismatches {
            violations.push(format!(
                "round {i}: restarted tenant `{name}` differs from its pre-shutdown state"
            ));
        }
        let first = &rounds[0];
        if round.disk_bytes != first.disk_bytes
            || round.mutations != first.mutations
            || round.quality != first.quality
        {
            violations.push(format!(
                "round {i}: exact counts differ from round 0 (disk {} vs {}, mutations {} vs {}, \
                 quality {:?} vs {:?})",
                round.disk_bytes,
                first.disk_bytes,
                round.mutations,
                first.mutations,
                round.quality,
                first.quality
            ));
        }
    }
    violations
}

/// The end-to-end metric values of a set of rounds. Set-up, throughput and
/// recovery are each the median over the rounds of the round's own figure,
/// so one round that the machine disturbed does not move the run's reading.
#[must_use]
pub fn end_to_end(generate_s: f64, rounds: &[RoundResult], peak_rss_mib: f64) -> Values {
    let mut values = Values::new();
    let over_rounds = |f: &dyn Fn(&RoundResult) -> f64| {
        stats::median(&mut rounds.iter().map(f).collect::<Vec<_>>())
    };
    // Inputs are generated once per run and shared by its rounds; set-up is
    // that plus the median round's tenant build, attach and server start.
    values.set("setup_s", generate_s + over_rounds(&|r| r.setup_s));
    values.set(
        "ops_per_s",
        over_rounds(&|r| stats::ratio((r.attempted - r.failed) as f64, r.measured_s)),
    );
    // Latencies pool over the rounds: a class with a few dozen samples a
    // round needs all of them for a steady median.
    for (kind, name) in [
        (OpKind::Read, "read_p50_us"),
        (OpKind::Write, "write_p50_us"),
        (OpKind::Change, "change_p50_us"),
    ] {
        values.set(name, stats::quantile(&pooled_latencies(rounds, kind), 0.5));
    }
    values.set("recover_s", over_rounds(&|r| r.recover_s));
    let first = &rounds[0];
    values.set(
        "disk_bytes_per_op",
        stats::ratio(first.disk_bytes as f64, first.mutations as f64),
    );
    values.set("peak_rss_mib", peak_rss_mib);
    values.set(
        "adopted_qc_mean",
        stats::ratio(first.quality.qc_sum, first.quality.survived as f64),
    );
    values.set(
        "survived_share",
        stats::ratio(first.quality.survived as f64, first.quality.affected as f64),
    );
    values
}

/// Generates the workload and runs it untraced within `budget`.
///
/// # Errors
///
/// Harness failures (set-up, transport, oracle). A broken correctness gate
/// is not an error: it is listed in [`RunReport::violations`].
pub fn run_untraced(
    kind: Kind,
    seed: u64,
    size: Size,
    budget: Budget,
) -> Result<RunReport, String> {
    eve_trace::set_enabled(false);
    let started = Instant::now();
    let workload = Workload::generate(kind, seed, size);
    let generate_s = started.elapsed().as_secs_f64();

    let mut rounds: Vec<RoundResult> = Vec::new();
    let mut measured = 0.0;
    let mut rss = 0.0;
    while rounds.len() < budget.max_rounds
        && (rounds.len() < budget.min_rounds
            || (measured < budget.seconds && started.elapsed().as_secs_f64() < WALL_CAP_S))
    {
        let scratch = Scratch::new(&format!("{}-round{}", kind.name(), rounds.len()))?;
        let round = run_round(&workload, scratch.path(), client_threads())?;
        measured += round.measured_s;
        rounds.push(round);
        // The peak is read after the first round: one round is fixed work,
        // how many follow is not, and the oracle runs later still.
        if rounds.len() == 1 {
            rss = peak_rss_mib();
        }
    }
    let oracle = oracle_fingerprints(&workload)?;
    let violations = check_rounds(&workload, &rounds, &oracle);
    Ok(RunReport {
        kind,
        values: end_to_end(generate_s, &rounds, rss),
        attempted: rounds.iter().map(|r| r.attempted).sum(),
        failed: rounds.iter().map(|r| r.failed).sum(),
        violations,
        rounds: rounds.len(),
        samples: OpKind::TIMED.map(|k| {
            rounds
                .iter()
                .flat_map(|r| r.samples.iter().flatten())
                .filter(|s| s.kind == k)
                .count()
        }),
    })
}
