//! End-to-end tests of the harness itself, on the smoke size.
//!
//! These read process-wide registry counters, so they run one at a time.

use std::sync::{Mutex, MutexGuard, PoisonError};

use eve_benchmark::metrics::Values;
use eve_benchmark::metrics::{END_TO_END, PER_LAYER};
use eve_benchmark::ops::Op;
use eve_benchmark::round::{run_round, RoundResult, Scratch};
use eve_benchmark::run::{check_rounds, oracle_fingerprints, run_untraced, Budget};
use eve_benchmark::stats;
use eve_benchmark::trace::{round_values, run_traced};
use eve_benchmark::workloads::{Kind, Size, Workload};

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn single_client_round(workload: &Workload, tag: &str) -> RoundResult {
    let scratch = Scratch::new(tag).unwrap();
    run_round(workload, scratch.path(), 1).unwrap()
}

/// The metrics that are counts, not times: they must repeat exactly.
fn exact_counts(workload: &Workload, round: &RoundResult) -> Vec<(&'static str, f64)> {
    let mut values = Values::new();
    round_values(workload, round, &mut values);
    let mut out = vec![
        (
            "disk_bytes_per_op",
            stats::ratio(round.disk_bytes as f64, round.mutations as f64),
        ),
        (
            "adopted_qc_mean",
            stats::ratio(round.quality.qc_sum, round.quality.survived as f64),
        ),
        (
            "survived_share",
            stats::ratio(round.quality.survived as f64, round.quality.affected as f64),
        ),
    ];
    for name in [
        "store.fsyncs_per_op",
        "store.log_bytes_per_op",
        "sync.candidates_per_change",
    ] {
        out.push((name, values.get(name).unwrap()));
    }
    out
}

#[test]
fn exact_count_metrics_repeat_exactly_across_two_single_client_runs() {
    let _guard = serial();
    for kind in Kind::ALL {
        let workload = Workload::generate(kind, 21, Size::Smoke);
        let a = single_client_round(&workload, "exact-a");
        let b = single_client_round(&workload, "exact-b");
        assert_eq!(a.failed, 0, "{}: {:?}", kind.name(), a.failures);
        let (a, b) = (exact_counts(&workload, &a), exact_counts(&workload, &b));
        assert_eq!(a, b, "{}", kind.name());
        for (name, value) in a {
            assert!(value > 0.0, "{}: {name} is {value}", kind.name());
        }
    }
}

#[test]
fn every_workload_passes_its_gates_and_reports_every_end_to_end_metric() {
    let _guard = serial();
    for kind in Kind::ALL {
        let report = run_untraced(kind, 5, Size::Smoke, Budget::rounds(2)).unwrap();
        assert!(report.correct(), "{}: {:?}", kind.name(), report.violations);
        assert_eq!(report.failed, 0);
        assert_eq!(report.rounds, 2);
        // `json` panics on a metric that was never measured.
        let json = report.values.json(END_TO_END);
        for spec in END_TO_END {
            let v = report.values.get(spec.name).unwrap();
            assert!(
                v > 0.0,
                "{}: {} is {v} — choose metrics that are never 0",
                kind.name(),
                spec.name
            );
            assert!(json.contains(spec.name));
        }
    }
}

#[test]
fn a_corrupted_oracle_script_breaks_the_gate() {
    let _guard = serial();
    let workload = Workload::generate(Kind::UpdateStream, 9, Size::Smoke);
    let round = single_client_round(&workload, "gate");
    let honest = oracle_fingerprints(&workload).unwrap();
    assert!(check_rounds(&workload, std::slice::from_ref(&round), &honest).is_empty());

    // The oracle replays a script that lost one of the tenant's updates:
    // the served tenant no longer matches it, and the gate says which.
    let mut corrupted = workload.clone();
    let ops = &mut corrupted.clients[0].ops;
    let victim = ops
        .iter()
        .rposition(|op| matches!(op, Op::Update { .. }))
        .unwrap();
    ops.remove(victim);
    let lying = oracle_fingerprints(&corrupted).unwrap();
    let violations = check_rounds(&workload, std::slice::from_ref(&round), &lying);
    assert_eq!(violations.len(), 1, "{violations:?}");
    assert!(
        violations[0].contains("`t0` differs from its serial oracle"),
        "{violations:?}"
    );
}

#[test]
fn a_failed_request_breaks_the_gate_and_is_counted() {
    let _guard = serial();
    let mut workload = Workload::generate(Kind::EvolveStorm, 9, Size::Smoke);
    // A query of a view nobody defined is answered `Err`.
    workload.clients[1].ops.push(Op::Query("NoSuchView".into()));
    let round = single_client_round(&workload, "failed-request");
    assert_eq!(round.failed, 1);
    let oracle = oracle_fingerprints(&workload).unwrap();
    let violations = check_rounds(&workload, std::slice::from_ref(&round), &oracle);
    assert!(
        violations.iter().any(|v| v.contains("NoSuchView")),
        "{violations:?}"
    );
}

#[test]
fn the_traced_run_reports_every_per_layer_metric_and_its_ladder_closes() {
    let _guard = serial();
    for kind in Kind::ALL {
        let report = run_traced(kind, 5, Size::Smoke).unwrap();
        assert!(report.correct(), "{}: {:?}", kind.name(), report.violations);
        let json = report.values.json(PER_LAYER);
        assert!(json.contains("unattributed_share"));
        assert!(report.ladder_ops > 0);
        // Shares are signed differences of separate replicas, but they are
        // parts of one whole.
        let total: f64 = report.shares().iter().map(|(_, s)| s).sum();
        assert!(
            (total - 1.0).abs() < 1e-6,
            "{}: shares sum to {total}",
            kind.name()
        );
        let trace = std::fs::read_to_string(&report.trace_path).unwrap();
        assert!(trace.starts_with("{\"traceEvents\":[") && trace.ends_with("]}"));
        for rung in eve_benchmark::ladder::RUNGS {
            assert!(trace.contains(&format!("\"name\":\"{rung}\"")), "{rung}");
        }
        std::fs::remove_file(&report.trace_path).ok();
    }
}
