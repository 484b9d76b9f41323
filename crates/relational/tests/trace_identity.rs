//! Observability must never change an answer: the same plan executed with
//! span recording off (the production default) and on yields byte-identical
//! extents, and the instrumentation is live (spans were captured).
//!
//! This file holds exactly one test and must stay that way: it flips the
//! process-global span switch and reads the process-global `exec.*`
//! counters, so it cannot share a process with tests that execute plans.

use std::collections::BTreeMap;

use eve_relational::exec::{execute_with_options, ExecMode};
use eve_relational::{
    tup, ColumnDef, ColumnRef, CompOp, DataType, ExecOptions, PrimitiveClause, QueryInput,
    QuerySpec, Relation, Schema, Tuple, Value,
};
use eve_trace::MetricsSnapshot;

fn input(binding: &str, second: &str, rows: Vec<Tuple>) -> QueryInput {
    let schema = Schema::new(vec![
        ColumnDef::new(ColumnRef::qualified(binding, "K"), DataType::Int),
        ColumnDef::new(ColumnRef::qualified(binding, second), DataType::Int),
    ])
    .unwrap();
    QueryInput {
        binding: binding.to_owned(),
        relation: Relation::with_tuples(binding, schema, rows).unwrap(),
        stats: None,
    }
}

/// Two wide relations joined on a low-cardinality grouping column plus a
/// small filtered one: scans, a pushed-down selection and two hash joins.
fn wide_join(scale: i64) -> QuerySpec {
    let wide = |binding| input(binding, "P", (0..scale).map(|k| tup![k, k % 30]).collect());
    let small = input("S", "Q", (0..scale / 10).map(|k| tup![k, k % 50]).collect());
    QuerySpec {
        name: "Wide".into(),
        inputs: vec![wide("A"), wide("B"), small],
        clauses: vec![
            PrimitiveClause::eq(
                ColumnRef::qualified("A", "P"),
                ColumnRef::qualified("B", "P"),
            ),
            PrimitiveClause::eq(
                ColumnRef::qualified("A", "K"),
                ColumnRef::qualified("S", "K"),
            ),
            PrimitiveClause::lit(ColumnRef::qualified("S", "Q"), CompOp::Eq, Value::Int(0)),
        ],
        projection: vec![
            ColumnRef::qualified("A", "K"),
            ColumnRef::qualified("B", "K"),
        ],
        output: vec![ColumnRef::bare("K"), ColumnRef::bare("BK")],
    }
}

/// Movement of the `exec.*` counters between two snapshots. `exec.steals`
/// is excluded: steal counts depend on thread scheduling, by design.
fn exec_delta(before: &MetricsSnapshot, after: &MetricsSnapshot) -> BTreeMap<String, u64> {
    after
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("exec.") && name.as_str() != "exec.steals")
        .map(|(name, v)| {
            let base = before.counters.get(name).copied().unwrap_or(0);
            (name.clone(), v - base)
        })
        .collect()
}

#[test]
fn traced_run_extents_byte_identical_to_untraced() {
    let plan = eve_relational::plan::plan(wide_join(300)).unwrap();
    // Through the morsel pool, so worker threads cross span sites too and
    // the `exec.*` counters have something to count.
    let run = || {
        let opts = ExecOptions {
            parallelism: 2,
            morsel_rows: 64,
            force_parallel: true,
        };
        execute_with_options(&plan, ExecMode::Columnar, &opts).unwrap()
    };

    eve_trace::set_enabled(false);
    eve_trace::clear_spans();
    let s0 = eve_trace::global().snapshot();
    let untraced = run();
    let s1 = eve_trace::global().snapshot();
    assert!(
        eve_trace::snapshot_events().is_empty(),
        "a disabled collector must record nothing"
    );

    eve_trace::set_enabled(true);
    let traced = run();
    let s2 = eve_trace::global().snapshot();
    let spans = eve_trace::snapshot_events().len();
    eve_trace::set_enabled(false);
    eve_trace::clear_spans();

    assert!(untraced.cardinality() > 0);
    assert_eq!(untraced, traced, "tracing changed an answer");
    assert!(
        spans > 0,
        "the traced run captured no spans — instrumentation is dead"
    );
    // Tracing does not change what the executor does, only what it
    // records: both runs move the deterministic counters identically.
    let moved = exec_delta(&s0, &s1);
    assert!(moved.values().any(|&v| v > 0), "{moved:?}");
    assert_eq!(moved, exec_delta(&s1, &s2));
}
