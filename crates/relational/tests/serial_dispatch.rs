//! Serial execution is one worker over one range: a plan run at the
//! default [`ExecOptions`] dispatches no morsel, builds no hash-join
//! partition, counts no parallel operator and records no
//! `exec.morsel_run` span — the metric catalogue's "0 when every query
//! runs serially", and the rule that hot paths write no shared state.
//!
//! This file holds exactly one test and must stay that way: it flips the
//! process-global span switch and reads the process-global `exec.*`
//! counters, so it cannot share a process with tests that execute plans.

use eve_relational::exec::{execute_with_options, ExecMode};
use eve_relational::{
    tup, ColumnDef, ColumnRef, CompOp, DataType, ExecOptions, PrimitiveClause, QueryInput,
    QuerySpec, Relation, Schema, Tuple, Value,
};

fn input(binding: &str, columns: &[&str], rows: Vec<Tuple>) -> QueryInput {
    let schema = Schema::new(
        columns
            .iter()
            .map(|c| ColumnDef::new(ColumnRef::qualified(binding, *c), DataType::Int))
            .collect(),
    )
    .unwrap();
    QueryInput {
        binding: binding.to_owned(),
        relation: Relation::with_tuples(binding, schema, rows).unwrap(),
        stats: None,
    }
}

/// `A` is served by an index scan with a residual, `B` by a pushed-down
/// scan; `A ⋈ B` is a hash join and `C` joins through a nested loop.
fn every_operator() -> QuerySpec {
    let col = ColumnRef::qualified;
    QuerySpec {
        name: "V".into(),
        inputs: vec![
            input(
                "A",
                &["K", "P"],
                (0..500).map(|k| tup![k % 100, k]).collect(),
            ),
            input("B", &["K", "Q"], (0..20).map(|k| tup![k, k % 2]).collect()),
            input("C", &["X"], vec![tup![100], tup![200], tup![300]]),
        ],
        clauses: vec![
            PrimitiveClause::lit(col("A", "K"), CompOp::Eq, Value::Int(8)),
            PrimitiveClause::lit(col("A", "P"), CompOp::Lt, Value::Int(400)),
            PrimitiveClause::lit(col("B", "Q"), CompOp::Eq, Value::Int(0)),
            PrimitiveClause::eq(col("A", "K"), col("B", "K")),
            PrimitiveClause::cols(col("A", "P"), CompOp::Lt, col("C", "X")),
        ],
        projection: vec![col("A", "P"), col("C", "X")],
        output: vec![ColumnRef::bare("P"), ColumnRef::bare("X")],
    }
}

#[test]
fn serial_execution_dispatches_no_morsel() {
    let plan = eve_relational::plan::plan(every_operator()).unwrap();
    let explain = plan.explain();
    for operator in [
        "index-scan A (hash = 8) σ[",
        "scan B σ[",
        "hash-join",
        "nested-loop",
    ] {
        assert!(explain.contains(operator), "no `{operator}` in\n{explain}");
    }

    eve_trace::clear_spans();
    eve_trace::set_enabled(true);
    let before = eve_trace::global().snapshot();
    let out = execute_with_options(&plan, ExecMode::Columnar, &ExecOptions::default()).unwrap();
    let after = eve_trace::global().snapshot();
    let spans = eve_trace::snapshot_events();
    eve_trace::set_enabled(false);
    eve_trace::clear_spans();

    // P ∈ {8, 108, 208, 308} against X ∈ {100, 200, 300}.
    assert_eq!(out.cardinality(), 6);
    assert_eq!(
        out,
        execute_with_options(&plan, ExecMode::RowOriented, &ExecOptions::default()).unwrap()
    );
    for counter in ["exec.morsels", "exec.partitions", "exec.parallel_ops"] {
        assert_eq!(
            after.counter(counter),
            before.counter(counter),
            "{counter} moved"
        );
    }
    assert!(
        spans.iter().any(|e| e.name == "exec.join.nested"),
        "the traced run recorded no operator span"
    );
    assert!(
        spans.iter().all(|e| e.name != "exec.morsel_run"),
        "a serial run dispatched morsels"
    );
}
