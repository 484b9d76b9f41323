//! View query evaluation.
//!
//! [`evaluate_view`] routes every view execution through the physical query
//! layer: the E-SQL definition is lowered to an
//! [`eve_relational::QuerySpec`] (scans of the bound extents, the WHERE
//! conjunction, the SELECT projection), compiled by the cost-ordered
//! planner ([`eve_relational::plan`]) — pushed-down selections, hash-join
//! keys resolved at plan time, selectivity-driven greedy join reordering —
//! and executed over `Arc`-shared storage ([`eve_relational::exec`]).
//!
//! [`evaluate_view_naive`] keeps the historical left-to-right fold as the
//! reference implementation: FROM relations joined in declaration order
//! with WHERE clauses applied as early as they become resolvable. The
//! differential property suites hold the planner to `planned ≡ naive` (as
//! bags — join reordering may permute physical row order).
//!
//! The result is a *bag* (duplicates preserved): materialized views keep all
//! derivations so that incremental deletions remove the right multiplicity;
//! the paper's set-semantics comparisons deduplicate afterwards.

use std::collections::BTreeMap;

use eve_esql::ViewDef;
use eve_relational::{
    algebra, ColumnRef, ExecOptions, PhysicalPlan, Predicate, PrimitiveClause, QueryInput,
    QuerySpec, Relation, RelationStats, Schema,
};

use crate::error::{Error, Result};

/// Re-qualifies a base relation's columns to a view binding name.
/// Zero-copy: the bound relation shares the input's tuple storage.
///
/// # Errors
///
/// Schema manipulation failures.
pub(crate) fn bind_relation(rel: &Relation, binding: &str) -> Result<Relation> {
    let schema = rel.schema().unqualify()?.qualify(binding);
    Ok(rel.rebind(binding, schema)?)
}

/// Lowers a *validated* view over the given extents into the planner's
/// neutral query form, attaching declared statistics where provided.
fn lower(
    view: &ViewDef,
    extents: &BTreeMap<String, Relation>,
    stats: &BTreeMap<String, RelationStats>,
) -> Result<QuerySpec> {
    let mut inputs = Vec::with_capacity(view.from.len());
    for item in &view.from {
        let rel = extents.get(&item.relation).ok_or_else(|| Error::State {
            detail: format!("no extent for relation `{}`", item.relation),
        })?;
        inputs.push(QueryInput {
            binding: item.binding_name().to_owned(),
            relation: bind_relation(rel, item.binding_name())?,
            stats: stats.get(&item.relation).cloned(),
        });
    }
    Ok(QuerySpec {
        name: view.name.clone(),
        inputs,
        clauses: view.conditions.iter().map(|c| c.clause.clone()).collect(),
        projection: view.select.iter().map(|s| s.attr.clone()).collect(),
        output: view
            .output_columns()
            .into_iter()
            .map(ColumnRef::bare)
            .collect(),
    })
}

/// Compiles a view over base extents into a physical plan without executing
/// it — the estimate inspection hook for cost reports and the benchmark's
/// `relational.plan_us` probe.
///
/// # Errors
///
/// Validation/state/planning failures.
pub fn plan_view(
    view: &ViewDef,
    extents: &BTreeMap<String, Relation>,
    stats: &BTreeMap<String, RelationStats>,
) -> Result<PhysicalPlan> {
    let view = eve_esql::validate::validate(view).map_err(|e| Error::Validation(e.message))?;
    Ok(eve_relational::plan::plan(lower(&view, extents, stats)?)?)
}

/// Evaluates a view over base extents keyed by *relation name*, through the
/// physical planner (measured-statistics mode).
///
/// # Errors
///
/// [`Error::State`] for missing extents, planning/validation failures for
/// clauses that never become resolvable, relational failures otherwise.
pub fn evaluate_view(view: &ViewDef, extents: &BTreeMap<String, Relation>) -> Result<Relation> {
    evaluate_view_with_stats(view, extents, &BTreeMap::new())
}

/// [`evaluate_view`] with declared [`RelationStats`] (keyed by relation
/// name) steering the planner; relations without an entry fall back to
/// measured statistics.
///
/// # Errors
///
/// As [`evaluate_view`].
pub fn evaluate_view_with_stats(
    view: &ViewDef,
    extents: &BTreeMap<String, Relation>,
    stats: &BTreeMap<String, RelationStats>,
) -> Result<Relation> {
    evaluate_view_with_options(view, extents, stats, &ExecOptions::default())
}

/// [`evaluate_view_with_stats`] under explicit [`ExecOptions`]: with
/// `parallelism > 1` the columnar operators run morsel-parallel (unless
/// the planner's cost model vetoes it for a tiny input). Output is
/// byte-identical to serial execution regardless of the options.
///
/// # Errors
///
/// As [`evaluate_view`].
pub(crate) fn evaluate_view_with_options(
    view: &ViewDef,
    extents: &BTreeMap<String, Relation>,
    stats: &BTreeMap<String, RelationStats>,
    options: &ExecOptions,
) -> Result<Relation> {
    let plan = plan_view(view, extents, stats)?;
    Ok(eve_relational::exec::execute_with_options(
        &plan,
        eve_relational::ExecMode::Columnar,
        options,
    )?)
}

/// Whether every column of a clause resolves in `schema`.
fn resolvable(clause: &PrimitiveClause, schema: &Schema) -> bool {
    clause
        .columns()
        .iter()
        .all(|c| schema.resolve(c, "probe").is_ok())
}

/// Splits `clauses` into those resolvable in `schema` and the rest.
fn split_resolvable(
    clauses: Vec<PrimitiveClause>,
    schema: &Schema,
) -> (Vec<PrimitiveClause>, Vec<PrimitiveClause>) {
    clauses.into_iter().partition(|c| resolvable(c, schema))
}

/// The naive reference evaluator: FROM relations folded left-to-right in
/// declaration order, WHERE clauses applied as early as they become
/// resolvable. Kept verbatim as the implementation the differential
/// property suites compare planned execution against.
///
/// # Errors
///
/// [`Error::State`] for missing extents, [`Error::Validation`] for clauses
/// that never become resolvable, relational failures otherwise.
pub fn evaluate_view_naive(
    view: &ViewDef,
    extents: &BTreeMap<String, Relation>,
) -> Result<Relation> {
    let view = eve_esql::validate::validate(view).map_err(|e| Error::Validation(e.message))?;

    let fetch = |item: &eve_esql::FromItem| -> Result<Relation> {
        let rel = extents.get(&item.relation).ok_or_else(|| Error::State {
            detail: format!("no extent for relation `{}`", item.relation),
        })?;
        bind_relation(rel, item.binding_name())
    };

    let mut remaining: Vec<PrimitiveClause> =
        view.conditions.iter().map(|c| c.clause.clone()).collect();

    let mut acc = fetch(&view.from[0])?;
    let (local, rest) = split_resolvable(remaining, acc.schema());
    remaining = rest;
    if !local.is_empty() {
        acc = algebra::select(&acc, &Predicate::new(local))?;
    }

    for item in &view.from[1..] {
        let mut next = fetch(item)?;
        let (local, rest) = split_resolvable(remaining, next.schema());
        remaining = rest;
        if !local.is_empty() {
            next = algebra::select(&next, &Predicate::new(local))?;
        }
        let combined = acc.schema().concat(next.schema())?;
        let (join_clauses, rest) = split_resolvable(remaining, &combined);
        remaining = rest;
        acc = algebra::join(&acc, &next, &Predicate::new(join_clauses))?;
    }

    if !remaining.is_empty() {
        return Err(Error::Validation(format!(
            "conditions reference no FROM relation: {}",
            Predicate::new(remaining)
        )));
    }

    // Project the SELECT list and rename to the output columns.
    let columns: Vec<ColumnRef> = view.select.iter().map(|s| s.attr.clone()).collect();
    let projected = algebra::project(&acc, &columns, false)?;
    let out_names: Vec<ColumnRef> = view
        .output_columns()
        .into_iter()
        .map(ColumnRef::bare)
        .collect();
    let mut out = algebra::rename_columns(&projected, &out_names)?;
    out.set_name(view.name.clone());
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eve_esql::parse_view;
    use eve_relational::{tup, DataType, Tuple, Value};

    fn extents() -> BTreeMap<String, Relation> {
        let customer = Relation::with_tuples(
            "Customer",
            Schema::of(&[("Name", DataType::Text), ("Address", DataType::Text)]).unwrap(),
            vec![
                tup!["ann", "12 Elm St"],
                tup!["bob", "9 Oak Ave"],
                tup!["cho", "3 Pine Rd"],
            ],
        )
        .unwrap();
        let flights = Relation::with_tuples(
            "FlightRes",
            Schema::of(&[("PName", DataType::Text), ("Dest", DataType::Text)]).unwrap(),
            vec![
                tup!["ann", "Asia"],
                tup!["bob", "Europe"],
                tup!["cho", "Asia"],
                tup!["ann", "Asia"],
            ],
        )
        .unwrap();
        let mut m = BTreeMap::new();
        m.insert("Customer".to_owned(), customer);
        m.insert("FlightRes".to_owned(), flights);
        m
    }

    #[test]
    fn asia_customer_join() {
        let view = parse_view(
            "CREATE VIEW Asia-Customer (VE = '~') AS \
             SELECT C.Name, C.Address \
             FROM Customer C, FlightRes F \
             WHERE (C.Name = F.PName) AND (F.Dest = 'Asia')",
        )
        .unwrap();
        let out = evaluate_view(&view, &extents()).unwrap();
        // Bag semantics: ann appears twice (two Asia reservations).
        assert_eq!(out.cardinality(), 3);
        assert_eq!(out.distinct().cardinality(), 2);
        assert!(out.distinct().contains(&tup!["ann", "12 Elm St"]));
        assert!(out.distinct().contains(&tup!["cho", "3 Pine Rd"]));
        assert_eq!(out.name(), "Asia-Customer");
        assert_eq!(out.schema().column(0).column, ColumnRef::bare("Name"));
    }

    #[test]
    fn local_selection_applied_before_join() {
        let view =
            parse_view("CREATE VIEW V AS SELECT F.PName FROM FlightRes F WHERE F.Dest = 'Asia'")
                .unwrap();
        let out = evaluate_view(&view, &extents()).unwrap();
        assert_eq!(out.cardinality(), 3);
    }

    #[test]
    fn aliases_rename_output_columns() {
        let view = parse_view("CREATE VIEW V AS SELECT C.Name AS Who FROM Customer C").unwrap();
        let out = evaluate_view(&view, &extents()).unwrap();
        assert_eq!(out.schema().column(0).column, ColumnRef::bare("Who"));
    }

    #[test]
    fn explicit_column_list_renames() {
        let view =
            parse_view("CREATE VIEW V (X, Y) AS SELECT C.Name, C.Address FROM Customer C").unwrap();
        let out = evaluate_view(&view, &extents()).unwrap();
        assert_eq!(out.schema().column(0).column, ColumnRef::bare("X"));
        assert_eq!(out.schema().column(1).column, ColumnRef::bare("Y"));
    }

    #[test]
    fn missing_extent_reported() {
        let view = parse_view("CREATE VIEW V AS SELECT Z.A FROM Z").unwrap();
        let e = evaluate_view(&view, &extents()).unwrap_err();
        assert!(e.to_string().contains("no extent"));
    }

    #[test]
    fn three_way_chain_join() {
        let mut ext = BTreeMap::new();
        let mk = |name: &str, rows: Vec<Tuple>| {
            Relation::with_tuples(
                name,
                Schema::of(&[("K", DataType::Int), ("P", DataType::Int)]).unwrap(),
                rows,
            )
            .unwrap()
        };
        ext.insert("A".to_owned(), mk("A", vec![tup![1, 10], tup![2, 20]]));
        ext.insert("B".to_owned(), mk("B", vec![tup![1, 11], tup![3, 31]]));
        ext.insert("C".to_owned(), mk("C", vec![tup![1, 12], tup![2, 22]]));
        let view = parse_view(
            "CREATE VIEW V AS SELECT A.K, B.P AS BP, C.P AS CP FROM A, B, C \
             WHERE A.K = B.K AND B.K = C.K",
        )
        .unwrap();
        let out = evaluate_view(&view, &ext).unwrap();
        assert_eq!(out.tuples(), &[tup![1, 11, 12]]);
    }

    #[test]
    fn self_join_with_aliases() {
        let mut ext = BTreeMap::new();
        ext.insert(
            "E".to_owned(),
            Relation::with_tuples(
                "E",
                Schema::of(&[("Id", DataType::Int), ("Boss", DataType::Int)]).unwrap(),
                vec![tup![1, 2], tup![2, 3]],
            )
            .unwrap(),
        );
        let view = parse_view(
            "CREATE VIEW V AS SELECT X.Id, Y.Id AS BossId FROM E X, E Y WHERE X.Boss = Y.Id",
        )
        .unwrap();
        let out = evaluate_view(&view, &ext).unwrap();
        assert_eq!(out.tuples(), &[tup![1, 2]]);
    }

    #[test]
    fn dangling_condition_rejected() {
        // Condition references a binding that exists but with an unknown
        // attribute — surfaces as a relational error at join time, or as a
        // validation error if it never resolves.
        let view =
            parse_view("CREATE VIEW V AS SELECT C.Name FROM Customer C WHERE C.Ghost = 1").unwrap();
        assert!(evaluate_view(&view, &extents()).is_err());
    }

    #[test]
    fn literal_types_checked() {
        let view =
            parse_view("CREATE VIEW V AS SELECT C.Name FROM Customer C WHERE C.Name = 42").unwrap();
        let e = evaluate_view(&view, &extents()).unwrap_err();
        assert!(matches!(e, Error::Relational(_)));
    }

    #[test]
    fn bind_relation_requalifies() {
        let ext = extents();
        let bound = bind_relation(&ext["Customer"], "C").unwrap();
        assert!(bound
            .schema()
            .resolve(&ColumnRef::parse("C.Name"), "C")
            .is_ok());
        let v = Value::from("ann");
        assert_eq!(bound.tuples()[0].get(0), &v);
    }
}
