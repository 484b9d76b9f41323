//! Incremental view maintenance — Algorithm 1, executed (§6.1, Fig. 11).
//!
//! After a data update at `IS_1.R_{1,0}`, the view maintainer walks the
//! information sources hosting the view's relations: the current delta
//! relation is shipped to the site (`R_in`), joined there with every local
//! view relation (charging block I/Os at the site), and the grown delta is
//! shipped back (`R_out`) to become the next site's input. The final delta
//! is applied to the materialized extent.
//!
//! The walk is the [`MaintenancePlan`] that [`eve_qc::plan_for_origin`]
//! derives and the cost model prices: its sites in visit order, each site's
//! relations in join order, and the WHERE conditions each join applies.
//! This module keeps no order, grouping or condition placement of its own,
//! so the executed walk is the priced one by construction.
//!
//! All traffic is accounted in a [`MaintenanceTrace`] — the *measured*
//! counterpart of the analytic `CF_M` / `CF_T` / `CF_IO` factors, using the
//! same conventions (declared tuple widths; probe I/Os
//! `max(1, ⌈matches/bfr⌉)` capped by a full scan; notification counted as
//! one message).
//!
//! The per-site delta join is [`eve_relational::exec::join_with_counts`]:
//! each delta tuple probes the hosted relation's hash index on the join
//! column, which is the clustered index probe Appendix A prices. The index
//! is built the first time a column is probed and stays with the hosted
//! relation, so a base update costs its matches, not `|R|`.
//!
//! A *keyless visit* reaches a relation `R` whose step the plan places no
//! condition on. It is charged as a full scan of `R`, but `Δ × R` is not
//! built: `R` rides along as a deferred factor, priced at the bytes the
//! product would ship, until a relation keyed to both the delta and `R`
//! joins all three through their indexes
//! ([`eve_relational::exec::join_through_product`]). Any other join
//! materialises the product first, with the same result and charges. The
//! recomputation baseline ([`recompute_view`]) runs through the
//! cost-ordered planner.

use std::collections::BTreeMap;

use eve_esql::ViewDef;
use eve_misd::Mkb;
use eve_qc::{plan_for_origin, MaintenancePlan, RelSpec};
use eve_relational::exec::{join_through_product, join_with_counts, joins_keyless};
use eve_relational::{
    algebra, ColumnRef, ExecOptions, Predicate, PrimitiveClause, Relation, Tuple,
};
use eve_sync::DataUpdate;

use crate::error::{Error, Result};
use crate::query::bind_relation;
use crate::site::SimSite;

/// Measured resource usage of one maintenance run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MaintenanceTrace {
    /// Messages exchanged (notification + per-site query/answer pairs).
    pub messages: u64,
    /// Bytes transferred (declared tuple widths × shipped cardinalities).
    pub bytes: u64,
    /// Block I/Os charged at the information sources.
    pub ios: u64,
    /// Tuples added to the view extent.
    pub view_inserts: usize,
    /// Tuples removed from the view extent.
    pub view_deletes: usize,
}

impl MaintenanceTrace {
    /// Component-wise sum.
    #[must_use]
    pub fn merged(self, other: MaintenanceTrace) -> MaintenanceTrace {
        MaintenanceTrace {
            messages: self.messages + other.messages,
            bytes: self.bytes + other.bytes,
            ios: self.ios + other.ios,
            view_inserts: self.view_inserts + other.view_inserts,
            view_deletes: self.view_deletes + other.view_deletes,
        }
    }
}

/// Work maintenance runs did or avoided, beyond their [`MaintenanceTrace`]s.
/// The totals go to the registry once, when the tally is dropped: the
/// engine keeps one per data stage.
#[derive(Debug, Default)]
pub(crate) struct MaintenanceWork {
    /// Rows the keyless branch of `join_with_counts` materialised.
    product_rows: u64,
    /// Keyless visits whose product was joined through at a keyed site
    /// instead of materialised.
    products_deferred: u64,
}

impl Drop for MaintenanceWork {
    fn drop(&mut self) {
        let registry = eve_trace::global();
        registry.counter("exec.product_rows").add(self.product_rows);
        registry
            .counter("engine.products_deferred")
            .add(self.products_deferred);
    }
}

/// The delta between two sites: materialised `rows`, times the hosted
/// relation of a keyless visit when one is still `deferred`.
struct Delta {
    rows: Relation,
    deferred: Option<Relation>,
}

impl Delta {
    /// The declared bytes of `rows × deferred`: |Δ|·|R|·(w_Δ + w_R).
    fn byte_size(&self) -> u64 {
        match &self.deferred {
            None => self.rows.extent_byte_size(),
            Some(r) => {
                (self.rows.tuple_byte_size() + r.tuple_byte_size())
                    * self.rows.cardinality() as u64
                    * r.cardinality() as u64
            }
        }
    }

    /// `rows ⋈_on next` through [`join_with_counts`], counting the rows of a
    /// keyless join.
    fn join(
        &mut self,
        next: &Relation,
        on: &[PrimitiveClause],
        work: &mut MaintenanceWork,
    ) -> Result<Vec<usize>> {
        let (joined, counts) = join_with_counts(&self.rows, next, on)?;
        if joins_keyless(&self.rows, next, on) {
            work.product_rows += joined.cardinality() as u64;
        }
        self.rows = joined;
        Ok(counts)
    }

    /// Materialises a deferred product into `rows`.
    fn materialise(&mut self, work: &mut MaintenanceWork) -> Result<()> {
        if let Some(r) = self.deferred.take() {
            self.join(&r, &[], work)?;
        }
        Ok(())
    }

    /// Joins the delta with the hosted relation `next` under `on`,
    /// returning the match counts the probe-I/O charge takes: one per row
    /// of `rows`, or per product row when `next` joins through one.
    ///
    /// A keyless visit (empty `on`) defers `next` instead of materialising
    /// `Δ × next`; every delta row counts all of `next`. A later relation
    /// keyed to both factors joins through the product
    /// ([`join_through_product`]); any other join materialises it first.
    fn visit(
        &mut self,
        next: Relation,
        on: &[PrimitiveClause],
        work: &mut MaintenanceWork,
    ) -> Result<Vec<usize>> {
        if let Some(r) = &self.deferred {
            if let Some((joined, counts)) = join_through_product(&self.rows, r, &next, on)? {
                work.products_deferred += 1;
                self.rows = joined;
                self.deferred = None;
                return Ok(counts);
            }
            self.materialise(work)?;
        }
        if on.is_empty() {
            let counts = vec![next.cardinality(); self.rows.cardinality()];
            self.deferred = Some(next);
            return Ok(counts);
        }
        self.join(&next, on, work)
    }
}

/// One directional pass (inserts or deletes) of Algorithm 1 along `plan`.
/// Returns the final view-row delta and the accumulated trace.
fn propagate(
    view: &ViewDef,
    plan: &MaintenancePlan,
    tuples: &[Tuple],
    sites: &mut BTreeMap<u32, SimSite>,
    mkb: &Mkb,
    trace: &mut MaintenanceTrace,
    work: &mut MaintenanceWork,
) -> Result<Relation> {
    // Build the initial delta under the origin binding's qualifiers.
    let origin = &view.from[plan.origin.from_item];
    let base = Relation::with_tuples(
        origin.relation.clone(),
        mkb.relation(&origin.relation)?.schema(),
        tuples.to_vec(),
    )?;
    let mut rows = bind_relation(&base, origin.binding_name())?;

    // Update notification: the delta travels to the warehouse.
    trace.bytes += rows.extent_byte_size();

    // Clauses local to the origin delta apply immediately (at the
    // warehouse, no I/O).
    let local = clauses(view, &plan.origin);
    if !local.is_empty() {
        rows = algebra::select(&rows, &Predicate::new(local))?;
    }
    let mut delta = Delta {
        rows,
        deferred: None,
    };

    for step in plan.sites.iter().filter(|s| !s.relations.is_empty()) {
        // Query + answer round trip.
        trace.messages += 2;
        // R_in: the delta ships to the site (also from the origin site: the
        // warehouse sends it back down, per Eq. 21).
        trace.bytes += delta.byte_size();

        let site = sites.get_mut(&step.site.0).ok_or_else(|| Error::State {
            detail: format!("unknown site {}", step.site),
        })?;
        site.charge_messages(2);

        for spec in &step.relations {
            let item = &view.from[spec.from_item];
            let bound = bind_relation(site.relation(&item.relation)?, item.binding_name())?;
            let counts = delta.visit(bound, &clauses(view, spec), work)?;
            trace.ios += site.charge_probe_io(&item.relation, &counts)?;
        }

        // R_out: the grown delta returns to the warehouse.
        trace.bytes += delta.byte_size();
    }
    delta.materialise(work)?;

    // Project onto the view interface.
    let columns: Vec<ColumnRef> = view.select.iter().map(|s| s.attr.clone()).collect();
    let projected = algebra::project(&delta.rows, &columns, false)?;
    let out_names: Vec<ColumnRef> = view
        .output_columns()
        .into_iter()
        .map(ColumnRef::bare)
        .collect();
    algebra::rename_columns(&projected, &out_names).map_err(Error::from)
}

/// The WHERE clauses the plan places on `spec`.
fn clauses(view: &ViewDef, spec: &RelSpec) -> Vec<PrimitiveClause> {
    spec.conditions
        .iter()
        .map(|&c| view.conditions[c].clause.clone())
        .collect()
}

/// Maintains one materialized view after a base-data update (Algorithm 1),
/// mutating `extent` in place and charging I/O at the sites.
///
/// Views that do not reference the updated relation return a zero trace,
/// and so does an update with no insert and no delete: the caller passes
/// only the deletes the source performed, and an update the source did not
/// perform sends no notification.
/// Self-joins over the updated relation are rejected (incremental deltas
/// would need `Δ ⋈ Δ` terms the paper's algorithm does not model).
///
/// # Errors
///
/// State/validation/relational failures.
pub fn maintain_view(
    view: &ViewDef,
    extent: &mut Relation,
    update: &DataUpdate,
    sites: &mut BTreeMap<u32, SimSite>,
    mkb: &Mkb,
) -> Result<MaintenanceTrace> {
    maintain_view_counted(
        view,
        extent,
        update,
        sites,
        mkb,
        &mut MaintenanceWork::default(),
    )
}

/// [`maintain_view`], adding its work to the tally `work`.
pub(crate) fn maintain_view_counted(
    view: &ViewDef,
    extent: &mut Relation,
    update: &DataUpdate,
    sites: &mut BTreeMap<u32, SimSite>,
    mkb: &Mkb,
    work: &mut MaintenanceWork,
) -> Result<MaintenanceTrace> {
    let view = eve_esql::validate::validate(view).map_err(|e| Error::Validation(e.message))?;
    let mut origins = view
        .from
        .iter()
        .enumerate()
        .filter(|(_, f)| f.relation == update.relation)
        .map(|(i, _)| i);
    let Some(origin) = origins.next() else {
        return Ok(MaintenanceTrace::default());
    };
    if origins.next().is_some() {
        return Err(Error::State {
            detail: format!(
                "view `{}` references `{}` more than once; incremental maintenance \
                 of self-joins is not supported",
                view.name, update.relation
            ),
        });
    }
    // An update the source did not perform notifies nobody.
    if update.inserts.is_empty() && update.deletes.is_empty() {
        return Ok(MaintenanceTrace::default());
    }
    let plan = plan_for_origin(&view, mkb, origin)?;

    let mut trace = MaintenanceTrace {
        messages: 1, // the update notification
        ..MaintenanceTrace::default()
    };
    // The notification is sent by the updated relation's source site,
    // where the walk starts.
    let origin_site = plan.sites[0].site;
    sites
        .get_mut(&origin_site.0)
        .ok_or_else(|| Error::State {
            detail: format!("unknown site {origin_site}"),
        })?
        .charge_messages(1);

    if !update.inserts.is_empty() {
        let added = propagate(&view, &plan, &update.inserts, sites, mkb, &mut trace, work)?;
        trace.view_inserts = added.cardinality();
        for t in added.tuples() {
            extent.insert(t.clone())?;
        }
    }
    if !update.deletes.is_empty() {
        let removed = propagate(&view, &plan, &update.deletes, sites, mkb, &mut trace, work)?;
        trace.view_deletes = extent.delete(removed.tuples()).len();
    }
    Ok(trace)
}

/// Fully recomputes a view by shipping every referenced extent to the
/// warehouse — the paper's "one-time view recomputation" baseline the
/// incremental algorithm is compared against (\[ZGMHW95\]-style ablation).
///
/// # Errors
///
/// State/relational failures.
pub fn recompute_view(
    view: &ViewDef,
    sites: &mut BTreeMap<u32, SimSite>,
    mkb: &Mkb,
) -> Result<(Relation, MaintenanceTrace)> {
    recompute_view_with(view, sites, mkb, &ExecOptions::default())
}

/// [`recompute_view`] under explicit [`ExecOptions`]: the warehouse-side
/// re-evaluation runs morsel-parallel when asked (site I/O accounting is
/// identical — extents are shipped whole either way, and the scheduler
/// never touches site counters).
///
/// # Errors
///
/// State/relational failures.
pub(crate) fn recompute_view_with(
    view: &ViewDef,
    sites: &mut BTreeMap<u32, SimSite>,
    mkb: &Mkb,
    options: &ExecOptions,
) -> Result<(Relation, MaintenanceTrace)> {
    let view = eve_esql::validate::validate(view).map_err(|e| Error::Validation(e.message))?;
    let mut trace = MaintenanceTrace::default();
    let mut extents: BTreeMap<String, Relation> = BTreeMap::new();
    let mut visited_sites: Vec<u32> = Vec::new();
    for item in &view.from {
        let info = mkb.relation(&item.relation)?;
        let site = sites.get_mut(&info.site.0).ok_or_else(|| Error::State {
            detail: format!("unknown site {}", info.site),
        })?;
        let before = site.io_count();
        let rel = site.scan(&item.relation)?;
        trace.ios += site.io_count() - before;
        trace.bytes += rel.extent_byte_size();
        if !visited_sites.contains(&info.site.0) {
            visited_sites.push(info.site.0);
            trace.messages += 2;
            site.charge_messages(2);
        }
        extents.entry(item.relation.clone()).or_insert(rel);
    }
    let result =
        crate::query::evaluate_view_with_options(&view, &extents, &BTreeMap::new(), options)?;
    trace.view_inserts = result.cardinality();
    Ok((result, trace))
}

#[cfg(test)]
mod tests {
    use super::*;
    use eve_misd::{AttributeInfo, RelationInfo, SiteId};
    use eve_relational::{tup, DataType, Schema};

    /// Two sites: Customer at IS1, FlightRes at IS2.
    fn setup() -> (Mkb, BTreeMap<u32, SimSite>, ViewDef, Relation) {
        let mut mkb = Mkb::new();
        mkb.register_site(SiteId(1), "one").unwrap();
        mkb.register_site(SiteId(2), "two").unwrap();
        mkb.register_relation(RelationInfo::new(
            "Customer",
            SiteId(1),
            vec![
                AttributeInfo::new("Name", DataType::Text),
                AttributeInfo::new("Address", DataType::Text),
            ],
            3,
        ))
        .unwrap();
        mkb.register_relation(RelationInfo::new(
            "FlightRes",
            SiteId(2),
            vec![
                AttributeInfo::new("PName", DataType::Text),
                AttributeInfo::new("Dest", DataType::Text),
            ],
            3,
        ))
        .unwrap();

        let customer = Relation::with_tuples(
            "Customer",
            Schema::of(&[("Name", DataType::Text), ("Address", DataType::Text)]).unwrap(),
            vec![
                tup!["ann", "12 Elm"],
                tup!["bob", "9 Oak"],
                tup!["cho", "3 Pine"],
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
            ],
        )
        .unwrap();
        let mut sites = BTreeMap::new();
        let mut s1 = SimSite::new(SiteId(1), "one");
        s1.host(customer, 10).unwrap();
        let mut s2 = SimSite::new(SiteId(2), "two");
        s2.host(flights, 10).unwrap();
        sites.insert(1, s1);
        sites.insert(2, s2);

        let view = eve_esql::parse_view(
            "CREATE VIEW Asia-Customer (VE = '~') AS \
             SELECT C.Name, C.Address \
             FROM Customer C, FlightRes F \
             WHERE (C.Name = F.PName) AND (F.Dest = 'Asia')",
        )
        .unwrap();
        // Materialize the initial extent.
        let mut extents = BTreeMap::new();
        extents.insert(
            "Customer".to_owned(),
            sites[&1].relation("Customer").unwrap().clone(),
        );
        extents.insert(
            "FlightRes".to_owned(),
            sites[&2].relation("FlightRes").unwrap().clone(),
        );
        let extent = crate::query::evaluate_view(&view, &extents).unwrap();
        (mkb, sites, view, extent)
    }

    #[test]
    fn insert_propagates_to_view() {
        let (mkb, mut sites, view, mut extent) = setup();
        assert_eq!(extent.cardinality(), 2);
        // dee books a flight to Asia… but is not a customer: no view change.
        sites
            .get_mut(&2)
            .unwrap()
            .apply_update("FlightRes", &[tup!["dee", "Asia"]], &[])
            .unwrap();
        let update = DataUpdate::insert("FlightRes", vec![tup!["dee", "Asia"]]);
        let trace = maintain_view(&view, &mut extent, &update, &mut sites, &mkb).unwrap();
        assert_eq!(trace.view_inserts, 0);
        assert_eq!(extent.cardinality(), 2);

        // bob books Asia: view gains a row.
        sites
            .get_mut(&2)
            .unwrap()
            .apply_update("FlightRes", &[tup!["bob", "Asia"]], &[])
            .unwrap();
        let update = DataUpdate::insert("FlightRes", vec![tup!["bob", "Asia"]]);
        let trace = maintain_view(&view, &mut extent, &update, &mut sites, &mkb).unwrap();
        assert_eq!(trace.view_inserts, 1);
        assert!(extent.contains(&tup!["bob", "9 Oak"]));
    }

    #[test]
    fn incremental_equals_recompute() {
        let (mkb, mut sites, view, mut extent) = setup();
        // A sequence of updates at both sources.
        let updates = [
            DataUpdate::insert("Customer", vec![tup!["dee", "7 Fir"]]),
            DataUpdate::insert("FlightRes", vec![tup!["dee", "Asia"]]),
            DataUpdate::delete("FlightRes", vec![tup!["ann", "Asia"]]),
            DataUpdate::insert("FlightRes", vec![tup!["cho", "Asia"]]),
        ];
        for u in &updates {
            // Apply at the base site first, then maintain.
            let info = mkb.relation(&u.relation).unwrap();
            sites
                .get_mut(&info.site.0)
                .unwrap()
                .apply_update(&u.relation, &u.inserts, &u.deletes)
                .unwrap();
            maintain_view(&view, &mut extent, u, &mut sites, &mkb).unwrap();
        }
        let (recomputed, _) = recompute_view(&view, &mut sites, &mkb).unwrap();
        let mut a = extent.tuples().to_vec();
        let mut b = recomputed.tuples().to_vec();
        a.sort();
        b.sort();
        assert_eq!(a, b, "incremental maintenance must equal recomputation");
        // cho appears twice (two Asia reservations) — bag semantics held.
        assert_eq!(a.iter().filter(|t| *t == &tup!["cho", "3 Pine"]).count(), 2);
    }

    #[test]
    fn trace_counts_messages_and_bytes() {
        let (mkb, mut sites, view, mut extent) = setup();
        sites
            .get_mut(&1)
            .unwrap()
            .apply_update("Customer", &[tup!["dee", "7 Fir"]], &[])
            .unwrap();
        let update = DataUpdate::insert("Customer", vec![tup!["dee", "7 Fir"]]);
        let trace = maintain_view(&view, &mut extent, &update, &mut sites, &mkb).unwrap();
        // Notification + one query/answer pair (origin site has no other
        // view relation, FlightRes site is queried).
        assert_eq!(trace.messages, 3);
        // Bytes: notification (40) + R_in (40) + R_out (0 rows: dee has no
        // Asia flight) = 80 with the declared TEXT size 20 per column.
        assert_eq!(trace.bytes, 80);
        assert!(trace.ios >= 1);
    }

    #[test]
    fn unrelated_update_is_free() {
        let (mkb, mut sites, view, mut extent) = setup();
        let mut mkb2 = mkb;
        mkb2.register_relation(RelationInfo::new(
            "Hotel",
            SiteId(1),
            vec![AttributeInfo::new("Name", DataType::Text)],
            1,
        ))
        .unwrap();
        let update = DataUpdate::insert("Hotel", vec![tup!["ritz"]]);
        let trace = maintain_view(&view, &mut extent, &update, &mut sites, &mkb2).unwrap();
        assert_eq!(trace, MaintenanceTrace::default());
    }

    #[test]
    fn self_join_rejected() {
        let (mkb, mut sites, _, _) = setup();
        let view = eve_esql::parse_view(
            "CREATE VIEW V AS SELECT X.Name FROM Customer X, Customer Y \
             WHERE X.Name = Y.Name",
        )
        .unwrap();
        let mut extent = Relation::empty("V", Schema::of(&[("Name", DataType::Text)]).unwrap());
        let update = DataUpdate::insert("Customer", vec![tup!["zed", "1 Elm"]]);
        let e = maintain_view(&view, &mut extent, &update, &mut sites, &mkb).unwrap_err();
        assert!(e.to_string().contains("self-joins"));
    }

    #[test]
    fn recompute_trace_ships_full_extents() {
        let (mkb, mut sites, view, _) = setup();
        for s in sites.values_mut() {
            s.reset_io();
        }
        let (rel, trace) = recompute_view(&view, &mut sites, &mkb).unwrap();
        assert_eq!(rel.cardinality(), 2);
        assert_eq!(trace.messages, 4); // two sites × (query + answer)
                                       // 3 Customer rows × 40 bytes + 3 FlightRes rows × 40 bytes.
        assert_eq!(trace.bytes, 240);
        assert!(trace.ios >= 2); // at least one block per relation
    }
}
