//! The end-to-end EVE engine (paper Fig. 1).
//!
//! Wires all components together: information sources register relations
//! (data at [`SimSite`]s, metadata in the [`Mkb`]); users define E-SQL views
//! whose extents are materialized in the warehouse; data updates flow
//! through the view maintainer; capability changes flow through view
//! synchronization, QC-Model ranking and rewriting adoption.

use std::collections::BTreeMap;

use eve_esql::ViewDef;
use eve_misd::{Mkb, RelationInfo, SchemaChange, SiteId};
use eve_qc::cost::{cost_factors, CostFactors};
use eve_qc::{
    plans_for_view, rank_rewritings, workload, QcParams, ScoredRewriting, SelectionStrategy,
    WorkloadModel,
};
use eve_relational::{ExecOptions, IndexKind, Relation, Value};
pub use eve_store::IndexHint;
use eve_store::LogRecord;
use eve_sync::synchronizer::synchronize_with;
use eve_sync::{synchronize, DataUpdate, EvolutionOp, PartnerCache, SyncOptions, SyncOutcome};

use crate::error::{Error, Result};
use crate::maintainer::{maintain_view_counted, MaintenanceTrace, MaintenanceWork};
use crate::site::SimSite;

/// A materialized view: definition + warehouse extent.
#[derive(Debug, Clone)]
pub struct MaterializedView {
    /// Current (possibly evolved) definition.
    pub def: ViewDef,
    /// Materialized extent (bag semantics).
    pub extent: Relation,
}

/// Outcome of one [`EveEngine::apply_batch`] call.
#[derive(Debug, Clone, Default)]
pub struct BatchOutcome {
    /// Merged per-view maintenance traces of all data ops (only views the
    /// batch actually maintained appear).
    pub traces: BTreeMap<String, MaintenanceTrace>,
    /// Evolution reports of all capability ops, in op order (one entry per
    /// view per capability op, exactly as the per-change notification
    /// emits them).
    pub reports: Vec<EvolutionReport>,
    /// Number of data ops processed.
    pub data_ops: usize,
    /// Number of capability ops processed.
    pub capability_ops: usize,
}

/// Outcome of a capability change for one view.
#[derive(Debug, Clone)]
pub struct EvolutionReport {
    /// The view's name.
    pub view_name: String,
    /// Whether the change affected the view at all.
    pub affected: bool,
    /// Whether the view survived (unaffected, or a rewriting was adopted).
    pub survived: bool,
    /// Number of legal rewritings the synchronizer generated.
    pub candidates: usize,
    /// The adopted rewriting with its QC assessment, if any.
    pub adopted: Option<ScoredRewriting>,
}

/// The EVE engine.
#[derive(Debug, Clone)]
pub struct EveEngine {
    pub(crate) mkb: Mkb,
    pub(crate) sites: BTreeMap<u32, SimSite>,
    pub(crate) views: BTreeMap<String, MaterializedView>,
    /// Declared secondary indexes, in declaration order.
    pub(crate) index_hints: Vec<IndexHint>,
    /// PC-partner closures shared by every synchronization (they drop
    /// themselves when the MKB generation moves).
    pub(crate) partners: PartnerCache,
    /// Synchronizer options.
    pub sync_options: SyncOptions,
    /// QC-Model parameters.
    pub qc_params: QcParams,
    /// Workload model for cost aggregation.
    pub workload: WorkloadModel,
    /// How the engine picks among legal rewritings.
    pub strategy: SelectionStrategy,
    /// Intra-query execution knobs: morsel parallelism for view
    /// evaluation and maintainer recomputes. Runtime tuning only — not
    /// part of durable snapshots, so recovery starts serial.
    pub exec_options: ExecOptions,
}

impl Default for EveEngine {
    fn default() -> Self {
        EveEngine::new()
    }
}

/// Whether `extent` has the columns `info` declares, in order and type.
fn check_extent_shape(info: &RelationInfo, extent: &Relation) -> Result<()> {
    if extent.schema().arity() != info.attributes.len() {
        return Err(Error::State {
            detail: format!(
                "extent of `{}` has {} columns, declaration has {}",
                info.name,
                extent.schema().arity(),
                info.attributes.len()
            ),
        });
    }
    for (col, attr) in extent.schema().columns().iter().zip(&info.attributes) {
        if col.ty != attr.ty {
            return Err(Error::State {
                detail: format!(
                    "extent column `{}` of `{}` is {}, declared {}",
                    col.column, info.name, col.ty, attr.ty
                ),
            });
        }
    }
    Ok(())
}

/// The carry decision of one capability-change commit: which adopted
/// rewritings keep the view's old extent. Holds the extent the change
/// displaced and the same-bag verdict per substitute relation, so views
/// moved onto one replica compare its bag once.
#[derive(Default)]
struct Carry {
    displaced: Option<Relation>,
    same_bag: BTreeMap<String, bool>,
    /// Rows of the displaced extent handed to [`Relation::same_bag`].
    rows_compared: u64,
}

impl Carry {
    /// Whether `rewriting`, adopted for `old`, reads the bag `old`'s extent
    /// holds: an ≡ pure rename, or a substitution of the displaced relation
    /// by one that holds, in `engine`'s changed space, the bag the
    /// displaced one held. A binding the substitution leaves on the
    /// displaced relation reads it after the change: only `delete-attribute`
    /// leaves one, with every row and every column but the dropped one,
    /// which a legal rewriting does not read.
    fn keeps_extent(
        &mut self,
        engine: &EveEngine,
        rewriting: &eve_sync::LegalRewriting,
        old: &ViewDef,
    ) -> Result<bool> {
        if rewriting.reads_the_same_tuples() {
            return Ok(true);
        }
        let (Some(displaced), Some((from, to))) =
            (&self.displaced, rewriting.substituted_relation(old))
        else {
            return Ok(false);
        };
        if from != displaced.name() {
            return Ok(false);
        }
        if let Some(&held) = self.same_bag.get(to) {
            return Ok(held);
        }
        let _span = eve_trace::span("engine.carry_check");
        let held = displaced.same_bag(engine.hosted(to)?);
        self.rows_compared += displaced.cardinality() as u64;
        self.same_bag.insert(to.to_owned(), held);
        Ok(held)
    }
}

impl EveEngine {
    /// An engine with paper-default parameters and QC-best selection.
    #[must_use]
    pub fn new() -> EveEngine {
        EveEngine {
            mkb: Mkb::new(),
            sites: BTreeMap::new(),
            views: BTreeMap::new(),
            index_hints: Vec::new(),
            partners: PartnerCache::new(),
            sync_options: SyncOptions::default(),
            qc_params: QcParams::default(),
            workload: WorkloadModel::SingleUpdate,
            strategy: SelectionStrategy::QcBest,
            exec_options: ExecOptions::default(),
        }
    }

    /// The meta knowledge base.
    #[must_use]
    pub fn mkb(&self) -> &Mkb {
        &self.mkb
    }

    /// Mutable MKB access (to add constraints and selectivities).
    pub fn mkb_mut(&mut self) -> &mut Mkb {
        &mut self.mkb
    }

    /// Registers an information source.
    ///
    /// # Errors
    ///
    /// Duplicate site ids.
    pub fn add_site(&mut self, id: SiteId, name: impl Into<String>) -> Result<()> {
        let name = name.into();
        self.mkb.register_site(id, name.clone())?;
        self.sites.insert(id.0, SimSite::new(id, name));
        Ok(())
    }

    /// Registers a relation: metadata into the MKB, extent at its site.
    /// The extent's schema must match the declared attributes.
    ///
    /// # Errors
    ///
    /// Unknown site, duplicate names, schema mismatches.
    pub fn register_relation(&mut self, info: RelationInfo, extent: Relation) -> Result<()> {
        check_extent_shape(&info, &extent)?;
        let site_id = info.site;
        let bfr = info.blocking_factor;
        let mut named = extent;
        named.set_name(info.name.clone());
        self.mkb.register_relation(info)?;
        let site = self.sites.get_mut(&site_id.0).ok_or_else(|| Error::State {
            detail: format!("site {site_id} not registered with the engine"),
        })?;
        site.host(named, bfr)?;
        Ok(())
    }

    /// Interprets one command of the mutation vocabulary — the **only**
    /// dispatch over [`LogRecord`] outside the store codec. Shell lines,
    /// wire requests, [`DurableEngine::apply`](crate::DurableEngine::apply),
    /// recovery replay and time travel all mutate the engine through it,
    /// which makes live ≡ replay hold by construction. `Batch` returns its
    /// [`BatchOutcome`], every other command the empty one.
    ///
    /// # Errors
    ///
    /// Whatever the typed method behind the command returns.
    pub fn apply(&mut self, cmd: LogRecord) -> Result<BatchOutcome> {
        match cmd {
            LogRecord::AddSite { id, name } => self.add_site(SiteId(id), name)?,
            LogRecord::RegisterRelation { info, extent } => self.register_relation(info, extent)?,
            LogRecord::SeedTuples { relation, tuples } => {
                let site_id = self.mkb.relation(&relation)?.site.0;
                self.sites
                    .get_mut(&site_id)
                    .ok_or_else(|| Error::State {
                        detail: format!("unknown site {site_id}"),
                    })?
                    .apply_update(&relation, &tuples, &[])?;
            }
            LogRecord::AddPcConstraint(pc) => self.mkb.add_pc_constraint(pc)?,
            LogRecord::AddJoinConstraint(jc) => self.mkb.add_join_constraint(jc)?,
            LogRecord::SetJoinSelectivity { left, right, js } => {
                self.mkb.set_join_selectivity(&left, &right, js);
            }
            LogRecord::SetDefaultJoinSelectivity { js } => {
                self.mkb.set_default_join_selectivity(js);
            }
            LogRecord::DefineView(def) => self.define_view(def).map(|_| ())?,
            LogRecord::DropView { name } => self.drop_view(&name).map(|_| ())?,
            LogRecord::DeclareIndex(hint) => {
                self.declare_index(&hint.relation, &hint.column, hint.kind)?;
            }
            LogRecord::Batch(ops) => return self.apply_batch(ops),
        }
        Ok(BatchOutcome::default())
    }

    /// Gathers the base extents a view needs.
    fn extents_for(&self, view: &ViewDef) -> Result<BTreeMap<String, Relation>> {
        let mut resolved: BTreeMap<String, Relation> = BTreeMap::new();
        for item in &view.from {
            if resolved.contains_key(&item.relation) {
                continue;
            }
            resolved.insert(item.relation.clone(), self.hosted(&item.relation)?.clone());
        }
        Ok(resolved)
    }

    /// The extent of a registered relation, at the site the MKB places it.
    fn hosted(&self, relation: &str) -> Result<&Relation> {
        let info = self.mkb.relation(relation)?;
        let site = self.sites.get(&info.site.0).ok_or_else(|| Error::State {
            detail: format!("unknown site {}", info.site),
        })?;
        site.relation(relation)
    }

    /// Evaluates a view definition against the current information space
    /// (no materialization, no accounting). Execution goes through the
    /// physical planner, steered by the MKB's declared §6.1 statistics
    /// (cardinality, selectivity, blocking factor); relations the MKB does
    /// not know fall back to measured statistics.
    ///
    /// # Errors
    ///
    /// Validation/state/relational failures.
    pub fn evaluate(&self, view: &ViewDef) -> Result<Relation> {
        let extents = self.extents_for(view)?;
        crate::query::evaluate_view_with_options(
            view,
            &extents,
            &self.declared_stats(view),
            &self.exec_options,
        )
    }

    /// Declared [`eve_relational::RelationStats`] for every FROM relation
    /// of `view` the MKB knows about.
    fn declared_stats(&self, view: &ViewDef) -> BTreeMap<String, eve_relational::RelationStats> {
        let mut stats = BTreeMap::new();
        for item in &view.from {
            if let Ok(info) = self.mkb.relation(&item.relation) {
                stats.insert(
                    item.relation.clone(),
                    eve_relational::RelationStats {
                        cardinality: info.cardinality,
                        tuple_bytes: info.tuple_bytes(),
                        selectivity: info.selectivity,
                        blocking_factor: info.blocking_factor,
                    },
                );
            }
        }
        stats
    }

    /// Validates a view against the MKB: relations registered, attributes
    /// exist, clause types check out.
    ///
    /// # Errors
    ///
    /// [`Error::Validation`] with the first problem found.
    pub fn check_view(&self, view: &ViewDef) -> Result<ViewDef> {
        let view = eve_esql::validate::validate(view).map_err(|e| Error::Validation(e.message))?;
        for item in &view.from {
            let info = self.mkb.relation(&item.relation)?;
            for sel in view.select_items_of(item.binding_name()) {
                if !info.has_attribute(&sel.attr.name) {
                    return Err(Error::Validation(format!(
                        "`{}` has no attribute `{}`",
                        item.relation, sel.attr.name
                    )));
                }
            }
        }
        for cond in &view.conditions {
            for col in cond.clause.columns() {
                let Some(binding) = col.qualifier.as_deref() else {
                    continue;
                };
                let Some(item) = view.from_item(binding) else {
                    continue;
                };
                let info = self.mkb.relation(&item.relation)?;
                if !info.has_attribute(&col.name) {
                    return Err(Error::Validation(format!(
                        "`{}` has no attribute `{}`",
                        item.relation, col.name
                    )));
                }
            }
        }
        Ok(view)
    }

    /// Defines a view from E-SQL source text, materializing its extent.
    ///
    /// # Errors
    ///
    /// Parse/validation/evaluation failures, or a duplicate view name.
    pub fn define_view_sql(&mut self, sql: &str) -> Result<&MaterializedView> {
        let view = eve_esql::parse_view(sql)?;
        self.define_view(view)
    }

    /// Defines a view, materializing its extent in the warehouse.
    ///
    /// # Errors
    ///
    /// Validation/evaluation failures, or a duplicate view name.
    pub fn define_view(&mut self, view: ViewDef) -> Result<&MaterializedView> {
        let view = self.check_view(&view)?;
        if self.views.contains_key(&view.name) {
            return Err(Error::State {
                detail: format!("view `{}` already defined", view.name),
            });
        }
        let extent = self.evaluate(&view)?;
        let name = view.name.clone();
        self.views
            .insert(name.clone(), MaterializedView { def: view, extent });
        Ok(&self.views[&name])
    }

    /// Looks up a materialized view.
    ///
    /// # Errors
    ///
    /// [`Error::State`] when undefined.
    pub fn view(&self, name: &str) -> Result<&MaterializedView> {
        self.views.get(name).ok_or_else(|| Error::State {
            detail: format!("no view named `{name}`"),
        })
    }

    /// All materialized views, ordered by name.
    pub fn views(&self) -> impl Iterator<Item = &MaterializedView> {
        self.views.values()
    }

    /// Applies a data update at its source and incrementally maintains every
    /// affected view, returning per-view traces.
    ///
    /// # Errors
    ///
    /// State/validation failures. The base update is applied first; views
    /// are then maintained in name order.
    pub fn notify_data_update(
        &mut self,
        update: &DataUpdate,
    ) -> Result<Vec<(String, MaintenanceTrace)>> {
        let _span = eve_trace::span("engine.data_update");
        eve_trace::global().counter("engine.data_updates").inc();
        let info = self.mkb.relation(&update.relation)?;
        let site_id = info.site.0;
        // The maintenance walk joins deltas against the *post-update* base
        // state for inserts processed after application; apply first, as the
        // paper assumes update notifications follow the source change. Views
        // see only the deletes the source performed.
        let deletes = self
            .sites
            .get_mut(&site_id)
            .ok_or_else(|| Error::State {
                detail: format!("unknown site {site_id}"),
            })?
            .apply_update(&update.relation, &update.inserts, &update.deletes)?;
        let update = &DataUpdate {
            relation: update.relation.clone(),
            inserts: update.inserts.clone(),
            deletes,
        };

        let mut work = MaintenanceWork::default();
        self.views
            .iter_mut()
            .map(|(name, mv)| {
                let trace = maintain_view_counted(
                    &mv.def,
                    &mut mv.extent,
                    update,
                    &mut self.sites,
                    &self.mkb,
                    &mut work,
                )?;
                Ok((name.clone(), trace))
            })
            .collect()
    }

    /// Processes a capability change end-to-end (the paper's Fig. 1 loop):
    ///
    /// 1. every affected view is synchronized against the *pre-change* MKB
    ///    by the exhaustive search,
    /// 2. legal rewritings are ranked by the QC-Model and one is selected
    ///    per the engine's [`SelectionStrategy`],
    /// 3. the change is applied to the MKB and the hosting site
    ///    (`new_extent` supplies the data for `add-relation`; added
    ///    attributes backfill with type defaults),
    /// 4. adopted rewritings are re-materialized; views with no legal
    ///    rewriting are dropped from the warehouse.
    ///
    /// This routes through [`EveEngine::apply_batch`] as a single-op batch;
    /// [`EveEngine::notify_capability_change_sequential`] keeps the
    /// uncached all-views reference implementation that the differential
    /// test harness compares against.
    ///
    /// # Errors
    ///
    /// A change the MKB refuses ([`Mkb::check_change`]), or an
    /// `add-relation` without an extent shaped like its declaration, fails
    /// before step 1 and touches nothing. Past that, synchronization,
    /// ranking or state failures.
    pub fn notify_capability_change(
        &mut self,
        change: &SchemaChange,
        new_extent: Option<Relation>,
    ) -> Result<Vec<EvolutionReport>> {
        let outcome = self.apply_batch(vec![EvolutionOp::Capability {
            change: change.clone(),
            new_extent,
        }])?;
        Ok(outcome.reports)
    }

    /// The legacy capability-change path: synchronizes **every** view with
    /// the uncached synchronizer and ranks the affected ones. Kept as the
    /// reference implementation the differential property suite holds the
    /// batched pipeline against.
    ///
    /// # Errors
    ///
    /// As for [`EveEngine::notify_capability_change`]: a change the MKB
    /// refuses fails the same way on both paths, before any search.
    pub fn notify_capability_change_sequential(
        &mut self,
        change: &SchemaChange,
        new_extent: Option<Relation>,
    ) -> Result<Vec<EvolutionReport>> {
        self.check_capability_change(change, new_extent.as_ref())?;
        let mut searched = Vec::new();
        for (name, mv) in &self.views {
            let outcome = synchronize(&mv.def, change, &self.mkb, &self.sync_options)?;
            searched.push((name.clone(), Some(outcome).filter(|o| o.affected)));
        }
        let reports = self.rank(change, searched)?;
        self.commit_capability_change(change, new_extent, reports)
    }

    /// The batched capability-change primitive: skips views that cannot
    /// reference the changed relation, synchronizes the rest through the
    /// shared [`PartnerCache`], and ranks only when some view is actually
    /// affected. Verdicts are identical to the sequential path — the
    /// prefilter is a sound superset of the synchronizer's own affectedness
    /// notion — and so is the up-front check, affected views or not.
    pub(crate) fn capability_change_batched(
        &mut self,
        change: &SchemaChange,
        new_extent: Option<Relation>,
    ) -> Result<Vec<EvolutionReport>> {
        let _span = eve_trace::span("engine.capability_change");
        self.check_capability_change(change, new_extent.as_ref())?;
        let touched = eve_sync::batch::touched_relation(change);
        let mut searched = Vec::new();
        for (name, mv) in &self.views {
            let candidate =
                touched.is_some_and(|rel| mv.def.from.iter().any(|f| f.relation == rel));
            let outcome = if candidate {
                Some(synchronize_with(
                    &mv.def,
                    change,
                    &self.mkb,
                    &self.sync_options,
                    &mut self.partners,
                )?)
                .filter(|outcome| outcome.affected)
            } else {
                None
            };
            searched.push((name.clone(), outcome));
        }
        let reports = if searched.iter().any(|(_, outcome)| outcome.is_some()) {
            self.rank(change, searched)?
        } else {
            searched
                .into_iter()
                .map(|(name, _)| Self::unaffected_report(&name))
                .collect()
        };
        self.commit_capability_change(change, new_extent, reports)
    }

    /// Whether `change` may be applied at all, checked before any search
    /// so a refused change touches no site, view or generation: the MKB's
    /// [`Mkb::check_change`], and for `add-relation` an extent shaped like
    /// the declared attributes.
    fn check_capability_change(
        &self,
        change: &SchemaChange,
        new_extent: Option<&Relation>,
    ) -> Result<()> {
        self.mkb.check_change(change)?;
        if let SchemaChange::AddRelation { relation } = change {
            let extent = new_extent.ok_or_else(|| Error::State {
                detail: format!("add-relation {} requires an extent", relation.name),
            })?;
            check_extent_shape(relation, extent)?;
        }
        Ok(())
    }

    fn unaffected_report(name: &str) -> EvolutionReport {
        EvolutionReport {
            view_name: name.to_owned(),
            affected: false,
            survived: true,
            candidates: 0,
            adopted: None,
        }
    }

    /// Ranks each affected view's rewritings (its outcome is `Some`) and
    /// selects one, yielding the view's report; its `adopted` rewriting is
    /// `None` when the view is unaffected or dies. Every search has run
    /// before this: ranking runs inside the MKB's ranking shadow for
    /// `change`, which gives a rename's new name the old statistics, and no
    /// search may see that entry.
    fn rank(
        &mut self,
        change: &SchemaChange,
        searched: Vec<(String, Option<SyncOutcome>)>,
    ) -> Result<Vec<EvolutionReport>> {
        let EveEngine {
            mkb,
            views,
            qc_params,
            workload,
            strategy,
            ..
        } = self;
        mkb.with_ranking_shadow(change, |mkb| {
            searched
                .into_iter()
                .map(|(name, outcome)| {
                    let Some(outcome) = outcome else {
                        return Ok(Self::unaffected_report(&name));
                    };
                    let scored = rank_rewritings(
                        &views[&name].def,
                        &outcome.rewritings,
                        mkb,
                        qc_params,
                        *workload,
                    )?;
                    let chosen = strategy.select(&scored).cloned();
                    Ok(EvolutionReport {
                        view_name: name,
                        affected: true,
                        survived: chosen.is_some(),
                        candidates: scored.len(),
                        adopted: chosen,
                    })
                })
                .collect()
        })?
    }

    /// Phases 2–3 of the Fig. 1 loop: evolve the MKB and the information
    /// space, then adopt or drop each view per the phase-1 reports.
    ///
    /// An adopted rewriting that reads the tuples the old definition read
    /// takes over the old extent, row order included: an ≡ pure rename
    /// ([`reads_the_same_tuples`]), or a [substitution] of the relation the
    /// change displaced by one that now holds the same bag. Every other
    /// one is re-evaluated over the changed space.
    ///
    /// [`reads_the_same_tuples`]: eve_sync::LegalRewriting::reads_the_same_tuples
    /// [substitution]: eve_sync::LegalRewriting::substituted_relation
    fn commit_capability_change(
        &mut self,
        change: &SchemaChange,
        new_extent: Option<Relation>,
        reports: Vec<EvolutionReport>,
    ) -> Result<Vec<EvolutionReport>> {
        let displaced = {
            let _span = eve_trace::span("engine.apply_change_to_space");
            self.apply_change_to_space(change, new_extent)?
        };
        {
            let _span = eve_trace::span("mkb.apply_change");
            self.mkb.apply_change(change)?;
        }
        {
            // Extent-rebuilding changes drop the rebuilt relation's warmed
            // indexes with its old storage; re-warm the declared ones.
            let _span = eve_trace::span("engine.warm_indexes");
            self.warm_declared_indexes();
        }

        let mut carry = Carry {
            displaced,
            ..Carry::default()
        };
        let (mut carried, mut recomputed) = (0, 0);
        for report in reports.iter().filter(|r| r.affected) {
            let name = &report.view_name;
            let Some(adopted) = &report.adopted else {
                self.views.remove(name);
                continue;
            };
            let mut def = adopted.rewriting.view.clone();
            def.name.clone_from(name);
            let keeps = carry.keeps_extent(self, &adopted.rewriting, &self.views[name].def)?;
            let extent = match keeps.then(|| self.views.remove(name)).flatten() {
                Some(old) => {
                    carried += 1;
                    old.extent
                }
                None => {
                    let _span = eve_trace::span("engine.recompute_view");
                    recomputed += 1;
                    self.evaluate(&def)?
                }
            };
            self.views
                .insert(name.clone(), MaterializedView { def, extent });
        }
        let registry = eve_trace::global();
        registry.counter("engine.views_carried").add(carried);
        registry.counter("engine.views_recomputed").add(recomputed);
        registry
            .counter("engine.carry_rows_compared")
            .add(carry.rows_compared);
        Ok(reports)
    }

    /// Applies `change` to the hosting site and the declared index hints.
    /// Returns the extent the change displaced, as it stood before the
    /// change: the deleted relation of `delete-relation`, the unprojected
    /// one of `delete-attribute`.
    fn apply_change_to_space(
        &mut self,
        change: &SchemaChange,
        new_extent: Option<Relation>,
    ) -> Result<Option<Relation>> {
        let displaced = match change {
            SchemaChange::DeleteRelation { relation } => {
                let site = self.mkb.relation(relation)?.site;
                let host = self.sites.get_mut(&site.0).ok_or_else(|| Error::State {
                    detail: format!("unknown site {site}"),
                })?;
                Some(host.drop_relation(relation)?)
            }
            SchemaChange::AddRelation { relation } => {
                let extent = new_extent.ok_or_else(|| Error::State {
                    detail: format!("add-relation `{}` needs an extent", relation.name),
                })?;
                let site = self
                    .sites
                    .get_mut(&relation.site.0)
                    .ok_or_else(|| Error::State {
                        detail: format!("unknown site {}", relation.site),
                    })?;
                let mut named = extent;
                named.set_name(relation.name.clone());
                site.host(named, relation.blocking_factor)?;
                None
            }
            SchemaChange::DeleteAttribute {
                relation,
                attribute,
            } => {
                let info = self.mkb.relation(relation)?;
                let site_id = info.site.0;
                let keep: Vec<eve_relational::ColumnRef> = info
                    .attributes
                    .iter()
                    .filter(|a| &a.name != attribute)
                    .map(|a| eve_relational::ColumnRef::bare(a.name.clone()))
                    .collect();
                let site = self.sites.get_mut(&site_id).ok_or_else(|| Error::State {
                    detail: format!("unknown site {site_id}"),
                })?;
                let old = site.drop_relation(relation)?;
                let mut projected = eve_relational::algebra::project(&old, &keep, false)?;
                projected.set_name(relation.clone());
                site.host(projected, info.blocking_factor)?;
                Some(old)
            }
            SchemaChange::AddAttribute {
                relation,
                attribute,
            } => {
                let info = self.mkb.relation(relation)?;
                let site_id = info.site.0;
                let site = self.sites.get_mut(&site_id).ok_or_else(|| Error::State {
                    detail: format!("unknown site {site_id}"),
                })?;
                let old = site.drop_relation(relation)?;
                let default = match attribute.ty {
                    eve_relational::DataType::Int => Value::Int(0),
                    eve_relational::DataType::Float => Value::Float(0.0),
                    eve_relational::DataType::Bool => Value::Bool(false),
                    eve_relational::DataType::Text => Value::Text(String::new()),
                };
                let new_schema = old.schema().concat(&eve_relational::Schema::new(vec![
                    eve_relational::ColumnDef::sized(
                        eve_relational::ColumnRef::bare(attribute.name.clone()),
                        attribute.ty,
                        attribute.byte_size,
                    ),
                ])?)?;
                let mut rebuilt = Relation::empty(relation.clone(), new_schema);
                for t in old.tuples() {
                    let mut vals = t.values().to_vec();
                    vals.push(default.clone());
                    rebuilt.insert(eve_relational::Tuple::new(vals))?;
                }
                site.host(rebuilt, info.blocking_factor)?;
                None
            }
            SchemaChange::RenameAttribute { relation, from, to } => {
                let info = self.mkb.relation(relation)?;
                let site_id = info.site.0;
                let site = self.sites.get_mut(&site_id).ok_or_else(|| Error::State {
                    detail: format!("unknown site {site_id}"),
                })?;
                let old = site.drop_relation(relation)?;
                let names: Vec<eve_relational::ColumnRef> = old
                    .schema()
                    .columns()
                    .iter()
                    .map(|c| {
                        if c.column.name == *from {
                            eve_relational::ColumnRef::bare(to.clone())
                        } else {
                            eve_relational::ColumnRef::bare(c.column.name.clone())
                        }
                    })
                    .collect();
                let mut renamed = eve_relational::algebra::rename_columns(&old, &names)?;
                renamed.set_name(relation.clone());
                site.host(renamed, info.blocking_factor)?;
                None
            }
            SchemaChange::RenameRelation { from, to } => {
                let info = self.mkb.relation(from)?;
                let site_id = info.site.0;
                let site = self.sites.get_mut(&site_id).ok_or_else(|| Error::State {
                    detail: format!("unknown site {site_id}"),
                })?;
                let mut old = site.drop_relation(from)?;
                old.set_name(to.clone());
                site.host(old, info.blocking_factor)?;
                None
            }
        };
        self.retarget_index_hints(change);
        Ok(displaced)
    }

    /// Makes the declared index hints follow `change`: a renamed relation
    /// or attribute renames its hints, a deleted one drops them. So the
    /// hints a snapshot carries name what is hosted, and a restored engine
    /// warms the indexes the live one holds.
    fn retarget_index_hints(&mut self, change: &SchemaChange) {
        match change {
            SchemaChange::RenameRelation { from, to } => {
                for hint in self.index_hints.iter_mut().filter(|h| h.relation == *from) {
                    hint.relation.clone_from(to);
                }
            }
            SchemaChange::RenameAttribute { relation, from, to } => {
                let renamed = |h: &&mut IndexHint| h.relation == *relation && h.column == *from;
                for hint in self.index_hints.iter_mut().filter(renamed) {
                    hint.column.clone_from(to);
                }
            }
            SchemaChange::DeleteRelation { relation } => {
                self.index_hints.retain(|h| h.relation != *relation);
            }
            SchemaChange::DeleteAttribute {
                relation,
                attribute,
            } => {
                self.index_hints
                    .retain(|h| h.relation != *relation || h.column != *attribute);
            }
            SchemaChange::AddRelation { .. } | SchemaChange::AddAttribute { .. } => {}
        }
    }

    /// Total block I/Os charged across all sites.
    #[must_use]
    pub fn total_io(&self) -> u64 {
        self.sites.values().map(SimSite::io_count).sum()
    }

    /// Total messages charged across all sites (update notifications plus
    /// maintenance query/answer pairs). Together with [`total_io`], this
    /// makes batched and sequential cost reports comparable: both paths
    /// charge the same sites for the same traffic.
    ///
    /// [`total_io`]: EveEngine::total_io
    #[must_use]
    pub fn total_messages(&self) -> u64 {
        self.sites.values().map(SimSite::message_count).sum()
    }

    /// Resets every site's resource accounting — I/O **and** message
    /// counters — so reports taken after the reset compare like for like.
    ///
    /// The reset also covers the observability counters of the rewrite
    /// machinery (partner-cache and MKB inverted-index hit/miss counters):
    /// `stats` deltas taken between checkpoints all start from the same
    /// origin. Only *counters* reset; the caches themselves stay warm.
    pub fn reset_io(&mut self) {
        for s in self.sites.values_mut() {
            s.reset_io();
        }
        // Every counter family the engine owns resets through ONE registry
        // call: the telemetry registry adopts the MKB inverted-index and
        // partner-cache handles, so `reset()` zeroes them all without
        // per-subsystem reset plumbing.
        self.telemetry_registry().reset();
        for rel in self.extents() {
            rel.reset_index_counters();
        }
    }

    /// Every relation extent the engine holds: the site-hosted base
    /// relations, then the materialized view extents.
    pub fn extents(&self) -> impl Iterator<Item = &Relation> {
        self.sites
            .values()
            .flat_map(SimSite::hosted_relations)
            .chain(self.views.values().map(|mv| &mv.extent))
    }

    /// An instance [`eve_trace::Registry`] adopting the engine's
    /// per-instance counter handles (MKB inverted-index and partner-cache
    /// hit/miss). Snapshots taken from it
    /// read the live atomics; [`Registry::reset`](eve_trace::Registry::reset)
    /// zeroes them all at once — which is exactly how
    /// [`reset_io`](EveEngine::reset_io) clears the engine counter surface.
    #[must_use]
    pub fn telemetry_registry(&self) -> eve_trace::Registry {
        let registry = eve_trace::Registry::new();
        for (name, handle) in self.mkb.index_counter_handles() {
            registry.register_counter(name, handle);
        }
        for (name, handle) in self.partners.counter_handles() {
            registry.register_counter(name, handle);
        }
        registry
    }

    /// One merged metrics snapshot: the process-global families (`exec.`,
    /// `index.`, `intern.`, `store.`, `search.`, `engine.`, `trace.`) plus
    /// this engine's per-instance counters (`mkb.`, `cache.`).
    #[must_use]
    pub fn metrics_snapshot(&self) -> eve_trace::MetricsSnapshot {
        eve_trace::global()
            .snapshot()
            .merge(self.telemetry_registry().snapshot())
    }

    /// Mutable access to the site map (for the experiment harness).
    pub fn sites_mut(&mut self) -> &mut BTreeMap<u32, SimSite> {
        &mut self.sites
    }

    /// Declares (and immediately warms) a secondary index on a hosted base
    /// relation. Returns `true` when the declaration is new, `false` when
    /// the same hint was already on file (the index is still re-warmed).
    ///
    /// The declaration is durable engine state: it is carried by
    /// [`snapshot_state`](EveEngine::snapshot_state) and re-warmed on
    /// restore. The warmed index itself lives in the relation's shared
    /// tuple storage, so query bindings ([`Relation::rebind`]) and
    /// copy-on-write descendants see it too, and it is maintained
    /// incrementally across inserts and deletes.
    ///
    /// # Errors
    ///
    /// [`Error::State`] for unregistered relations or unknown columns.
    pub fn declare_index(&mut self, relation: &str, column: &str, kind: IndexKind) -> Result<bool> {
        let rel = self.hosted(relation)?;
        let col = rel
            .schema()
            .columns()
            .iter()
            .position(|c| c.column.name == column)
            .ok_or_else(|| Error::State {
                detail: format!("relation `{relation}` has no column `{column}`"),
            })?;
        rel.warm_index(col, kind);
        let hint = IndexHint {
            relation: relation.to_owned(),
            column: column.to_owned(),
            kind,
        };
        if self.index_hints.contains(&hint) {
            return Ok(false);
        }
        self.index_hints.push(hint);
        Ok(true)
    }

    /// The declared secondary indexes, in declaration order.
    #[must_use]
    pub fn index_hints(&self) -> &[IndexHint] {
        &self.index_hints
    }

    /// Re-warms every declared index that still resolves to a hosted
    /// relation and column. Capability changes keep the hints current; one
    /// that does not resolve (a snapshot written before hints followed
    /// them) is skipped silently — a declaration is a performance hint,
    /// never a correctness constraint. Called after snapshot restore and
    /// after schema changes that rebuild extents.
    pub(crate) fn warm_declared_indexes(&self) {
        for hint in &self.index_hints {
            let Ok(rel) = self.hosted(&hint.relation) else {
                continue;
            };
            if let Some(col) = rel
                .schema()
                .columns()
                .iter()
                .position(|c| c.column.name == hint.column)
            {
                rel.warm_index(col, hint.kind);
            }
        }
    }
}

/// Per-view maintenance cost assessment (analytic, Eq. 24 under the
/// engine's workload model).
#[derive(Debug, Clone)]
pub(crate) struct ViewCostReport {
    /// The view's name.
    pub view_name: String,
    /// Cost factors for each possible update origin.
    pub per_origin: Vec<(String, CostFactors)>,
    /// Total cost per time unit under the engine's workload model.
    pub total_cost: f64,
}

/// Outcome of a cost-driven rebalancing pass for one view.
#[derive(Debug, Clone)]
pub struct MigrationReport {
    /// The view's name.
    pub view_name: String,
    /// Whether a migration was committed.
    pub migrated: bool,
    /// The relation that was replaced (when migrated).
    pub from_relation: Option<String>,
    /// The replacement relation (when migrated).
    pub to_relation: Option<String>,
    /// Maintenance cost before the pass.
    pub old_cost: f64,
    /// Maintenance cost after the pass.
    pub new_cost: f64,
}

impl EveEngine {
    /// Analytic maintenance cost of every materialized view, per update
    /// origin and in total under the configured workload model.
    ///
    /// # Errors
    ///
    /// MKB lookups for unregistered relations.
    pub(crate) fn cost_report(&self) -> Result<Vec<ViewCostReport>> {
        let mut out = Vec::new();
        for mv in self.views.values() {
            let plans = plans_for_view(&mv.def, &self.mkb)?;
            let per_origin = plans
                .iter()
                .map(|(origin, plan)| (origin.clone(), cost_factors(plan, &self.qc_params)))
                .collect();
            let total_cost = workload::total_cost(&plans, self.workload, &self.qc_params);
            out.push(ViewCostReport {
                view_name: mv.def.name.clone(),
                per_origin,
                total_cost,
            });
        }
        Ok(out)
    }

    /// Cost-driven migration: for each view, considers quality-neutral
    /// swaps onto *equivalent* replicas
    /// ([`eve_sync::equivalent_swaps`]) and adopts the cheapest one
    /// when it strictly undercuts the current maintenance cost. Before
    /// committing, the candidate's materialized extent is checked to
    /// coincide with the current one — a safety net against PC constraints
    /// that disagree with the actual data.
    ///
    /// # Errors
    ///
    /// Synchronization/plan/state failures.
    pub fn rebalance_views(&mut self) -> Result<Vec<MigrationReport>> {
        let mut reports = Vec::new();
        let names: Vec<String> = self.views.keys().cloned().collect();
        for name in names {
            let Some(mv) = self.views.get(&name).cloned() else {
                continue;
            };
            let current_plans = plans_for_view(&mv.def, &self.mkb)?;
            let current_cost = workload::total_cost(&current_plans, self.workload, &self.qc_params);
            let mut best: Option<(f64, eve_sync::LegalRewriting)> = None;
            for candidate in eve_sync::equivalent_swaps(&mv.def, &self.mkb)? {
                let plans = plans_for_view(&candidate.view, &self.mkb)?;
                let cost = workload::total_cost(&plans, self.workload, &self.qc_params);
                if cost < current_cost - 1e-9 && best.as_ref().is_none_or(|(c, _)| cost < *c) {
                    best = Some((cost, candidate));
                }
            }
            match best {
                Some((new_cost, candidate)) => {
                    // Commit only when the data agrees with the constraint.
                    let new_extent = self.evaluate(&candidate.view)?;
                    let matches =
                        eve_relational::common::measure_common_sizes(&mv.extent, &new_extent)
                            .map(|s| s.original == s.overlap && s.rewriting == s.overlap)
                            .unwrap_or(false);
                    if !matches {
                        reports.push(MigrationReport {
                            view_name: name.clone(),
                            migrated: false,
                            from_relation: None,
                            to_relation: None,
                            old_cost: current_cost,
                            new_cost: current_cost,
                        });
                        continue;
                    }
                    let (from_rel, to_rel) = match candidate.provenance.actions.first() {
                        Some(eve_sync::RewriteAction::SwappedRelation {
                            old_relation,
                            new_relation,
                            ..
                        }) => (Some(old_relation.clone()), Some(new_relation.clone())),
                        _ => (None, None),
                    };
                    let mut def = candidate.view;
                    def.name = name.clone();
                    self.views.insert(
                        name.clone(),
                        MaterializedView {
                            def,
                            extent: new_extent,
                        },
                    );
                    reports.push(MigrationReport {
                        view_name: name,
                        migrated: true,
                        from_relation: from_rel,
                        to_relation: to_rel,
                        old_cost: current_cost,
                        new_cost,
                    });
                }
                None => reports.push(MigrationReport {
                    view_name: name,
                    migrated: false,
                    from_relation: None,
                    to_relation: None,
                    old_cost: current_cost,
                    new_cost: current_cost,
                }),
            }
        }
        Ok(reports)
    }

    /// Removes a materialized view from the warehouse.
    ///
    /// # Errors
    ///
    /// [`Error::State`] when the view does not exist.
    pub fn drop_view(&mut self, name: &str) -> Result<MaterializedView> {
        self.views.remove(name).ok_or_else(|| Error::State {
            detail: format!("no view named `{name}`"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    use eve_misd::{AttributeInfo, PcConstraint, PcRelationship, PcSide};
    use eve_relational::{tup, DataType, IndexStats, Schema};

    fn engine_with_travel_space() -> EveEngine {
        let mut e = EveEngine::new();
        e.add_site(SiteId(1), "customers-src").unwrap();
        e.add_site(SiteId(2), "flights-src").unwrap();
        e.add_site(SiteId(3), "tours-src").unwrap();

        let customer_schema =
            Schema::of(&[("Name", DataType::Text), ("Address", DataType::Text)]).unwrap();
        e.register_relation(
            RelationInfo::new(
                "Customer",
                SiteId(1),
                vec![
                    AttributeInfo::new("Name", DataType::Text),
                    AttributeInfo::new("Address", DataType::Text),
                ],
                3,
            ),
            Relation::with_tuples(
                "Customer",
                customer_schema,
                vec![
                    tup!["ann", "12 Elm"],
                    tup!["bob", "9 Oak"],
                    tup!["cho", "3 Pine"],
                ],
            )
            .unwrap(),
        )
        .unwrap();

        let flight_schema =
            Schema::of(&[("PName", DataType::Text), ("Dest", DataType::Text)]).unwrap();
        e.register_relation(
            RelationInfo::new(
                "FlightRes",
                SiteId(2),
                vec![
                    AttributeInfo::new("PName", DataType::Text),
                    AttributeInfo::new("Dest", DataType::Text),
                ],
                3,
            ),
            Relation::with_tuples(
                "FlightRes",
                flight_schema,
                vec![
                    tup!["ann", "Asia"],
                    tup!["bob", "Europe"],
                    tup!["cho", "Asia"],
                ],
            )
            .unwrap(),
        )
        .unwrap();

        // A tour-booking source that mirrors customers (replacement pool).
        let tour_schema =
            Schema::of(&[("Client", DataType::Text), ("Residence", DataType::Text)]).unwrap();
        e.register_relation(
            RelationInfo::new(
                "TourClient",
                SiteId(3),
                vec![
                    AttributeInfo::new("Client", DataType::Text),
                    AttributeInfo::new("Residence", DataType::Text),
                ],
                3,
            ),
            Relation::with_tuples(
                "TourClient",
                tour_schema,
                vec![
                    tup!["ann", "12 Elm"],
                    tup!["bob", "9 Oak"],
                    tup!["cho", "3 Pine"],
                ],
            )
            .unwrap(),
        )
        .unwrap();
        e.mkb_mut()
            .add_pc_constraint(PcConstraint::new(
                PcSide::projection("Customer", &["Name", "Address"]),
                PcRelationship::Equivalent,
                PcSide::projection("TourClient", &["Client", "Residence"]),
            ))
            .unwrap();
        e
    }

    const ASIA_VIEW: &str = "CREATE VIEW Asia-Customer (VE = '~') AS \
        SELECT C.Name, C.Address \
        FROM Customer C (RR = true), FlightRes F \
        WHERE (C.Name = F.PName) AND (F.Dest = 'Asia')";

    #[test]
    fn define_and_query_view() {
        let mut e = engine_with_travel_space();
        let mv = e.define_view_sql(ASIA_VIEW).unwrap();
        assert_eq!(mv.extent.cardinality(), 2);
        assert!(e.define_view_sql(ASIA_VIEW).is_err(), "duplicate name");
    }

    #[test]
    fn view_validation_against_mkb() {
        let mut e = engine_with_travel_space();
        let bad = "CREATE VIEW V AS SELECT C.Ghost FROM Customer C";
        let err = e.define_view_sql(bad).unwrap_err();
        assert!(err.to_string().contains("no attribute"), "{err}");
        let bad = "CREATE VIEW V AS SELECT Z.A FROM Zilch Z";
        assert!(e.define_view_sql(bad).is_err());
    }

    #[test]
    fn data_update_maintains_views() {
        let mut e = engine_with_travel_space();
        e.define_view_sql(ASIA_VIEW).unwrap();
        let update = DataUpdate::insert("FlightRes", vec![tup!["bob", "Asia"]]);
        let traces = e.notify_data_update(&update).unwrap();
        assert_eq!(traces.len(), 1);
        assert_eq!(traces[0].1.view_inserts, 1);
        assert!(e
            .view("Asia-Customer")
            .unwrap()
            .extent
            .contains(&tup!["bob", "9 Oak"]));
    }

    /// A view whose maintenance fails (a self-join over the updated
    /// relation) stays installed, on the op-by-op path as on the batched.
    #[test]
    fn a_view_whose_maintenance_fails_stays_installed() {
        let mut e = engine_with_travel_space();
        e.define_view_sql(
            "CREATE VIEW Pairs AS SELECT X.Name FROM Customer X, Customer Y \
             WHERE X.Name = Y.Name",
        )
        .unwrap();
        let update = DataUpdate::insert("Customer", vec![tup!["dee", "7 Fir"]]);
        let err = e.notify_data_update(&update).unwrap_err();
        assert!(err.to_string().contains("self-joins"), "{err}");
        assert!(
            e.view("Pairs").is_ok(),
            "the op-by-op path dropped the view"
        );
        e.apply_batch(vec![EvolutionOp::insert(
            "Customer",
            vec![tup!["eve", "1 Elm"]],
        )])
        .unwrap_err();
        assert!(e.view("Pairs").is_ok(), "the batched path dropped the view");
    }

    #[test]
    fn capability_change_evolves_view() {
        let mut e = engine_with_travel_space();
        e.define_view_sql(ASIA_VIEW).unwrap();
        // The Customer source withdraws: EVE swaps in TourClient.
        let change = SchemaChange::DeleteRelation {
            relation: "Customer".into(),
        };
        let reports = e.notify_capability_change(&change, None).unwrap();
        assert_eq!(reports.len(), 1);
        let r = &reports[0];
        assert!(r.affected && r.survived);
        assert_eq!(r.candidates, 1);
        let mv = e.view("Asia-Customer").unwrap();
        assert!(mv.def.from.iter().any(|f| f.relation == "TourClient"));
        // Interface preserved: output columns keep their names.
        assert_eq!(mv.def.output_columns(), vec!["Name", "Address"]);
        // Extent re-materialized over the substitute (equivalent data).
        assert_eq!(mv.extent.distinct().cardinality(), 2);
        assert!(mv.extent.contains(&tup!["ann", "12 Elm"]));
        // The MKB no longer knows Customer.
        assert!(!e.mkb().has_relation("Customer"));
    }

    #[test]
    fn view_dies_without_replacements() {
        let mut e = engine_with_travel_space();
        // FlightRes is strict (not replaceable, not dispensable).
        e.define_view_sql(ASIA_VIEW).unwrap();
        let change = SchemaChange::DeleteRelation {
            relation: "FlightRes".into(),
        };
        let reports = e.notify_capability_change(&change, None).unwrap();
        assert!(reports[0].affected);
        assert!(!reports[0].survived);
        assert!(e.view("Asia-Customer").is_err(), "dead view dropped");
    }

    #[test]
    fn unaffected_views_stay_put() {
        let mut e = engine_with_travel_space();
        e.define_view_sql(ASIA_VIEW).unwrap();
        let change = SchemaChange::DeleteRelation {
            relation: "TourClient".into(),
        };
        let reports = e.notify_capability_change(&change, None).unwrap();
        assert!(!reports[0].affected);
        assert!(reports[0].survived);
        assert!(e.view("Asia-Customer").is_ok());
    }

    #[test]
    fn rename_relation_keeps_view_running() {
        let mut e = engine_with_travel_space();
        e.define_view_sql(ASIA_VIEW).unwrap();
        let change = SchemaChange::RenameRelation {
            from: "FlightRes".into(),
            to: "Bookings".into(),
        };
        let reports = e.notify_capability_change(&change, None).unwrap();
        assert!(reports[0].survived);
        let mv = e.view("Asia-Customer").unwrap();
        assert!(mv.def.from.iter().any(|f| f.relation == "Bookings"));
        assert_eq!(mv.extent.distinct().cardinality(), 2);
        // Data updates keep flowing under the new name.
        let update = DataUpdate::insert("Bookings", vec![tup!["bob", "Asia"]]);
        let traces = e.notify_data_update(&update).unwrap();
        assert_eq!(traces[0].1.view_inserts, 1);
    }

    #[test]
    fn delete_attribute_projects_site_extent() {
        let mut e = engine_with_travel_space();
        let change = SchemaChange::DeleteAttribute {
            relation: "TourClient".into(),
            attribute: "Residence".into(),
        };
        e.notify_capability_change(&change, None).unwrap();
        let site = &e.sites[&3];
        assert_eq!(site.relation("TourClient").unwrap().schema().arity(), 1);
    }

    #[test]
    fn add_relation_requires_extent() {
        let mut e = engine_with_travel_space();
        let change = SchemaChange::AddRelation {
            relation: RelationInfo::new(
                "Hotel",
                SiteId(1),
                vec![AttributeInfo::new("Name", DataType::Text)],
                0,
            ),
        };
        assert!(e.notify_capability_change(&change, None).is_err());
        let extent = Relation::empty("Hotel", Schema::of(&[("Name", DataType::Text)]).unwrap());
        let reports = e.notify_capability_change(&change, Some(extent)).unwrap();
        assert!(reports.is_empty() || reports.iter().all(|r| !r.affected));
        assert!(e.mkb().has_relation("Hotel"));
    }

    #[test]
    fn add_attribute_backfills_defaults() {
        let mut e = engine_with_travel_space();
        let change = SchemaChange::AddAttribute {
            relation: "Customer".into(),
            attribute: AttributeInfo::new("Age", DataType::Int),
        };
        e.notify_capability_change(&change, None).unwrap();
        let site = &e.sites[&1];
        let rel = site.relation("Customer").unwrap();
        assert_eq!(rel.schema().arity(), 3);
        assert_eq!(rel.tuples()[0].get(2), &Value::Int(0));
    }

    #[test]
    fn cost_report_covers_every_view_and_origin() {
        let mut e = engine_with_travel_space();
        e.define_view_sql(ASIA_VIEW).unwrap();
        e.define_view_sql("CREATE VIEW Just (VE = '~') AS SELECT C.Name FROM Customer C")
            .unwrap();
        let report = e.cost_report().unwrap();
        assert_eq!(report.len(), 2);
        let asia = report
            .iter()
            .find(|r| r.view_name == "Asia-Customer")
            .unwrap();
        assert_eq!(asia.per_origin.len(), 2); // Customer + FlightRes origins
        assert!(asia.total_cost > 0.0);
        for (_, f) in &asia.per_origin {
            assert!(f.messages >= 1.0);
            assert!(f.transfer > 0.0);
        }
        // The single-relation view is cheaper to maintain than the join.
        let just = report.iter().find(|r| r.view_name == "Just").unwrap();
        assert!(just.total_cost < asia.total_cost);
    }

    #[test]
    fn rebalance_migrates_to_cheaper_colocated_replica() {
        let mut e = engine_with_travel_space();
        e.define_view_sql(ASIA_VIEW).unwrap();
        let before_extent = e.view("Asia-Customer").unwrap().extent.clone();

        // No strictly cheaper equivalent exists yet: TourClient mirrors
        // Customer at an equally-distant site.
        let reports = e.rebalance_views().unwrap();
        assert!(reports.iter().all(|r| !r.migrated));

        // A new replica arrives with *narrower declared attributes* (a
        // compact encoding): maintaining the view over it ships fewer bytes
        // per delta, so it is strictly cheaper.
        let passengers_schema =
            Schema::of(&[("PName2", DataType::Text), ("PAddr", DataType::Text)]).unwrap();
        e.notify_capability_change(
            &SchemaChange::AddRelation {
                relation: RelationInfo::new(
                    "Passengers",
                    SiteId(2),
                    vec![
                        AttributeInfo::sized("PName2", DataType::Text, 5),
                        AttributeInfo::sized("PAddr", DataType::Text, 5),
                    ],
                    3,
                ),
            },
            Some(
                Relation::with_tuples(
                    "Passengers",
                    passengers_schema,
                    vec![
                        tup!["ann", "12 Elm"],
                        tup!["bob", "9 Oak"],
                        tup!["cho", "3 Pine"],
                    ],
                )
                .unwrap(),
            ),
        )
        .unwrap();
        e.mkb_mut()
            .add_pc_constraint(PcConstraint::new(
                PcSide::projection("Customer", &["Name", "Address"]),
                PcRelationship::Equivalent,
                PcSide::projection("Passengers", &["PName2", "PAddr"]),
            ))
            .unwrap();

        let reports = e.rebalance_views().unwrap();
        let r = reports
            .iter()
            .find(|r| r.view_name == "Asia-Customer")
            .unwrap();
        assert!(r.migrated, "{r:?}");
        assert_eq!(r.from_relation.as_deref(), Some("Customer"));
        assert_eq!(r.to_relation.as_deref(), Some("Passengers"));
        assert!(r.new_cost < r.old_cost);

        // Interface and extent preserved.
        let after = e.view("Asia-Customer").unwrap();
        assert_eq!(after.def.output_columns(), vec!["Name", "Address"]);
        assert_eq!(
            before_extent.distinct().tuples(),
            after.extent.distinct().tuples()
        );
        // The migrated view keeps working for updates.
        let update = DataUpdate::insert("FlightRes", vec![tup!["bob", "Asia"]]);
        let traces = e.notify_data_update(&update).unwrap();
        assert_eq!(traces[0].1.view_inserts, 1);
    }

    #[test]
    fn drop_view_removes_and_errors_on_missing() {
        let mut e = engine_with_travel_space();
        e.define_view_sql(ASIA_VIEW).unwrap();
        let dropped = e.drop_view("Asia-Customer").unwrap();
        assert_eq!(dropped.def.name, "Asia-Customer");
        assert!(e.view("Asia-Customer").is_err());
        assert!(e.drop_view("Asia-Customer").is_err());
    }

    #[test]
    fn batch_updates_merge_traces() {
        let mut e = engine_with_travel_space();
        e.define_view_sql(ASIA_VIEW).unwrap();
        let ops = vec![
            EvolutionOp::insert("FlightRes", vec![tup!["bob", "Asia"]]),
            EvolutionOp::insert("Customer", vec![tup!["eli", "5 Ash"]]),
            EvolutionOp::insert("FlightRes", vec![tup!["eli", "Asia"]]),
        ];
        let merged = e.apply_batch(ops).unwrap().traces;
        let trace = &merged["Asia-Customer"];
        assert_eq!(trace.view_inserts, 2); // bob and eli join the view
        assert!(trace.messages >= 3); // at least one notification each
        assert!(e
            .view("Asia-Customer")
            .unwrap()
            .extent
            .contains(&tup!["eli", "5 Ash"]));
    }

    #[test]
    fn reset_io_clears_io_and_message_accounting_together() {
        let mut e = engine_with_travel_space();
        e.define_view_sql(ASIA_VIEW).unwrap();
        e.reset_io();
        let update = DataUpdate::insert("FlightRes", vec![tup!["bob", "Asia"]]);
        let traces = e.notify_data_update(&update).unwrap();
        // Invariant: every message a trace reports was charged to a site,
        // so site-level and trace-level accounting agree — which is what
        // makes batched and sequential cost reports comparable.
        let trace_messages: u64 = traces.iter().map(|(_, t)| t.messages).sum();
        assert!(trace_messages > 0);
        assert_eq!(e.total_messages(), trace_messages);
        assert!(e.total_io() > 0);
        e.reset_io();
        assert_eq!(e.total_io(), 0);
        assert_eq!(e.total_messages(), 0, "reset_io clears messages too");
    }

    #[test]
    fn an_update_the_source_did_not_perform_notifies_nobody() {
        let mut e = engine_with_travel_space();
        e.define_view_sql(ASIA_VIEW).unwrap();
        e.reset_io();
        let before = e.view("Asia-Customer").unwrap().extent.clone();
        let outcome = e
            .apply_batch(vec![EvolutionOp::delete(
                "FlightRes",
                vec![tup!["nobody", "Mars"]],
            )])
            .unwrap();
        assert_eq!(outcome.traces["Asia-Customer"], MaintenanceTrace::default());
        assert_eq!(e.total_messages(), 0);
        assert_eq!(e.total_io(), 0);
        assert_eq!(e.view("Asia-Customer").unwrap().extent, before);
    }

    #[test]
    fn reset_io_also_zeroes_cache_and_index_counters() {
        let mut e = engine_with_travel_space();
        e.define_view_sql(ASIA_VIEW).unwrap();
        // Drive every counter: a capability change exercises the partner
        // cache and the MKB inverted index; a data update charges I/O and
        // messages.
        let change = SchemaChange::DeleteRelation {
            relation: "Customer".into(),
        };
        e.notify_capability_change(&change, None).unwrap();
        e.notify_data_update(&DataUpdate::insert("FlightRes", vec![tup!["zed", "Asia"]]))
            .unwrap();
        let exercised = e.telemetry_registry().snapshot();
        assert!(
            exercised.counter_sum("cache.partner_", "") > 0,
            "partner cache was exercised"
        );
        assert!(
            exercised.counter_sum("mkb.index_", "") > 0,
            "mkb index was exercised"
        );
        assert!(e.total_io() > 0);

        e.reset_io();
        assert_eq!(e.total_io(), 0);
        assert_eq!(e.total_messages(), 0);
        let reset = e.telemetry_registry().snapshot();
        assert_eq!(
            reset.counter_sum("cache.partner_", ""),
            0,
            "partner counters reset"
        );
        assert_eq!(
            reset.counter_sum("mkb.index_", ""),
            0,
            "index counters reset"
        );

        // Post-reset deltas are meaningful: fresh activity counts from zero.
        e.notify_data_update(&DataUpdate::insert("FlightRes", vec![tup!["yan", "Asia"]]))
            .unwrap();
        assert!(e.total_io() > 0, "new work accrues after the reset");
    }

    #[test]
    fn no_telemetry_registry_counter_survives_reset() {
        // The registry-reset regression pin: every counter the engine's
        // telemetry registry adopts must read zero after `reset_io` —
        // a newly wired counter that dodges the registry fails here.
        let mut e = engine_with_travel_space();
        e.define_view_sql(ASIA_VIEW).unwrap();
        let change = SchemaChange::DeleteRelation {
            relation: "Customer".into(),
        };
        e.notify_capability_change(&change, None).unwrap();
        let before = e.telemetry_registry().snapshot();
        assert!(
            before.counters.values().sum::<u64>() > 0,
            "telemetry counters were exercised"
        );
        e.reset_io();
        let after = e.telemetry_registry().snapshot();
        assert_eq!(
            after.counters.len(),
            before.counters.len(),
            "reset must zero counters, not drop them"
        );
        for (name, v) in &after.counters {
            assert_eq!(*v, 0, "counter `{name}` survived reset_io");
        }
    }

    #[test]
    fn metrics_snapshot_merges_instance_and_global_families() {
        let mut e = engine_with_travel_space();
        e.define_view_sql(ASIA_VIEW).unwrap();
        e.notify_data_update(&DataUpdate::insert("FlightRes", vec![tup!["zed", "Asia"]]))
            .unwrap();
        let snap = e.metrics_snapshot();
        // Per-instance families appear alongside the process-global ones.
        assert!(snap.counters.contains_key("mkb.index_hits"));
        assert!(snap.counters.contains_key("cache.partner_hits"));
        assert!(
            snap.counters.contains_key("engine.data_updates"),
            "global engine family present"
        );
        assert!(
            snap.counters
                .get("engine.data_updates")
                .is_some_and(|&v| v > 0),
            "the update was counted"
        );
    }

    #[test]
    fn telemetry_counts_partner_searches_and_index_lookups() {
        let mut e = engine_with_travel_space();
        e.define_view_sql(ASIA_VIEW).unwrap();
        let change = SchemaChange::DeleteRelation {
            relation: "Customer".into(),
        };
        e.notify_capability_change(&change, None).unwrap();
        let snap = e.telemetry_registry().snapshot();
        assert!(
            snap.counter("cache.partner_misses") >= 1,
            "synchronization ran a partner BFS"
        );
        assert!(
            snap.counter_sum("mkb.index_", "") >= 1,
            "constraint lookups went through the index"
        );
    }

    #[test]
    fn first_found_strategy_is_respected() {
        let mut e = engine_with_travel_space();
        e.strategy = SelectionStrategy::FirstFound;
        e.define_view_sql(ASIA_VIEW).unwrap();
        let change = SchemaChange::DeleteRelation {
            relation: "Customer".into(),
        };
        let reports = e.notify_capability_change(&change, None).unwrap();
        let adopted = reports[0].adopted.as_ref().unwrap();
        assert_eq!(adopted.index, 0);
    }

    #[test]
    fn declare_index_warms_and_dedupes() {
        let mut e = engine_with_travel_space();
        assert!(e
            .declare_index("Customer", "Name", IndexKind::Hash)
            .unwrap());
        assert!(
            !e.declare_index("Customer", "Name", IndexKind::Hash)
                .unwrap(),
            "re-declaration is idempotent"
        );
        assert_eq!(e.index_hints().len(), 1);
        let rel = e.sites[&1].relation("Customer").unwrap();
        assert!(rel.has_index(0, IndexKind::Hash));
        assert!(e
            .declare_index("Customer", "Ghost", IndexKind::Hash)
            .is_err());
        assert!(e.declare_index("Zilch", "Name", IndexKind::Hash).is_err());
    }

    #[test]
    fn declared_index_survives_data_updates_and_stays_consistent() {
        let mut e = engine_with_travel_space();
        e.declare_index("FlightRes", "Dest", IndexKind::Hash)
            .unwrap();
        let update = DataUpdate {
            relation: "FlightRes".into(),
            inserts: vec![tup!["dee", "Asia"]],
            deletes: vec![tup!["bob", "Europe"]],
        };
        e.notify_data_update(&update).unwrap();
        let rel = e.sites[&2].relation("FlightRes").unwrap();
        assert!(
            rel.has_index(1, IndexKind::Hash),
            "index maintained, not dropped"
        );
        let rows = rel.index_eq_rows(1, &Value::from("Asia"));
        assert_eq!(rows.len(), 3, "ann, cho and dee fly to Asia");
    }

    #[test]
    fn extents_cover_base_relations_and_views() {
        let mut e = engine_with_travel_space();
        e.define_view_sql(ASIA_VIEW).unwrap();
        e.declare_index("Customer", "Name", IndexKind::Hash)
            .unwrap();
        e.declare_index("FlightRes", "Dest", IndexKind::Sorted)
            .unwrap();
        assert_eq!(
            e.extents().count(),
            4,
            "three base relations + one view extent"
        );
        let index = e
            .extents()
            .map(Relation::index_stats)
            .fold(IndexStats::default(), IndexStats::merged);
        assert_eq!(index.hash_indexes, 1);
        assert_eq!(index.sorted_indexes, 1);
        assert!(index.builds >= 2);
    }

    #[test]
    fn schema_change_rewarrms_declared_indexes() {
        let mut e = engine_with_travel_space();
        e.declare_index("Customer", "Name", IndexKind::Hash)
            .unwrap();
        let change = SchemaChange::RenameAttribute {
            relation: "Customer".into(),
            from: "Address".into(),
            to: "Addr".into(),
        };
        e.notify_capability_change(&change, None).unwrap();
        let rel = e.sites[&1].relation("Customer").unwrap();
        assert!(
            rel.has_index(0, IndexKind::Hash),
            "rebuilt extent re-warmed the declared index"
        );
    }

    /// Every `(relation, column, kind)` index the hosted relations hold.
    fn hosted_indexes(e: &EveEngine) -> BTreeSet<(String, String, bool)> {
        let mut held = BTreeSet::new();
        for rel in e.sites.values().flat_map(SimSite::hosted_relations) {
            for (col, def) in rel.schema().columns().iter().enumerate() {
                for kind in [IndexKind::Hash, IndexKind::Sorted] {
                    if rel.has_index(col, kind) {
                        held.insert((
                            rel.name().to_owned(),
                            def.column.name.clone(),
                            kind == IndexKind::Hash,
                        ));
                    }
                }
            }
        }
        held
    }

    #[test]
    fn declared_indexes_follow_each_change_into_a_restored_engine() {
        let rename_relation = SchemaChange::RenameRelation {
            from: "Customer".into(),
            to: "Client".into(),
        };
        let rename_attribute = SchemaChange::RenameAttribute {
            relation: "Customer".into(),
            from: "Name".into(),
            to: "CName".into(),
        };
        let delete_attribute = SchemaChange::DeleteAttribute {
            relation: "Customer".into(),
            attribute: "Address".into(),
        };
        let delete_relation = SchemaChange::DeleteRelation {
            relation: "Customer".into(),
        };
        for (change, expected) in [
            (rename_relation, vec!["Client.Name", "Client.Address"]),
            (rename_attribute, vec!["Customer.CName", "Customer.Address"]),
            (delete_attribute, vec!["Customer.Name"]),
            (delete_relation, vec![]),
        ] {
            let mut live = engine_with_travel_space();
            live.declare_index("Customer", "Name", IndexKind::Hash)
                .unwrap();
            live.declare_index("Customer", "Address", IndexKind::Sorted)
                .unwrap();
            live.notify_capability_change(&change, None).unwrap();
            let hints: Vec<String> = live
                .index_hints()
                .iter()
                .map(|h| format!("{}.{}", h.relation, h.column))
                .collect();
            assert_eq!(hints, expected, "{change}");
            let bytes = live.snapshot_state().to_bytes();
            let restored = EveEngine::from_snapshot_state(
                &eve_store::EngineSnapshot::from_bytes(&bytes).unwrap(),
            )
            .unwrap();
            assert_eq!(restored.index_hints(), live.index_hints(), "{change}");
            let held = hosted_indexes(&live);
            assert_eq!(held.len(), expected.len(), "{change}: {held:?}");
            assert_eq!(hosted_indexes(&restored), held, "{change}");
        }
    }

    /// The travel space plus a second replacement pool for `Customer`
    /// (`Member`, itself a partner of `TourClient`) and a second view, so
    /// every change kind ranks several candidates.
    fn engine_with_partners() -> EveEngine {
        let mut e = engine_with_travel_space();
        let schema = Schema::of(&[("MName", DataType::Text), ("MAddr", DataType::Text)]).unwrap();
        e.register_relation(
            RelationInfo::new(
                "Member",
                SiteId(3),
                vec![
                    AttributeInfo::new("MName", DataType::Text),
                    AttributeInfo::new("MAddr", DataType::Text),
                ],
                5,
            ),
            Relation::with_tuples(
                "Member",
                schema,
                vec![tup!["ann", "12 Elm"], tup!["bob", "9 Oak"]],
            )
            .unwrap(),
        )
        .unwrap();
        for (left, relationship, right) in [
            (
                PcSide::projection("Customer", &["Name", "Address"]),
                PcRelationship::Subset,
                PcSide::projection("Member", &["MName", "MAddr"]),
            ),
            (
                PcSide::projection("TourClient", &["Client"]),
                PcRelationship::Superset,
                PcSide::projection("Member", &["MName"]),
            ),
        ] {
            e.mkb_mut()
                .add_pc_constraint(PcConstraint::new(left, relationship, right))
                .unwrap();
        }
        e.mkb_mut()
            .set_join_selectivity("Customer", "FlightRes", 0.3);
        e.define_view_sql(ASIA_VIEW).unwrap();
        e.define_view_sql(
            "CREATE VIEW Addresses (VE = '~') AS \
             SELECT C.Name (AR = true), C.Address (AD = true, AR = true) \
             FROM Customer C (RR = true)",
        )
        .unwrap();
        e
    }

    /// The changes a shell can express (delete/rename relation/attribute)
    /// and the two additions, each paired with the extent `add-relation`
    /// needs; applied in order they form one survival chain.
    fn change_chain() -> Vec<(SchemaChange, Option<Relation>)> {
        let hotel = Schema::of(&[("Guest", DataType::Text)]).unwrap();
        vec![
            (
                SchemaChange::RenameAttribute {
                    relation: "Customer".into(),
                    from: "Address".into(),
                    to: "Addr".into(),
                },
                None,
            ),
            (
                SchemaChange::RenameRelation {
                    from: "Customer".into(),
                    to: "Client".into(),
                },
                None,
            ),
            (
                SchemaChange::AddAttribute {
                    relation: "Client".into(),
                    attribute: AttributeInfo::new("Phone", DataType::Text),
                },
                None,
            ),
            (
                SchemaChange::AddRelation {
                    relation: RelationInfo::new(
                        "Hotel",
                        SiteId(2),
                        vec![AttributeInfo::new("Guest", DataType::Text)],
                        1,
                    ),
                },
                Some(Relation::with_tuples("Hotel", hotel, vec![tup!["ann"]]).unwrap()),
            ),
            (
                SchemaChange::DeleteAttribute {
                    relation: "Client".into(),
                    attribute: "Addr".into(),
                },
                None,
            ),
            (
                // By now the views read TourClient in Client's place.
                SchemaChange::DeleteRelation {
                    relation: "TourClient".into(),
                },
                None,
            ),
        ]
    }

    /// Every view's report as the engine produced it before ranking ran
    /// inside a shadow: synchronize against the pre-change MKB, then rank
    /// against a clone that registers a rename's new name.
    fn cloned_rank_mkb_oracle(e: &EveEngine, change: &SchemaChange) -> Vec<EvolutionReport> {
        let mut rank_mkb = e.mkb().clone();
        match change {
            SchemaChange::RenameRelation { from, to } => {
                let mut info = rank_mkb.relation(from).unwrap().clone();
                info.name = to.clone();
                rank_mkb.register_relation(info).unwrap();
            }
            SchemaChange::RenameAttribute { relation, from, to } => {
                let attr = rank_mkb.attribute(relation, from).unwrap().clone();
                rank_mkb
                    .apply_change(&SchemaChange::AddAttribute {
                        relation: relation.clone(),
                        attribute: AttributeInfo {
                            name: to.clone(),
                            ..attr
                        },
                    })
                    .unwrap();
            }
            _ => {}
        }
        e.views()
            .map(|mv| {
                let name = mv.def.name.clone();
                let outcome = synchronize(&mv.def, change, e.mkb(), &e.sync_options).unwrap();
                if !outcome.affected {
                    return EveEngine::unaffected_report(&name);
                }
                let scored = rank_rewritings(
                    &mv.def,
                    &outcome.rewritings,
                    &rank_mkb,
                    &e.qc_params,
                    e.workload,
                )
                .unwrap();
                let chosen = e.strategy.select(&scored).cloned();
                EvolutionReport {
                    view_name: name,
                    affected: true,
                    survived: chosen.is_some(),
                    candidates: scored.len(),
                    adopted: chosen,
                }
            })
            .collect()
    }

    #[test]
    fn reports_equal_the_cloned_rank_mkb_oracle_for_every_change_kind() {
        let mut batched = engine_with_partners();
        let mut sequential = engine_with_partners();
        let mut ranked = 0;
        for (change, extent) in change_chain() {
            let expected = format!("{:?}", cloned_rank_mkb_oracle(&batched, &change));
            ranked += usize::from(expected.contains("affected: true"));
            let reports = batched
                .apply(LogRecord::Batch(vec![EvolutionOp::Capability {
                    change: change.clone(),
                    new_extent: extent.clone(),
                }]))
                .unwrap()
                .reports;
            assert_eq!(format!("{reports:?}"), expected, "{change}");
            let reports = sequential
                .notify_capability_change_sequential(&change, extent)
                .unwrap();
            assert_eq!(format!("{reports:?}"), expected, "{change} (sequential)");
        }
        assert_eq!(ranked, 4, "every change but the two additions ranks");
        assert_eq!(
            batched.snapshot_state().to_bytes(),
            sequential.snapshot_state().to_bytes()
        );
    }

    #[test]
    fn capability_changes_never_clone_the_mkb_and_reindex_only_their_neighbourhood() {
        let mut e = engine_with_partners();
        // Build the index first, so every change meets a warm one.
        assert!(!e.mkb().pc_constraints_of("Customer").is_empty());
        let counter = |e: &EveEngine, name: &str| e.metrics_snapshot().counter(name);
        for (change, new_extent) in change_chain() {
            let changed: Vec<&str> = match &change {
                SchemaChange::RenameRelation { from, .. } => vec![from],
                SchemaChange::AddRelation { relation } => vec![&relation.name],
                SchemaChange::DeleteAttribute { relation, .. }
                | SchemaChange::AddAttribute { relation, .. }
                | SchemaChange::RenameAttribute { relation, .. }
                | SchemaChange::DeleteRelation { relation } => vec![relation],
            };
            let partners: BTreeSet<String> = changed
                .iter()
                .flat_map(|rel| e.mkb().pc_constraints_of(rel))
                .map(|pc| pc.right.relation.clone())
                .collect();
            let clones = counter(&e, "mkb.clones");
            let built = counter(&e, "mkb.index_relations_built");
            e.apply(LogRecord::Batch(vec![EvolutionOp::Capability {
                change: change.clone(),
                new_extent,
            }]))
            .unwrap();
            assert_eq!(counter(&e, "mkb.clones"), clones, "{change} cloned the MKB");
            let reindexed = counter(&e, "mkb.index_relations_built") - built;
            assert!(
                reindexed <= 1 + partners.len() as u64,
                "{change} re-derived {reindexed} keys, partners {partners:?}"
            );
        }
        assert_eq!(counter(&e, "mkb.index_misses"), 1, "one lazy build, ever");
    }

    #[test]
    fn a_refused_change_leaves_the_engine_untouched() {
        // `Customer` is read by both views; `Lead` (beside it at site 1),
        // `TourClient` and `Member` (both at site 3) by none.
        let engine = || {
            let mut e = engine_with_partners();
            let schema = Schema::of(&[("LName", DataType::Text)]).unwrap();
            e.register_relation(
                RelationInfo::new(
                    "Lead",
                    SiteId(1),
                    vec![AttributeInfo::new("LName", DataType::Text)],
                    0,
                ),
                Relation::empty("Lead", schema),
            )
            .unwrap();
            let _ = e.mkb().pc_constraints_of("Customer");
            e
        };
        let rename = |from: &str, to: &str| SchemaChange::RenameRelation {
            from: from.into(),
            to: to.into(),
        };
        let rename_attr = |relation: &str, from: &str, to: &str| SchemaChange::RenameAttribute {
            relation: relation.into(),
            from: from.into(),
            to: to.into(),
        };
        let text = |name: &str| AttributeInfo::new(name, DataType::Text);
        let add_relation = |name: &str, site: u32| SchemaChange::AddRelation {
            relation: RelationInfo::new(name, SiteId(site), vec![text("Guest")], 1),
        };
        let guests = |columns: &[(&str, DataType)]| {
            Some(Relation::empty("Hotel", Schema::of(columns).unwrap()))
        };
        let guest = [("Guest", DataType::Text)];
        let cases = [
            (
                SchemaChange::AddAttribute {
                    relation: "TourClient".into(),
                    attribute: text("Client"),
                },
                None,
                "MKB error: attribute `TourClient.Client` already exists",
            ),
            (
                SchemaChange::AddAttribute {
                    relation: "Customer".into(),
                    attribute: text("Name"),
                },
                None,
                "MKB error: attribute `Customer.Name` already exists",
            ),
            (
                rename("TourClient", "Member"),
                None,
                "MKB error: relation `Member` is already registered",
            ),
            (
                rename("Customer", "Lead"),
                None,
                "MKB error: relation `Lead` is already registered",
            ),
            (
                rename("TourClient", "Customer"),
                None,
                "MKB error: relation `Customer` is already registered",
            ),
            (
                rename("Customer", "FlightRes"),
                None,
                "MKB error: relation `FlightRes` is already registered",
            ),
            (
                rename_attr("TourClient", "Client", "Residence"),
                None,
                "MKB error: attribute `TourClient.Residence` already exists",
            ),
            (
                rename_attr("Customer", "Name", "Address"),
                None,
                "MKB error: attribute `Customer.Address` already exists",
            ),
            (
                rename_attr("TourClient", "Zip", "Code"),
                None,
                "MKB error: unknown attribute `TourClient.Zip`",
            ),
            (
                rename_attr("Customer", "Zip", "Code"),
                None,
                "MKB error: unknown attribute `Customer.Zip`",
            ),
            (
                SchemaChange::DeleteAttribute {
                    relation: "TourClient".into(),
                    attribute: "Zip".into(),
                },
                None,
                "MKB error: unknown attribute `TourClient.Zip`",
            ),
            (
                SchemaChange::DeleteAttribute {
                    relation: "Customer".into(),
                    attribute: "Zip".into(),
                },
                None,
                "MKB error: unknown attribute `Customer.Zip`",
            ),
            (
                add_relation("TourClient", 2),
                guests(&guest),
                "MKB error: relation `TourClient` is already registered",
            ),
            (
                add_relation("Customer", 2),
                guests(&guest),
                "MKB error: relation `Customer` is already registered",
            ),
            (
                add_relation("Hotel", 2),
                None,
                "engine state error: add-relation Hotel requires an extent",
            ),
            (
                add_relation("Hotel", 2),
                guests(&[("Guest", DataType::Text), ("Room", DataType::Int)]),
                "engine state error: extent of `Hotel` has 2 columns, declaration has 1",
            ),
        ];
        for (change, extent, expected) in cases {
            for sequential in [false, true] {
                let mut e = engine();
                let before = e.snapshot_state().to_bytes();
                let state = e.mkb().export_state();
                let err = if sequential {
                    e.notify_capability_change_sequential(&change, extent.clone())
                } else {
                    e.notify_capability_change(&change, extent.clone())
                }
                .unwrap_err();
                assert!(
                    e.snapshot_state().to_bytes() == before,
                    "{change}, sequential {sequential}: the engine moved ({err})"
                );
                assert_eq!(
                    err.to_string(),
                    expected,
                    "{change}, sequential {sequential}"
                );
                assert_eq!(
                    e.mkb().pc_constraints_of("Customer"),
                    Mkb::from_state(&state)
                        .unwrap()
                        .pc_constraints_of("Customer"),
                    "{change}"
                );
            }
        }
    }
}
