//! The view synchronization algorithm.
//!
//! Given a (validated) E-SQL view, a capability change and the *pre-change*
//! MKB, [`synchronize`] enumerates legal rewritings by combining repair
//! strategies per affected FROM binding:
//!
//! * `delete-attribute R.A` — (a) drop every component using `R.A` (needs
//!   `AD`/`CD`), (b) re-source the attribute from a PC partner joined in via
//!   a join constraint (needs `AR`, and `CR`/`CD` for conditions), or
//!   (c) swap the whole relation for a PC partner covering the surviving
//!   attributes (needs `RR`; uncovered components must be dispensable) — the
//!   paper's Experiment 1 spectrum,
//! * `delete-relation R` — (a) drop the FROM item and everything derived
//!   from it (needs `RD`), or (b) swap it for a PC partner (needs `RR`) —
//!   the paper's Example 4 / Experiment 4 spectrum,
//! * renames — rewrite references; `add-*` changes never invalidate a view.
//!
//! PC partners are discovered transitively over chains of selection-free PC
//! constraints with composable direction (Experiment 4 reaches `S1 … S5` from
//! `R2` through the chain `S1 ⊆ S2 ⊆ S3 ≡ R2 ⊆ S4 ⊆ S5`).
//!
//! Every candidate passes a structural sanity check and the `VE` legality
//! check before it is emitted. Results are in discovery order (first =
//! pre-QC-Model baseline pick), deduplicated, capped by
//! [`SyncOptions::max_rewritings`].

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::fmt;
use std::sync::Arc;

use eve_trace::Counter;

use eve_esql::{ConditionItem, FromItem, RelEvolution, SelectItem, ViewDef};
use eve_misd::{Mkb, PcRelationship, SchemaChange};
use eve_relational::ColumnRef;

use crate::extent::ExtentRelationship;
use crate::rewriting::{LegalRewriting, Provenance, RewriteAction};

/// Errors raised by view synchronization.
#[derive(Debug, Clone, PartialEq)]
pub enum SyncError {
    /// The view failed structural validation.
    Validation(String),
    /// An MKB lookup failed.
    Misd(eve_misd::Error),
    /// Search or heuristic options are out of range.
    Options(String),
}

impl fmt::Display for SyncError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SyncError::Validation(m) => write!(f, "view validation failed: {m}"),
            SyncError::Misd(e) => write!(f, "MKB error: {e}"),
            SyncError::Options(m) => write!(f, "invalid search options: {m}"),
        }
    }
}

impl std::error::Error for SyncError {}

impl From<eve_misd::Error> for SyncError {
    fn from(e: eve_misd::Error) -> Self {
        SyncError::Misd(e)
    }
}

/// Tuning knobs for the rewriting search.
#[derive(Debug, Clone)]
pub struct SyncOptions {
    /// Upper bound on emitted rewritings (the space can grow exponentially
    /// in the information-space redundancy, §4).
    pub max_rewritings: usize,
    /// When set, additionally emit the CVS-style "spectrum" of rewritings
    /// that drop further dispensable attributes on top of each repair (the
    /// paper's footnote 2 notes these exist but are dominated).
    pub enumerate_dispensable_drops: bool,
}

impl Default for SyncOptions {
    fn default() -> Self {
        SyncOptions {
            max_rewritings: 64,
            enumerate_dispensable_drops: false,
        }
    }
}

/// Result of synchronizing one view against one capability change.
#[derive(Debug, Clone)]
pub struct SyncOutcome {
    /// Whether the view was affected by the change at all. Unaffected views
    /// keep their definition and produce no rewritings.
    pub affected: bool,
    /// Legal rewritings in discovery order (deduplicated).
    pub rewritings: Vec<LegalRewriting>,
}

impl SyncOutcome {
    fn unaffected() -> SyncOutcome {
        SyncOutcome {
            affected: false,
            rewritings: Vec::new(),
        }
    }

    /// Whether the view survives the change (unaffected, or at least one
    /// legal rewriting exists) — the paper's Experiment 1 notion.
    #[must_use]
    pub fn survives(&self) -> bool {
        !self.affected || !self.rewritings.is_empty()
    }
}

/// A PC partner reachable from a relation: target relation, composed
/// attribute correspondence, and composed direction (`old ⊑ new`).
#[derive(Debug, Clone, PartialEq)]
pub struct PcPartner {
    /// The candidate replacement relation.
    pub relation: String,
    /// Maps old attributes to partner attributes (composed along the chain).
    pub attr_map: BTreeMap<String, String>,
    /// Composed relationship of the old fragment to the partner fragment.
    pub relationship: PcRelationship,
}

/// Enumerates PC partners of `rel` in BFS order: direct constraints first
/// (including ones with selection conditions), then transitive chains of
/// *selection-free* constraints with composable direction. Each relation is
/// reported once, via its shortest chain.
#[must_use]
pub(crate) fn pc_partners(mkb: &Mkb, rel: &str) -> Vec<PcPartner> {
    let mut out: Vec<PcPartner> = Vec::new();
    let mut seen: BTreeSet<String> = BTreeSet::new();
    seen.insert(rel.to_owned());

    // Identity starting point.
    let mut queue: VecDeque<PcPartner> = VecDeque::new();
    queue.push_back(PcPartner {
        relation: rel.to_owned(),
        attr_map: BTreeMap::new(), // identity, filled lazily below
        relationship: PcRelationship::Equivalent,
    });

    let mut first_hop = true;
    while let Some(cur) = queue.pop_front() {
        for pc in mkb.pc_constraints_of(&cur.relation) {
            // Multi-hop chaining only through selection-free constraints;
            // the first hop may use selected constraints too (their overlap
            // math handles the selections).
            if !first_hop && !pc.is_selection_free() {
                continue;
            }
            let Some(relationship) = cur.relationship.compose(pc.relationship) else {
                continue;
            };
            let target = pc.right.relation.clone();
            if seen.contains(&target) {
                continue;
            }
            // Compose attribute maps.
            let mut attr_map = BTreeMap::new();
            if cur.relation == rel {
                for (l, r) in pc.left.attrs.iter().zip(&pc.right.attrs) {
                    attr_map.insert(l.clone(), r.clone());
                }
            } else {
                for (old_attr, mid_attr) in &cur.attr_map {
                    if let Some(pos) = pc.left.attrs.iter().position(|a| a == mid_attr) {
                        attr_map.insert(old_attr.clone(), pc.right.attrs[pos].clone());
                    }
                }
            }
            if attr_map.is_empty() {
                continue;
            }
            seen.insert(target.clone());
            let partner = PcPartner {
                relation: target,
                attr_map,
                relationship,
            };
            out.push(partner.clone());
            queue.push_back(partner);
        }
        first_hop = false;
    }
    out
}

/// Memoizes [`pc_partners`] closures per relation. The BFS over PC
/// constraints is the dominant cost when many views reference the same
/// relations; within one MKB generation the closure is a pure function of
/// the relation name, so the engine shares one cache across views and
/// changes.
///
/// The cache watches the MKB itself: it remembers the
/// [`Mkb::generation`] its closures were computed under and drops them
/// all on the first request after the generation moved.
#[derive(Debug, Default)]
pub struct PartnerCache {
    generation: Option<u64>,
    map: HashMap<String, Vec<PcPartner>>,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
}

impl Clone for PartnerCache {
    fn clone(&self) -> PartnerCache {
        PartnerCache {
            generation: self.generation,
            map: self.map.clone(),
            // Counter::clone detaches — the copy counts independently.
            hits: Arc::new((*self.hits).clone()),
            misses: Arc::new((*self.misses).clone()),
        }
    }
}

impl PartnerCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> PartnerCache {
        PartnerCache::default()
    }

    /// The PC partners of `rel`, computed on first request and replayed
    /// afterwards until `mkb`'s generation moves.
    #[must_use]
    pub fn partners(&mut self, mkb: &Mkb, rel: &str) -> Vec<PcPartner> {
        let generation = mkb.generation();
        if self.generation != Some(generation) {
            self.map.clear();
            self.generation = Some(generation);
        }
        if let Some(found) = self.map.get(rel) {
            self.hits.inc();
            return found.clone();
        }
        self.misses.inc();
        let computed = pc_partners(mkb, rel);
        self.map.insert(rel.to_owned(), computed.clone());
        computed
    }

    /// Number of requests served from memory.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Number of requests that ran the BFS.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses.get()
    }

    /// The live counter handles, named for registry adoption (the engine's
    /// telemetry registry resets them with every other counter family).
    #[must_use]
    pub fn counter_handles(&self) -> [(&'static str, Arc<Counter>); 2] {
        [
            ("cache.partner_hits", Arc::clone(&self.hits)),
            ("cache.partner_misses", Arc::clone(&self.misses)),
        ]
    }
}

/// Synchronizes a view with a capability change against the *pre-change*
/// MKB, producing all legal rewritings.
///
/// # Errors
///
/// [`SyncError::Validation`] when the view is structurally invalid.
pub fn synchronize(
    view: &ViewDef,
    change: &SchemaChange,
    mkb: &Mkb,
    options: &SyncOptions,
) -> Result<SyncOutcome, SyncError> {
    synchronize_with(view, change, mkb, options, &mut PartnerCache::new())
}

/// [`synchronize`] with an externally owned [`PartnerCache`], so repeated
/// synchronizations against one MKB state share partner closures.
///
/// This is a thin wrapper over the streaming search driver's
/// [`Exhaustive`](crate::search::ExplorationPolicy::Exhaustive) policy; its
/// output is byte-identical to the pre-refactor pipeline (kept as
/// [`crate::legacy::synchronize_legacy`] and pinned by the differential
/// property suite).
///
/// # Errors
///
/// [`SyncError::Validation`] when the view is structurally invalid.
pub fn synchronize_with(
    view: &ViewDef,
    change: &SchemaChange,
    mkb: &Mkb,
    options: &SyncOptions,
    partners: &mut PartnerCache,
) -> Result<SyncOutcome, SyncError> {
    crate::search::synchronize_with_policy(
        view,
        change,
        mkb,
        options,
        &crate::search::ExplorationPolicy::Exhaustive,
        partners,
    )
    .map(|(outcome, _stats)| outcome)
}

// ----------------------------------------------------------------------
// Candidate building blocks (shared by the search driver and the frozen
// legacy pipeline)
// ----------------------------------------------------------------------

pub(crate) type Candidate = (ViewDef, Vec<RewriteAction>, ExtentRelationship);

/// Structural sanity of a rewriting: non-empty SELECT/FROM, unique bindings,
/// all columns bound, no dangling condition references.
pub(crate) fn structurally_sound(view: &ViewDef) -> bool {
    eve_esql::validate::validate(view).is_ok()
}

// ----------------------------------------------------------------------
// Rename handling
// ----------------------------------------------------------------------

pub(crate) fn rename_attribute(
    view: &ViewDef,
    relation: &str,
    from: &str,
    to: &str,
) -> SyncOutcome {
    let bindings: Vec<String> = view
        .from
        .iter()
        .filter(|f| f.relation == relation)
        .map(|f| f.binding_name().to_owned())
        .filter(|b| uses_attr(view, b, from))
        .collect();
    if bindings.is_empty() {
        return SyncOutcome::unaffected();
    }
    let mut v = view.clone();
    for b in &bindings {
        for item in &mut v.select {
            if is_column(&item.attr, b, from) {
                // Preserve the output name across the rename.
                if item.alias.is_none() && v.column_names.is_none() {
                    item.alias = Some(from.to_owned());
                }
                item.attr = ColumnRef::qualified(b.clone(), to);
            }
        }
        for cond in &mut v.conditions {
            cond.clause = cond.clause.map_columns(&mut |c| {
                if is_column(c, b, from) {
                    ColumnRef::qualified(b.clone(), to)
                } else {
                    c.clone()
                }
            });
        }
    }
    SyncOutcome {
        affected: true,
        rewritings: vec![LegalRewriting {
            view: v,
            provenance: Provenance {
                actions: vec![RewriteAction::Renamed {
                    from: format!("{relation}.{from}"),
                    to: format!("{relation}.{to}"),
                }],
            },
            extent: ExtentRelationship::Equal,
        }],
    }
}

pub(crate) fn rename_relation(view: &ViewDef, from: &str, to: &str) -> SyncOutcome {
    if !view.from.iter().any(|f| f.relation == from) {
        return SyncOutcome::unaffected();
    }
    let mut v = view.clone();
    for item in &mut v.from {
        if item.relation == from {
            // Keep the binding name stable by aliasing the new relation name
            // back to the old binding; all column references stay valid.
            if item.alias.is_none() {
                item.alias = Some(from.to_owned());
            }
            item.relation = to.to_owned();
        }
    }
    SyncOutcome {
        affected: true,
        rewritings: vec![LegalRewriting {
            view: v,
            provenance: Provenance {
                actions: vec![RewriteAction::Renamed {
                    from: from.to_owned(),
                    to: to.to_owned(),
                }],
            },
            extent: ExtentRelationship::Equal,
        }],
    }
}

// ----------------------------------------------------------------------
// delete-attribute strategies
// ----------------------------------------------------------------------

pub(crate) fn uses_attr(view: &ViewDef, binding: &str, attr: &str) -> bool {
    view.select
        .iter()
        .any(|s| is_column(&s.attr, binding, attr))
        || view.conditions.iter().any(|c| {
            c.clause
                .columns()
                .into_iter()
                .any(|col| is_column(col, binding, attr))
        })
}

/// Whether `col` is `binding.attr`.
fn is_column(col: &ColumnRef, binding: &str, attr: &str) -> bool {
    col.qualifier.as_deref() == Some(binding) && col.name == attr
}

/// What a repair does with one SELECT item or condition of the view.
enum Fate<T> {
    /// The component does not involve the repair and stays as it is.
    Untouched,
    /// The component stays in this rewritten form.
    Rewritten(T),
    /// The component goes; legal only when it is dispensable.
    Dropped,
}

impl<T> Fate<T> {
    /// The fate of a component that a pure drop repair touches or not.
    fn dropped_if(touched: bool) -> Fate<T> {
        if touched {
            Fate::Dropped
        } else {
            Fate::Untouched
        }
    }
}

/// The rewrite every candidate builder shares: applies the repair's
/// verdict to each SELECT item (keeping explicit column names aligned),
/// then to each condition, recording a [`RewriteAction::DroppedAttribute`]
/// or [`RewriteAction::DroppedCondition`] per drop and widening the extent
/// by one `Superset` per dropped condition. The verdict callbacks may push
/// actions of their own, which land in component order. `None` when the
/// repair drops an indispensable component or the last SELECT item.
fn rewrite_components(
    mut v: ViewDef,
    binding: &str,
    mut actions: Vec<RewriteAction>,
    mut extent: ExtentRelationship,
    mut select: impl FnMut(&SelectItem, &mut Vec<RewriteAction>) -> Fate<SelectItem>,
    mut condition: impl FnMut(&ConditionItem, &mut Vec<RewriteAction>) -> Fate<ConditionItem>,
) -> Option<Candidate> {
    let names = v.column_names.take();
    let mut keep_names = names.as_ref().map(|_| Vec::new());
    let mut keep_select = Vec::new();
    for (i, item) in std::mem::take(&mut v.select).into_iter().enumerate() {
        let kept = match select(&item, &mut actions) {
            Fate::Untouched => item,
            Fate::Rewritten(rewritten) => rewritten,
            Fate::Dropped if item.evolution.dispensable => {
                actions.push(RewriteAction::DroppedAttribute {
                    binding: binding.to_owned(),
                    attribute: item.attr.name,
                });
                continue;
            }
            Fate::Dropped => return None,
        };
        keep_select.push(kept);
        if let (Some(kept_names), Some(all)) = (&mut keep_names, &names) {
            kept_names.push(all[i].clone());
        }
    }
    if keep_select.is_empty() {
        return None;
    }
    v.select = keep_select;
    v.column_names = keep_names;

    let mut keep_conds = Vec::new();
    for cond in std::mem::take(&mut v.conditions) {
        match condition(&cond, &mut actions) {
            Fate::Untouched => keep_conds.push(cond),
            Fate::Rewritten(rewritten) => keep_conds.push(rewritten),
            Fate::Dropped if cond.evolution.dispensable => {
                actions.push(RewriteAction::DroppedCondition {
                    clause: cond.clause,
                });
                extent = extent.compose(ExtentRelationship::Superset);
            }
            Fate::Dropped => return None,
        }
    }
    v.conditions = keep_conds;

    Some((v, actions, extent))
}

/// `item` reading `col` instead of its old column, keeping its output name
/// through an alias when the view has no explicit column list.
fn retarget(item: &SelectItem, col: ColumnRef, name_by_alias: bool) -> SelectItem {
    let mut out = item.clone();
    let old_output = item.output_name();
    if name_by_alias && old_output != col.name {
        out.alias = Some(old_output.to_owned());
    }
    out.attr = col;
    out
}

/// Drops all SELECT items (`AD` required) and conditions (`CD` required)
/// referencing `binding.attr`.
pub(crate) fn build_drop_components(
    view: &ViewDef,
    binding: &str,
    attr: &str,
) -> Option<Candidate> {
    let hit = |c: &ColumnRef| is_column(c, binding, attr);
    rewrite_components(
        view.clone(),
        binding,
        Vec::new(),
        ExtentRelationship::Equal,
        |item, _| Fate::dropped_if(hit(&item.attr)),
        |cond, _| Fate::dropped_if(cond.clause.columns().into_iter().any(hit)),
    )
}

/// Replaces `binding.attr` with `partner.attr_map[attr]`, joining the partner
/// relation in through a join constraint when it is not already in the view.
pub(crate) fn build_attr_replacement(
    view: &ViewDef,
    binding: &str,
    attr: &str,
    partner: &PcPartner,
    mkb: &Mkb,
) -> Option<Candidate> {
    let new_attr = partner.attr_map.get(attr)?.clone();
    let relation = &view.from_item(binding)?.relation;

    // Every SELECT item using the attribute must be replaceable; conditions
    // must be replaceable (rewrite) or dispensable (drop).
    for item in view.select_items_of(binding) {
        if item.attr.name == attr && !item.evolution.replaceable {
            return None;
        }
    }

    // Find or create the binding that hosts the partner relation.
    let existing = view
        .from
        .iter()
        .find(|f| f.relation == partner.relation)
        .map(|f| f.binding_name().to_owned());
    let mut v = view.clone();
    let mut actions: Vec<RewriteAction> = Vec::new();

    let host = match existing {
        Some(b) => b,
        None => {
            // Need a join constraint connecting the partner to the damaged
            // relation to stitch it into the query meaningfully.
            let jc = mkb.join_constraint_between(&partner.relation, relation)?;
            let host = fresh_binding(&v, &partner.relation);
            v.from.push(FromItem {
                relation: partner.relation.clone(),
                alias: if host == partner.relation {
                    None
                } else {
                    Some(host.clone())
                },
                evolution: RelEvolution {
                    dispensable: false,
                    replaceable: true,
                },
            });
            let mut join_clauses = Vec::new();
            for clause in &jc.condition {
                // Skip clauses over the deleted attribute itself.
                if clause
                    .columns()
                    .iter()
                    .any(|c| is_column(c, relation, attr))
                {
                    return None; // the join itself relied on the deleted attribute
                }
                let mapped = clause.map_columns(&mut |c| {
                    if c.qualifier.as_deref() == Some(relation.as_str()) {
                        ColumnRef::qualified(binding, c.name.clone())
                    } else if c.qualifier.as_deref() == Some(partner.relation.as_str()) {
                        ColumnRef::qualified(host.clone(), c.name.clone())
                    } else {
                        c.clone()
                    }
                });
                join_clauses.push(mapped);
            }
            let join_display = join_clauses
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(" AND ");
            for clause in join_clauses {
                v.conditions.push(ConditionItem::new(clause));
            }
            actions.push(RewriteAction::AddedJoinRelation {
                relation: partner.relation.clone(),
                join: join_display,
            });
            host
        }
    };

    // Re-source SELECT items from the host; rewrite or drop conditions
    // that used the deleted attribute.
    let new_col = ColumnRef::qualified(host, new_attr.clone());
    let name_by_alias = v.column_names.is_none();
    let hit = |c: &ColumnRef| is_column(c, binding, attr);
    rewrite_components(
        v,
        binding,
        actions,
        ExtentRelationship::from_attr_replacement(partner.relationship),
        |item, actions| {
            if !hit(&item.attr) {
                return Fate::Untouched;
            }
            actions.push(RewriteAction::ReplacedAttribute {
                old: (binding.to_owned(), attr.to_owned()),
                new: (partner.relation.clone(), new_attr.clone()),
                relationship: partner.relationship,
            });
            Fate::Rewritten(retarget(item, new_col.clone(), name_by_alias))
        },
        |cond, actions| {
            if !cond.clause.columns().into_iter().any(hit) {
                return Fate::Untouched;
            }
            if !cond.evolution.replaceable {
                return Fate::Dropped;
            }
            let clause = cond.clause.map_columns(&mut |c| {
                if hit(c) {
                    new_col.clone()
                } else {
                    c.clone()
                }
            });
            actions.push(RewriteAction::RewroteCondition {
                old: cond.clause.clone(),
                new: clause.clone(),
            });
            Fate::Rewritten(ConditionItem {
                clause,
                evolution: cond.evolution,
            })
        },
    )
}

// ----------------------------------------------------------------------
// delete-relation strategies (also used as the swap route for
// delete-attribute)
// ----------------------------------------------------------------------

/// Picks a binding name not already used by the view.
fn fresh_binding(view: &ViewDef, base: &str) -> String {
    if view.from_item(base).is_none() {
        return base.to_owned();
    }
    let mut i = 2;
    loop {
        let cand = format!("{base}_{i}");
        if view.from_item(&cand).is_none() {
            return cand;
        }
        i += 1;
    }
}

/// Swaps `binding` (relation `R`) for `partner.relation`, rewriting covered
/// attributes through the correspondence and dropping dispensable uncovered
/// components.
pub(crate) fn build_swap(view: &ViewDef, binding: &str, partner: &PcPartner) -> Option<Candidate> {
    let old_item = view.from_item(binding)?.clone();
    // Swapping a relation for itself is meaningless.
    if partner.relation == old_item.relation {
        return None;
    }
    // If the partner already participates in the view we merge into the
    // existing binding (§7.6's "reuse a relation already in the view").
    let existing_host = view
        .from
        .iter()
        .filter(|f| f.binding_name() != binding)
        .find(|f| f.relation == partner.relation)
        .map(|f| f.binding_name().to_owned());

    let mut v = view.clone();
    let actions = vec![RewriteAction::SwappedRelation {
        binding: binding.to_owned(),
        old_relation: old_item.relation.clone(),
        new_relation: partner.relation.clone(),
        relationship: partner.relationship,
    }];

    // Determine the new binding name and update FROM.
    let host = if let Some(h) = existing_host {
        // Remove the old FROM item entirely.
        v.from.retain(|f| f.binding_name() != binding);
        h
    } else if old_item.alias.is_some() {
        // Keep the alias: only the underlying relation changes.
        for f in &mut v.from {
            if f.binding_name() == binding {
                f.relation = partner.relation.clone();
            }
        }
        binding.to_owned()
    } else {
        let host = fresh_binding(view, &partner.relation);
        for f in &mut v.from {
            if f.binding_name() == binding {
                f.relation = partner.relation.clone();
                f.alias = if host == partner.relation {
                    None
                } else {
                    Some(host.clone())
                };
            }
        }
        host
    };

    // Re-source covered components of the old binding on the host; the
    // uncovered ones must be dispensable.
    let covered = |c: &ColumnRef| {
        partner
            .attr_map
            .get(&c.name)
            .map(|a| ColumnRef::qualified(host.clone(), a.clone()))
    };
    let name_by_alias = view.column_names.is_none();
    rewrite_components(
        v,
        binding,
        actions,
        ExtentRelationship::from_relation_swap(partner.relationship),
        |item, _| {
            if item.attr.qualifier.as_deref() != Some(binding) {
                return Fate::Untouched;
            }
            match covered(&item.attr) {
                Some(col) => Fate::Rewritten(retarget(item, col, name_by_alias)),
                None => Fate::Dropped,
            }
        },
        |cond, _| {
            let referenced: Vec<&ColumnRef> = cond
                .clause
                .columns()
                .into_iter()
                .filter(|c| c.qualifier.as_deref() == Some(binding))
                .collect();
            if referenced.is_empty() {
                return Fate::Untouched;
            }
            if !referenced
                .iter()
                .all(|c| partner.attr_map.contains_key(&c.name))
            {
                return Fate::Dropped;
            }
            let clause = cond.clause.map_columns(&mut |c| {
                if c.qualifier.as_deref() == Some(binding) {
                    ColumnRef::qualified(host.clone(), partner.attr_map[&c.name].clone())
                } else {
                    c.clone()
                }
            });
            Fate::Rewritten(ConditionItem {
                clause,
                evolution: cond.evolution,
            })
        },
    )
}

/// Drops the FROM item `binding`, all its SELECT items (each `AD`) and all
/// conditions touching it (each `CD`).
pub(crate) fn build_drop_relation(view: &ViewDef, binding: &str) -> Option<Candidate> {
    let old_item = view.from_item(binding)?;
    if view.from.len() <= 1 {
        return None; // a view cannot lose its last relation
    }
    let actions = vec![RewriteAction::DroppedRelation {
        binding: binding.to_owned(),
        relation: old_item.relation.clone(),
    }];
    let mut v = view.clone();
    v.from.retain(|f| f.binding_name() != binding);
    // Dropping the join with this relation can only widen the extent.
    rewrite_components(
        v,
        binding,
        actions,
        ExtentRelationship::Superset,
        |item, _| Fate::dropped_if(item.attr.qualifier.as_deref() == Some(binding)),
        |cond, _| Fate::dropped_if(cond.clause.references_qualifier(binding)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use eve_esql::{parse_view, ViewExtent};
    use eve_misd::{AttributeInfo, PcConstraint, PcSide, RelationInfo, SiteId};
    use eve_relational::{DataType, PrimitiveClause};

    fn attr(name: &str) -> AttributeInfo {
        AttributeInfo::new(name, DataType::Int)
    }

    /// Experiment 1 information space: R(A,B) @ IS1; S(A,C) @ IS2; T(A,D) @
    /// IS3; PC(π_A(R) ⊆ π_A(S)); PC(π_A(R) ⊆ π_A(T)).
    fn experiment1_mkb() -> Mkb {
        let mut m = Mkb::new();
        for i in 1..=3u32 {
            m.register_site(SiteId(i), format!("IS{i}")).unwrap();
        }
        m.register_relation(RelationInfo::new(
            "R",
            SiteId(1),
            vec![attr("A"), attr("B")],
            400,
        ))
        .unwrap();
        m.register_relation(RelationInfo::new(
            "S",
            SiteId(2),
            vec![attr("A"), attr("C")],
            400,
        ))
        .unwrap();
        m.register_relation(RelationInfo::new(
            "T",
            SiteId(3),
            vec![attr("A"), attr("D")],
            400,
        ))
        .unwrap();
        for s in ["S", "T"] {
            m.add_pc_constraint(PcConstraint::new(
                PcSide::projection("R", &["A"]),
                PcRelationship::Subset,
                PcSide::projection(s, &["A"]),
            ))
            .unwrap();
        }
        m
    }

    fn experiment1_view() -> ViewDef {
        parse_view(
            "CREATE VIEW V0 (VE = '~') AS \
             SELECT R.A (AD = true, AR = true), R.B (AD = true) \
             FROM R (RR = true)",
        )
        .unwrap()
    }

    #[test]
    fn experiment1_three_rewritings() {
        let mkb = experiment1_mkb();
        let view = experiment1_view();
        let change = SchemaChange::DeleteAttribute {
            relation: "R".into(),
            attribute: "A".into(),
        };
        let outcome = synchronize(&view, &change, &mkb, &SyncOptions::default()).unwrap();
        assert!(outcome.affected);
        let texts: Vec<String> = outcome
            .rewritings
            .iter()
            .map(|r| r.view.to_string())
            .collect();
        assert_eq!(
            outcome.rewritings.len(),
            3,
            "expected V1, V2, V3; got:\n{}",
            texts.join("\n---\n")
        );
        // The two swap rewritings keep A (sourced from S / T) and drop B.
        let swaps: Vec<&LegalRewriting> = outcome
            .rewritings
            .iter()
            .filter(|r| {
                r.provenance
                    .actions
                    .iter()
                    .any(|a| matches!(a, RewriteAction::SwappedRelation { .. }))
            })
            .collect();
        assert_eq!(swaps.len(), 2);
        for s in &swaps {
            assert_eq!(s.view.output_columns(), vec!["A"]);
            assert_eq!(s.extent, ExtentRelationship::Superset);
            assert_eq!(s.view.from.len(), 1);
        }
        let swap_targets: BTreeSet<&str> = swaps
            .iter()
            .map(|s| s.view.from[0].relation.as_str())
            .collect();
        assert_eq!(swap_targets, BTreeSet::from(["S", "T"]));
        // Swapped FROM items stay replaceable (enables further evolution).
        assert!(swaps.iter().all(|s| s.view.from[0].evolution.replaceable));
        // The drop rewriting is V3: SELECT R.B FROM R.
        let drop = outcome
            .rewritings
            .iter()
            .find(|r| {
                r.provenance
                    .actions
                    .iter()
                    .all(|a| matches!(a, RewriteAction::DroppedAttribute { .. }))
            })
            .expect("drop rewriting");
        assert_eq!(drop.view.output_columns(), vec!["B"]);
        assert_eq!(drop.view.from[0].relation, "R");
        assert_eq!(drop.extent, ExtentRelationship::Equal);
    }

    #[test]
    fn experiment1_survival_chain() {
        // After adopting V1 (from S), deleting S still leaves V2 (from T)
        // because A kept AR = true and S has a PC partner through R... the
        // chain S ⊇ R ⊆ T composes to nothing, so survival requires a direct
        // S-T constraint; add one to model the replica scenario.
        let mut mkb = experiment1_mkb();
        mkb.add_pc_constraint(PcConstraint::new(
            PcSide::projection("S", &["A"]),
            PcRelationship::Equivalent,
            PcSide::projection("T", &["A"]),
        ))
        .unwrap();
        let view = experiment1_view();
        let change = SchemaChange::DeleteAttribute {
            relation: "R".into(),
            attribute: "A".into(),
        };
        let outcome = synchronize(&view, &change, &mkb, &SyncOptions::default()).unwrap();
        let v1 = outcome
            .rewritings
            .iter()
            .find(|r| r.view.from[0].relation == "S")
            .unwrap();
        // Now S is deleted.
        let change2 = SchemaChange::DeleteRelation {
            relation: "S".into(),
        };
        let outcome2 = synchronize(&v1.view, &change2, &mkb, &SyncOptions::default()).unwrap();
        assert!(outcome2.survives());
        assert!(outcome2
            .rewritings
            .iter()
            .any(|r| r.view.from[0].relation == "T"));
    }

    #[test]
    fn dead_view_when_nothing_dispensable_or_replaceable() {
        // V3 = SELECT R.B FROM R with strict B: deleting R.B kills the view.
        let mkb = experiment1_mkb();
        let view =
            parse_view("CREATE VIEW V3 (VE = '~') AS SELECT R.B FROM R (RR = true)").unwrap();
        let change = SchemaChange::DeleteAttribute {
            relation: "R".into(),
            attribute: "B".into(),
        };
        let outcome = synchronize(&view, &change, &mkb, &SyncOptions::default()).unwrap();
        assert!(outcome.affected);
        assert!(
            !outcome.survives(),
            "B is neither dispensable nor replaceable and no PC covers it"
        );
    }

    /// Experiment 4 information space: chain S1 ⊆ S2 ⊆ S3 ≡ R2 ⊆ S4 ⊆ S5.
    fn experiment4_mkb() -> Mkb {
        let mut m = Mkb::new();
        for i in 1..=6u32 {
            m.register_site(SiteId(i), format!("IS{i}")).unwrap();
        }
        m.register_relation(RelationInfo::new(
            "R1",
            SiteId(1),
            vec![attr("K"), attr("X")],
            400,
        ))
        .unwrap();
        let abc = || vec![attr("A"), attr("B"), attr("C")];
        m.register_relation(RelationInfo::new("R2", SiteId(1), abc(), 4000))
            .unwrap();
        for (i, (name, card)) in [
            ("S1", 2000u64),
            ("S2", 3000),
            ("S3", 4000),
            ("S4", 5000),
            ("S5", 6000),
        ]
        .iter()
        .enumerate()
        {
            m.register_relation(RelationInfo::new(
                *name,
                SiteId(u32::try_from(i).unwrap() + 2),
                abc(),
                *card,
            ))
            .unwrap();
        }
        let proj = |r: &str| PcSide::projection(r, &["A", "B", "C"]);
        m.add_pc_constraint(PcConstraint::new(
            proj("S1"),
            PcRelationship::Subset,
            proj("S2"),
        ))
        .unwrap();
        m.add_pc_constraint(PcConstraint::new(
            proj("S2"),
            PcRelationship::Subset,
            proj("S3"),
        ))
        .unwrap();
        m.add_pc_constraint(PcConstraint::new(
            proj("S3"),
            PcRelationship::Equivalent,
            proj("R2"),
        ))
        .unwrap();
        m.add_pc_constraint(PcConstraint::new(
            proj("S3"),
            PcRelationship::Subset,
            proj("S4"),
        ))
        .unwrap();
        m.add_pc_constraint(PcConstraint::new(
            proj("S4"),
            PcRelationship::Subset,
            proj("S5"),
        ))
        .unwrap();
        m
    }

    fn experiment4_view() -> ViewDef {
        parse_view(
            "CREATE VIEW V (VE = '~') AS \
             SELECT R1.X, R2.A (AR = true), R2.B (AR = true), R2.C (AR = true) \
             FROM R1, R2 (RR = true) \
             WHERE R1.K = R2.A",
        )
        .unwrap()
    }

    #[test]
    fn experiment4_five_swap_rewritings_via_chains() {
        let mkb = experiment4_mkb();
        let view = experiment4_view();
        let change = SchemaChange::DeleteRelation {
            relation: "R2".into(),
        };
        let outcome = synchronize(&view, &change, &mkb, &SyncOptions::default()).unwrap();
        let targets: BTreeSet<String> = outcome
            .rewritings
            .iter()
            .filter_map(|r| {
                r.view
                    .from
                    .iter()
                    .find(|f| f.relation != "R1")
                    .map(|f| f.relation.clone())
            })
            .collect();
        assert_eq!(
            targets,
            ["S1", "S2", "S3", "S4", "S5"]
                .into_iter()
                .map(String::from)
                .collect::<BTreeSet<_>>(),
            "all five substitutes reachable through the PC chain"
        );
        // Extent relationships per Experiment 4's two regimes.
        for r in &outcome.rewritings {
            let target = &r
                .view
                .from
                .iter()
                .find(|f| f.relation != "R1")
                .unwrap()
                .relation;
            let expected = match target.as_str() {
                "S1" | "S2" => ExtentRelationship::Subset,
                "S3" => ExtentRelationship::Equal,
                _ => ExtentRelationship::Superset,
            };
            assert_eq!(r.extent, expected, "extent of swap to {target}");
        }
        // Join condition rewritten onto the substitute.
        let s4 = outcome
            .rewritings
            .iter()
            .find(|r| r.view.from.iter().any(|f| f.relation == "S4"))
            .unwrap();
        assert_eq!(s4.view.conditions[0].clause.to_string(), "R1.K = S4.A");
    }

    #[test]
    fn ve_equal_only_admits_equivalent_swap() {
        let mkb = experiment4_mkb();
        let mut view = experiment4_view();
        view.ve = ViewExtent::Equal;
        let change = SchemaChange::DeleteRelation {
            relation: "R2".into(),
        };
        let outcome = synchronize(&view, &change, &mkb, &SyncOptions::default()).unwrap();
        assert_eq!(outcome.rewritings.len(), 1);
        assert!(outcome.rewritings[0]
            .view
            .from
            .iter()
            .any(|f| f.relation == "S3"));
    }

    #[test]
    fn ve_subset_admits_subset_swaps_only() {
        let mkb = experiment4_mkb();
        let mut view = experiment4_view();
        view.ve = ViewExtent::Subset;
        let change = SchemaChange::DeleteRelation {
            relation: "R2".into(),
        };
        let outcome = synchronize(&view, &change, &mkb, &SyncOptions::default()).unwrap();
        let targets: BTreeSet<String> = outcome
            .rewritings
            .iter()
            .flat_map(|r| r.view.from.iter().map(|f| f.relation.clone()))
            .filter(|n| n != "R1")
            .collect();
        assert_eq!(
            targets,
            ["S1", "S2", "S3"]
                .into_iter()
                .map(String::from)
                .collect::<BTreeSet<_>>()
        );
    }

    #[test]
    fn attr_replacement_via_join_constraint() {
        // R(A,B) with JC to S(A,C): delete R.A, replace through S joined on B
        // — construct: PC π_A(R) ≡ π_A(S), JC R.B = S.C.
        let mut m = Mkb::new();
        m.register_site(SiteId(1), "one").unwrap();
        m.register_site(SiteId(2), "two").unwrap();
        m.register_relation(RelationInfo::new(
            "R",
            SiteId(1),
            vec![attr("A"), attr("B")],
            100,
        ))
        .unwrap();
        m.register_relation(RelationInfo::new(
            "S",
            SiteId(2),
            vec![attr("A"), attr("C")],
            100,
        ))
        .unwrap();
        m.add_pc_constraint(PcConstraint::new(
            PcSide::projection("R", &["A"]),
            PcRelationship::Equivalent,
            PcSide::projection("S", &["A"]),
        ))
        .unwrap();
        m.add_join_constraint(eve_misd::JoinConstraint::new(
            "R",
            "S",
            vec![PrimitiveClause::eq(
                ColumnRef::parse("R.B"),
                ColumnRef::parse("S.C"),
            )],
        ))
        .unwrap();
        let view = parse_view(
            "CREATE VIEW V (VE = '~') AS SELECT R.A (AR = true), R.B FROM R WHERE R.A > 10",
        )
        .unwrap();
        // Note: the condition on R.A is strict (neither CD nor CR), so the
        // attr-replacement branch must fail…
        let change = SchemaChange::DeleteAttribute {
            relation: "R".into(),
            attribute: "A".into(),
        };
        let outcome = synchronize(&view, &change, &m, &SyncOptions::default()).unwrap();
        assert!(
            outcome.rewritings.is_empty(),
            "strict condition on deleted attribute blocks every repair"
        );
        // …but with CR = true the clause is rewritten onto S.A.
        let view = parse_view(
            "CREATE VIEW V (VE = '~') AS SELECT R.A (AR = true), R.B FROM R \
             WHERE R.A > 10 (CR = true)",
        )
        .unwrap();
        let outcome = synchronize(&view, &change, &m, &SyncOptions::default()).unwrap();
        assert_eq!(outcome.rewritings.len(), 1);
        let rw = &outcome.rewritings[0];
        assert_eq!(rw.extent, ExtentRelationship::Equal);
        assert_eq!(rw.view.from.len(), 2);
        let printed = rw.view.to_string();
        assert!(printed.contains("S.A"), "{printed}");
        assert!(printed.contains("(R.B = S.C)"), "{printed}");
        assert!(printed.contains("(S.A > 10)"), "{printed}");
        // Interface preserved: output columns unchanged.
        assert_eq!(rw.view.output_columns(), vec!["A", "B"]);
    }

    #[test]
    fn drop_relation_strategy() {
        let mut m = experiment1_mkb();
        m.register_relation(RelationInfo::new(
            "F",
            SiteId(1),
            vec![attr("A"), attr("E")],
            100,
        ))
        .unwrap();
        let view = parse_view(
            "CREATE VIEW V (VE = '~') AS \
             SELECT R.B, F.E (AD = true) \
             FROM R, F (RD = true) \
             WHERE R.A = F.A (CD = true)",
        )
        .unwrap();
        let change = SchemaChange::DeleteRelation {
            relation: "F".into(),
        };
        let outcome = synchronize(&view, &change, &m, &SyncOptions::default()).unwrap();
        assert_eq!(outcome.rewritings.len(), 1);
        let rw = &outcome.rewritings[0];
        assert_eq!(rw.extent, ExtentRelationship::Superset);
        assert_eq!(rw.view.from.len(), 1);
        assert_eq!(rw.view.output_columns(), vec!["B"]);
        assert!(rw.view.conditions.is_empty());
    }

    #[test]
    fn rename_attribute_preserves_interface() {
        let mkb = experiment1_mkb();
        let view = parse_view("CREATE VIEW V AS SELECT R.A FROM R WHERE R.A > 1").unwrap();
        let change = SchemaChange::RenameAttribute {
            relation: "R".into(),
            from: "A".into(),
            to: "Alpha".into(),
        };
        let outcome = synchronize(&view, &change, &mkb, &SyncOptions::default()).unwrap();
        assert_eq!(outcome.rewritings.len(), 1);
        let rw = &outcome.rewritings[0];
        assert_eq!(rw.extent, ExtentRelationship::Equal);
        assert_eq!(rw.view.select[0].attr, ColumnRef::parse("R.Alpha"));
        assert_eq!(rw.view.output_columns(), vec!["A"]);
        assert_eq!(rw.view.conditions[0].clause.to_string(), "R.Alpha > 1");
    }

    #[test]
    fn rename_relation_keeps_binding_stable() {
        let mkb = experiment1_mkb();
        let view = parse_view("CREATE VIEW V AS SELECT R.A FROM R WHERE R.A > 1").unwrap();
        let change = SchemaChange::RenameRelation {
            from: "R".into(),
            to: "R_new".into(),
        };
        let outcome = synchronize(&view, &change, &mkb, &SyncOptions::default()).unwrap();
        let rw = &outcome.rewritings[0];
        assert_eq!(rw.view.from[0].relation, "R_new");
        assert_eq!(rw.view.from[0].binding_name(), "R");
        // Columns unchanged — still valid.
        assert!(eve_esql::validate::validate(&rw.view).is_ok());
    }

    #[test]
    fn add_changes_do_not_affect_views() {
        let mkb = experiment1_mkb();
        let view = experiment1_view();
        let outcome = synchronize(
            &view,
            &SchemaChange::AddAttribute {
                relation: "R".into(),
                attribute: attr("Z"),
            },
            &mkb,
            &SyncOptions::default(),
        )
        .unwrap();
        assert!(!outcome.affected);
        assert!(outcome.survives());
    }

    #[test]
    fn unrelated_change_leaves_view_unaffected() {
        let mkb = experiment1_mkb();
        let view = experiment1_view();
        let outcome = synchronize(
            &view,
            &SchemaChange::DeleteRelation {
                relation: "T".into(),
            },
            &mkb,
            &SyncOptions::default(),
        )
        .unwrap();
        assert!(!outcome.affected);
    }

    #[test]
    fn delete_unused_attribute_leaves_view_unaffected() {
        let mkb = experiment1_mkb();
        let view = parse_view("CREATE VIEW V AS SELECT R.A FROM R").unwrap();
        let outcome = synchronize(
            &view,
            &SchemaChange::DeleteAttribute {
                relation: "R".into(),
                attribute: "B".into(),
            },
            &mkb,
            &SyncOptions::default(),
        )
        .unwrap();
        assert!(!outcome.affected);
    }

    #[test]
    fn dispensable_drop_spectrum_enumerates_inferior_rewritings() {
        let mkb = experiment4_mkb();
        let view = experiment4_view();
        // Make all of A, B, C dispensable so the spectrum exists.
        let mut view = view;
        for item in &mut view.select {
            if item.attr.qualifier.as_deref() == Some("R2") {
                item.evolution.dispensable = true;
            }
        }
        let change = SchemaChange::DeleteRelation {
            relation: "R2".into(),
        };
        let base = synchronize(&view, &change, &mkb, &SyncOptions::default()).unwrap();
        let wide = synchronize(
            &view,
            &change,
            &mkb,
            &SyncOptions {
                enumerate_dispensable_drops: true,
                ..SyncOptions::default()
            },
        )
        .unwrap();
        assert!(
            wide.rewritings.len() > base.rewritings.len(),
            "spectrum adds rewritings: {} vs {}",
            wide.rewritings.len(),
            base.rewritings.len()
        );
    }

    #[test]
    fn max_rewritings_cap_respected() {
        let mkb = experiment4_mkb();
        let view = experiment4_view();
        let change = SchemaChange::DeleteRelation {
            relation: "R2".into(),
        };
        let outcome = synchronize(
            &view,
            &change,
            &mkb,
            &SyncOptions {
                max_rewritings: 2,
                ..SyncOptions::default()
            },
        )
        .unwrap();
        assert_eq!(outcome.rewritings.len(), 2);
    }

    #[test]
    fn self_join_delete_relation_repairs_both_bindings() {
        // A view binding the deleted relation twice: both bindings must be
        // repaired (cross product of per-binding options).
        let mkb = experiment1_mkb();
        let view = parse_view(
            "CREATE VIEW V (VE = '~') AS \
             SELECT X.A AS XA (AR = true), Y.A AS YA (AR = true) \
             FROM R X (RR = true), R Y (RR = true) \
             WHERE X.A = Y.A",
        )
        .unwrap();
        let change = SchemaChange::DeleteRelation {
            relation: "R".into(),
        };
        let outcome = synchronize(&view, &change, &mkb, &SyncOptions::default()).unwrap();
        assert!(outcome.affected);
        assert!(!outcome.rewritings.is_empty());
        for rw in &outcome.rewritings {
            // No binding may still reference R.
            assert!(
                rw.view.from.iter().all(|f| f.relation != "R"),
                "unrepaired binding in {}",
                rw.view
            );
            // Both output columns survive.
            assert_eq!(rw.view.output_columns(), vec!["XA", "YA"]);
        }
        // Combinations include mixed sources (X from S, Y from T).
        let mixed = outcome.rewritings.iter().any(|rw| {
            let rels: BTreeSet<&str> = rw.view.from.iter().map(|f| f.relation.as_str()).collect();
            rels.len() == 2
        });
        assert!(mixed, "expected at least one mixed-source repair");
    }

    #[test]
    fn condition_only_attribute_deletion() {
        // The deleted attribute appears only in WHERE, not in SELECT.
        let mkb = experiment1_mkb();
        let view = parse_view(
            "CREATE VIEW V (VE = '~') AS SELECT R.B FROM R (RR = true) \
             WHERE R.A > 5 (CD = true)",
        )
        .unwrap();
        let change = SchemaChange::DeleteAttribute {
            relation: "R".into(),
            attribute: "A".into(),
        };
        let outcome = synchronize(&view, &change, &mkb, &SyncOptions::default()).unwrap();
        assert!(outcome.affected);
        // Dropping the dispensable condition is a legal repair.
        let dropped = outcome
            .rewritings
            .iter()
            .find(|r| r.view.conditions.is_empty() && r.view.from[0].relation == "R")
            .expect("condition-drop rewriting");
        assert_eq!(dropped.extent, ExtentRelationship::Superset);
    }

    #[test]
    fn pc_partner_chain_composition() {
        let mkb = experiment4_mkb();
        let partners = pc_partners(&mkb, "R2");
        let by_name: BTreeMap<&str, &PcPartner> =
            partners.iter().map(|p| (p.relation.as_str(), p)).collect();
        assert_eq!(by_name["S3"].relationship, PcRelationship::Equivalent);
        assert_eq!(by_name["S4"].relationship, PcRelationship::Subset);
        assert_eq!(by_name["S5"].relationship, PcRelationship::Subset);
        assert_eq!(by_name["S2"].relationship, PcRelationship::Superset);
        assert_eq!(by_name["S1"].relationship, PcRelationship::Superset);
        // Attribute maps compose positionally.
        assert_eq!(by_name["S5"].attr_map["A"], "A");
    }

    #[test]
    fn views_sharing_a_relation_share_partner_closures() {
        let mkb = experiment1_mkb();
        let change = SchemaChange::DeleteRelation {
            relation: "R".into(),
        };
        let mut cache = PartnerCache::new();
        for name in ["V1", "V2", "V3"] {
            let view = parse_view(&format!(
                "CREATE VIEW {name} (VE = '~') AS SELECT R.A (AR = true) FROM R (RR = true)"
            ))
            .unwrap();
            synchronize_with(&view, &change, &mkb, &SyncOptions::default(), &mut cache).unwrap();
        }
        assert_eq!(cache.misses(), 1, "one BFS for the shared relation");
        assert_eq!(cache.hits(), 2, "replayed for the other two views");
    }

    #[test]
    fn partner_cache_recomputes_after_the_mkb_moves() {
        let mut mkb = experiment1_mkb();
        let mut cache = PartnerCache::new();
        assert_eq!(cache.partners(&mkb, "R").len(), 2);
        assert_eq!(cache.partners(&mkb, "R").len(), 2);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        mkb.register_relation(RelationInfo::new("U", SiteId(1), vec![attr("A")], 400))
            .unwrap();
        mkb.add_pc_constraint(PcConstraint::new(
            PcSide::projection("R", &["A"]),
            PcRelationship::Equivalent,
            PcSide::projection("U", &["A"]),
        ))
        .unwrap();
        assert_eq!(cache.partners(&mkb, "R").len(), 3, "U joined the closure");
        assert_eq!((cache.hits(), cache.misses()), (1, 2));
    }
}
