//! The streaming rewrite-search driver: one enumerator, pluggable
//! exploration policies.
//!
//! The pre-refactor pipeline materialized the *entire* cross product of
//! per-binding repairs ([`crate::legacy`]) and left ranking to the QC-Model
//! afterwards, while the §8 heuristic search was a separate, partially
//! duplicated code path. This module folds both into a single driver over
//! the per-binding candidate tree:
//!
//! * a [`SearchNode`] is a *partial rewriting* — the repairs applied to a
//!   prefix of the affected bindings plus the bindings still pending,
//! * an [`ExplorationPolicy`] decides which nodes are expanded and in what
//!   order:
//!   * [`Exhaustive`] reproduces the pre-refactor output byte for byte
//!     (cross product, breadth cap, `finish` filtering in discovery order)
//!     while building only the children it keeps, and is what the engine
//!     serves with,
//!   * [`BestFirst`] is branch-and-bound: nodes are popped in ascending
//!     [`SearchGuide`] score; with *admissible* lower bounds (no completion
//!     of a node scores below the node's bound) the first emission is the
//!     global badness minimum — the QC-best rewriting is found without
//!     materializing the candidate tail,
//!   * [`Beam`] keeps at most `width` repaired candidates per binding level,
//!     generated in guide partner order, realizing the §7.6 heuristic search
//!     as a policy instead of a parallel implementation,
//! * rewritings are *streamed* to an emission callback as soon as they pass
//!   the legality filter, so any-time consumers stop the search early.
//!
//! [`Exhaustive`]: ExplorationPolicy::Exhaustive
//! [`BestFirst`]: ExplorationPolicy::BestFirst
//! [`Beam`]: ExplorationPolicy::Beam

use std::borrow::Cow;
use std::collections::{BTreeSet, BinaryHeap};
use std::sync::{Arc, OnceLock};

use eve_esql::ViewDef;
use eve_misd::{Mkb, SchemaChange};
use eve_trace::Counter;

use crate::extent::ExtentRelationship;
use crate::rewriting::{LegalRewriting, Provenance, RewriteAction};
use crate::synchronizer::{
    build_attr_replacement, build_drop_components, build_drop_relation, build_swap,
    rename_attribute, rename_relation, structurally_sound, uses_attr, Candidate, PartnerCache,
    PcPartner, SyncError, SyncOptions, SyncOutcome,
};

/// A partial rewriting: the repairs applied so far to a prefix of the
/// affected bindings, plus the bindings still pending.
#[derive(Debug, Clone)]
pub struct SearchNode {
    /// The partially repaired view definition.
    pub view: ViewDef,
    /// Repair actions applied so far, in application order.
    pub actions: Vec<RewriteAction>,
    /// Extent relationship composed over the applied repairs.
    pub extent: ExtentRelationship,
    /// Affected bindings not yet repaired (suffix of the binding list).
    pub pending: Vec<String>,
    /// Monotone discovery counter; best-first ties pop earlier nodes first.
    pub discovery: u64,
}

impl SearchNode {
    /// Whether every affected binding has been repaired.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.pending.is_empty()
    }
}

/// Policy callbacks steering the non-exhaustive searches.
pub trait SearchGuide {
    /// Badness of a node — lower is better. For a node with pending repairs
    /// this must be an **admissible lower bound** (no completion of the node
    /// may score below it) for [`ExplorationPolicy::BestFirst`] to emit in
    /// exact badness order; for a complete node it must be the exact
    /// badness. `eve-qc` provides the QC-Model instance (`QcGuide`).
    fn score(&self, original: &ViewDef, node: &SearchNode, mkb: &Mkb) -> f64;

    /// Whether this guide reorders PC partners ([`order_partners`]). The
    /// driver skips the per-expansion partner copy for guides that keep the
    /// default order (e.g. pure bound providers like `QcGuide`).
    ///
    /// [`order_partners`]: SearchGuide::order_partners
    fn orders_partners(&self) -> bool {
        false
    }

    /// Optional preference ordering of the PC partners consulted when a
    /// binding is expanded (consulted only when [`orders_partners`] returns
    /// `true`). Candidates are *built* in this order, so a beam stops
    /// before the tail of the candidate space is ever materialized. The
    /// default keeps the BFS discovery order of the partner closure.
    ///
    /// [`orders_partners`]: SearchGuide::orders_partners
    fn order_partners(
        &self,
        _view: &ViewDef,
        _binding: &str,
        _mkb: &Mkb,
        _partners: &mut [PcPartner],
    ) {
    }
}

/// How the driver explores the per-binding candidate tree.
pub enum ExplorationPolicy<'g> {
    /// Expand the breadth-capped cross product level by level. Once a level
    /// holds 4 × `max_rewritings` nodes, each further node builds only the
    /// one child it keeps. Output is byte-identical to the pre-refactor
    /// synchronizer ([`crate::legacy::synchronize_legacy`]), pinned by the
    /// differential property suite.
    Exhaustive,
    /// Branch-and-bound best-first search: nodes are expanded in ascending
    /// guide score. With admissible bounds the first emission is the global
    /// badness minimum — zero strategy regret against QC-best selection
    /// over the exhaustive set.
    BestFirst {
        /// The bound/score provider (e.g. `eve_qc::search::QcGuide`).
        guide: &'g dyn SearchGuide,
    },
    /// Level-synchronous beam: at most `width` repaired candidates are
    /// generated per binding level, in guide partner order — the §7.6
    /// heuristic search ([`crate::heuristic`]).
    Beam {
        /// Beam width; also caps the emitted rewritings.
        width: usize,
        /// Partner-ordering provider (e.g. the §7.6 heuristics).
        guide: &'g dyn SearchGuide,
    },
}

/// Observability counters of one search run (exposed through the
/// `search_space` experiment and the engine statistics).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Candidate views built — the cost metric the `search_space`
    /// experiment compares across policies.
    pub materialized: u64,
    /// Nodes whose children were generated.
    pub expanded: u64,
    /// Rewritings emitted to the consumer.
    pub emitted: u64,
    /// Nodes abandoned without expansion: beam truncation, or frontier
    /// remaining when the emission target was reached.
    pub pruned: u64,
}

impl SearchStats {
    /// Adds this run's counters to the global registry's
    /// `search.<policy>.{materialized,expanded,emitted,pruned}`, so the
    /// `metrics` surface accumulates per-policy search-space totals. Each
    /// policy resolves its four handles once per process.
    fn publish(self, policy: &ExplorationPolicy<'_>) {
        static HANDLES: [OnceLock<[Arc<Counter>; 4]>; 3] = [const { OnceLock::new() }; 3];
        let (slot, name) = match policy {
            ExplorationPolicy::Exhaustive => (0, "exhaustive"),
            ExplorationPolicy::BestFirst { .. } => (1, "best_first"),
            ExplorationPolicy::Beam { .. } => (2, "beam"),
        };
        let handles = HANDLES[slot].get_or_init(|| {
            ["materialized", "expanded", "emitted", "pruned"]
                .map(|field| eve_trace::global().counter(&format!("search.{name}.{field}")))
        });
        let counts = [self.materialized, self.expanded, self.emitted, self.pruned];
        for (handle, n) in handles.iter().zip(counts) {
            handle.add(n);
        }
    }
}

/// The change restricted to one binding of the damaged relation.
#[derive(Debug, Clone)]
enum BindingChange {
    /// `delete-attribute`: the named attribute disappeared.
    Attribute(String),
    /// `delete-relation`: the whole relation disappeared.
    Relation,
}

/// Generates the repair candidates of one binding in the canonical order
/// (attribute replacements, then swaps, then drops — the pre-refactor
/// discovery order), streaming each to `f` until it returns `false`.
fn for_each_candidate(
    view: &ViewDef,
    binding: &str,
    change: &BindingChange,
    partners: &[PcPartner],
    mkb: &Mkb,
    f: &mut dyn FnMut(Candidate) -> bool,
) {
    let Some(from_item) = view.from_item(binding) else {
        return;
    };
    let replaceable = from_item.evolution.replaceable;
    let dispensable = from_item.evolution.dispensable;
    match change {
        BindingChange::Attribute(attr) => {
            // (a) attribute replacement keeping the relation.
            for partner in partners.iter().filter(|p| p.attr_map.contains_key(attr)) {
                if let Some(c) = build_attr_replacement(view, binding, attr, partner, mkb) {
                    if !f(c) {
                        return;
                    }
                }
            }
            // (b) whole-relation swap (Experiment 1's V1/V2 route).
            if replaceable {
                for partner in partners {
                    if let Some(c) = build_swap(view, binding, partner) {
                        if !f(c) {
                            return;
                        }
                    }
                }
            }
            // (c) drop every component that used the attribute.
            if let Some(c) = build_drop_components(view, binding, attr) {
                let _ = f(c);
            }
        }
        BindingChange::Relation => {
            // (a) swap for each PC partner.
            if replaceable {
                for partner in partners {
                    if let Some(c) = build_swap(view, binding, partner) {
                        if !f(c) {
                            return;
                        }
                    }
                }
            }
            // (b) drop the relation and everything derived from it.
            if dispensable {
                if let Some(c) = build_drop_relation(view, binding) {
                    let _ = f(c);
                }
            }
        }
    }
}

fn make_child(
    node: &SearchNode,
    candidate: Candidate,
    pending: &[String],
    discovery: &mut u64,
) -> SearchNode {
    let (view, new_actions, next_ext) = candidate;
    let mut actions = node.actions.clone();
    actions.extend(new_actions);
    *discovery += 1;
    SearchNode {
        view,
        actions,
        extent: node.extent.compose(next_ext),
        pending: pending.to_vec(),
        discovery: *discovery,
    }
}

fn pass_through(node: &SearchNode, pending: &[String], discovery: &mut u64) -> SearchNode {
    *discovery += 1;
    SearchNode {
        pending: pending.to_vec(),
        discovery: *discovery,
        ..node.clone()
    }
}

/// The one-level dispensable-drop spectrum of a complete node
/// ([`SyncOptions::enumerate_dispensable_drops`], the CVS-style widened
/// search): each dispensable SELECT item dropped once, as further complete
/// nodes. The exhaustive/beam paths derive the same variants inside
/// [`finish_stream`]; best-first pushes them into its frontier so they are
/// emitted in exact score order like every other candidate.
fn spectrum_variants(node: &SearchNode, discovery: &mut u64) -> Vec<SearchNode> {
    let mut out = Vec::new();
    for (idx, item) in node.view.select.iter().enumerate() {
        if !item.evolution.dispensable || node.view.select.len() <= 1 {
            continue;
        }
        let mut v = node.view.clone();
        let dropped = v.select.remove(idx);
        if let Some(cols) = &mut v.column_names {
            cols.remove(idx);
        }
        let mut actions = node.actions.clone();
        actions.push(RewriteAction::DroppedAttribute {
            binding: dropped.attr.qualifier.clone().unwrap_or_default(),
            attribute: dropped.attr.name.clone(),
        });
        *discovery += 1;
        out.push(SearchNode {
            view: v,
            actions,
            extent: node.extent,
            pending: Vec::new(),
            discovery: *discovery,
        });
    }
    out
}

/// Final legality filter shared by the exhaustive and beam paths:
/// structural sanity, `VE` compliance, dedup, emission cap, optional
/// dispensable-drop spectrum — the pre-refactor `finish`, emitting each
/// accepted rewriting as soon as it is accepted.
fn finish_stream(
    original: &ViewDef,
    nodes: &[SearchNode],
    options: &SyncOptions,
    cap: usize,
    stats: &mut SearchStats,
    emit: &mut dyn FnMut(LegalRewriting) -> bool,
) {
    let mut seen: BTreeSet<String> = BTreeSet::new();
    let mut emitted = 0usize;
    let mut push = |view: ViewDef,
                    actions: Vec<RewriteAction>,
                    extent: ExtentRelationship,
                    seen: &mut BTreeSet<String>,
                    stats: &mut SearchStats|
     -> bool {
        if emitted >= cap {
            return false;
        }
        if !structurally_sound(&view) || !extent.satisfies(original.ve) {
            return true;
        }
        let key = view.to_string();
        if seen.insert(key) {
            emitted += 1;
            stats.emitted += 1;
            return emit(LegalRewriting {
                view,
                provenance: Provenance { actions },
                extent,
            });
        }
        true
    };

    for node in nodes {
        if !push(
            node.view.clone(),
            node.actions.clone(),
            node.extent,
            &mut seen,
            stats,
        ) {
            return;
        }
    }

    if options.enumerate_dispensable_drops {
        // One extra level: drop each dispensable attribute of each
        // candidate — the same derivation best-first feeds its frontier.
        let mut discovery = 0u64;
        for node in nodes {
            for variant in spectrum_variants(node, &mut discovery) {
                if !push(
                    variant.view,
                    variant.actions,
                    variant.extent,
                    &mut seen,
                    stats,
                ) {
                    return;
                }
            }
        }
    }
}

// ----------------------------------------------------------------------
// Policy drivers
// ----------------------------------------------------------------------

/// The invariant inputs of one search run.
struct SearchCtx<'a> {
    /// The validated original view.
    original: &'a ViewDef,
    /// The affected bindings, in FROM order.
    bindings: &'a [String],
    /// The change restricted to one binding.
    change: &'a BindingChange,
    /// PC partners of the changed relation (shared closure).
    partners: &'a [PcPartner],
    mkb: &'a Mkb,
    options: &'a SyncOptions,
}

impl SearchCtx<'_> {
    fn root(&self) -> SearchNode {
        SearchNode {
            view: self.original.clone(),
            actions: Vec::new(),
            extent: ExtentRelationship::Equal,
            pending: self.bindings.to_vec(),
            discovery: 0,
        }
    }

    /// The PC partners in the order `guide` wants `binding` of `view`
    /// repaired in: a reordered copy when the guide ranks partners, the
    /// shared closure otherwise.
    fn partners_for(
        &self,
        guide: &dyn SearchGuide,
        view: &ViewDef,
        binding: &str,
    ) -> Cow<'_, [PcPartner]> {
        if !guide.orders_partners() {
            return Cow::Borrowed(self.partners);
        }
        let mut reordered = self.partners.to_vec();
        guide.order_partners(view, binding, self.mkb, &mut reordered);
        Cow::Owned(reordered)
    }
}

fn run_exhaustive(
    ctx: &SearchCtx<'_>,
    emit: &mut dyn FnMut(LegalRewriting) -> bool,
) -> SearchStats {
    let mut stats = SearchStats::default();
    let mut discovery = 0u64;
    // The historical breadth cap, checked after each push: once a level
    // holds `cap` nodes, every later node keeps only its first child, so
    // the callback stops the generator before it builds the rest.
    let cap = ctx.options.max_rewritings.saturating_mul(4);
    let mut level = vec![ctx.root()];
    for (i, binding) in ctx.bindings.iter().enumerate() {
        let rest = &ctx.bindings[i + 1..];
        let mut next: Vec<SearchNode> = Vec::new();
        for node in &level {
            // A previous repair may have removed the binding entirely.
            if node.view.from_item(binding).is_none() {
                next.push(pass_through(node, rest, &mut discovery));
                continue;
            }
            stats.expanded += 1;
            for_each_candidate(
                &node.view,
                binding,
                ctx.change,
                ctx.partners,
                ctx.mkb,
                &mut |c| {
                    stats.materialized += 1;
                    next.push(make_child(node, c, rest, &mut discovery));
                    next.len() < cap
                },
            );
        }
        level = next;
    }
    finish_stream(
        ctx.original,
        &level,
        ctx.options,
        ctx.options.max_rewritings,
        &mut stats,
        emit,
    );
    stats
}

/// Max-heap entry ordered so the *lowest* score (then earliest discovery)
/// pops first.
struct HeapEntry {
    score: f64,
    node: SearchNode,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .score
            .total_cmp(&self.score)
            .then_with(|| other.node.discovery.cmp(&self.node.discovery))
    }
}

fn run_best_first(
    ctx: &SearchCtx<'_>,
    guide: &dyn SearchGuide,
    emit: &mut dyn FnMut(LegalRewriting) -> bool,
) -> SearchStats {
    let mut stats = SearchStats::default();
    let mut discovery = 0u64;
    let mut heap: BinaryHeap<HeapEntry> = BinaryHeap::new();
    let root = ctx.root();
    let root_score = guide.score(ctx.original, &root, ctx.mkb);
    heap.push(HeapEntry {
        score: root_score,
        node: root,
    });
    let mut seen: BTreeSet<String> = BTreeSet::new();
    let mut emitted = 0usize;

    while let Some(entry) = heap.pop() {
        let node = entry.node;
        if node.is_complete() {
            // Structural/VE legality was checked at creation; the pop order
            // certifies this is the badness minimum of everything open.
            if seen.insert(node.view.to_string()) {
                emitted += 1;
                stats.emitted += 1;
                let keep_going = emit(LegalRewriting {
                    view: node.view,
                    provenance: Provenance {
                        actions: node.actions,
                    },
                    extent: node.extent,
                });
                if emitted >= ctx.options.max_rewritings || !keep_going {
                    break;
                }
            }
            continue;
        }
        let binding = node.pending[0].clone();
        let rest: Vec<String> = node.pending[1..].to_vec();
        if node.view.from_item(&binding).is_none() {
            let child = pass_through(&node, &rest, &mut discovery);
            // A pass-through changes nothing the score depends on.
            heap.push(HeapEntry {
                score: entry.score,
                node: child,
            });
            continue;
        }
        stats.expanded += 1;
        let partners = ctx.partners_for(guide, &node.view, &binding);
        for_each_candidate(
            &node.view,
            &binding,
            ctx.change,
            &partners,
            ctx.mkb,
            &mut |c| {
                stats.materialized += 1;
                let child = make_child(&node, c, &rest, &mut discovery);
                // The CVS-style spectrum (one extra dispensable-drop level)
                // enters the frontier alongside its base candidate, so
                // emissions stay in exact score order — mirroring the
                // variants `finish_stream` derives for the batch paths.
                let spectrum = if child.is_complete() && ctx.options.enumerate_dispensable_drops {
                    spectrum_variants(&child, &mut discovery)
                } else {
                    Vec::new()
                };
                for child in std::iter::once(child).chain(spectrum) {
                    // Illegal completions can never be emitted — drop them
                    // before they cost a bound evaluation.
                    if child.is_complete()
                        && (!structurally_sound(&child.view)
                            || !child.extent.satisfies(ctx.original.ve))
                    {
                        continue;
                    }
                    let score = guide.score(ctx.original, &child, ctx.mkb);
                    heap.push(HeapEntry { score, node: child });
                }
                true
            },
        );
    }
    stats.pruned += heap.len() as u64;
    stats
}

fn run_beam(
    ctx: &SearchCtx<'_>,
    width: usize,
    guide: &dyn SearchGuide,
    emit: &mut dyn FnMut(LegalRewriting) -> bool,
) -> SearchStats {
    let mut stats = SearchStats::default();
    let mut discovery = 0u64;
    let width = width.max(1);
    let mut level = vec![ctx.root()];
    for (i, binding) in ctx.bindings.iter().enumerate() {
        let rest = &ctx.bindings[i + 1..];
        let mut next: Vec<SearchNode> = Vec::new();
        let mut generated = 0usize;
        for node in &level {
            if node.view.from_item(binding).is_none() {
                next.push(pass_through(node, rest, &mut discovery));
                continue;
            }
            if generated >= width {
                stats.pruned += 1;
                continue;
            }
            stats.expanded += 1;
            let partners = ctx.partners_for(guide, &node.view, binding);
            match ctx.change {
                BindingChange::Relation => {
                    // Swap candidates inherit the partner preference order,
                    // so generation stops as soon as the beam is full — the
                    // candidate tail is never built.
                    for_each_candidate(
                        &node.view,
                        binding,
                        ctx.change,
                        &partners,
                        ctx.mkb,
                        &mut |c| {
                            stats.materialized += 1;
                            generated += 1;
                            next.push(make_child(node, c, rest, &mut discovery));
                            generated < width
                        },
                    );
                }
                BindingChange::Attribute(_) => {
                    // Attribute repairs mix kinds (replacements, swaps,
                    // drops) whose relative preference the partner order
                    // alone cannot express; they are cheap to build, so
                    // rank the node's full candidate set by guide score
                    // before truncating to the remaining budget (the
                    // historical §7.6 behaviour).
                    let mut children: Vec<SearchNode> = Vec::new();
                    for_each_candidate(
                        &node.view,
                        binding,
                        ctx.change,
                        &partners,
                        ctx.mkb,
                        &mut |c| {
                            stats.materialized += 1;
                            children.push(make_child(node, c, rest, &mut discovery));
                            true
                        },
                    );
                    children.sort_by(|a, b| {
                        let sa = guide.score(ctx.original, a, ctx.mkb);
                        let sb = guide.score(ctx.original, b, ctx.mkb);
                        sa.partial_cmp(&sb).unwrap_or(std::cmp::Ordering::Equal)
                    });
                    let budget = width - generated;
                    let kept = children.len().min(budget);
                    stats.pruned += (children.len() - kept) as u64;
                    generated += kept;
                    next.extend(children.into_iter().take(kept));
                }
            }
        }
        level = next;
    }
    finish_stream(
        ctx.original,
        &level,
        ctx.options,
        width.min(ctx.options.max_rewritings),
        &mut stats,
        emit,
    );
    stats
}

// ----------------------------------------------------------------------
// Entry points
// ----------------------------------------------------------------------

/// Synchronizes a view against a capability change, streaming each legal
/// rewriting to `emit` as the policy discovers it. Returns whether the view
/// was affected at all, plus the search counters. `emit` returns `false`
/// to stop the search early (any-time consumption).
///
/// # Errors
///
/// [`SyncError::Validation`] when the view is structurally invalid.
pub fn synchronize_streaming(
    view: &ViewDef,
    change: &SchemaChange,
    mkb: &Mkb,
    options: &SyncOptions,
    policy: &ExplorationPolicy<'_>,
    partners: &mut PartnerCache,
    emit: &mut dyn FnMut(LegalRewriting) -> bool,
) -> Result<(bool, SearchStats), SyncError> {
    let view = eve_esql::validate::validate(view).map_err(|e| SyncError::Validation(e.message))?;
    let mut stats = SearchStats::default();

    let (binding_change, bindings) = match change {
        SchemaChange::AddAttribute { .. } | SchemaChange::AddRelation { .. } => {
            return Ok((false, stats));
        }
        SchemaChange::RenameAttribute { relation, from, to } => {
            let outcome = rename_attribute(&view, relation, from, to);
            for rw in outcome.rewritings {
                stats.emitted += 1;
                if !emit(rw) {
                    break;
                }
            }
            return Ok((outcome.affected, stats));
        }
        SchemaChange::RenameRelation { from, to } => {
            let outcome = rename_relation(&view, from, to);
            for rw in outcome.rewritings {
                stats.emitted += 1;
                if !emit(rw) {
                    break;
                }
            }
            return Ok((outcome.affected, stats));
        }
        SchemaChange::DeleteAttribute {
            relation,
            attribute,
        } => {
            let bindings: Vec<String> = view
                .from
                .iter()
                .filter(|f| &f.relation == relation)
                .map(|f| f.binding_name().to_owned())
                .filter(|b| uses_attr(&view, b, attribute))
                .collect();
            (BindingChange::Attribute(attribute.clone()), bindings)
        }
        SchemaChange::DeleteRelation { relation } => {
            let bindings: Vec<String> = view
                .from
                .iter()
                .filter(|f| &f.relation == relation)
                .map(|f| f.binding_name().to_owned())
                .collect();
            (BindingChange::Relation, bindings)
        }
    };

    if bindings.is_empty() {
        return Ok((false, stats));
    }
    // Every affected binding references the changed relation, so one
    // partner closure (resolved through the shared cache) serves the whole
    // search.
    let relation = view
        .from_item(&bindings[0])
        .map(|f| f.relation.clone())
        .unwrap_or_default();
    let partner_list = partners.partners(mkb, &relation);

    let ctx = SearchCtx {
        original: &view,
        bindings: &bindings,
        change: &binding_change,
        partners: &partner_list,
        mkb,
        options,
    };
    let _span = eve_trace::span("search.run");
    let stats = match policy {
        ExplorationPolicy::Exhaustive => run_exhaustive(&ctx, emit),
        ExplorationPolicy::BestFirst { guide } => run_best_first(&ctx, *guide, emit),
        ExplorationPolicy::Beam { width, guide } => run_beam(&ctx, *width, *guide, emit),
    };
    stats.publish(policy);
    Ok((true, stats))
}

/// [`synchronize_streaming`] collecting the emissions into a
/// [`SyncOutcome`], with the search counters alongside.
///
/// # Errors
///
/// [`SyncError::Validation`] when the view is structurally invalid.
pub fn synchronize_with_policy(
    view: &ViewDef,
    change: &SchemaChange,
    mkb: &Mkb,
    options: &SyncOptions,
    policy: &ExplorationPolicy<'_>,
    partners: &mut PartnerCache,
) -> Result<(SyncOutcome, SearchStats), SyncError> {
    let mut rewritings = Vec::new();
    let (affected, stats) = synchronize_streaming(
        view,
        change,
        mkb,
        options,
        policy,
        partners,
        &mut |rw: LegalRewriting| {
            rewritings.push(rw);
            true
        },
    )?;
    Ok((
        SyncOutcome {
            affected,
            rewritings,
        },
        stats,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use eve_misd::{AttributeInfo, PcConstraint, PcRelationship, PcSide, RelationInfo, SiteId};
    use eve_relational::DataType;

    fn attr(name: &str) -> AttributeInfo {
        AttributeInfo::new(name, DataType::Int)
    }

    /// R(A,B) with `n` equivalent replicas covering both attributes.
    fn replicated_space(n: usize) -> Mkb {
        let mut m = Mkb::new();
        m.register_site(SiteId(1), "one").unwrap();
        m.register_relation(RelationInfo::new(
            "R",
            SiteId(1),
            vec![attr("A"), attr("B")],
            400,
        ))
        .unwrap();
        for i in 0..n {
            let site = SiteId(u32::try_from(i).unwrap() + 2);
            m.register_site(site, format!("rep{i}")).unwrap();
            let name = format!("Rep{i}");
            m.register_relation(RelationInfo::new(
                &name,
                site,
                vec![attr("A"), attr("B")],
                400 + 100 * i as u64,
            ))
            .unwrap();
            m.add_pc_constraint(PcConstraint::new(
                PcSide::projection("R", &["A", "B"]),
                PcRelationship::Equivalent,
                PcSide::projection(&name, &["A", "B"]),
            ))
            .unwrap();
        }
        m
    }

    fn self_join_view(k: usize) -> ViewDef {
        let select: Vec<String> = (0..k)
            .map(|i| format!("X{i}.A AS A{i} (AR = true)"))
            .collect();
        let from: Vec<String> = (0..k).map(|i| format!("R X{i} (RR = true)")).collect();
        let conds: Vec<String> = (1..k).map(|i| format!("X{}.A = X{i}.A", i - 1)).collect();
        let where_clause = if conds.is_empty() {
            String::new()
        } else {
            format!(" WHERE {}", conds.join(" AND "))
        };
        eve_esql::parse_view(&format!(
            "CREATE VIEW V (VE = '~') AS SELECT {} FROM {}{}",
            select.join(", "),
            from.join(", "),
            where_clause
        ))
        .unwrap()
    }

    /// A guide preferring small replica indices (deterministic, admissible
    /// for itself: the score only counts repairs already applied).
    struct IndexGuide;
    impl SearchGuide for IndexGuide {
        fn score(&self, _original: &ViewDef, node: &SearchNode, _mkb: &Mkb) -> f64 {
            node.actions
                .iter()
                .map(|a| match a {
                    RewriteAction::SwappedRelation { new_relation, .. } => new_relation
                        .strip_prefix("Rep")
                        .and_then(|s| s.parse::<f64>().ok())
                        .unwrap_or(100.0),
                    _ => 0.0,
                })
                .sum()
        }
    }

    #[test]
    fn exhaustive_streams_the_full_cross_product() {
        let mkb = replicated_space(3);
        let view = self_join_view(2);
        let change = SchemaChange::DeleteRelation {
            relation: "R".into(),
        };
        let (outcome, stats) = synchronize_with_policy(
            &view,
            &change,
            &mkb,
            &SyncOptions::default(),
            &ExplorationPolicy::Exhaustive,
            &mut PartnerCache::new(),
        )
        .unwrap();
        assert!(outcome.affected);
        // 3 choices per binding; the second level merges same-relation hosts,
        // so every pair is produced (some dedup to fewer printed forms).
        assert!(!outcome.rewritings.is_empty());
        assert_eq!(stats.emitted as usize, outcome.rewritings.len());
        assert!(stats.materialized >= 3 + 9 - 3, "two-level cross product");
    }

    #[test]
    fn exhaustive_builds_only_the_children_it_keeps_once_the_cap_is_hit() {
        // max_rewritings 1 caps every level at 4 nodes. Three replicas and
        // three bindings: level 1 keeps the root's 3 children; level 2 the
        // first node's 3, then one child of each of the other two (5);
        // level 3 the first node's 3, then one child of each of the other
        // four (7). Every child built is a node kept: 3 + 5 + 7 = 15.
        let mkb = replicated_space(3);
        let view = self_join_view(3);
        let change = SchemaChange::DeleteRelation {
            relation: "R".into(),
        };
        let options = SyncOptions {
            max_rewritings: 1,
            ..SyncOptions::default()
        };
        let (outcome, stats) = synchronize_with_policy(
            &view,
            &change,
            &mkb,
            &options,
            &ExplorationPolicy::Exhaustive,
            &mut PartnerCache::new(),
        )
        .unwrap();
        assert_eq!(stats.materialized, 3 + 5 + 7);
        assert_eq!(stats.expanded, 1 + 3 + 5);
        let legacy = crate::legacy::synchronize_legacy(&view, &change, &mkb, &options).unwrap();
        assert_eq!(outcome.affected, legacy.affected);
        assert_eq!(outcome.rewritings.len(), legacy.rewritings.len());
        for (s, l) in outcome.rewritings.iter().zip(&legacy.rewritings) {
            assert_eq!(s.view.to_string(), l.view.to_string());
            assert_eq!(s.provenance.actions, l.provenance.actions);
            assert_eq!(s.extent, l.extent);
        }
    }

    #[test]
    fn best_first_emits_guide_minimum_first_and_prunes() {
        let mkb = replicated_space(4);
        let view = self_join_view(3);
        let change = SchemaChange::DeleteRelation {
            relation: "R".into(),
        };
        let (exhaustive, ex_stats) = synchronize_with_policy(
            &view,
            &change,
            &mkb,
            &SyncOptions::default(),
            &ExplorationPolicy::Exhaustive,
            &mut PartnerCache::new(),
        )
        .unwrap();
        let guide = IndexGuide;
        let mut first: Option<LegalRewriting> = None;
        let (_, bf_stats) = synchronize_streaming(
            &view,
            &change,
            &mkb,
            &SyncOptions::default(),
            &ExplorationPolicy::BestFirst { guide: &guide },
            &mut PartnerCache::new(),
            &mut |rw| {
                first = Some(rw);
                false // any-time: stop after the first emission
            },
        )
        .unwrap();
        let first = first.expect("an emission");
        // The guide minimum swaps every binding onto Rep0.
        assert!(
            first.view.from.iter().all(|f| f.relation == "Rep0"),
            "{}",
            first.view
        );
        // The best-first arm built strictly fewer candidates than the
        // exhaustive cross product and left frontier nodes unexpanded.
        assert!(bf_stats.materialized < ex_stats.materialized);
        assert!(bf_stats.pruned > 0);
        // The emission is one of the exhaustive results.
        assert!(exhaustive
            .rewritings
            .iter()
            .any(|r| r.view.to_string() == first.view.to_string()));
    }

    #[test]
    fn beam_respects_width_per_level() {
        let mkb = replicated_space(4);
        let view = self_join_view(2);
        let change = SchemaChange::DeleteRelation {
            relation: "R".into(),
        };
        let guide = IndexGuide;
        let (outcome, stats) = synchronize_with_policy(
            &view,
            &change,
            &mkb,
            &SyncOptions::default(),
            &ExplorationPolicy::Beam {
                width: 2,
                guide: &guide,
            },
            &mut PartnerCache::new(),
        )
        .unwrap();
        assert!(outcome.rewritings.len() <= 2);
        assert!(stats.materialized <= 4, "2 per level over 2 levels");
    }

    #[test]
    fn best_first_covers_the_dispensable_drop_spectrum() {
        // `enumerate_dispensable_drops` must reach the same rewriting set
        // through the frontier as the batch paths derive in their final
        // filter — only the emission order may differ.
        let mkb = replicated_space(2);
        let view = eve_esql::parse_view(
            "CREATE VIEW V (VE = '~') AS \
             SELECT X0.A AS A0 (AD = true, AR = true), X0.B AS B0 (AD = true, AR = true) \
             FROM R X0 (RR = true)",
        )
        .unwrap();
        let change = SchemaChange::DeleteRelation {
            relation: "R".into(),
        };
        let options = SyncOptions {
            enumerate_dispensable_drops: true,
            ..SyncOptions::default()
        };
        let (exhaustive, _) = synchronize_with_policy(
            &view,
            &change,
            &mkb,
            &options,
            &ExplorationPolicy::Exhaustive,
            &mut PartnerCache::new(),
        )
        .unwrap();
        let guide = IndexGuide;
        let (best_first, _) = synchronize_with_policy(
            &view,
            &change,
            &mkb,
            &options,
            &ExplorationPolicy::BestFirst { guide: &guide },
            &mut PartnerCache::new(),
        )
        .unwrap();
        let as_set = |o: &SyncOutcome| -> BTreeSet<String> {
            o.rewritings.iter().map(|r| r.view.to_string()).collect()
        };
        assert!(
            exhaustive.rewritings.len() > 2,
            "spectrum adds rewritings beyond the two swaps"
        );
        assert_eq!(as_set(&exhaustive), as_set(&best_first));
    }

    #[test]
    fn unaffected_changes_report_no_search() {
        let mkb = replicated_space(1);
        let view = self_join_view(1);
        let (outcome, stats) = synchronize_with_policy(
            &view,
            &SchemaChange::DeleteRelation {
                relation: "Rep0".into(),
            },
            &mkb,
            &SyncOptions::default(),
            &ExplorationPolicy::Exhaustive,
            &mut PartnerCache::new(),
        )
        .unwrap();
        assert!(!outcome.affected);
        assert_eq!(stats, SearchStats::default());
    }
}
