//! The Meta Knowledge Base (paper §3.2, Fig. 1).
//!
//! The MKB is EVE's registry of everything it knows about the information
//! space: which sites exist, which relations they export (with types, sizes
//! and statistics), which join and PC constraints hold between them, and the
//! join selectivities the cost model assumes. It is "an information pool that
//! is critical in finding appropriate replacements for view components when
//! view definitions become undefined".

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::{Arc, OnceLock};

use eve_trace::Counter;

use crate::constraints::{JoinConstraint, PcConstraint, PcRelationship};
use crate::error::{Error, Result};
use crate::evolver::SchemaChange;
use crate::overlap::{estimate_overlap, OverlapEstimate, OverlapInputs};
use crate::source::{AttributeInfo, RelationInfo, SiteId};

/// The inverted index over the PC-constraint store: relation → the PC
/// constraints involving it, oriented so that relation is on the left, in
/// store order (each constraint as written, then flipped). The first lookup
/// builds it; after that every PC mutation re-derives only the keys it
/// touches (see [`Mkb::reindex`]), so the map always equals a full build
/// over the current store.
#[derive(Debug, Clone, Default)]
struct ConstraintIndex {
    pc_by_relation: BTreeMap<String, Vec<PcConstraint>>,
}

impl ConstraintIndex {
    /// The entries of every relation key `keep` admits, derived from the
    /// constraint store in store order.
    fn derive(pcs: &[PcConstraint], keep: impl Fn(&str) -> bool) -> ConstraintIndex {
        let mut idx = ConstraintIndex::default();
        for pc in pcs {
            if keep(&pc.left.relation) {
                idx.insert(pc.clone());
            }
            if pc.left.relation != pc.right.relation && keep(&pc.right.relation) {
                idx.insert(pc.flipped());
            }
        }
        idx
    }

    fn insert(&mut self, oriented: PcConstraint) {
        self.pc_by_relation
            .entry(oriented.left.relation.clone())
            .or_default()
            .push(oriented);
    }

    /// Replaces the entries of every key in `keys` with those of `fresh`
    /// (a [`derive`](ConstraintIndex::derive) restricted to `keys`); a key
    /// `fresh` has no entries for disappears.
    fn replace(&mut self, keys: &BTreeSet<String>, fresh: ConstraintIndex) {
        for key in keys {
            self.pc_by_relation.remove(key);
        }
        self.pc_by_relation.extend(fresh.pc_by_relation);
    }
}

/// The Meta Knowledge Base.
#[derive(Debug, Default)]
pub struct Mkb {
    sites: BTreeMap<u32, String>,
    relations: BTreeMap<String, RelationInfo>,
    join_constraints: Vec<JoinConstraint>,
    pc_constraints: Vec<PcConstraint>,
    join_selectivities: BTreeMap<(String, String), f64>,
    default_join_selectivity: f64,
    generation: u64,
    /// The inverted index over `pc_constraints`: built on the first lookup,
    /// then maintained in place by every PC mutation (see
    /// [`Mkb::reindex`]). `OnceLock` keeps reads shareable across threads
    /// without locking on the hot path.
    index: OnceLock<ConstraintIndex>,
    /// Registry-compatible counter handles ([`eve_trace::Counter`]): the
    /// engine registers them into its telemetry registry so one registry
    /// reset covers them alongside every other counter family.
    index_hits: Arc<Counter>,
    index_misses: Arc<Counter>,
    index_relations_built: Arc<Counter>,
    clones: Arc<Counter>,
}

impl Clone for Mkb {
    fn clone(&self) -> Mkb {
        self.clones.inc();
        Mkb {
            sites: self.sites.clone(),
            relations: self.relations.clone(),
            join_constraints: self.join_constraints.clone(),
            pc_constraints: self.pc_constraints.clone(),
            join_selectivities: self.join_selectivities.clone(),
            default_join_selectivity: self.default_join_selectivity,
            generation: self.generation,
            index: self.index.clone(),
            // Counter::clone detaches: the clone starts at the same value
            // but counts independently (differential-oracle engines must
            // not share accounting with the original).
            index_hits: Arc::new((*self.index_hits).clone()),
            index_misses: Arc::new((*self.index_misses).clone()),
            index_relations_built: Arc::new((*self.index_relations_built).clone()),
            clones: Arc::new((*self.clones).clone()),
        }
    }
}

/// One registry entry of an [`Mkb`] replaced for the lifetime of the guard
/// ([`Mkb::with_ranking_shadow`]); dropping the guard puts the displaced
/// entry back, or removes the shadow when it displaced none.
struct RankingShadow<'a> {
    mkb: &'a mut Mkb,
    name: String,
    displaced: Option<RelationInfo>,
}

impl<'a> RankingShadow<'a> {
    fn install(mkb: &'a mut Mkb, shadow: RelationInfo) -> RankingShadow<'a> {
        let name = shadow.name.clone();
        let displaced = mkb.relations.insert(name.clone(), shadow);
        RankingShadow {
            mkb,
            name,
            displaced,
        }
    }
}

impl Drop for RankingShadow<'_> {
    fn drop(&mut self) {
        match self.displaced.take() {
            Some(info) => self.mkb.relations.insert(self.name.clone(), info),
            None => self.mkb.relations.remove(&self.name),
        };
    }
}

fn js_key(a: &str, b: &str) -> (String, String) {
    if a <= b {
        (a.to_owned(), b.to_owned())
    } else {
        (b.to_owned(), a.to_owned())
    }
}

impl Mkb {
    /// An empty MKB with the paper's Table 1 default join selectivity
    /// (`js = 0.005`).
    #[must_use]
    pub fn new() -> Mkb {
        Mkb {
            default_join_selectivity: 0.005,
            ..Mkb::default()
        }
    }

    /// The MKB's mutation generation: incremented whenever the registry,
    /// constraint store or statistics change. Caches of anything derived
    /// from the MKB (PC-partner closures, rewriting enumerations) key their
    /// entries on this counter and invalidate when it moves.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    fn bump_generation(&mut self) {
        // Only the counter moves. The inverted index stays: the mutations
        // that edit `pc_constraints` re-derive the keys they touch
        // (`reindex`), and nothing else feeds the index.
        self.generation = self.generation.wrapping_add(1);
    }

    /// The inverted index, built from the whole constraint store on the
    /// first lookup.
    fn index(&self) -> &ConstraintIndex {
        if let Some(built) = self.index.get() {
            self.index_hits.inc();
            return built;
        }
        self.index_misses.inc();
        self.index.get_or_init(|| {
            let built = ConstraintIndex::derive(&self.pc_constraints, |_| true);
            self.index_relations_built
                .add(built.pc_by_relation.len() as u64);
            built
        })
    }

    /// The index keys a PC edit involving `relations` can change: the
    /// relations themselves and their PC partners, read before the edit.
    /// `None` while the index is unbuilt — the first lookup builds it from
    /// the edited store.
    pub(crate) fn index_keys_touching(&self, relations: &[&str]) -> Option<BTreeSet<String>> {
        let built = self.index.get()?;
        let mut keys: BTreeSet<String> = relations.iter().map(|r| (*r).to_owned()).collect();
        for rel in relations {
            for pc in built.pc_by_relation.get(*rel).into_iter().flatten() {
                keys.insert(pc.right.relation.clone());
            }
        }
        Some(keys)
    }

    /// Re-derives the index entries of `keys` (from
    /// [`index_keys_touching`](Mkb::index_keys_touching)) from the edited
    /// constraint store, leaving every other key as it is.
    pub(crate) fn reindex(&mut self, keys: Option<BTreeSet<String>>) {
        let (Some(keys), Some(built)) = (keys, self.index.get_mut()) else {
            return;
        };
        let fresh = ConstraintIndex::derive(&self.pc_constraints, |rel| keys.contains(rel));
        self.index_relations_built
            .add(fresh.pc_by_relation.len() as u64);
        built.replace(&keys, fresh);
    }

    /// Inverted-index statistics `(hits, misses)`: lookups served by the
    /// built index versus the lazy first build.
    #[must_use]
    pub fn index_stats(&self) -> (u64, u64) {
        (self.index_hits.get(), self.index_misses.get())
    }

    /// The live counter handles, named for registry adoption. The engine
    /// registers them into its telemetry [`eve_trace::Registry`] so a
    /// single registry reset clears them with every other family.
    #[must_use]
    pub fn index_counter_handles(&self) -> [(&'static str, Arc<Counter>); 4] {
        [
            ("mkb.index_hits", Arc::clone(&self.index_hits)),
            ("mkb.index_misses", Arc::clone(&self.index_misses)),
            (
                "mkb.index_relations_built",
                Arc::clone(&self.index_relations_built),
            ),
            ("mkb.clones", Arc::clone(&self.clones)),
        ]
    }

    /// Pair-specific join-selectivity overrides (keys are sorted pairs), in
    /// key order. The export half of the [`crate::state`] seam.
    pub(crate) fn join_selectivity_overrides(
        &self,
    ) -> impl Iterator<Item = (&(String, String), f64)> {
        self.join_selectivities.iter().map(|(k, v)| (k, *v))
    }

    /// Replaces the statistics store wholesale without touching the
    /// generation — state restoration pins the generation separately via
    /// [`Mkb::pin_generation`].
    pub(crate) fn restore_statistics(
        &mut self,
        overrides: BTreeMap<(String, String), f64>,
        default_js: f64,
    ) {
        self.join_selectivities = overrides;
        self.default_join_selectivity = default_js;
    }

    /// Pins the mutation generation to an exact value (state restoration).
    pub(crate) fn pin_generation(&mut self, generation: u64) {
        self.generation = generation;
    }

    // ------------------------------------------------------------------
    // Registration
    // ------------------------------------------------------------------

    /// Registers an information source (site).
    ///
    /// # Errors
    ///
    /// [`Error::InvalidChange`] when the id is taken.
    pub fn register_site(&mut self, site: SiteId, name: impl Into<String>) -> Result<()> {
        if self.sites.contains_key(&site.0) {
            return Err(Error::InvalidChange {
                detail: format!("site {site} already registered"),
            });
        }
        self.sites.insert(site.0, name.into());
        self.bump_generation();
        Ok(())
    }

    /// Registers a relation exported by a previously registered site.
    ///
    /// # Errors
    ///
    /// Unknown site, duplicate relation name, or duplicate attribute names.
    pub fn register_relation(&mut self, info: RelationInfo) -> Result<()> {
        self.check_registrable(&info)?;
        self.relations.insert(info.name.clone(), info);
        self.bump_generation();
        Ok(())
    }

    pub(crate) fn check_registrable(&self, info: &RelationInfo) -> Result<()> {
        if !self.sites.contains_key(&info.site.0) {
            return Err(Error::UnknownSite { site: info.site.0 });
        }
        if self.relations.contains_key(&info.name) {
            return Err(Error::DuplicateRelation {
                relation: info.name.clone(),
            });
        }
        let mut seen = BTreeSet::new();
        for a in &info.attributes {
            if !seen.insert(&a.name) {
                return Err(Error::DuplicateAttribute {
                    relation: info.name.clone(),
                    attribute: a.name.clone(),
                });
            }
        }
        Ok(())
    }

    /// Runs `rank` on this MKB as the QC-Model must see it while it ranks
    /// the rewritings of `change`: the pre-change knowledge, plus the new
    /// name of a rename carrying the old statistics. A renamed relation is
    /// registered beside the old one; a renamed attribute is added beside
    /// the old one. That one registry entry is shadowed for the duration of
    /// `rank` and restored on every exit, a panic included. Neither the
    /// generation nor the constraint index moves. Every other change runs
    /// `rank` on the MKB as it is.
    ///
    /// # Errors
    ///
    /// What [`Mkb::check_change`] returns for `change`; `rank` does not run
    /// then.
    pub fn with_ranking_shadow<T>(
        &mut self,
        change: &SchemaChange,
        rank: impl FnOnce(&Mkb) -> T,
    ) -> Result<T> {
        self.check_change(change)?;
        let shadow = match change {
            SchemaChange::RenameRelation { from, to } => {
                let mut info = self.relation(from)?.clone();
                info.name.clone_from(to);
                info
            }
            SchemaChange::RenameAttribute { relation, from, to } => {
                let mut info = self.relation(relation)?.clone();
                let renamed = AttributeInfo {
                    name: to.clone(),
                    ..self.attribute(relation, from)?.clone()
                };
                info.attributes.push(renamed);
                info
            }
            _ => return Ok(rank(self)),
        };
        let guard = RankingShadow::install(self, shadow);
        Ok(rank(guard.mkb))
    }

    // ------------------------------------------------------------------
    // Lookup
    // ------------------------------------------------------------------

    /// All registered sites, ordered by id.
    pub fn sites(&self) -> impl Iterator<Item = (SiteId, &str)> {
        self.sites.iter().map(|(id, n)| (SiteId(*id), n.as_str()))
    }

    /// Looks up a relation description.
    ///
    /// # Errors
    ///
    /// [`Error::UnknownRelation`].
    pub fn relation(&self, name: &str) -> Result<&RelationInfo> {
        self.relations
            .get(name)
            .ok_or_else(|| Error::UnknownRelation {
                relation: name.to_owned(),
            })
    }

    /// Whether a relation is registered.
    #[must_use]
    pub fn has_relation(&self, name: &str) -> bool {
        self.relations.contains_key(name)
    }

    /// All registered relations, ordered by name.
    pub fn relations(&self) -> impl Iterator<Item = &RelationInfo> {
        self.relations.values()
    }

    /// Looks up an attribute's type/size information.
    ///
    /// # Errors
    ///
    /// [`Error::UnknownRelation`] / [`Error::UnknownAttribute`].
    pub fn attribute(&self, relation: &str, attribute: &str) -> Result<&AttributeInfo> {
        self.relation(relation)?
            .attribute(attribute)
            .ok_or_else(|| Error::UnknownAttribute {
                relation: relation.to_owned(),
                attribute: attribute.to_owned(),
            })
    }

    /// The hosting site of a relation.
    ///
    /// # Errors
    ///
    /// [`Error::UnknownRelation`].
    pub fn site_of(&self, relation: &str) -> Result<SiteId> {
        Ok(self.relation(relation)?.site)
    }

    // The in-crate mutable accessors (used by the evolver) bump the
    // generation on *access*: over-invalidating derived caches is safe,
    // missing a mutation is not. They leave the inverted index alone; an
    // edit through `pc_constraints_mut` re-derives the keys it touches with
    // `index_keys_touching` (before) and `reindex` (after).

    pub(crate) fn relations_mut(&mut self) -> &mut BTreeMap<String, RelationInfo> {
        self.bump_generation();
        &mut self.relations
    }

    pub(crate) fn join_constraints_mut(&mut self) -> &mut Vec<JoinConstraint> {
        self.bump_generation();
        &mut self.join_constraints
    }

    pub(crate) fn pc_constraints_mut(&mut self) -> &mut Vec<PcConstraint> {
        self.bump_generation();
        &mut self.pc_constraints
    }

    pub(crate) fn join_selectivities_mut(&mut self) -> &mut BTreeMap<(String, String), f64> {
        self.bump_generation();
        &mut self.join_selectivities
    }

    // ------------------------------------------------------------------
    // Join selectivities (§6.1 statistic 3)
    // ------------------------------------------------------------------

    /// Sets the global default join selectivity.
    pub fn set_default_join_selectivity(&mut self, js: f64) {
        self.default_join_selectivity = js;
        self.bump_generation();
    }

    /// The global default join selectivity.
    #[must_use]
    pub fn default_join_selectivity(&self) -> f64 {
        self.default_join_selectivity
    }

    /// Registers a pair-specific join selectivity.
    pub fn set_join_selectivity(&mut self, a: &str, b: &str, js: f64) {
        self.join_selectivities.insert(js_key(a, b), js);
        self.bump_generation();
    }

    /// Join selectivity for a pair (pair-specific value or the default).
    #[must_use]
    pub fn join_selectivity(&self, a: &str, b: &str) -> f64 {
        self.join_selectivities
            .get(&js_key(a, b))
            .copied()
            .unwrap_or(self.default_join_selectivity)
    }

    // ------------------------------------------------------------------
    // Constraints
    // ------------------------------------------------------------------

    /// Registers a join constraint after validating both endpoints and the
    /// join condition against their schemas.
    ///
    /// # Errors
    ///
    /// Unknown relations or an ill-typed condition.
    pub fn add_join_constraint(&mut self, jc: JoinConstraint) -> Result<()> {
        let left = self.relation(&jc.left)?;
        let right = self.relation(&jc.right)?;
        if jc.condition.is_empty() {
            return Err(Error::InvalidConstraint {
                detail: format!("JC[{}, {}] has no clauses", jc.left, jc.right),
            });
        }
        let combined =
            left.schema()
                .concat(&right.schema())
                .map_err(|e| Error::InvalidConstraint {
                    detail: format!("JC[{}, {}]: {e}", jc.left, jc.right),
                })?;
        jc.predicate()
            .type_check(&combined, &format!("JC[{}, {}]", jc.left, jc.right))
            .map_err(|e| Error::InvalidConstraint {
                detail: e.to_string(),
            })?;
        self.join_constraints.push(jc);
        self.bump_generation();
        Ok(())
    }

    /// Registers a PC constraint after validating relations, attribute
    /// correspondence (arity + types, per Eq. 5's `TC` requirement) and
    /// selection predicates.
    ///
    /// # Errors
    ///
    /// Unknown relations/attributes, arity or type mismatches.
    pub fn add_pc_constraint(&mut self, pc: PcConstraint) -> Result<()> {
        if pc.left.attrs.is_empty() || pc.left.attrs.len() != pc.right.attrs.len() {
            return Err(Error::InvalidConstraint {
                detail: format!(
                    "PC[{}, {}]: projection lists must be non-empty and equally long",
                    pc.left.relation, pc.right.relation
                ),
            });
        }
        for side in [&pc.left, &pc.right] {
            let rel = self.relation(&side.relation)?;
            for a in &side.attrs {
                if !rel.has_attribute(a) {
                    return Err(Error::UnknownAttribute {
                        relation: side.relation.clone(),
                        attribute: a.clone(),
                    });
                }
            }
            if side.has_selection() {
                // Selection predicates use bare attribute names.
                let bare = rel
                    .schema()
                    .unqualify()
                    .map_err(|e| Error::InvalidConstraint {
                        detail: e.to_string(),
                    })?;
                side.selection
                    .type_check(&bare, &side.relation)
                    .map_err(|e| Error::InvalidConstraint {
                        detail: format!("PC selection on {}: {e}", side.relation),
                    })?;
            }
        }
        for (la, ra) in pc.left.attrs.iter().zip(&pc.right.attrs) {
            let lt = self.attribute(&pc.left.relation, la)?.ty;
            let rt = self.attribute(&pc.right.relation, ra)?.ty;
            if lt != rt {
                return Err(Error::InvalidConstraint {
                    detail: format!(
                        "PC correspondence {}.{la} ({lt}) vs {}.{ra} ({rt}): types differ",
                        pc.left.relation, pc.right.relation
                    ),
                });
            }
        }
        if let Some(built) = self.index.get_mut() {
            // The new constraint is last in store order, so appending its
            // orientations to the endpoints' entries is what a full build
            // would produce.
            built.insert(pc.clone());
            let mut endpoints = 1;
            if pc.left.relation != pc.right.relation {
                built.insert(pc.flipped());
                endpoints = 2;
            }
            self.index_relations_built.add(endpoints);
        }
        self.pc_constraints.push(pc);
        self.bump_generation();
        Ok(())
    }

    /// All join constraints.
    #[must_use]
    pub fn join_constraints(&self) -> &[JoinConstraint] {
        &self.join_constraints
    }

    /// All PC constraints.
    #[must_use]
    pub fn pc_constraints(&self) -> &[PcConstraint] {
        &self.pc_constraints
    }

    /// The first join constraint connecting `a` and `b`, if any.
    #[must_use]
    pub fn join_constraint_between(&self, a: &str, b: &str) -> Option<&JoinConstraint> {
        self.join_constraints.iter().find(|jc| jc.connects(a, b))
    }

    /// PC constraints involving `rel`, re-oriented so `rel` is on the left.
    ///
    /// Served from the generation-keyed inverted index; the result borrows
    /// instead of cloning constraint payloads per call.
    #[must_use]
    pub fn pc_constraints_of(&self, rel: &str) -> Vec<&PcConstraint> {
        self.index()
            .pc_by_relation
            .get(rel)
            .map(|oriented| oriented.iter().collect())
            .unwrap_or_default()
    }

    // ------------------------------------------------------------------
    // Overlap estimation (§5.4.3)
    // ------------------------------------------------------------------

    /// Builds the statistics a PC constraint needs for overlap estimation
    /// from the registered relation metadata. The selectivity of a side's
    /// selection condition is approximated by the relation's registered `σ`.
    ///
    /// # Errors
    ///
    /// Unknown relations.
    pub(crate) fn overlap_inputs(&self, pc: &PcConstraint) -> Result<OverlapInputs> {
        let l = self.relation(&pc.left.relation)?;
        let r = self.relation(&pc.right.relation)?;
        #[allow(clippy::cast_precision_loss)]
        Ok(OverlapInputs {
            left_card: l.cardinality as f64,
            right_card: r.cardinality as f64,
            left_selectivity: l.selectivity,
            right_selectivity: r.selectivity,
        })
    }

    /// Estimates `|a ∩~ b|` and (when determinable) the containment
    /// relationship `a ⊑ b`, using a direct PC constraint if one exists, or a
    /// transitive chain of *selection-free* constraints otherwise
    /// (Experiment 4's `S1 ⊆ S2 ⊆ S3 ≡ R2 ⊆ S4 ⊆ S5`). Without any
    /// constraint path the overlap is zero (§5.4.3).
    ///
    /// # Errors
    ///
    /// Unknown relations.
    pub fn relation_overlap(
        &self,
        a: &str,
        b: &str,
    ) -> Result<(Option<PcRelationship>, OverlapEstimate)> {
        let a_info = self.relation(a)?;
        let b_info = self.relation(b)?;
        if a == b {
            #[allow(clippy::cast_precision_loss)]
            return Ok((
                Some(PcRelationship::Equivalent),
                OverlapEstimate {
                    size: a_info.cardinality as f64,
                    exact: true,
                },
            ));
        }

        // Direct constraints first: keep the most informative estimate
        // (exact beats inexact; larger lower bound beats smaller).
        let mut best: Option<(PcRelationship, OverlapEstimate)> = None;
        for pc in self.pc_constraints_of(a) {
            if pc.right.relation != b {
                continue;
            }
            let est = estimate_overlap(pc, self.overlap_inputs(pc)?);
            let better = match &best {
                None => true,
                Some((_, cur)) => {
                    (est.exact && !cur.exact) || (est.exact == cur.exact && est.size > cur.size)
                }
            };
            if better {
                best = Some((pc.relationship, est));
            }
        }
        if let Some((rel, est)) = best {
            return Ok((Some(rel), est));
        }

        // Transitive chain over selection-free constraints (BFS, shortest
        // chain wins; direction composed along the path).
        let mut queue: VecDeque<(String, PcRelationship)> = VecDeque::new();
        let mut visited: BTreeSet<String> = BTreeSet::new();
        visited.insert(a.to_owned());
        queue.push_back((a.to_owned(), PcRelationship::Equivalent));
        while let Some((node, rel_so_far)) = queue.pop_front() {
            for pc in self.pc_constraints_of(&node) {
                if !pc.is_selection_free() {
                    continue;
                }
                let Some(composed) = rel_so_far.compose(pc.relationship) else {
                    continue;
                };
                let next = pc.right.relation.clone();
                if next == b {
                    #[allow(clippy::cast_precision_loss)]
                    let size = match composed {
                        PcRelationship::Subset => a_info.cardinality as f64,
                        PcRelationship::Equivalent => {
                            (a_info.cardinality.min(b_info.cardinality)) as f64
                        }
                        PcRelationship::Superset => b_info.cardinality as f64,
                    };
                    return Ok((Some(composed), OverlapEstimate { size, exact: true }));
                }
                if visited.insert(next.clone()) {
                    queue.push_back((next, composed));
                }
            }
        }

        Ok((None, OverlapEstimate::UNKNOWN))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraints::PcSide;
    use eve_relational::{ColumnRef, CompOp, DataType, Predicate, PrimitiveClause, Value};

    fn attr(name: &str, ty: DataType) -> AttributeInfo {
        AttributeInfo::new(name, ty)
    }

    /// A small information space: R(A,B) at IS1, S(A,C) at IS2, T(A,D) at
    /// IS3, with PC(R.A ⊆ S.A), PC(R.A ⊆ T.A), JC(R,S on A).
    fn sample() -> Mkb {
        let mut mkb = Mkb::new();
        for (i, name) in [(1u32, "one"), (2, "two"), (3, "three")] {
            mkb.register_site(SiteId(i), name).unwrap();
        }
        mkb.register_relation(RelationInfo::new(
            "R",
            SiteId(1),
            vec![attr("A", DataType::Int), attr("B", DataType::Int)],
            1000,
        ))
        .unwrap();
        mkb.register_relation(RelationInfo::new(
            "S",
            SiteId(2),
            vec![attr("A", DataType::Int), attr("C", DataType::Int)],
            2000,
        ))
        .unwrap();
        mkb.register_relation(RelationInfo::new(
            "T",
            SiteId(3),
            vec![attr("A", DataType::Int), attr("D", DataType::Int)],
            3000,
        ))
        .unwrap();
        mkb.add_pc_constraint(PcConstraint::new(
            PcSide::projection("R", &["A"]),
            PcRelationship::Subset,
            PcSide::projection("S", &["A"]),
        ))
        .unwrap();
        mkb.add_pc_constraint(PcConstraint::new(
            PcSide::projection("R", &["A"]),
            PcRelationship::Subset,
            PcSide::projection("T", &["A"]),
        ))
        .unwrap();
        mkb.add_join_constraint(JoinConstraint::new(
            "R",
            "S",
            vec![PrimitiveClause::eq(
                ColumnRef::parse("R.A"),
                ColumnRef::parse("S.A"),
            )],
        ))
        .unwrap();
        mkb
    }

    #[test]
    fn registration_and_lookup() {
        let mkb = sample();
        assert_eq!(mkb.relation("R").unwrap().cardinality, 1000);
        assert_eq!(mkb.site_of("T").unwrap(), SiteId(3));
        assert_eq!(mkb.attribute("S", "C").unwrap().ty, DataType::Int);
        assert!(matches!(
            mkb.relation("Z"),
            Err(Error::UnknownRelation { .. })
        ));
        assert!(matches!(
            mkb.attribute("S", "Z"),
            Err(Error::UnknownAttribute { .. })
        ));
    }

    #[test]
    fn duplicate_relation_rejected() {
        let mut mkb = sample();
        let e = mkb
            .register_relation(RelationInfo::new("R", SiteId(1), vec![], 0))
            .unwrap_err();
        assert!(matches!(e, Error::DuplicateRelation { .. }));
    }

    #[test]
    fn relation_on_unknown_site_rejected() {
        let mut mkb = Mkb::new();
        let e = mkb
            .register_relation(RelationInfo::new("R", SiteId(9), vec![], 0))
            .unwrap_err();
        assert!(matches!(e, Error::UnknownSite { site: 9 }));
    }

    #[test]
    fn join_constraint_validation() {
        let mut mkb = sample();
        // Unknown column in clause.
        let bad = JoinConstraint::new(
            "R",
            "S",
            vec![PrimitiveClause::eq(
                ColumnRef::parse("R.Z"),
                ColumnRef::parse("S.A"),
            )],
        );
        assert!(mkb.add_join_constraint(bad).is_err());
        // Empty condition.
        let empty = JoinConstraint::new("R", "S", vec![]);
        assert!(mkb.add_join_constraint(empty).is_err());
    }

    #[test]
    fn pc_constraint_validation() {
        let mut mkb = sample();
        // Arity mismatch.
        let bad = PcConstraint::new(
            PcSide::projection("R", &["A", "B"]),
            PcRelationship::Subset,
            PcSide::projection("S", &["A"]),
        );
        assert!(mkb.add_pc_constraint(bad).is_err());
        // Unknown attribute.
        let bad = PcConstraint::new(
            PcSide::projection("R", &["Z"]),
            PcRelationship::Subset,
            PcSide::projection("S", &["A"]),
        );
        assert!(mkb.add_pc_constraint(bad).is_err());
        // Ill-typed selection.
        let bad = PcConstraint::new(
            PcSide::selected(
                "R",
                &["A"],
                Predicate::single(PrimitiveClause::lit(
                    ColumnRef::bare("A"),
                    CompOp::Eq,
                    Value::from("text"),
                )),
            ),
            PcRelationship::Subset,
            PcSide::projection("S", &["A"]),
        );
        assert!(mkb.add_pc_constraint(bad).is_err());
    }

    #[test]
    fn direct_overlap_estimation() {
        let mkb = sample();
        let (rel, est) = mkb.relation_overlap("R", "S").unwrap();
        assert_eq!(rel, Some(PcRelationship::Subset));
        assert_eq!(est.size, 1000.0);
        assert!(est.exact);
        // And flipped.
        let (rel, est) = mkb.relation_overlap("S", "R").unwrap();
        assert_eq!(rel, Some(PcRelationship::Superset));
        assert_eq!(est.size, 1000.0);
    }

    #[test]
    fn unconstrained_overlap_is_zero() {
        let mkb = sample();
        let (rel, est) = mkb.relation_overlap("S", "T").unwrap();
        // S ⊇ R ⊆ T composes to nothing.
        assert_eq!(rel, None);
        assert_eq!(est, OverlapEstimate::UNKNOWN);
    }

    #[test]
    fn chained_overlap_composes_subsets() {
        // Experiment 4 chain: S1 ⊆ S2 ⊆ S3, query overlap(S3, S1).
        let mut mkb = Mkb::new();
        mkb.register_site(SiteId(1), "one").unwrap();
        for (name, card) in [("S1", 2000u64), ("S2", 3000), ("S3", 4000)] {
            mkb.register_relation(RelationInfo::new(
                name,
                SiteId(1),
                vec![attr("A", DataType::Int)],
                card,
            ))
            .unwrap();
        }
        for (a, b) in [("S1", "S2"), ("S2", "S3")] {
            mkb.add_pc_constraint(PcConstraint::new(
                PcSide::projection(a, &["A"]),
                PcRelationship::Subset,
                PcSide::projection(b, &["A"]),
            ))
            .unwrap();
        }
        let (rel, est) = mkb.relation_overlap("S3", "S1").unwrap();
        assert_eq!(rel, Some(PcRelationship::Superset));
        assert_eq!(est.size, 2000.0);
        assert!(est.exact);
        let (rel, est) = mkb.relation_overlap("S1", "S3").unwrap();
        assert_eq!(rel, Some(PcRelationship::Subset));
        assert_eq!(est.size, 2000.0);
    }

    #[test]
    fn self_overlap_is_identity() {
        let mkb = sample();
        let (rel, est) = mkb.relation_overlap("R", "R").unwrap();
        assert_eq!(rel, Some(PcRelationship::Equivalent));
        assert_eq!(est.size, 1000.0);
        assert!(est.exact);
    }

    #[test]
    fn join_selectivity_defaults_and_overrides() {
        let mut mkb = sample();
        assert!((mkb.join_selectivity("R", "S") - 0.005).abs() < 1e-12);
        mkb.set_join_selectivity("S", "R", 0.001);
        assert!((mkb.join_selectivity("R", "S") - 0.001).abs() < 1e-12);
        mkb.set_default_join_selectivity(0.0022);
        assert!((mkb.join_selectivity("R", "T") - 0.0022).abs() < 1e-12);
    }

    #[test]
    fn generation_moves_on_every_mutation() {
        use crate::SchemaChange;
        let mut mkb = sample();
        let g0 = mkb.generation();
        // Read-only access leaves the generation alone.
        let _ = mkb.relation("R").unwrap();
        let _ = mkb.pc_constraints_of("R");
        assert_eq!(mkb.generation(), g0);
        // Every mutator moves it.
        mkb.set_join_selectivity("R", "S", 0.001);
        let g1 = mkb.generation();
        assert_ne!(g1, g0);
        mkb.set_default_join_selectivity(0.01);
        let g2 = mkb.generation();
        assert_ne!(g2, g1);
        mkb.apply_change(&SchemaChange::DeleteAttribute {
            relation: "R".into(),
            attribute: "B".into(),
        })
        .unwrap();
        assert_ne!(mkb.generation(), g2);
        // Clones carry the counter (a cloned MKB is the same knowledge).
        let clone = mkb.clone();
        assert_eq!(clone.generation(), mkb.generation());
    }

    #[test]
    fn inverted_index_is_maintained_in_place_and_counts_hits() {
        let mut mkb = sample();
        let built = |mkb: &Mkb| mkb.index_relations_built.get();
        // Construction never reads the index.
        assert_eq!(mkb.index_stats(), (0, 0));
        assert_eq!(built(&mkb), 0);
        // First lookup builds it over every constrained relation (R, S, T)…
        assert_eq!(mkb.pc_constraints_of("R").len(), 2);
        assert_eq!(mkb.index_stats().1, 1, "one lazy build");
        assert_eq!(built(&mkb), 3);
        // …subsequent lookups replay it.
        assert_eq!(mkb.pc_constraints_of("S").len(), 1);
        assert_eq!(mkb.pc_constraints_of("T").len(), 1);
        let (hits, misses) = mkb.index_stats();
        assert!(hits >= 2, "served from memory: {hits}");
        assert_eq!(misses, 1);
        // A new constraint extends its two endpoints' entries in place: no
        // second build, and the next read sees it.
        mkb.add_pc_constraint(PcConstraint::new(
            PcSide::projection("S", &["A"]),
            PcRelationship::Subset,
            PcSide::projection("T", &["A"]),
        ))
        .unwrap();
        assert_eq!(built(&mkb), 5, "S and T re-derived");
        assert_eq!(mkb.pc_constraints_of("T").len(), 2);
        assert_eq!(mkb.index_stats().1, 1, "still the one lazy build");
        // Orientation inside the index matches the historical scan.
        let from_t = mkb.pc_constraints_of("T");
        assert!(from_t.iter().all(|pc| pc.left.relation == "T"));
        // Registry and statistics mutations leave the index alone.
        mkb.set_join_selectivity("R", "S", 0.001);
        mkb.register_site(SiteId(4), "four").unwrap();
        assert_eq!(built(&mkb), 5);
        // Clones carry the built index and its counters, and are counted.
        let clone = mkb.clone();
        assert_eq!(mkb.clones.get(), 1);
        assert_eq!(clone.pc_constraints_of("R").len(), 2);
        assert_eq!(clone.index_stats().1, 1);
    }

    #[test]
    fn ranking_shadow_is_scoped_to_the_closure() {
        use crate::SchemaChange;
        let mut mkb = sample();
        mkb.set_join_selectivity("R", "S", 0.001);
        assert_eq!(mkb.pc_constraints_of("R").len(), 2);
        let (state, generation) = (mkb.export_state(), mkb.generation());
        let untouched = |mkb: &Mkb| {
            assert_eq!(mkb.export_state(), state);
            assert_eq!(mkb.generation(), generation);
        };

        // A renamed relation is registered beside the old one, with its
        // statistics; the constraints still name the old one.
        let rename = SchemaChange::RenameRelation {
            from: "R".into(),
            to: "R2".into(),
        };
        let seen = mkb
            .with_ranking_shadow(&rename, |m| {
                let shadow = m.relation("R2").unwrap();
                assert_eq!(shadow.cardinality, 1000);
                assert_eq!(shadow.site, SiteId(1));
                assert!(m.has_relation("R"));
                assert!(m.pc_constraints_of("R2").is_empty());
                m.relation_overlap("R2", "R2").unwrap().1.size
            })
            .unwrap();
        assert_eq!(seen, 1000.0);
        untouched(&mkb);

        // A renamed attribute is added beside the old one, same type.
        let rename = SchemaChange::RenameAttribute {
            relation: "R".into(),
            from: "B".into(),
            to: "B2".into(),
        };
        mkb.with_ranking_shadow(&rename, |m| {
            let names: Vec<&str> = m
                .relation("R")
                .unwrap()
                .attributes
                .iter()
                .map(|a| a.name.as_str())
                .collect();
            assert_eq!(names, ["A", "B", "B2"]);
        })
        .unwrap();
        untouched(&mkb);

        // Every other change ranks against the MKB as it is.
        let delete = SchemaChange::DeleteRelation {
            relation: "R".into(),
        };
        assert!(mkb
            .with_ranking_shadow(&delete, |m| m.has_relation("R"))
            .unwrap());

        // Failures are those of registering / adding the new name, and the
        // closure never runs.
        for (change, expected) in [
            (
                SchemaChange::RenameRelation {
                    from: "Z".into(),
                    to: "Y".into(),
                },
                "unknown relation `Z`",
            ),
            (
                SchemaChange::RenameRelation {
                    from: "R".into(),
                    to: "S".into(),
                },
                "relation `S` is already registered",
            ),
            (
                SchemaChange::RenameAttribute {
                    relation: "R".into(),
                    from: "Z".into(),
                    to: "Y".into(),
                },
                "unknown attribute `R.Z`",
            ),
            (
                SchemaChange::RenameAttribute {
                    relation: "R".into(),
                    from: "A".into(),
                    to: "B".into(),
                },
                "attribute `R.B` already exists",
            ),
        ] {
            let err = mkb
                .with_ranking_shadow(&change, |_| panic!("ran after {change}"))
                .unwrap_err();
            assert_eq!(err.to_string(), expected);
            untouched(&mkb);
        }

        // A panic inside the closure still restores the entry.
        let rename = SchemaChange::RenameRelation {
            from: "R".into(),
            to: "R2".into(),
        };
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            mkb.with_ranking_shadow(&rename, |_| panic!("ranking failed"))
        }));
        assert!(panicked.is_err());
        untouched(&mkb);
        assert_eq!(mkb.index_stats().1, 1, "the shadow never touched the index");
    }

    #[test]
    fn constraint_navigation() {
        let mkb = sample();
        let touching_r = mkb
            .join_constraints()
            .iter()
            .filter(|jc| jc.partner_of("R").is_some());
        assert_eq!(touching_r.count(), 1);
        assert!(mkb.join_constraint_between("S", "R").is_some());
        assert!(mkb.join_constraint_between("S", "T").is_none());
        assert_eq!(mkb.pc_constraints_of("S").len(), 1);
        assert_eq!(mkb.pc_constraints_of("S")[0].left.relation, "S");
    }
}
