//! Full-state export/import for the MKB — the serialization seam the
//! durable evolution store (`eve-store`) persists snapshots through.
//!
//! [`MkbState`] is a plain-data mirror of everything an [`Mkb`] knows,
//! including the mutation [`generation`](Mkb::generation) — restoring a
//! state must reproduce the generation exactly, because caches all over the
//! engine (rewrite memoization, PC-partner closures, inverted indexes) key
//! their entries on it, and the store's generation time-travel addresses
//! historical states by it. The ephemeral observability counters
//! ([`Mkb::index_stats`]) are deliberately *not* part of the state: they
//! describe one process's cache behaviour, not the knowledge base.

use std::collections::BTreeMap;

use crate::constraints::{JoinConstraint, PcConstraint};
use crate::error::Result;
use crate::mkb::Mkb;
use crate::source::RelationInfo;

/// A plain-data image of an [`Mkb`], suitable for serialization.
///
/// Constraint vectors preserve registration order (the synchronizer's
/// discovery order depends on it); relations and selectivities are keyed
/// maps, so their order is canonical by construction.
#[derive(Debug, Clone, PartialEq)]
pub struct MkbState {
    /// Registered sites as `(id, name)`, ordered by id.
    pub sites: Vec<(u32, String)>,
    /// Registered relations, ordered by name.
    pub relations: Vec<RelationInfo>,
    /// Join constraints in registration order.
    pub join_constraints: Vec<JoinConstraint>,
    /// PC constraints in registration order.
    pub pc_constraints: Vec<PcConstraint>,
    /// Pair-specific join selectivities (keys are sorted name pairs).
    pub join_selectivities: Vec<(String, String, f64)>,
    /// The global default join selectivity.
    pub default_join_selectivity: f64,
    /// The mutation generation at export time.
    pub generation: u64,
}

impl Mkb {
    /// Exports the complete knowledge-base state (registry, constraints,
    /// statistics and the mutation generation) as plain data.
    #[must_use]
    pub fn export_state(&self) -> MkbState {
        MkbState {
            sites: self
                .sites()
                .map(|(id, name)| (id.0, name.to_owned()))
                .collect(),
            relations: self.relations().cloned().collect(),
            join_constraints: self.join_constraints().to_vec(),
            pc_constraints: self.pc_constraints().to_vec(),
            join_selectivities: self
                .join_selectivity_overrides()
                .map(|((a, b), js)| (a.clone(), b.clone(), js))
                .collect(),
            default_join_selectivity: self.default_join_selectivity(),
            generation: self.generation(),
        }
    }

    /// Reconstructs an MKB from an exported state, re-validating every
    /// registration and constraint, then pinning the mutation generation to
    /// the exported value (so generation-keyed caches and the evolution
    /// store's time-travel agree with the original instance).
    ///
    /// # Errors
    ///
    /// Any registration/constraint validation error — a state produced by
    /// [`Mkb::export_state`] always restores cleanly; hand-rolled or
    /// corrupted states surface the first inconsistency.
    pub fn from_state(state: &MkbState) -> Result<Mkb> {
        let mut mkb = Mkb::new();
        for (id, name) in &state.sites {
            mkb.register_site(crate::SiteId(*id), name.clone())?;
        }
        for info in &state.relations {
            mkb.register_relation(info.clone())?;
        }
        for jc in &state.join_constraints {
            mkb.add_join_constraint(jc.clone())?;
        }
        for pc in &state.pc_constraints {
            mkb.add_pc_constraint(pc.clone())?;
        }
        let mut overrides = BTreeMap::new();
        for (a, b, js) in &state.join_selectivities {
            overrides.insert((a.clone(), b.clone()), *js);
        }
        mkb.restore_statistics(overrides, state.default_join_selectivity);
        mkb.pin_generation(state.generation);
        Ok(mkb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraints::{PcRelationship, PcSide};
    use crate::source::{AttributeInfo, SiteId};
    use eve_relational::{ColumnRef, DataType, PrimitiveClause};

    fn sample() -> Mkb {
        let mut mkb = Mkb::new();
        mkb.register_site(SiteId(1), "one").unwrap();
        mkb.register_site(SiteId(2), "two").unwrap();
        let attrs = vec![
            AttributeInfo::new("A", DataType::Int),
            AttributeInfo::sized("B", DataType::Text, 24),
        ];
        mkb.register_relation(RelationInfo::new("R", SiteId(1), attrs.clone(), 400))
            .unwrap();
        mkb.register_relation(RelationInfo::new("S", SiteId(2), attrs, 800))
            .unwrap();
        mkb.add_pc_constraint(PcConstraint::new(
            PcSide::projection("R", &["A", "B"]),
            PcRelationship::Subset,
            PcSide::projection("S", &["A", "B"]),
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
        mkb.set_join_selectivity("R", "S", 0.002);
        mkb.set_default_join_selectivity(0.01);
        mkb
    }

    #[test]
    fn export_import_roundtrip_preserves_everything() {
        let original = sample();
        let state = original.export_state();
        let restored = Mkb::from_state(&state).unwrap();
        assert_eq!(restored.export_state(), state);
        assert_eq!(restored.generation(), original.generation());
        assert_eq!(
            restored.relation("R").unwrap(),
            original.relation("R").unwrap()
        );
        assert!((restored.join_selectivity("R", "S") - 0.002).abs() < 1e-12);
        assert!((restored.join_selectivity("R", "Z") - 0.01).abs() < 1e-12);
        assert_eq!(restored.pc_constraints(), original.pc_constraints());
        assert_eq!(restored.join_constraints(), original.join_constraints());
    }

    #[test]
    fn restored_mkb_answers_replacement_queries_identically() {
        let original = sample();
        let restored = Mkb::from_state(&original.export_state()).unwrap();
        let answer = restored.pc_constraints_of("R");
        assert_eq!(answer.len(), 1);
        assert_eq!(answer, original.pc_constraints_of("R"));
        // The index counters start fresh — they are process-local.
        assert_eq!(restored.index_stats().0, 0);
    }

    #[test]
    fn generation_is_pinned_not_recomputed() {
        let mut original = sample();
        // Push the generation well past what replaying the registrations
        // would produce.
        for _ in 0..100 {
            original.set_default_join_selectivity(0.123);
        }
        let restored = Mkb::from_state(&original.export_state()).unwrap();
        assert_eq!(restored.generation(), original.generation());
    }

    #[test]
    fn corrupt_state_is_rejected() {
        let mut state = sample().export_state();
        state.relations[0].site = SiteId(99); // unknown site
        assert!(Mkb::from_state(&state).is_err());
    }
}
