//! Batched execution of evolution workloads.
//!
//! [`EveEngine::apply_batch`] drives a [`Vec<EvolutionOp>`] in op order:
//! each data update is applied at its site and then maintains every view
//! whose FROM clause names the updated relation, in name order; each
//! capability change synchronizes the views that can reference the changed
//! relation and adopts or drops them. The paper prices a burst as the sum
//! of its single updates (§6.1), and the batch is exactly that sum.
//!
//! The batch is observationally identical to applying the ops one by one
//! through the reference paths ([`EveEngine::notify_data_update`] /
//! [`EveEngine::notify_capability_change_sequential`]): view extents,
//! survival verdicts and per-site I/O + message accounting match to the
//! byte, and on error the warehouse holds exactly the state the op-by-op
//! path reaches when it stops at the same op. The one addition is an
//! up-front check per run of data ops: an op naming an unknown relation
//! rejects the run before any of its ops is applied. Unaffected views are
//! never visited. (Per-view delta relations are deliberately *not*
//! coalesced across ops — that would change the charged I/O under the
//! per-pass full-scan cap, making cost reports incomparable.)

use eve_sync::{DataUpdate, EvolutionOp};

use crate::engine::{BatchOutcome, EveEngine};
use crate::error::{Error, Result};
use crate::maintainer::{maintain_view_counted, MaintenanceWork};

impl EveEngine {
    /// Applies a batched evolution workload: data updates, capability
    /// changes and relation drops, in one call and in op order. See the
    /// module docs for the equivalence contract with the op-by-op paths.
    ///
    /// # Errors
    ///
    /// State/validation failures; the batch stops at the first failing
    /// op. Data ops naming unknown relations are rejected before any op of
    /// their run (the data ops between two capability changes) is applied.
    pub fn apply_batch(&mut self, ops: Vec<EvolutionOp>) -> Result<BatchOutcome> {
        let _span = eve_trace::span("engine.apply_batch");
        let started = std::time::Instant::now();
        let registry = eve_trace::global();
        registry.counter("engine.batches").inc();
        let mut outcome = BatchOutcome::default();
        let mut run: Vec<DataUpdate> = Vec::new();
        for op in ops {
            match op {
                EvolutionOp::Data(update) => run.push(update),
                EvolutionOp::Capability { change, new_extent } => {
                    self.run_data_stage(std::mem::take(&mut run), &mut outcome)?;
                    let reports = self.capability_change_batched(&change, new_extent)?;
                    outcome.reports.extend(reports);
                    outcome.capability_ops += 1;
                    registry.counter("engine.capability_changes").inc();
                }
            }
        }
        self.run_data_stage(run, &mut outcome)?;
        registry
            .histogram("engine.apply_batch_us")
            .record(u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX));
        Ok(outcome)
    }

    /// Applies one run of data ops in order: per op the base update first,
    /// then every view referencing the updated relation, in name order.
    fn run_data_stage(&mut self, run: Vec<DataUpdate>, outcome: &mut BatchOutcome) -> Result<()> {
        if run.is_empty() {
            return Ok(());
        }
        for update in &run {
            self.mkb.relation(&update.relation)?;
        }
        outcome.data_ops += run.len();
        eve_trace::global()
            .counter("engine.data_updates")
            .add(run.len() as u64);
        let mut work = MaintenanceWork::default();
        for mut update in run {
            let _span = eve_trace::span("engine.data_update");
            let site_id = self.mkb.relation(&update.relation)?.site.0;
            // Views see only the deletes the source performed.
            update.deletes = self
                .sites
                .get_mut(&site_id)
                .ok_or_else(|| Error::State {
                    detail: format!("unknown site {site_id}"),
                })?
                .apply_update(&update.relation, &update.inserts, &update.deletes)?;
            for (name, mv) in &mut self.views {
                if !mv.def.from.iter().any(|f| f.relation == update.relation) {
                    continue;
                }
                let trace = maintain_view_counted(
                    &mv.def,
                    &mut mv.extent,
                    &update,
                    &mut self.sites,
                    &self.mkb,
                    &mut work,
                )?;
                let entry = outcome.traces.entry(name.clone()).or_default();
                *entry = entry.merged(trace);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eve_misd::{
        AttributeInfo, PcConstraint, PcRelationship, PcSide, RelationInfo, SchemaChange, SiteId,
    };
    use eve_relational::{tup, DataType, Relation, Schema};

    /// `n` independent sites, each hosting `Ri_a ⋈ Ri_b` under view `Vi`,
    /// plus a colocated replica `Ri_c ≡ Ri_b` for capability changes.
    fn engine_with_sites(n: u32) -> EveEngine {
        let mut e = EveEngine::new();
        for i in 1..=n {
            e.add_site(SiteId(i), format!("IS{i}")).unwrap();
            let schema = Schema::of(&[("K", DataType::Int), ("P", DataType::Int)]).unwrap();
            let attrs = || {
                vec![
                    AttributeInfo::new("K", DataType::Int),
                    AttributeInfo::new("P", DataType::Int),
                ]
            };
            for suffix in ["a", "b", "c"] {
                let name = format!("R{i}_{suffix}");
                let rows: Vec<_> = (0..20i64).map(|k| tup![k, k % 5]).collect();
                e.register_relation(
                    RelationInfo::new(&name, SiteId(i), attrs(), 10),
                    Relation::with_tuples(&name, schema.clone(), rows).unwrap(),
                )
                .unwrap();
            }
            e.mkb_mut()
                .add_pc_constraint(PcConstraint::new(
                    PcSide::projection(format!("R{i}_b"), &["K", "P"]),
                    PcRelationship::Equivalent,
                    PcSide::projection(format!("R{i}_c"), &["K", "P"]),
                ))
                .unwrap();
            e.define_view_sql(&format!(
                "CREATE VIEW V{i} (VE = '~') AS SELECT A.K, B.P AS BP \
                 FROM R{i}_a A, R{i}_b B (RR = true) WHERE A.K = B.K"
            ))
            .unwrap();
        }
        e
    }

    /// The op-by-op reference: each op through its legacy path, stopping
    /// at the first error.
    fn apply_sequentially(e: &mut EveEngine, ops: Vec<EvolutionOp>) -> Result<()> {
        for op in ops {
            match op {
                EvolutionOp::Data(update) => {
                    e.notify_data_update(&update)?;
                }
                EvolutionOp::Capability { change, new_extent } => {
                    e.notify_capability_change_sequential(&change, new_extent)?;
                }
            }
        }
        Ok(())
    }

    #[test]
    fn batch_matches_sequential_on_mixed_workload() {
        let base = engine_with_sites(3);
        let ops = vec![
            EvolutionOp::insert("R1_a", vec![tup![100, 0]]),
            EvolutionOp::insert("R2_b", vec![tup![7, 9]]),
            EvolutionOp::delete("R3_a", vec![tup![0, 0]]),
            EvolutionOp::change(SchemaChange::DeleteRelation {
                relation: "R2_b".into(),
            }),
            EvolutionOp::insert("R2_c", vec![tup![5, 5]]),
            EvolutionOp::insert("R1_b", vec![tup![100, 3]]),
        ];

        let mut batched = base.clone();
        batched.reset_io();
        let outcome = batched.apply_batch(ops.clone()).unwrap();
        assert_eq!(outcome.data_ops, 5);
        assert_eq!(outcome.capability_ops, 1);

        let mut sequential = base;
        sequential.reset_io();
        apply_sequentially(&mut sequential, ops).unwrap();

        assert_eq!(batched.total_io(), sequential.total_io());
        assert_eq!(batched.total_messages(), sequential.total_messages());
        let b_views: Vec<_> = batched.views().map(|mv| mv.def.to_string()).collect();
        let s_views: Vec<_> = sequential.views().map(|mv| mv.def.to_string()).collect();
        assert_eq!(b_views, s_views);
        for (b, s) in batched.views().zip(sequential.views()) {
            assert_eq!(b.extent.tuples(), s.extent.tuples(), "{}", b.def.name);
        }
    }

    #[test]
    fn failed_batch_leaves_the_sequential_failure_prefix() {
        // The second op carries a wrong-arity tuple; the third, on another
        // site's relation than the failing one, must not be applied.
        let base = engine_with_sites(2);
        let ops = vec![
            EvolutionOp::insert("R1_a", vec![tup![100, 0]]),
            EvolutionOp::insert("R2_b", vec![tup![7]]),
            EvolutionOp::insert("R1_a", vec![tup![101, 1]]),
        ];

        let mut batched = base.clone();
        batched.reset_io();
        assert!(batched.apply_batch(ops.clone()).is_err());

        let mut sequential = base;
        sequential.reset_io();
        assert!(apply_sequentially(&mut sequential, ops).is_err());

        assert_eq!(batched.total_io(), sequential.total_io());
        assert_eq!(batched.total_messages(), sequential.total_messages());
        assert_eq!(
            batched.snapshot_state().to_bytes(),
            sequential.snapshot_state().to_bytes(),
            "sites, extents and views equal the sequential prefix"
        );
        let r1_a = batched.sites[&1].relation("R1_a").unwrap();
        assert!(
            r1_a.contains(&tup![100, 0]),
            "the op before the failure applied"
        );
        assert!(
            !r1_a.contains(&tup![101, 1]),
            "the op after the failure did not"
        );
    }

    #[test]
    fn batch_reports_match_single_change_notification() {
        // notify_capability_change routes through apply_batch; its reports
        // must look exactly like the sequential reference's.
        let mut a = engine_with_sites(2);
        let mut b = a.clone();
        let change = SchemaChange::DeleteRelation {
            relation: "R1_b".into(),
        };
        let ra = a.notify_capability_change(&change, None).unwrap();
        let rb = b
            .notify_capability_change_sequential(&change, None)
            .unwrap();
        assert_eq!(ra.len(), rb.len());
        for (x, y) in ra.iter().zip(&rb) {
            assert_eq!(x.view_name, y.view_name);
            assert_eq!(x.affected, y.affected);
            assert_eq!(x.survived, y.survived);
            assert_eq!(x.candidates, y.candidates);
        }
        assert!(a.view("V1").unwrap().def.to_string().contains("R1_c"));
    }

    #[test]
    fn unknown_relation_rejected_before_application() {
        let mut e = engine_with_sites(1);
        let before = e.view("V1").unwrap().extent.clone();
        let err = e
            .apply_batch(vec![
                EvolutionOp::insert("R1_a", vec![tup![500, 0]]),
                EvolutionOp::insert("Ghost", vec![tup![1, 1]]),
            ])
            .unwrap_err();
        assert!(err.to_string().contains("Ghost"), "{err}");
        // Nothing from the failed stage was applied.
        assert_eq!(e.view("V1").unwrap().extent.tuples(), before.tuples());
        assert!(!e.sites[&1]
            .relation("R1_a")
            .unwrap()
            .contains(&tup![500, 0]));
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let mut e = engine_with_sites(1);
        let outcome = e.apply_batch(Vec::new()).unwrap();
        assert_eq!(outcome.data_ops, 0);
        assert_eq!(outcome.capability_ops, 0);
        assert!(outcome.traces.is_empty());
        assert!(outcome.reports.is_empty());
    }
}
