//! The base a delta checkpoint diffs against pins no extent: after
//! `DurableEngine::create_with`, after `open` and after a `checkpoint`, a
//! batch that writes relations and views deep-copies no row on the base's
//! account (`relational.detach_rows` does not move).
//!
//! `relational.detach_rows` is a process-wide counter, so this binary holds
//! a single test: no other test's writes run beside it.

use std::path::PathBuf;

use eve_misd::{AttributeInfo, RelationInfo, SiteId};
use eve_relational::{tup, DataType, Relation, Schema};
use eve_store::LogRecord;
use eve_sync::EvolutionOp;
use eve_system::{DurableEngine, EveEngine};

fn temp_dir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("eve-checkpoint-base-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Two sites, three 200-row relations and a join view over two of them.
fn engine() -> EveEngine {
    let mut engine = EveEngine::new();
    engine.add_site(SiteId(1), "one").unwrap();
    engine.add_site(SiteId(2), "two").unwrap();
    let schema = Schema::of(&[("K", DataType::Int), ("P", DataType::Int)]).unwrap();
    for (name, site) in [("Ra", 1), ("Rb", 1), ("Rc", 2)] {
        let attrs = vec![
            AttributeInfo::new("K", DataType::Int),
            AttributeInfo::new("P", DataType::Int),
        ];
        let rows = (0..200i64).map(|k| tup![k, k % 7]).collect();
        engine
            .register_relation(
                RelationInfo::new(name, SiteId(site), attrs, 10),
                Relation::with_tuples(name, schema.clone(), rows).unwrap(),
            )
            .unwrap();
    }
    engine
        .define_view_sql(
            "CREATE VIEW V (VE = '~') AS SELECT A.K, B.P AS BP \
             FROM Ra A, Rb B (RR = true) WHERE A.K = B.K",
        )
        .unwrap();
    engine
}

/// Rows deep-copied by copy-on-write detaches while `d` applies a batch
/// that inserts into and deletes from every relation (and so maintains
/// `V`).
fn detached_by_a_batch(d: &mut DurableEngine, k: i64) -> u64 {
    let detach_rows = eve_trace::global().counter("relational.detach_rows");
    let before = detach_rows.get();
    let ops = ["Ra", "Rb", "Rc"]
        .into_iter()
        .flat_map(|r| {
            [
                EvolutionOp::insert(r, vec![tup![1000 + k, 1]]),
                EvolutionOp::delete(r, vec![tup![k, k % 7]]),
            ]
        })
        .collect();
    d.apply_batch(ops).unwrap();
    detach_rows.get() - before
}

#[test]
fn a_write_after_create_open_or_checkpoint_detaches_nothing() {
    let dir = temp_dir("detach");
    let mut d = DurableEngine::create_with(&dir, engine()).unwrap();
    assert_eq!(detached_by_a_batch(&mut d, 1), 0, "after create_with");
    assert_eq!(detached_by_a_batch(&mut d, 2), 0, "after a write");

    d.checkpoint().unwrap();
    assert_eq!(detached_by_a_batch(&mut d, 3), 0, "after a checkpoint");

    // Automatic delta checkpoints re-base the handle after every batch.
    d.snapshot_every = Some(1);
    assert_eq!(detached_by_a_batch(&mut d, 4), 0, "after a delta");
    assert_eq!(detached_by_a_batch(&mut d, 5), 0, "after a delta");

    // Recovery: the base is the recovered snapshot, the engine is built
    // over its extents.
    d.apply(LogRecord::SetDefaultJoinSelectivity { js: 0.02 })
        .unwrap();
    let expected = d.engine().snapshot_state().to_bytes();
    drop(d);
    let (mut d, _) = DurableEngine::open(&dir).unwrap();
    assert_eq!(d.engine().snapshot_state().to_bytes(), expected);
    assert_eq!(detached_by_a_batch(&mut d, 6), 0, "after open");
    let expected = d.engine().snapshot_state().to_bytes();
    drop(d);
    let (d, _) = DurableEngine::open(&dir).unwrap();
    assert_eq!(d.engine().snapshot_state().to_bytes(), expected);
    drop(d);
    std::fs::remove_dir_all(&dir).ok();
}
