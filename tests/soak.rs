//! Seeded random soak test: a full EVE engine under a random stream of data
//! updates and capability changes, with system-level invariants checked
//! after every event:
//!
//! * every materialized extent equals a fresh recomputation of its view,
//! * every surviving view definition still validates against the MKB,
//! * the MKB stays consistent (no dangling constraint references),
//! * the engine never panics or corrupts state.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use eve::misd::{
    AttributeInfo, PcConstraint, PcRelationship, PcSide, RelationInfo, SchemaChange, SiteId,
};
use eve::relational::{DataType, Relation, Schema, Tuple, Value};
use eve::system::{DataUpdate, EveEngine};

const ATTRS: [&str; 3] = ["K", "P", "Q"];

fn schema() -> Schema {
    Schema::of(&[
        ("K", DataType::Int),
        ("P", DataType::Int),
        ("Q", DataType::Int),
    ])
    .unwrap()
}

fn random_rows(rng: &mut StdRng, n: usize) -> Vec<Tuple> {
    (0..n)
        .map(|_| {
            Tuple::new(vec![
                Value::Int(rng.gen_range(0..30)),
                Value::Int(rng.gen_range(0..10)),
                Value::Int(rng.gen_range(0..10)),
            ])
        })
        .collect()
}

/// Builds a random information space: `n_rel` relations over `n_site` sites
/// with equivalence/containment constraints among same-shape relations.
fn random_engine(rng: &mut StdRng, n_sites: u32, n_rels: usize) -> EveEngine {
    let mut e = EveEngine::new();
    for i in 1..=n_sites {
        e.add_site(SiteId(i), format!("site{i}")).unwrap();
    }
    for r in 0..n_rels {
        let site = SiteId(rng.gen_range(1..=n_sites));
        let card = rng.gen_range(5..25usize);
        let name = format!("T{r}");
        e.register_relation(
            RelationInfo::new(
                &name,
                site,
                ATTRS
                    .iter()
                    .map(|a| AttributeInfo::new(*a, DataType::Int))
                    .collect(),
                card as u64,
            ),
            Relation::with_tuples(&name, schema(), random_rows(rng, card)).unwrap(),
        )
        .unwrap();
    }
    // Random PC constraints between distinct relations (metadata only; the
    // soak test does not rely on them being realized by the data — adopted
    // rewritings are re-materialized, not patched).
    for _ in 0..n_rels {
        let a = rng.gen_range(0..n_rels);
        let b = rng.gen_range(0..n_rels);
        if a == b {
            continue;
        }
        let rel = match rng.gen_range(0..3u8) {
            0 => PcRelationship::Subset,
            1 => PcRelationship::Superset,
            _ => PcRelationship::Equivalent,
        };
        let _ = e.mkb_mut().add_pc_constraint(PcConstraint::new(
            PcSide::projection(format!("T{a}"), &ATTRS),
            rel,
            PcSide::projection(format!("T{b}"), &ATTRS),
        ));
    }
    e
}

fn define_random_views(e: &mut EveEngine, rng: &mut StdRng, n_rels: usize, n_views: usize) {
    for v in 0..n_views {
        let a = rng.gen_range(0..n_rels);
        let b = rng.gen_range(0..n_rels);
        let sql = if a == b || rng.gen_bool(0.4) {
            format!(
                "CREATE VIEW V{v} (VE = '~') AS \
                 SELECT X.K (AD = true, AR = true), X.P (AD = true) \
                 FROM T{a} X (RR = true) \
                 WHERE X.Q > 4 (CD = true)"
            )
        } else {
            format!(
                "CREATE VIEW V{v} (VE = '~') AS \
                 SELECT X.K (AD = true, AR = true), Y.P AS YP (AD = true, AR = true) \
                 FROM T{a} X (RR = true), T{b} Y (RR = true) \
                 WHERE X.K = Y.K"
            )
        };
        e.define_view_sql(&sql).unwrap();
    }
}

fn assert_invariants(e: &EveEngine) {
    // MKB consistent.
    let problems = eve::misd::evolver::check_consistency(e.mkb());
    assert!(problems.is_empty(), "MKB inconsistent: {problems:?}");
    // Every extent equals recomputation; every definition still validates.
    for mv in e.views() {
        e.check_view(&mv.def)
            .unwrap_or_else(|err| panic!("view {} invalid: {err}", mv.def.name));
        let recomputed = e.evaluate(&mv.def).unwrap();
        let mut a = mv.extent.tuples().to_vec();
        let mut b = recomputed.tuples().to_vec();
        a.sort();
        b.sort();
        assert_eq!(
            a, b,
            "extent of {} diverged from recomputation",
            mv.def.name
        );
    }
}

fn run_soak(seed: u64, events: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n_sites = rng.gen_range(2..5u32);
    let n_rels = rng.gen_range(4..8usize);
    let mut e = random_engine(&mut rng, n_sites, n_rels);
    define_random_views(&mut e, &mut rng, n_rels, 3);
    assert_invariants(&e);

    let mut live_rels: Vec<String> = (0..n_rels).map(|r| format!("T{r}")).collect();
    let mut fresh = 0usize;
    for step in 0..events {
        if live_rels.is_empty() {
            break;
        }
        let pick = live_rels[rng.gen_range(0..live_rels.len())].clone();
        match rng.gen_range(0..10u8) {
            // Mostly data updates (the paper's frequency assumption, §6.1).
            0..=5 => {
                let n = rng.gen_range(1..3);
                let inserts = random_rows(&mut rng, n);
                // Views referencing the relation twice reject incremental
                // maintenance; that surfaces as an error, never corruption.
                let _ = e.notify_data_update(&DataUpdate::insert(&pick, inserts));
            }
            6 => {
                // Delete a random existing tuple (if any).
                let victim = {
                    let info = e.mkb().relation(&pick).unwrap();
                    let site = info.site;
                    let _ = site;
                    e.evaluate(
                        &eve::esql::parse_view(&format!(
                            "CREATE VIEW Probe AS SELECT X.K, X.P, X.Q FROM {pick} X"
                        ))
                        .unwrap(),
                    )
                    .ok()
                    .and_then(|rel| rel.tuples().first().cloned())
                };
                if let Some(t) = victim {
                    let _ = e.notify_data_update(&DataUpdate::delete(&pick, vec![t]));
                }
            }
            7 => {
                // Delete an attribute (P — dispensable in the views).
                let change = SchemaChange::DeleteAttribute {
                    relation: pick.clone(),
                    attribute: "P".into(),
                };
                if e.mkb().relation(&pick).is_ok_and(|r| r.has_attribute("P")) {
                    e.notify_capability_change(&change, None).unwrap();
                }
            }
            8 => {
                // Delete the whole relation.
                let change = SchemaChange::DeleteRelation {
                    relation: pick.clone(),
                };
                e.notify_capability_change(&change, None).unwrap();
                live_rels.retain(|r| r != &pick);
            }
            _ => {
                // A new relation appears, equivalent to an existing one.
                fresh += 1;
                let name = format!("N{fresh}");
                let card = rng.gen_range(5..15usize);
                let site = SiteId(rng.gen_range(1..=n_sites));
                e.notify_capability_change(
                    &SchemaChange::AddRelation {
                        relation: RelationInfo::new(
                            &name,
                            site,
                            ATTRS
                                .iter()
                                .map(|a| AttributeInfo::new(*a, DataType::Int))
                                .collect(),
                            card as u64,
                        ),
                    },
                    Some(
                        Relation::with_tuples(&name, schema(), random_rows(&mut rng, card))
                            .unwrap(),
                    ),
                )
                .unwrap();
                if e.mkb()
                    .relation(&pick)
                    .is_ok_and(|r| r.attributes.len() == 3)
                {
                    let _ = e.mkb_mut().add_pc_constraint(PcConstraint::new(
                        PcSide::projection(&pick, &ATTRS),
                        PcRelationship::Equivalent,
                        PcSide::projection(&name, &ATTRS),
                    ));
                }
                live_rels.push(name);
            }
        }
        assert_invariants(&e);
        let _ = step;
    }
    // A final rebalancing pass must also preserve all invariants.
    let _ = e.rebalance_views();
    assert_invariants(&e);
}

// The soak suite is long-running and excluded from the default (tier-1)
// run; execute it with `cargo test --test soak -- --ignored`.
#[test]
#[ignore = "long-running soak; run with `cargo test --test soak -- --ignored`"]
fn soak_seed_1() {
    run_soak(1, 40);
}

#[test]
#[ignore = "long-running soak; run with `cargo test --test soak -- --ignored`"]
fn soak_seed_2() {
    run_soak(2, 40);
}

#[test]
#[ignore = "long-running soak; run with `cargo test --test soak -- --ignored`"]
fn soak_seed_3() {
    run_soak(3, 40);
}

#[test]
#[ignore = "long-running soak; run with `cargo test --test soak -- --ignored`"]
fn soak_many_short_runs() {
    for seed in 10..30 {
        run_soak(seed, 12);
    }
}

/// Durability soak: a long random-crash-point recovery loop. Each
/// iteration drives a seeded multi-site workload through a durable
/// engine, crashes it at a random byte of the active log segment (torn
/// final write included), recovers, and requires the recovered engine to
/// be byte-identical to the per-record state trajectory captured before
/// the crash. Complements the bounded-case differential suite in
/// `tests/durability.rs` with volume.
/// Group-commit soak: 40 seeds of *concurrent* appenders racing through
/// the group-commit writer, then a crash — on odd seeds additionally a
/// torn final write. Every acknowledged record was fsync'd inside some
/// batch, so recovery must hand back records at exactly the sequence
/// numbers their commit tickets reported, byte-identical, with no record
/// surviving partially. Complements the deterministic queued-follower
/// proptests in `tests/durability.rs` with scheduling volume.
#[test]
#[ignore = "long-running soak; run with `cargo test --test soak -- --ignored`"]
fn group_commit_concurrent_crash_recovery_loop() {
    use eve::relational::tup;
    use eve::store::{EvolutionStore, GroupCommitLog, GroupCommitPolicy, LogRecord, SealedRecord};
    use eve::sync::EvolutionOp;
    use std::collections::BTreeMap;
    use std::sync::Mutex;

    for seed in 200u64..240 {
        let dir = std::env::temp_dir().join(format!(
            "eve-soak-group-commit-{}-{seed}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let store = EvolutionStore::create(&dir).unwrap();
        let log = GroupCommitLog::new(store, GroupCommitPolicy::default());
        let threads = 2 + usize::try_from(seed % 7).unwrap();
        let per_thread = 10 + usize::try_from(seed % 23).unwrap();
        let acked: Mutex<BTreeMap<u64, Vec<u8>>> = Mutex::new(BTreeMap::new());

        std::thread::scope(|scope| {
            for t in 0..threads {
                let log = &log;
                let acked = &acked;
                scope.spawn(move || {
                    for k in 0..per_thread {
                        #[allow(clippy::cast_possible_wrap)]
                        let key = ((seed % 1000) * 1_000_000 + (t as u64) * 1000 + k as u64) as i64;
                        let record =
                            LogRecord::Batch(vec![EvolutionOp::insert("R", vec![tup![key]])]);
                        let seq = log.append_durable(0, record.clone()).unwrap();
                        let bytes = eve::store::to_bytes(&SealedRecord {
                            post_generation: 0,
                            record,
                        });
                        acked.lock().unwrap().insert(seq, bytes);
                    }
                });
            }
        });
        drop(log); // crash

        let total = threads * per_thread;
        if seed % 2 == 1 {
            // Torn final write on top of the crash.
            let active = eve_bench::fixtures::active_segment(&dir)
                .unwrap()
                .expect("store has a segment");
            let len = std::fs::metadata(&active).unwrap().len();
            let cut = 16 + (seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) % (len - 16).max(1));
            let file = std::fs::OpenOptions::new()
                .write(true)
                .open(&active)
                .unwrap();
            file.set_len(cut.min(len)).unwrap();
            file.sync_all().unwrap();
        }

        let (_, recovered) = EvolutionStore::open(&dir).unwrap();
        let acked = acked.into_inner().unwrap();
        if seed % 2 == 1 {
            assert!(recovered.tail.len() <= total, "seed {seed}");
        } else {
            assert_eq!(
                recovered.tail.len(),
                total,
                "seed {seed}: every acknowledged record survives a clean crash"
            );
        }
        for (i, sealed) in recovered.tail.iter().enumerate() {
            assert_eq!(
                &eve::store::to_bytes(sealed),
                acked
                    .get(&(i as u64))
                    .expect("recovered seq was acknowledged"),
                "seed {seed}: record at seq {i} must byte-match its acknowledged content"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
#[ignore = "long-running soak; run with `cargo test --test soak -- --ignored`"]
fn durability_random_crash_point_recovery_loop() {
    use eve::system::DurableEngine;
    use eve_bench::fixtures::{active_segment, build_workload, fingerprint, into_batches};
    for seed in 100u64..140 {
        let dir =
            std::env::temp_dir().join(format!("eve-soak-durability-{}-{seed}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let (engine, ops) = build_workload(4, 60, seed).unwrap();
        let mut durable = DurableEngine::create_with(&dir, engine).unwrap();
        if seed % 3 == 0 {
            durable.snapshot_every = Some(3);
        }
        let mut states = vec![fingerprint(durable.engine())];
        for batch in into_batches(ops, 6) {
            durable.apply_batch(batch).unwrap();
            states.push(fingerprint(durable.engine()));
        }
        drop(durable); // crash

        // Random crash point: truncate the active segment mid-record.
        let active = active_segment(&dir).unwrap().expect("store has a segment");
        let len = std::fs::metadata(&active).unwrap().len();
        let cut = 16 + (seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) % (len - 16).max(1));
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(&active)
            .unwrap();
        file.set_len(cut.min(len)).unwrap();
        file.sync_all().unwrap();
        drop(file);

        let (recovered, report) = DurableEngine::open(&dir).unwrap();
        let k =
            usize::try_from(report.snapshot_seq.unwrap_or(0) + report.replayed_records).unwrap();
        assert!(k < states.len(), "seed {seed}: prefix index {k} in range");
        assert_eq!(
            fingerprint(recovered.engine()),
            states[k],
            "seed {seed}: recovered state must be the {k}-record prefix (cut at byte {cut})"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
