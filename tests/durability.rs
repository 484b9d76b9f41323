//! Differential crash-recovery suite for the durable evolution store.
//!
//! The acceptance property: for random `EvolutionOp` streams and random
//! crash points — including crashes that tear the final log record mid-
//! frame — recovery from snapshot + log replay produces MKB generation,
//! site extents, installed rewritings and query results **byte-identical**
//! to the engine that never crashed; and `open_at(g)` matches a fresh
//! engine replayed through every operation up to generation `g`.
//!
//! "Byte-identical" is checked on the canonical `EngineSnapshot` encoding
//! (`EveEngine::snapshot_state().to_bytes()`), which covers the MKB
//! (generation included), every site's extents + accounting counters, and
//! every installed rewriting with its materialized extent. Query results
//! are additionally compared through live evaluation.

use proptest::prelude::*;

use eve::misd::{
    AttributeInfo, JoinConstraint, PcConstraint, PcRelationship, PcSide, RelationInfo,
    SchemaChange, SiteId,
};
use eve::relational::{
    tup, ColumnRef, DataType, IndexKind, PrimitiveClause, Relation, Schema, Tuple,
};
use eve::store::{EvolutionStore, GroupCommitLog, GroupCommitPolicy, LogRecord, SealedRecord};
use eve::sync::EvolutionOp;
use eve::system::{DurableEngine, EveEngine, IndexHint, Shell};
use eve_bench::fixtures::{self, fingerprint, into_batches};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

static DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "eve-durability-it-{}-{}-{tag}",
        std::process::id(),
        DIR_COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Runs the seeded multi-site workload through a durable engine,
/// returning the fingerprint and generation after the bootstrap and after
/// every batch (`states[k]` = state once `k` records are applied).
fn run_durable(
    dir: &std::path::Path,
    sites: u32,
    op_count: usize,
    batch_size: usize,
    seed: u64,
    checkpoint_at: Option<usize>,
) -> (Vec<Vec<u8>>, Vec<u64>) {
    let (engine, ops) = fixtures::build_workload(sites, op_count, seed).unwrap();
    let batches = into_batches(ops, batch_size);
    let mut durable = DurableEngine::create_with(dir, engine).unwrap();
    let mut states = vec![fingerprint(durable.engine())];
    let mut generations = vec![durable.engine().mkb().generation()];
    for (i, batch) in batches.into_iter().enumerate() {
        durable.apply_batch(batch).unwrap();
        states.push(fingerprint(durable.engine()));
        generations.push(durable.engine().mkb().generation());
        if checkpoint_at == Some(i) {
            durable.checkpoint().unwrap();
        }
    }
    // Crash: drop the in-memory engine. Only the fsync'd files survive.
    drop(durable);
    (states, generations)
}

/// The newest `.evl` segment in a store directory.
fn active_segment(dir: &std::path::Path) -> PathBuf {
    fixtures::active_segment(dir)
        .unwrap()
        .expect("store has a segment")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(
        std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(24)
    ))]

    /// Crash after an arbitrary number of fully-fsync'd batches: recovery
    /// reproduces the exact state the engine had when it died.
    #[test]
    fn recovery_is_byte_identical_at_every_batch_boundary(
        seed in 0u64..1_000_000,
        sites in 2u32..4,
        op_count in 8usize..32,
    ) {
        let dir = scratch_dir("boundary");
        let (states, _) = run_durable(&dir, sites, op_count, 4, seed, None);
        let (recovered, report) = DurableEngine::open(&dir).unwrap();
        prop_assert_eq!(report.torn_bytes_truncated, 0);
        let k = report.snapshot_seq.unwrap_or(0) + report.replayed_records;
        prop_assert_eq!(
            &fingerprint(recovered.engine()),
            &states[usize::try_from(k).unwrap()]
        );
        prop_assert_eq!(usize::try_from(k).unwrap(), states.len() - 1, "nothing was lost");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Crash at a random *byte* of the active segment (torn final write):
    /// recovery truncates the partial frame and lands exactly on the state
    /// after the last intact record — never a corrupted in-between.
    #[test]
    fn torn_tail_recovery_matches_surviving_prefix(
        seed in 0u64..1_000_000,
        cut_fraction in 0.0f64..1.0,
        checkpoint in prop::option::of(0usize..4),
    ) {
        let dir = scratch_dir("torn");
        let (states, _) = run_durable(&dir, 2, 20, 4, seed, checkpoint);
        // Tear the log: truncate the active segment at a random byte
        // offset past its 16-byte header.
        let segment = active_segment(&dir);
        let len = std::fs::metadata(&segment).unwrap().len();
        #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let cut = 16 + ((len.saturating_sub(16)) as f64 * cut_fraction) as u64;
        let file = std::fs::OpenOptions::new().write(true).open(&segment).unwrap();
        file.set_len(cut).unwrap();
        file.sync_all().unwrap();
        drop(file);

        let (recovered, report) = DurableEngine::open(&dir).unwrap();
        let k = usize::try_from(report.snapshot_seq.unwrap_or(0) + report.replayed_records).unwrap();
        prop_assert!(k < states.len());
        prop_assert_eq!(
            &fingerprint(recovered.engine()),
            &states[k],
            "after cutting the log at byte {} the recovered state must be the {}-record prefix",
            cut, k
        );

        // Recovered engines answer queries like their uncrashed twins: a
        // live re-evaluation of each installed definition produces the
        // same bag as the recovered materialized extent (incremental
        // maintenance and fresh evaluation may order the bag differently,
        // so compare as multisets).
        for mv in recovered.engine().views() {
            let mut re_evaluated = recovered.engine().evaluate(&mv.def).unwrap().tuples().to_vec();
            let mut materialized = mv.extent.tuples().to_vec();
            re_evaluated.sort();
            materialized.sort();
            prop_assert_eq!(re_evaluated, materialized, "{}", &mv.def.name);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `open_at(g)` reconstructs exactly the state a fresh engine reaches
    /// by replaying every operation whose post-generation is ≤ g.
    #[test]
    fn open_at_matches_fresh_replay_to_generation(
        seed in 0u64..1_000_000,
        pick in 0usize..1000,
        checkpoint in prop::option::of(0usize..4),
    ) {
        let dir = scratch_dir("travel");
        let (states, generations) = run_durable(&dir, 2, 20, 4, seed, checkpoint);
        // Pick an observed generation; travel must land on the *last*
        // batch boundary whose generation does not exceed it.
        let target = generations[pick % generations.len()];
        let expected_idx = generations
            .iter()
            .rposition(|&g| g <= target)
            .unwrap();
        let travelled = DurableEngine::open_at(&dir, target).unwrap();
        prop_assert_eq!(
            &fingerprint(&travelled),
            &states[expected_idx],
            "open_at({}) must match the replay prefix through batch {}",
            target, expected_idx
        );
        prop_assert!(travelled.mkb().generation() <= target);
        std::fs::remove_dir_all(&dir).ok();
    }
}

fn kp_attrs() -> Vec<AttributeInfo> {
    vec![
        AttributeInfo::new("K", DataType::Int),
        AttributeInfo::new("P", DataType::Int),
    ]
}

fn kp_relation(name: &str, tuples: Vec<Tuple>) -> Relation {
    let schema = Schema::of(&[("K", DataType::Int), ("P", DataType::Int)]).unwrap();
    Relation::with_tuples(name, schema, tuples).unwrap()
}

fn pc_equivalent(left: &str, right: &str) -> PcConstraint {
    PcConstraint::new(
        PcSide::projection(left, &["K", "P"]),
        PcRelationship::Equivalent,
        PcSide::projection(right, &["K", "P"]),
    )
}

fn jc_on_k(left: &str, right: &str) -> JoinConstraint {
    JoinConstraint::new(
        left,
        right,
        vec![PrimitiveClause::eq(
            ColumnRef::parse(&format!("{left}.K")),
            ColumnRef::parse(&format!("{right}.K")),
        )],
    )
}

fn index_hint(relation: &str, column: &str, kind: IndexKind) -> LogRecord {
    LogRecord::DeclareIndex(IndexHint {
        relation: relation.into(),
        column: column.into(),
        kind,
    })
}

/// One step of the eleven-kind command stream. Picks a command of `kind`
/// (0–10, the record tags) that is valid against `live`'s current state —
/// every relation is `(K:int, P:int)`, so any of them fits any slot — and
/// applies the same mutation to `oracle` through the engine's *typed*
/// methods, the reference `EveEngine::apply`'s dispatch is held against.
fn next_command(
    step: usize,
    kind: u8,
    r: u32,
    live: &EveEngine,
    oracle: &mut EveEngine,
) -> LogRecord {
    let relations: Vec<String> = live.mkb().relations().map(|i| i.name.clone()).collect();
    let views: Vec<String> = live.views().map(|v| v.def.name.clone()).collect();
    // Consecutive slots are distinct relations (the stream keeps ≥ 2 alive).
    let rel = |slot: u32| relations[(r / 16 + slot) as usize % relations.len()].clone();
    let k = i64::from(r % 50);
    match kind {
        0 => {
            let (id, name) = (10 + step as u32, format!("site{step}"));
            oracle.add_site(SiteId(id), name.clone()).unwrap();
            LogRecord::AddSite { id, name }
        }
        1 => {
            let sites: Vec<SiteId> = live.mkb().sites().map(|(id, _)| id).collect();
            let name = format!("R{step}");
            let info = RelationInfo::new(&name, sites[r as usize % sites.len()], kp_attrs(), 10);
            let extent = kp_relation(&name, (0..4i64).map(|i| tup![i, i % 3]).collect());
            oracle
                .register_relation(info.clone(), extent.clone())
                .unwrap();
            LogRecord::RegisterRelation { info, extent }
        }
        2 => {
            let (relation, tuples) = (rel(0), vec![tup![k, k % 3], tup![k + 1, 1]]);
            let site = live.mkb().relation(&relation).unwrap().site.0;
            let site = oracle.sites_mut().get_mut(&site).unwrap();
            site.apply_update(&relation, &tuples, &[]).unwrap();
            LogRecord::SeedTuples { relation, tuples }
        }
        3 => {
            let pc = pc_equivalent(&rel(0), &rel(1));
            oracle.mkb_mut().add_pc_constraint(pc.clone()).unwrap();
            LogRecord::AddPcConstraint(pc)
        }
        4 => {
            let jc = jc_on_k(&rel(0), &rel(1));
            oracle.mkb_mut().add_join_constraint(jc.clone()).unwrap();
            LogRecord::AddJoinConstraint(jc)
        }
        5 => {
            let (left, right, js) = (rel(0), rel(1), 0.001 * f64::from(r % 100 + 1));
            oracle.mkb_mut().set_join_selectivity(&left, &right, js);
            LogRecord::SetJoinSelectivity { left, right, js }
        }
        6 => {
            let js = 0.001 * f64::from(r % 100 + 1);
            oracle.mkb_mut().set_default_join_selectivity(js);
            LogRecord::SetDefaultJoinSelectivity { js }
        }
        8 if !views.is_empty() => {
            let name = views[r as usize % views.len()].clone();
            oracle.drop_view(&name).unwrap();
            LogRecord::DropView { name }
        }
        7 | 8 => {
            // Single FROM, bare column names: the installed definition is
            // the validate-normalised one, which is what must be logged.
            let def = eve::esql::parse_view(&format!(
                "CREATE VIEW V{step} (VE = '~') AS SELECT K FROM {} (RR = true) WHERE P = {}",
                rel(0),
                r % 3
            ))
            .unwrap();
            oracle.define_view(def.clone()).unwrap();
            LogRecord::DefineView(def)
        }
        9 => {
            let mut ops = vec![
                EvolutionOp::insert(rel(0), vec![tup![k, k % 3]]),
                EvolutionOp::delete(rel(1), vec![tup![k % 4, k % 4 % 3]]),
            ];
            match r % 8 {
                0 if relations.len() > 2 => {
                    ops.push(EvolutionOp::change(SchemaChange::DeleteRelation {
                        relation: rel(2),
                    }));
                }
                0 | 4 => ops.push(EvolutionOp::change(SchemaChange::RenameRelation {
                    from: rel(2),
                    to: format!("R{step}"),
                })),
                _ => {}
            }
            oracle.apply_batch(ops.clone()).unwrap();
            LogRecord::Batch(ops)
        }
        _ => {
            let (column, kind) = [
                ("K", IndexKind::Hash),
                ("P", IndexKind::Hash),
                ("K", IndexKind::Sorted),
                ("P", IndexKind::Sorted),
            ][r as usize % 4];
            oracle.declare_index(&rel(0), column, kind).unwrap();
            index_hint(&rel(0), column, kind)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(
        std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(24)
    ))]

    /// Live ≡ typed-method oracle ≡ replay over **all eleven** record
    /// kinds. A random valid stream goes through `DurableEngine::apply`;
    /// after every command the live engine equals an oracle driven through
    /// the typed `EveEngine` methods, `open_at(g)` equals a fresh engine
    /// replaying the submitted commands, and after a crash at a random
    /// record boundary `open` lands on the live state at that boundary.
    #[test]
    fn every_record_kind_recovers_and_travels(
        picks in prop::collection::vec((0u8..11, any::<u32>()), 8..40),
        travel in 0usize..1000,
        crash in 0usize..1000,
    ) {
        let dir = scratch_dir("eleven");
        let mut durable = DurableEngine::create(&dir).unwrap();
        let mut oracle = EveEngine::new();
        // A site, two relations, and one index declared twice on purpose
        // (only the first declaration may reach the log).
        let preamble = [(0, 0), (1, 0), (1, 0), (10, 0), (10, 0)];
        let mut submitted = Vec::new();
        let mut states = vec![fingerprint(durable.engine())];
        let mut generations = vec![durable.engine().mkb().generation()];
        // Records logged and active-segment bytes once k commands ran.
        let mut logged = vec![durable.next_seq()];
        let mut segment_len = vec![std::fs::metadata(active_segment(&dir)).unwrap().len()];
        for (step, (kind, r)) in preamble.into_iter().chain(picks).enumerate() {
            let cmd = next_command(step, kind, r, durable.engine(), &mut oracle);
            durable.apply(cmd.clone()).unwrap();
            let state = fingerprint(durable.engine());
            // (`prop_assert!`, not `_eq!`: a failure should name the
            // command, not print two multi-KB fingerprints.)
            prop_assert!(
                state == fingerprint(&oracle),
                "command {step} ({cmd:?}) diverged from the typed methods"
            );
            submitted.push(cmd);
            states.push(state);
            generations.push(durable.engine().mkb().generation());
            logged.push(durable.next_seq());
            segment_len.push(std::fs::metadata(active_segment(&dir)).unwrap().len());
        }
        prop_assert_eq!(logged[5], logged[4], "a repeated DeclareIndex is not logged");
        drop(durable); // crash

        // Time travel ≡ fresh replay of the submitted prefix.
        let target = generations[travel % generations.len()];
        let prefix = generations.iter().rposition(|&g| g <= target).unwrap();
        let travelled = DurableEngine::open_at(&dir, target).unwrap();
        let mut fresh = EveEngine::new();
        for cmd in &submitted[..prefix] {
            fresh.apply(cmd.clone()).unwrap();
        }
        prop_assert!(
            fingerprint(&travelled) == fingerprint(&fresh),
            "open_at({target}) differs from a fresh replay of {prefix} commands"
        );
        prop_assert!(
            fingerprint(&travelled) == states[prefix],
            "open_at({target}) differs from the live state after {prefix} commands"
        );

        // Crash at a random record boundary: cut the log there and recover.
        let boundary = crash % states.len();
        let segment = std::fs::OpenOptions::new().write(true).open(active_segment(&dir)).unwrap();
        segment.set_len(segment_len[boundary]).unwrap();
        segment.sync_all().unwrap();
        drop(segment);
        let (recovered, report) = DurableEngine::open(&dir).unwrap();
        prop_assert_eq!(report.torn_bytes_truncated, 0);
        prop_assert_eq!(report.replayed_records, logged[boundary]);
        prop_assert!(
            fingerprint(recovered.engine()) == states[boundary],
            "recovery after {boundary} commands differs from the live state there"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A distinguishable single-op record for group-commit differentials (the
/// key makes every frame's bytes unique, so prefix comparison catches
/// loss, duplication and reordering).
fn keyed_record(seed: u64, k: u64) -> LogRecord {
    #[allow(clippy::cast_possible_wrap)]
    LogRecord::Batch(vec![EvolutionOp::insert(
        "R",
        vec![tup![(seed ^ k) as i64, k as i64]],
    )])
}

fn sealed_bytes(seed: u64, k: u64) -> Vec<u8> {
    eve::store::to_bytes(&SealedRecord {
        post_generation: 0,
        record: keyed_record(seed, k),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(
        std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(24)
    ))]

    /// Group-commit crash differential. `acked` records are acknowledged
    /// through commit tickets; `queued` more are enqueued but never
    /// waited on when the process dies (their followers are still
    /// blocked). Optionally the crash also tears bytes off the active
    /// segment — the crash-between-buffer-write-and-fsync case. Recovery
    /// must produce an exact byte **prefix** of the enqueue order: every
    /// record either fully survives in order or never existed; absent a
    /// tear, the prefix covers at least every acknowledged record.
    #[test]
    fn group_commit_crash_recovers_exactly_a_committed_prefix(
        seed in 0u64..1_000_000,
        acked in 0u64..12,
        queued in 0u64..12,
        tear in prop::option::of(1u64..48),
    ) {
        let dir = scratch_dir("group-crash");
        let store = EvolutionStore::create(&dir).unwrap();
        let log = GroupCommitLog::new(store, GroupCommitPolicy::default());
        for k in 0..acked {
            let seq = log.append_durable(0, keyed_record(seed, k)).unwrap();
            prop_assert_eq!(seq, k);
        }
        for k in acked..acked + queued {
            // Enqueued, never flushed: the follower never saw its ticket
            // resolve, so durability was never promised.
            drop(log.enqueue(0, keyed_record(seed, k)).unwrap());
        }
        drop(log); // crash with followers still queued

        if let Some(cut) = tear {
            let segment = active_segment(&dir);
            let len = std::fs::metadata(&segment).unwrap().len();
            let file = std::fs::OpenOptions::new().write(true).open(&segment).unwrap();
            file.set_len(len.saturating_sub(cut).max(16)).unwrap();
            file.sync_all().unwrap();
        }

        let (_, recovered) = EvolutionStore::open(&dir).unwrap();
        let n = recovered.tail.len() as u64;
        prop_assert!(n <= acked + queued);
        if tear.is_none() {
            prop_assert_eq!(n, acked, "exactly the acknowledged records survive a clean crash");
        }
        for (i, sealed) in recovered.tail.iter().enumerate() {
            prop_assert_eq!(
                &eve::store::to_bytes(sealed),
                &sealed_bytes(seed, i as u64),
                "recovered record {} must byte-match the enqueue order", i
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// One waiter's leader round commits the *whole* queue as one batch:
    /// recovery then surfaces every record of that batch — the recovered
    /// prefix always ends on a committed-batch boundary, even though only
    /// the first follower ever saw its ticket resolve.
    #[test]
    fn group_commit_batch_commits_are_all_or_nothing(
        seed in 0u64..1_000_000,
        batch in 2u64..16,
    ) {
        let dir = scratch_dir("group-batch");
        let store = EvolutionStore::create(&dir).unwrap();
        let log = GroupCommitLog::new(store, GroupCommitPolicy::default());
        let mut tickets: Vec<_> = (0..batch)
            .map(|k| log.enqueue(0, keyed_record(seed, k)).unwrap())
            .collect();
        // Wait only the FIRST ticket: its leader round drains the whole
        // queue into one contiguous write + one fsync.
        let first = tickets.remove(0);
        prop_assert_eq!(first.wait().unwrap(), 0);
        let fsyncs = log.with_store(|s| s.stats().fsyncs);
        prop_assert_eq!(fsyncs, 1, "one fsync covered the whole batch");
        drop(tickets); // the followers never observe their seqs
        drop(log);     // crash

        let (_, recovered) = EvolutionStore::open(&dir).unwrap();
        prop_assert_eq!(
            recovered.tail.len() as u64, batch,
            "the committed batch survives in full — a batch boundary, not an ack boundary"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Recovery that falls back past a damaged snapshot reads every segment
/// after the older anchor in full — here the pre-checkpoint segment and
/// the newest one — and still lands on the uncrashed engine byte for byte.
#[test]
fn damaged_snapshot_recovery_reads_several_segments() {
    let dir = scratch_dir("multi-segment");
    // The checkpoint after the second batch writes `snap-2` and rotates
    // the log, so the records live in `seg-0` and `seg-2`.
    let (states, _) = run_durable(&dir, 3, 40, 4, 77, Some(1));
    let newest_snapshot = std::fs::read_dir(&dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "evs"))
        .max()
        .expect("the store holds snapshots");
    let mut bytes = std::fs::read(&newest_snapshot).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0xff;
    std::fs::write(&newest_snapshot, &bytes).unwrap();
    let newest_segment_start: u64 = active_segment(&dir)
        .file_stem()
        .and_then(|stem| stem.to_str()?.strip_prefix("seg-")?.parse().ok())
        .expect("segment names carry their start sequence");

    let (recovered, report) = DurableEngine::open(&dir).unwrap();
    assert_eq!(
        report.snapshots_skipped, 1,
        "the damaged snapshot was skipped"
    );
    let anchor = report
        .snapshot_seq
        .expect("the bootstrap snapshot is intact");
    assert!(
        anchor < newest_segment_start,
        "the replayed tail starts at {anchor}, inside an older segment than seg-{newest_segment_start}"
    );
    assert_eq!(
        anchor + report.replayed_records,
        states.len() as u64 - 1,
        "every record replayed"
    );
    assert_eq!(fingerprint(recovered.engine()), *states.last().unwrap());
    std::fs::remove_dir_all(&dir).ok();
}

/// A snapshot's replay point is the sequence number in its file name, and
/// its header repeats it. A copy of `snap-a` saved as a later `snap-b`
/// disagrees with its name, so recovery and time travel refuse it as
/// damage and fall back to `snap-a`, instead of resuming at `b` and
/// silently skipping the records in between. Once for a full image
/// written by `checkpoint`, once for an automatic delta checkpoint.
#[test]
fn a_snapshot_copied_to_a_later_seq_is_refused() {
    for (tag, ext) in [("copied-full", "evs"), ("copied-delta", "evd")] {
        let dir = scratch_dir(tag);
        let (engine, ops) = fixtures::build_workload(3, 40, 91).unwrap();
        let mut durable = DurableEngine::create_with(&dir, engine).unwrap();
        if ext == "evd" {
            durable.snapshot_every = Some(3);
        }
        let mut states = vec![fingerprint(durable.engine())];
        let mut generations = vec![durable.engine().mkb().generation()];
        for (i, batch) in into_batches(ops, 4).into_iter().enumerate() {
            durable.apply_batch(batch).unwrap();
            states.push(fingerprint(durable.engine()));
            generations.push(durable.engine().mkb().generation());
            if ext == "evs" && i == 1 {
                durable.checkpoint().unwrap();
            }
        }
        drop(durable);

        let (a, snap_a) = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|entry| {
                let path = entry.unwrap().path();
                let name = path.file_name()?.to_str()?;
                let seq: u64 = name
                    .strip_prefix("snap-")?
                    .strip_suffix(&format!(".{ext}"))?
                    .parse()
                    .ok()?;
                Some((seq, path))
            })
            .max()
            .expect("the store holds a snapshot of this kind");
        let b = states.len() as u64 - 1;
        assert!(0 < a && a < b, "snap-{a} precedes the last record {b}");
        std::fs::copy(&snap_a, dir.join(format!("snap-{b:020}.{ext}"))).unwrap();

        for &target in &generations {
            let expected = generations.iter().rposition(|&g| g <= target).unwrap();
            let travelled = DurableEngine::open_at(&dir, target).unwrap();
            assert!(
                fingerprint(&travelled) == states[expected],
                "{tag}: open_at({target}) must match the committed prefix through record {expected}"
            );
        }
        let (recovered, report) = DurableEngine::open(&dir).unwrap();
        assert_eq!(report.snapshots_skipped, 1, "{tag}: the copy was skipped");
        assert_eq!(
            report.snapshot_seq,
            Some(a),
            "{tag}: recovery anchors at snap-{a}"
        );
        assert!(
            fingerprint(recovered.engine()) == *states.last().unwrap(),
            "{tag}: recovery must land on the last committed state"
        );
        drop(recovered);
        std::fs::remove_dir_all(&dir).ok();
    }
}

fn segment(dir: &Path, start_seq: u64) -> PathBuf {
    dir.join(format!("seg-{start_seq:020}.evl"))
}

fn flip_byte(path: &Path, offset: usize, mask: u8) {
    let mut bytes = std::fs::read(path).unwrap();
    bytes[offset] ^= mask;
    std::fs::write(path, &bytes).unwrap();
}

/// A damaged segment that recovery passes over (it lies wholly before the
/// anchor) is damage to time travel as soon as a bound needs its records:
/// `open_at` refuses instead of returning the records before the damage.
/// A bound anchored past it still reads the exact committed prefix.
#[test]
fn time_travel_refuses_a_damaged_segment_it_needs() {
    let dir = scratch_dir("damaged-seg0");
    // Ten batches; the checkpoint after the eighth writes `snap-8` and
    // rotates, so `seg-0` holds records 0..8 and `seg-8` the last two.
    let (states, generations) = run_durable(&dir, 3, 40, 4, 77, Some(7));
    let seg0 = segment(&dir, 0);
    let len = std::fs::metadata(&seg0).unwrap().len();
    flip_byte(&seg0, usize::try_from(len / 3).unwrap(), 0x01);

    let (recovered, _) = DurableEngine::open(&dir).unwrap();
    assert!(fingerprint(recovered.engine()) == *states.last().unwrap());
    drop(recovered);
    let mut refused = 0;
    for &target in &generations {
        let travel = EvolutionStore::plan_travel_in(&dir, target);
        if target < generations[8] {
            assert!(
                matches!(travel, Err(eve::store::Error::Corrupt { .. })),
                "open_at({target}) anchors on snap-0 and needs the damaged seg-0"
            );
            assert!(DurableEngine::open_at(&dir, target).is_err());
            refused += 1;
        } else {
            let expected = generations.iter().rposition(|&g| g <= target).unwrap();
            let travelled = DurableEngine::open_at(&dir, target).unwrap();
            assert!(
                fingerprint(&travelled) == states[expected],
                "open_at({target}) must match the committed prefix through record {expected}"
            );
        }
    }
    assert!(refused > 0 && refused < generations.len());
    std::fs::remove_dir_all(&dir).ok();
}

/// A rotation torn by a crash leaves a final segment shorter than its
/// header. Recovery drops it; time travel reads past it without touching
/// the directory.
#[test]
fn time_travel_tolerates_a_torn_rotation_read_only() {
    let dir = scratch_dir("torn-rotation");
    // The checkpoint after the last batch rotates to an empty `seg-10`.
    let (states, generations) = run_durable(&dir, 3, 40, 4, 77, Some(9));
    let seg10 = segment(&dir, 10);
    let file = std::fs::OpenOptions::new()
        .write(true)
        .open(&seg10)
        .unwrap();
    file.set_len(7).unwrap();
    drop(file);

    for &target in &generations {
        let expected = generations.iter().rposition(|&g| g <= target).unwrap();
        let travelled = DurableEngine::open_at(&dir, target).unwrap();
        assert!(
            fingerprint(&travelled) == states[expected],
            "open_at({target}) must match the committed prefix through record {expected}"
        );
    }
    assert_eq!(std::fs::metadata(&seg10).unwrap().len(), 7, "left in place");
    let (recovered, report) = DurableEngine::open(&dir).unwrap();
    assert!(fingerprint(recovered.engine()) == *states.last().unwrap());
    assert_eq!(report.torn_bytes_truncated, 7);
    assert!(!seg10.exists(), "recovery deletes it under the lock");
    drop(recovered);
    std::fs::remove_dir_all(&dir).ok();
}

/// A segment whose header names another start sequence than its file
/// name is refused by time travel with recovery's own error, whenever the
/// walk reaches it.
#[test]
fn time_travel_refuses_a_segment_header_that_disagrees_with_its_name() {
    let dir = scratch_dir("seg-header");
    let (states, generations) = run_durable(&dir, 3, 40, 4, 77, Some(7));
    // Bit 0 of the little-endian `start_seq` after the 8-byte magic.
    flip_byte(&segment(&dir, 8), 8, 0x01);

    let refused = DurableEngine::open(&dir).unwrap_err().to_string();
    assert!(
        refused.contains("header start_seq 9 disagrees with its name"),
        "{refused}"
    );
    for &target in &generations {
        match DurableEngine::open_at(&dir, target) {
            Ok(travelled) => {
                let expected = generations.iter().rposition(|&g| g <= target).unwrap();
                assert!(
                    fingerprint(&travelled) == states[expected],
                    "open_at({target})"
                );
                assert!(target < generations[8], "open_at({target}) must read seg-8");
            }
            Err(e) => assert_eq!(e.to_string(), refused, "open_at({target})"),
        }
    }
    for target in [generations[8], *generations.last().unwrap()] {
        let err = DurableEngine::open_at(&dir, target).unwrap_err();
        assert_eq!(err.to_string(), refused, "open_at({target})");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The tier-1 crash-recovery smoke CI runs by name: write ops, kill the
/// engine, corrupt the tail, recover, diff — end to end in one test.
#[test]
fn crash_recovery_smoke() {
    let dir = scratch_dir("smoke");
    let (states, _) = run_durable(&dir, 3, 40, 5, 2024, Some(2));

    // A clean kill first: recovery must land on the final state.
    let (recovered, report) = DurableEngine::open(&dir).unwrap();
    assert_eq!(report.torn_bytes_truncated, 0);
    assert_eq!(fingerprint(recovered.engine()), *states.last().unwrap());
    drop(recovered);

    // Now a torn write: chop 3 bytes off the active segment and recover
    // again — one record rolls back, nothing else.
    let segment = active_segment(&dir);
    let len = std::fs::metadata(&segment).unwrap().len();
    let file = std::fs::OpenOptions::new()
        .write(true)
        .open(&segment)
        .unwrap();
    file.set_len(len - 3).unwrap();
    file.sync_all().unwrap();
    drop(file);
    let (recovered, report) = DurableEngine::open(&dir).unwrap();
    assert!(report.torn_bytes_truncated > 0);
    assert_eq!(
        fingerprint(recovered.engine()),
        states[states.len() - 2],
        "exactly the torn record rolled back"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A logged `delete-relation` whose swap the commit carries: `V1` moves
/// from `R1_b` onto the replica `R1_c`, which holds the same bag in
/// another order, and keeps its maintained extent. After a crash, replay
/// carries it again, so every view comes back byte for byte, row order
/// included — an order no fresh evaluation yields.
#[test]
fn a_carried_swap_recovers_byte_identical_views() {
    let dir = scratch_dir("carried-swap");
    let mut durable = DurableEngine::create_with(&dir, fixtures::build_space(2).unwrap()).unwrap();
    durable
        .apply_batch(vec![
            // The same row in both replicas: maintenance appends its join
            // row `(7, 4)` to `V1`, where evaluation would put it next to
            // `(7, 2)`.
            EvolutionOp::insert("R1_b", vec![tup![7, 4]]),
            EvolutionOp::insert("R1_c", vec![tup![7, 4]]),
            // One row of `R1_c` moved to its end.
            EvolutionOp::delete("R1_c", vec![tup![0, 0]]),
            EvolutionOp::insert("R1_c", vec![tup![0, 0]]),
        ])
        .unwrap();
    durable
        .apply_batch(vec![EvolutionOp::change(SchemaChange::DeleteRelation {
            relation: "R1_b".into(),
        })])
        .unwrap();
    let engine = durable.engine();
    let v1 = engine.view("V1").unwrap();
    assert!(v1.def.from.iter().any(|f| f.relation == "R1_c"));
    let fresh = engine.evaluate(&v1.def).unwrap();
    assert_ne!(v1.extent.tuples(), fresh.tuples(), "V1 was re-evaluated");
    // The fingerprint holds every view's extent, rows in order.
    let live = fingerprint(engine);
    drop(durable); // crash: no checkpoint since the bootstrap snapshot

    let (recovered, report) = DurableEngine::open(&dir).unwrap();
    assert_eq!(report.replayed_records, 2);
    assert_eq!(fingerprint(recovered.engine()), live);
    std::fs::remove_dir_all(&dir).ok();
}

/// A data op whose second tuple is ill-typed applies nothing: the site
/// keeps its rows and every view stays a fresh evaluation's bag, on the
/// batched path, the op-by-op path and `SeedTuples` alike. The durable
/// host's re-anchoring snapshot then holds the untouched state, so a
/// reopened store equals the live engine.
#[test]
fn an_ill_typed_tuple_applies_no_part_of_its_op() {
    use eve::system::DataUpdate;
    let ill_typed = || vec![tup![1, 2], tup!["x", "y"]];
    let mut engine = EveEngine::new();
    engine.add_site(SiteId(1), "one").unwrap();
    engine
        .register_relation(
            RelationInfo::new("R", SiteId(1), kp_attrs(), 1),
            kp_relation("R", vec![tup![0, 0]]),
        )
        .unwrap();
    engine
        .define_view_sql("CREATE VIEW V (VE = '~') AS SELECT X.K FROM R X")
        .unwrap();
    let before = fingerprint(&engine);
    let unchanged = |engine: &EveEngine, path: &str| {
        assert_eq!(fingerprint(engine), before, "{path} changed the state");
        let v = engine.view("V").unwrap();
        let mut held = v.extent.tuples().to_vec();
        let mut fresh = engine.evaluate(&v.def).unwrap().tuples().to_vec();
        held.sort();
        fresh.sort();
        assert_eq!(held, fresh, "{path}: V is not its definition's bag");
    };
    let refused =
        |err: eve::system::Error| assert!(err.to_string().contains("type mismatch"), "{err}");

    refused(
        engine
            .apply_batch(vec![EvolutionOp::insert("R", ill_typed())])
            .unwrap_err(),
    );
    unchanged(&engine, "apply_batch");
    refused(
        engine
            .notify_data_update(&DataUpdate::insert("R", ill_typed()))
            .unwrap_err(),
    );
    unchanged(&engine, "notify_data_update");
    refused(
        engine
            .apply(LogRecord::SeedTuples {
                relation: "R".into(),
                tuples: ill_typed(),
            })
            .unwrap_err(),
    );
    unchanged(&engine, "SeedTuples");

    let dir = scratch_dir("ill-typed");
    let mut durable = DurableEngine::create_with(&dir, engine).unwrap();
    refused(
        durable
            .apply_batch(vec![EvolutionOp::insert("R", ill_typed())])
            .unwrap_err(),
    );
    unchanged(durable.engine(), "durable apply_batch");
    drop(durable);
    let (reopened, _) = DurableEngine::open(&dir).unwrap();
    unchanged(reopened.engine(), "reopened");
    std::fs::remove_dir_all(&dir).ok();
}

/// Compaction keeps recovery exact while bounding the log.
#[test]
fn compaction_preserves_recovery() {
    let dir = scratch_dir("compact");
    let (engine, ops) = fixtures::build_workload(2, 24, 9).unwrap();
    let mut durable = DurableEngine::create_with(&dir, engine).unwrap();
    for batch in into_batches(ops, 4) {
        durable.apply_batch(batch).unwrap();
    }
    durable.checkpoint().unwrap();
    durable.compact().unwrap();
    let expected = fingerprint(durable.engine());
    drop(durable);
    let (recovered, report) = DurableEngine::open(&dir).unwrap();
    assert_eq!(fingerprint(recovered.engine()), expected);
    assert_eq!(report.replayed_records, 0, "recovery is pure snapshot load");
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------
// Goldens written by the build *before* shell, wire, log and replay shared
// one command interpreter: same text, same bytes, old stores still open.
// ---------------------------------------------------------------------

fn golden(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// The store files (segments, full and delta snapshots) of a directory,
/// by file name — everything but the lock file.
fn store_files(dir: &Path) -> std::collections::BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| {
            path.extension()
                .is_some_and(|x| x == "evl" || x == "evs" || x == "evd")
        })
        .map(|path| {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read(&path).unwrap())
        })
        .collect()
}

/// `tests/golden/shell_script.txt` through a shell after `open <tempdir>`:
/// the transcript (rendered as `examples/eve_shell.rs` prints it, each
/// line echoed behind its prompt) and every log segment the session writes
/// are byte-identical to what the parent build produced.
#[test]
fn shell_session_reproduces_the_golden_transcript_and_segments() {
    let dir = scratch_dir("golden-shell");
    let store = dir.display().to_string();
    let mut shell = Shell::new();
    let mut transcript = String::new();
    let script = std::fs::read_to_string(golden("shell_script.txt")).unwrap();
    for line in std::iter::once("open <store>").chain(script.lines()) {
        transcript.push_str(&format!("> {line}\n"));
        match shell.execute(&line.replace("<store>", &store)) {
            Ok(out) if out.is_empty() => {}
            Ok(out) => transcript.push_str(&format!("{}\n", out.replace(&store, "<store>"))),
            Err(e) => transcript.push_str(&format!("error: {e}\n")),
        }
    }
    drop(shell);
    let expected = std::fs::read_to_string(golden("shell_durable_transcript.txt")).unwrap();
    assert_eq!(transcript, expected);
    let mut written = store_files(&dir);
    written.retain(|name, _| name.ends_with(".evl"));
    assert_eq!(written, store_files(&golden("shell_durable_segments")));
    std::fs::remove_dir_all(&dir).ok();
}

/// The command stream behind `tests/golden/store-head/`: all eleven record
/// kinds, a repeated `DeclareIndex`, a bare-column view, and — with
/// `snapshot_every = 3` — a delta checkpoint after the third batch, so the
/// last four records are the tail recovery replays.
fn store_head_commands() -> Vec<LogRecord> {
    let mut commands = vec![
        LogRecord::AddSite {
            id: 1,
            name: "one".into(),
        },
        LogRecord::AddSite {
            id: 2,
            name: "two".into(),
        },
    ];
    for (name, site) in [("Ra", 1), ("Rb", 1), ("Rc", 2)] {
        commands.push(LogRecord::RegisterRelation {
            info: RelationInfo::new(name, SiteId(site), kp_attrs(), 10),
            extent: kp_relation(name, Vec::new()),
        });
        commands.push(LogRecord::SeedTuples {
            relation: name.into(),
            tuples: (0..6i64).map(|k| tup![k, k % 3]).collect(),
        });
    }
    let view = |sql: &str| LogRecord::DefineView(eve::esql::parse_view(sql).unwrap());
    commands.extend([
        LogRecord::AddPcConstraint(pc_equivalent("Rb", "Rc")),
        LogRecord::AddJoinConstraint(jc_on_k("Ra", "Rb")),
        LogRecord::SetJoinSelectivity {
            left: "Ra".into(),
            right: "Rb".into(),
            js: 0.01,
        },
        LogRecord::SetDefaultJoinSelectivity { js: 0.02 },
        index_hint("Ra", "K", IndexKind::Hash),
        index_hint("Ra", "K", IndexKind::Hash),
        view(
            "CREATE VIEW V (VE = '~') AS SELECT A.K, B.P AS BP \
             FROM Ra A, Rb B (RR = true) WHERE A.K = B.K",
        ),
        view("CREATE VIEW U (VE = '~') AS SELECT K FROM Rc WHERE P = 1"),
        LogRecord::Batch(vec![EvolutionOp::insert("Ra", vec![tup![100, 0]])]),
        LogRecord::Batch(vec![
            EvolutionOp::insert("Rb", vec![tup![100, 1]]),
            EvolutionOp::insert("Rc", vec![tup![100, 1]]),
        ]),
        LogRecord::Batch(vec![EvolutionOp::delete("Ra", vec![tup![0, 0]])]),
        index_hint("Rb", "P", IndexKind::Sorted),
        LogRecord::DropView { name: "U".into() },
        LogRecord::Batch(vec![EvolutionOp::change(SchemaChange::DeleteRelation {
            relation: "Rb".into(),
        })]),
        LogRecord::Batch(vec![EvolutionOp::insert("Rc", vec![tup![101, 2]])]),
    ]);
    commands
}

/// A store directory written by the parent build (two segments around a
/// delta checkpoint, the bootstrap full snapshot, both `DeclareIndex`
/// kinds) still opens to the fingerprint committed beside it, still time
/// travels — and the same commands through `DurableEngine::apply` write
/// the same files, byte for byte.
///
/// One move against the committed fingerprint is deliberate: that build
/// kept the `Rb.P` index hint after `delete-relation Rb`, although nothing
/// hosts `Rb` any more. A deleted relation now drops its hints, so the
/// expected state is the committed one with exactly that hint removed;
/// every other byte must still match, and the hints left must name what
/// is hosted.
#[test]
fn store_written_by_the_parent_build_opens_travels_and_is_reproduced() {
    // `open` takes the directory lock and may truncate or rotate: work on
    // a copy, never on the committed fixture.
    let dir = scratch_dir("store-head");
    std::fs::create_dir_all(&dir).unwrap();
    let fixture = store_files(&golden("store-head"));
    for (name, bytes) in &fixture {
        std::fs::write(dir.join(name), bytes).unwrap();
    }
    // Generation 8 replays the first segment from the bootstrap snapshot
    // up to the record before `SetDefaultJoinSelectivity`; generation 9
    // anchors on the delta checkpoint and replays the tail up to (not
    // including) the capability change.
    let early = DurableEngine::open_at(&dir, 8).unwrap();
    assert_eq!(early.mkb().join_constraints().len(), 1);
    assert_eq!((early.views().count(), early.index_hints().len()), (0, 0));
    let late = DurableEngine::open_at(&dir, 9).unwrap();
    assert!(late.mkb().has_relation("Rb") && late.view("U").is_err());
    assert_eq!(late.index_hints().len(), 2);
    let (recovered, report) = DurableEngine::open(&dir).unwrap();
    assert_eq!(
        (report.snapshot_seq, report.replayed_records),
        (Some(18), 4)
    );
    let committed = std::fs::read(golden("store-head.fingerprint")).unwrap();
    let mut state = eve::store::EngineSnapshot::from_bytes(&committed).unwrap();
    let stale = |h: &IndexHint| h.relation == "Rb" && h.column == "P";
    assert_eq!(
        state.config.index_hints.iter().filter(|h| stale(h)).count(),
        1
    );
    state.config.index_hints.retain(|h| !stale(h));
    let expected = state.to_bytes();
    assert_eq!(fingerprint(recovered.engine()), expected);
    assert_eq!(recovered.engine().index_hints().len(), 1);
    for hint in recovered.engine().index_hints() {
        assert!(
            recovered.engine().mkb().has_relation(&hint.relation),
            "{hint:?}"
        );
    }
    assert!(recovered.engine().view("U").is_err());
    drop(recovered);
    std::fs::remove_dir_all(&dir).ok();

    let dir = scratch_dir("store-head-again");
    let mut durable = DurableEngine::create(&dir).unwrap();
    durable.snapshot_every = Some(3);
    for cmd in store_head_commands() {
        durable.apply(cmd).unwrap();
    }
    assert_eq!(fingerprint(durable.engine()), expected);
    drop(durable);
    assert_eq!(store_files(&dir), fixture);
    std::fs::remove_dir_all(&dir).ok();
}
