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

use eve::relational::tup;
use eve::store::{
    EvolutionStore, GroupCommitLog, GroupCommitPolicy, LogRecord, RecoveryOptions, SealedRecord,
};
use eve::sync::EvolutionOp;
use eve::system::DurableEngine;
use eve_bench::fixtures::{self, fingerprint, into_batches};
use std::path::PathBuf;
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

/// Parallel segment replay is an I/O optimization, not a semantic change:
/// `open_with(parallel)` and `open_with(sequential)` recover byte-identical
/// snapshots, tails and stats-relevant outcomes on a multi-segment store.
#[test]
fn parallel_and_sequential_recovery_are_byte_identical() {
    let dir = scratch_dir("par-vs-seq");
    // A mid-stream checkpoint rotates the log, so recovery reads multiple
    // segments; raw appends afterwards grow the newest one's tail.
    run_durable(&dir, 3, 40, 4, 77, Some(1));
    {
        let (mut store, _) = EvolutionStore::open(&dir).unwrap();
        for k in 0..5 {
            store.append(0, keyed_record(5, k)).unwrap();
        }
    }

    let read = |parallel: bool| {
        let (store, recovered) = EvolutionStore::open_with(
            &dir,
            RecoveryOptions {
                parallel_replay: parallel,
            },
        )
        .unwrap();
        let threads = store.stats().replay_threads;
        drop(store);
        (
            recovered.snapshot.map(|(seq, s)| (seq, s.to_bytes())),
            recovered
                .tail
                .iter()
                .map(eve::store::to_bytes)
                .collect::<Vec<_>>(),
            recovered.torn_bytes,
            threads,
        )
    };
    let (par_snap, par_tail, par_torn, par_threads) = read(true);
    let (seq_snap, seq_tail, seq_torn, seq_threads) = read(false);
    assert_eq!(par_snap, seq_snap, "anchor snapshots must byte-match");
    assert_eq!(par_tail, seq_tail, "replay tails must byte-match");
    assert_eq!(par_torn, seq_torn);
    assert!(!par_tail.is_empty(), "the differential covered a real tail");
    assert_eq!(seq_threads, 1);
    assert!(par_threads >= 1);
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
