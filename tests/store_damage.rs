//! Damage one file of a store and read it back: recovery and time travel
//! never panic, and each either refuses or returns exactly the committed
//! state for its bound.
//!
//! The store holds full and delta snapshots (`snapshot_every = 3` plus one
//! explicit `checkpoint`) and four log segments. One of its files — a
//! segment, a full image or a delta — gets one byte flipped or is cut
//! short at a random offset. Then:
//!
//! * `open_at(g)` for every generation the run observed returns `Err` or
//!   the committed state at `g`;
//! * `open` returns `Err` or the last committed state;
//! * damage to the final segment may instead lose a suffix of the log: the
//!   result is then a shorter committed prefix, never anything else;
//! * after a successful `open`, `compact` and a second `open` leave the
//!   state unchanged.
//!
//! Beside the property, fixed cases pin what the final segment may end in
//! after its last frame: zeros (of any length, shorter than a frame header
//! or a whole block's rest) are the log's clean end, a zero header followed
//! by other bytes is a torn tail, and zeros after the last frame of a
//! non-final segment are corruption.

use proptest::prelude::*;

use eve::store::LogRecord;
use eve::system::DurableEngine;
use eve_bench::fixtures::{self, fingerprint, into_batches};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

static DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

fn scratch_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "eve-store-damage-{}-{}",
        std::process::id(),
        DIR_COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Ten batches of four ops with a delta checkpoint after every third batch
/// and a full one after the fifth: snapshots at 0 (full), 3 (delta), 5
/// (full) and 8 (delta), segments starting at 0, 3, 5 and 8. Returns the
/// committed state and generation after each record.
fn build_store(dir: &Path, seed: u64) -> (Vec<Vec<u8>>, Vec<u64>) {
    let (engine, ops) = fixtures::build_workload(3, 40, seed).unwrap();
    let mut durable = DurableEngine::create_with(dir, engine).unwrap();
    durable.snapshot_every = Some(3);
    let mut states = vec![fingerprint(durable.engine())];
    let mut generations = vec![durable.engine().mkb().generation()];
    for (i, batch) in into_batches(ops, 4).into_iter().enumerate() {
        durable.apply_batch(batch).unwrap();
        states.push(fingerprint(durable.engine()));
        generations.push(durable.engine().mkb().generation());
        if i == 4 {
            durable.checkpoint().unwrap();
        }
    }
    (states, generations)
}

/// The store's segments and snapshots, by name.
fn store_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| {
            path.extension()
                .is_some_and(|x| x == "evl" || x == "evs" || x == "evd")
        })
        .collect();
    files.sort();
    files
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(
        std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(24)
    ))]

    #[test]
    fn a_damaged_file_is_refused_or_read_as_a_committed_prefix(
        seed in 0u64..1_000_000,
        pick in 0usize..1000,
        at in 0.0f64..1.0,
        mask in 1u8..=255,
        truncate in any::<bool>(),
    ) {
        let dir = scratch_dir();
        let (states, generations) = build_store(&dir, seed);
        let files = store_files(&dir);
        let names: Vec<String> = files
            .iter()
            .map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
            .collect();
        let expected: Vec<String> = [(0, "evl"), (3, "evl"), (5, "evl"), (8, "evl")]
            .into_iter()
            .map(|(seq, ext)| format!("seg-{seq:020}.{ext}"))
            .chain(
                [(0, "evs"), (3, "evd"), (5, "evs"), (8, "evd")]
                    .into_iter()
                    .map(|(seq, ext)| format!("snap-{seq:020}.{ext}")),
            )
            .collect();
        prop_assert_eq!(names, expected);

        let victim = &files[pick % files.len()];
        let final_segment = files
            .iter()
            .filter(|p| p.extension().is_some_and(|x| x == "evl"))
            .max()
            .is_some_and(|last| last == victim);
        let mut bytes = std::fs::read(victim).unwrap();
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss, clippy::cast_precision_loss)]
        let offset = (bytes.len() as f64 * at) as usize;
        if truncate {
            bytes.truncate(offset);
        } else {
            let last = bytes.len() - 1;
            bytes[offset.min(last)] ^= mask;
        }
        std::fs::write(victim, &bytes).unwrap();
        let what = format!(
            "{} {} at byte {offset}",
            if truncate { "cut" } else { "flipped" },
            victim.file_name().unwrap().to_string_lossy()
        );

        // A committed state at or before `expected`: exactly it, unless the
        // final segment lost a suffix of the log.
        let committed = |state: &[u8], expected: usize| {
            if final_segment {
                states[..=expected].iter().any(|s| s == state)
            } else {
                states[expected] == state
            }
        };
        for &target in &generations {
            if let Ok(travelled) = DurableEngine::open_at(&dir, target) {
                let expected = generations.iter().rposition(|&g| g <= target).unwrap();
                prop_assert!(
                    committed(&fingerprint(&travelled), expected),
                    "{}: open_at({}) is no committed state through record {}",
                    what, target, expected
                );
            }
        }
        if let Ok((mut recovered, _)) = DurableEngine::open(&dir) {
            let state = fingerprint(recovered.engine());
            prop_assert!(
                committed(&state, states.len() - 1),
                "{}: open recovered no committed state",
                what
            );
            recovered.compact().unwrap();
            drop(recovered);
            let (reopened, _) = DurableEngine::open(&dir).unwrap();
            prop_assert!(fingerprint(reopened.engine()) == state, "{}: compact moved the state", what);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// `bytes` appended to the file at `path`.
fn extend_file(path: &Path, bytes: &[u8]) {
    let mut all = std::fs::read(path).unwrap();
    all.extend_from_slice(bytes);
    std::fs::write(path, all).unwrap();
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).unwrap().len()
}

/// Zeros after the final segment's last frame — what a crash leaves of the
/// block the log grows by — are the log's clean end: every record
/// recovers, nothing counts as torn, nothing is truncated, and the next
/// appends overwrite the zeros in place.
#[test]
fn a_zero_tail_after_the_last_frame_is_the_logs_clean_end() {
    for zeros in [1usize, 11, 12, 13, 4095] {
        let dir = scratch_dir();
        let (states, _) = build_store(&dir, 7);
        let segment = fixtures::active_segment(&dir).unwrap().unwrap();
        let len = file_len(&segment);
        extend_file(&segment, &vec![0; zeros]);

        let (mut recovered, report) = DurableEngine::open(&dir).unwrap();
        assert_eq!(report.torn_bytes_truncated, 0, "{zeros} zeros");
        assert!(
            fingerprint(recovered.engine()) == *states.last().unwrap(),
            "{zeros} zeros: the last committed state"
        );
        assert_eq!(file_len(&segment), len + zeros as u64, "{zeros} zeros");
        for id in [98, 99] {
            let name = format!("late{id}");
            recovered.apply(LogRecord::AddSite { id, name }).unwrap();
        }
        let expected = fingerprint(recovered.engine());
        drop(recovered);
        let (reopened, report) = DurableEngine::open(&dir).unwrap();
        assert_eq!(report.torn_bytes_truncated, 0, "{zeros} zeros");
        assert!(
            fingerprint(reopened.engine()) == expected,
            "{zeros} zeros: the appends after recovery"
        );
        drop(reopened);
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A zero length field followed by any non-zero byte is a frame whose
/// header never reached disk while a later page did: a torn tail, which
/// recovery truncates, not a frame (its empty payload's CRC-64 is 0).
#[test]
fn a_zero_header_before_other_bytes_is_a_torn_tail() {
    for tail in [[0; 12].as_slice(), &[0; 4]]
        .into_iter()
        .map(|zeros| [zeros, &[0xAB; 20]].concat())
    {
        let dir = scratch_dir();
        let (states, _) = build_store(&dir, 7);
        let segment = fixtures::active_segment(&dir).unwrap().unwrap();
        let len = file_len(&segment);
        extend_file(&segment, &tail);

        let (recovered, report) = DurableEngine::open(&dir).unwrap();
        assert_eq!(report.torn_bytes_truncated, tail.len() as u64);
        assert!(fingerprint(recovered.engine()) == *states.last().unwrap());
        assert_eq!(file_len(&segment), len, "the torn tail was truncated");
        drop(recovered);
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Rotation trims the segment it closes, so zeros after the last frame of
/// a non-final segment are damage, as a torn frame there is: recovery and
/// time travel that read the segment both refuse the store.
#[test]
fn a_zero_tail_in_a_non_final_segment_is_corruption() {
    let dir = scratch_dir();
    let (states, _) = build_store(&dir, 7);
    // Without the later snapshots, recovery replays every segment from the
    // bootstrap image.
    for path in store_files(&dir) {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if name.starts_with("snap-") && name != format!("snap-{:020}.evs", 0) {
            std::fs::remove_file(&path).unwrap();
        }
    }
    let (recovered, report) = DurableEngine::open(&dir).unwrap();
    assert_eq!(report.snapshot_seq, Some(0));
    assert!(fingerprint(recovered.engine()) == *states.last().unwrap());
    drop(recovered);

    let first = store_files(&dir)[0].clone();
    assert!(first.ends_with(format!("seg-{:020}.evl", 0)));
    extend_file(&first, &[0; 100]);
    let refused = DurableEngine::open(&dir).unwrap_err().to_string();
    assert!(
        refused.contains("zero tail in non-final segment"),
        "{refused}"
    );
    let travel = DurableEngine::open_at(&dir, u64::MAX).unwrap_err();
    assert_eq!(travel.to_string(), refused);
    std::fs::remove_dir_all(&dir).ok();
}
