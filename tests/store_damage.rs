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

use proptest::prelude::*;

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
