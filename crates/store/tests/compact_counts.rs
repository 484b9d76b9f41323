//! `compact` materialises a delta anchor as a full image, and that image
//! is a snapshot like any other: the process-wide `store.snapshots_written`
//! and `store.snapshot_bytes_written` counters count it. The registry is
//! global, so this binary holds one test and nothing else writes a
//! snapshot while it reads the counters.

use eve_store::{
    DeltaSnapshot, EngineConfig, EngineSnapshot, EvolutionStore, LogRecord, SnapshotManifest,
};

fn empty_snapshot() -> EngineSnapshot {
    EngineSnapshot {
        mkb: eve_misd::Mkb::new().export_state(),
        sites: Vec::new(),
        views: Vec::new(),
        config: EngineConfig {
            sync_options: eve_sync::SyncOptions::default(),
            qc_params: eve_qc::QcParams::default(),
            workload: eve_qc::WorkloadModel::SingleUpdate,
            strategy: eve_qc::SelectionStrategy::QcBest,
            index_hints: Vec::new(),
        },
    }
}

#[test]
fn compact_counts_the_full_image_it_materialises() {
    let dir = std::env::temp_dir().join(format!("eve-store-compact-counts-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mut store = EvolutionStore::create(&dir).unwrap();
    let state = empty_snapshot();
    store.write_snapshot(&state).unwrap(); // full @ 0
    store
        .append(0, LogRecord::DropView { name: "V".into() })
        .unwrap();
    let delta = DeltaSnapshot::between(0, &SnapshotManifest::of(&state), &state);
    store.write_delta_snapshot(&delta).unwrap(); // delta @ 1, base 0

    let registry = eve_trace::global();
    let count = || registry.counter("store.snapshots_written").get();
    let bytes = || registry.counter("store.snapshot_bytes_written").get();
    let (count_before, bytes_before) = (count(), bytes());
    let stats_before = store.stats();
    assert_eq!(store.compact().unwrap(), (1, 2));

    let image = dir.join(format!("snap-{:020}.evs", 1));
    let size = std::fs::metadata(&image).unwrap().len();
    assert_eq!(count(), count_before + 1);
    assert_eq!(bytes(), bytes_before + size);
    let stats = store.stats();
    assert_eq!(stats.snapshots_written, stats_before.snapshots_written + 1);
    assert_eq!(
        stats.snapshot_bytes_written,
        stats_before.snapshot_bytes_written + size
    );
    assert_eq!(
        stats.delta_snapshots_written,
        stats_before.delta_snapshots_written
    );
    drop(store);
    std::fs::remove_dir_all(&dir).ok();
}
