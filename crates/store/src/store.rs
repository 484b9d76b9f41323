//! The durable evolution store: one directory holding log segments and
//! snapshots, with fsync-per-append durability, crash recovery and
//! generation time-travel planning.
//!
//! ## Directory layout
//!
//! ```text
//! <dir>/seg-<start_seq>.evl    append-only log segments
//! <dir>/snap-<seq>.evs         full-state snapshots
//! <dir>/snap-<seq>.evd         incremental delta snapshots
//! <dir>/snap-<seq>.tmp         a snapshot being written (a leftover one
//!                              from a crash is deleted by `open`)
//! <dir>/store.lock             single-opener advisory lock
//! ```
//!
//! Record sequence numbers are global and contiguous across segments: the
//! segment named `seg-<s>` holds records `s, s+1, …` up to the next
//! segment's start. [`EvolutionStore::write_snapshot`] rotates the active
//! segment, so segment boundaries always coincide with snapshot points —
//! recovery never needs a partial segment, and [`EvolutionStore::compact`]
//! can drop whole files.
//!
//! Every append is flushed and `fsync`'d before it is acknowledged: a
//! record the store returned `Ok` for survives `kill -9`. A crash mid-write
//! leaves a torn frame at the active tail, which recovery detects by
//! checksum and truncates away.

use std::fs::{self, File, OpenOptions};
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use eve_trace::{Counter, Histogram};

use crate::error::{Error, Result};
use crate::fsutil::{sync_dir, DirLock};
use crate::log::{frame, read_segment, segment_header, truncate_segment, LogRecord, SealedRecord};
use crate::snapshot::{
    read_delta_file, read_delta_header, read_snapshot_file, read_snapshot_header, write_delta_file,
    write_snapshot_file, DeltaSnapshot, EngineSnapshot,
};

/// Process-wide mirrors of the per-store counters, kept in the global
/// metrics registry's `store.` family. Per-instance [`StoreStats`] stay
/// exact per store handle (and reset per handle); these aggregate across
/// every store in the process for the `metrics` surface, alongside two
/// latency/shape histograms the scalar stats cannot express.
struct StoreMirrors {
    records_appended: Arc<Counter>,
    log_bytes_appended: Arc<Counter>,
    fsyncs: Arc<Counter>,
    snapshots_written: Arc<Counter>,
    snapshot_bytes_written: Arc<Counter>,
    records_replayed: Arc<Counter>,
    segments_created: Arc<Counter>,
    /// Wall microseconds of each durable append (write + fsync).
    fsync_us: Arc<Histogram>,
    /// Records per group-commit batch.
    group_batch_records: Arc<Histogram>,
}

fn mirrors() -> &'static StoreMirrors {
    static MIRRORS: OnceLock<StoreMirrors> = OnceLock::new();
    MIRRORS.get_or_init(|| {
        let registry = eve_trace::global();
        StoreMirrors {
            records_appended: registry.counter("store.records_appended"),
            log_bytes_appended: registry.counter("store.log_bytes_appended"),
            fsyncs: registry.counter("store.fsyncs"),
            snapshots_written: registry.counter("store.snapshots_written"),
            snapshot_bytes_written: registry.counter("store.snapshot_bytes_written"),
            records_replayed: registry.counter("store.records_replayed"),
            segments_created: registry.counter("store.segments_created"),
            fsync_us: registry.histogram("store.fsync_us"),
            group_batch_records: registry.histogram("store.group_batch_records"),
        }
    })
}

/// Store I/O counters, folded into the engine's `stats` reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Records appended (acknowledged durable).
    pub records_appended: u64,
    /// Bytes appended to log segments (frames incl. headers).
    pub log_bytes_appended: u64,
    /// `fsync` calls issued for log appends, one per group-commit batch,
    /// so `records_appended / fsyncs` is the achieved amortization.
    pub fsyncs: u64,
    /// Snapshots written.
    pub snapshots_written: u64,
    /// Bytes written into snapshot files.
    pub snapshot_bytes_written: u64,
    /// Records replayed by recovery.
    pub records_replayed: u64,
    /// Torn bytes truncated from the active tail during recovery.
    pub torn_bytes_truncated: u64,
    /// Torn (partial) records dropped during recovery.
    pub torn_records_truncated: u64,
    /// Delta snapshots written (also counted in `snapshots_written`).
    pub delta_snapshots_written: u64,
}

/// Snapshot file kinds in a store directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SnapshotKind {
    /// A self-contained full-state image (`.evs`).
    Full,
    /// An incremental delta against an earlier snapshot (`.evd`).
    Delta,
}

/// One entry of the snapshot listing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotMeta {
    /// Sequence number (records `0..seq` are folded in).
    pub seq: u64,
    /// MKB generation at the snapshot point.
    pub generation: u64,
    /// Full image or incremental delta.
    pub kind: SnapshotKind,
}

/// What recovery found on disk.
#[derive(Debug, Clone)]
pub struct RecoveredLog {
    /// The newest intact snapshot, if any, with its sequence number.
    pub snapshot: Option<(u64, EngineSnapshot)>,
    /// The records to replay on top of the snapshot, starting at the
    /// snapshot's sequence number, in order.
    pub tail: Vec<SealedRecord>,
    /// The sequence number the next append will receive.
    pub next_seq: u64,
    /// Bytes dropped from the active tail (torn final write).
    pub torn_bytes: u64,
    /// Snapshot files that failed validation and were ignored.
    pub snapshots_skipped: usize,
}

/// The durable evolution store.
#[derive(Debug)]
pub struct EvolutionStore {
    dir: PathBuf,
    active: File,
    active_path: PathBuf,
    /// Byte length of the active segment's durable prefix (header + every
    /// acknowledged frame). A failed append may leave extra bytes past
    /// this point; they are rolled back eagerly and — as a second line of
    /// defence — before any segment rotation, so a damaged tail can never
    /// end up in a *non-final* segment (where recovery would treat it as
    /// corruption instead of a torn tail).
    active_len: u64,
    next_seq: u64,
    stats: StoreStats,
    /// Exclusive single-opener lock, held for the store's lifetime. Two
    /// concurrent opens of one directory would interleave appends and
    /// corrupt the tail; the second acquisition fails instead.
    _lock: DirLock,
}

fn seg_path(dir: &Path, start_seq: u64) -> PathBuf {
    dir.join(format!("seg-{start_seq:020}.evl"))
}

fn snap_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("snap-{seq:020}.evs"))
}

fn delta_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("snap-{seq:020}.evd"))
}

/// Upper bound on delta-chain length the loader will follow. Chains this
/// deep only arise from corruption (e.g. a cycle smuggled into `base_seq`
/// fields); compaction collapses healthy chains long before.
const MAX_DELTA_CHAIN: usize = 512;

fn parse_numbered(name: &str, prefix: &str, suffix: &str) -> Option<u64> {
    name.strip_prefix(prefix)?
        .strip_suffix(suffix)?
        .parse()
        .ok()
}

impl EvolutionStore {
    /// Creates a fresh store in `dir` (created if absent; must not already
    /// contain store files). The caller is expected to immediately write a
    /// bootstrap snapshot of its current engine state at sequence 0.
    ///
    /// # Errors
    ///
    /// I/O failures, or [`Error::State`] when `dir` already holds a store.
    pub fn create(dir: impl Into<PathBuf>) -> Result<EvolutionStore> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| Error::io(&dir, e))?;
        let lock = DirLock::acquire(&dir)?;
        if !Self::store_files(&dir)?.is_empty() {
            return Err(Error::state(format!(
                "{} already contains an evolution store — use open",
                dir.display()
            )));
        }
        let active_path = seg_path(&dir, 0);
        let mut active = OpenOptions::new()
            .create_new(true)
            .append(true)
            .open(&active_path)
            .map_err(|e| Error::io(&active_path, e))?;
        crate::log::append_all(&mut active, &active_path, &segment_header(0))?;
        active.sync_all().map_err(|e| Error::io(&active_path, e))?;
        // The directory entry for the new segment must be durable too, or
        // a crash leaves an "empty" directory with orphaned fsync'd bytes.
        sync_dir(&dir)?;
        Ok(EvolutionStore {
            dir,
            active,
            active_path,
            active_len: 16,
            next_seq: 0,
            stats: StoreStats::default(),
            _lock: lock,
        })
    }

    /// Whether `dir` looks like an existing store (holds segments or
    /// snapshots).
    ///
    /// # Errors
    ///
    /// I/O failures while listing the directory.
    pub fn exists(dir: &Path) -> Result<bool> {
        if !dir.is_dir() {
            return Ok(false);
        }
        Ok(!Self::store_files(dir)?.is_empty())
    }

    fn store_files(dir: &Path) -> Result<Vec<PathBuf>> {
        let mut out = Vec::new();
        if !dir.is_dir() {
            return Ok(out);
        }
        for entry in fs::read_dir(dir).map_err(|e| Error::io(dir, e))? {
            let entry = entry.map_err(|e| Error::io(dir, e))?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.ends_with(".evl") || name.ends_with(".evs") || name.ends_with(".evd") {
                out.push(entry.path());
            }
        }
        out.sort();
        Ok(out)
    }

    /// Deletes the `snap-<seq>.tmp` files a crashed snapshot write left
    /// behind: each can hold a whole snapshot, and no reader ever looks at
    /// one. Only regular files go; the caller must hold the directory
    /// lock, so no writer of this store can still own one.
    fn remove_leftover_temps(dir: &Path) -> Result<()> {
        for entry in fs::read_dir(dir).map_err(|e| Error::io(dir, e))? {
            let entry = entry.map_err(|e| Error::io(dir, e))?;
            let name = entry.file_name();
            let is_temp = parse_numbered(&name.to_string_lossy(), "snap-", ".tmp").is_some();
            if is_temp && entry.file_type().is_ok_and(|t| t.is_file()) {
                let path = entry.path();
                fs::remove_file(&path).map_err(|e| Error::io(&path, e))?;
            }
        }
        Ok(())
    }

    /// The segment files in start-sequence order.
    fn segment_paths(dir: &Path) -> Result<Vec<(u64, PathBuf)>> {
        let mut out = Vec::new();
        for path in Self::store_files(dir)? {
            let name = path
                .file_name()
                .unwrap_or_default()
                .to_string_lossy()
                .to_string();
            if let Some(seq) = parse_numbered(&name, "seg-", ".evl") {
                out.push((seq, path));
            }
        }
        out.sort();
        Ok(out)
    }

    /// The snapshot files (full and delta) in sequence order; at equal
    /// sequence numbers a full image sorts before a delta, so backward
    /// scans prefer the self-contained file.
    fn snapshot_files(dir: &Path) -> Result<Vec<(u64, SnapshotKind, PathBuf)>> {
        let mut out = Vec::new();
        for path in Self::store_files(dir)? {
            let name = path
                .file_name()
                .unwrap_or_default()
                .to_string_lossy()
                .to_string();
            if let Some(seq) = parse_numbered(&name, "snap-", ".evs") {
                out.push((seq, SnapshotKind::Full, path));
            } else if let Some(seq) = parse_numbered(&name, "snap-", ".evd") {
                out.push((seq, SnapshotKind::Delta, path));
            }
        }
        out.sort();
        Ok(out)
    }

    /// Loads the full state a snapshot entry describes, resolving delta
    /// chains recursively: a delta's base is looked up by sequence number
    /// (full image preferred), loaded, and overlaid. Any failure anywhere
    /// in the chain fails the whole candidate — the caller then falls
    /// back to an older entry, exactly as with a damaged full snapshot.
    fn load_snapshot_entry(
        entries: &[(u64, SnapshotKind, PathBuf)],
        idx: usize,
        depth: usize,
    ) -> Result<EngineSnapshot> {
        if depth > MAX_DELTA_CHAIN {
            return Err(Error::corrupt(format!(
                "delta-snapshot chain deeper than {MAX_DELTA_CHAIN} (cyclic base_seq?)"
            )));
        }
        // Replay resumes at the sequence number in the file name, so a
        // header naming another point (a copied or renamed file, a flipped
        // header word outside the payload checksum) is damage.
        let (seq, kind, path) = &entries[idx];
        let check_seq = |header_seq: u64| {
            if header_seq == *seq {
                Ok(())
            } else {
                Err(Error::corrupt(format!(
                    "{} header seq {header_seq} disagrees with its name",
                    path.display()
                )))
            }
        };
        match kind {
            SnapshotKind::Full => {
                let parsed = read_snapshot_file(path)?;
                check_seq(parsed.seq)?;
                Ok(parsed.snapshot)
            }
            SnapshotKind::Delta => {
                let parsed = read_delta_file(path)?;
                check_seq(parsed.seq)?;
                let base_seq = parsed.delta.base_seq;
                if base_seq > *seq {
                    return Err(Error::corrupt(format!(
                        "{}: delta base_seq {base_seq} is newer than the delta itself",
                        path.display()
                    )));
                }
                // Prefer a full image at the base sequence; never resolve
                // a delta to itself (base_seq == seq only matches a full).
                let base_idx = entries
                    .iter()
                    .position(|(s, k, _)| *s == base_seq && *k == SnapshotKind::Full)
                    .or_else(|| {
                        entries.iter().position(|(s, k, _)| {
                            *s == base_seq && *k == SnapshotKind::Delta && base_seq < *seq
                        })
                    })
                    .ok_or_else(|| {
                        Error::corrupt(format!(
                            "{}: delta base snapshot at seq {base_seq} is missing",
                            path.display()
                        ))
                    })?;
                let base = Self::load_snapshot_entry(entries, base_idx, depth + 1)?;
                Ok(parsed.delta.apply_to(&base))
            }
        }
    }

    /// Opens an existing store: picks the newest intact snapshot, reads the
    /// log records after it, truncates a torn tail on the active segment,
    /// and returns both the store (positioned for appends) and the replay
    /// plan.
    ///
    /// # Errors
    ///
    /// I/O failures; [`Error::Corrupt`] for damage anywhere but the active
    /// tail (e.g. a torn frame in a non-final segment, or every snapshot
    /// *and* the bootstrap log damaged); [`Error::State`] when `dir` holds
    /// no store; [`Error::RetiredPolicy`] when the snapshot recovery would
    /// load was written under a retired search policy.
    pub fn open(dir: impl Into<PathBuf>) -> Result<(EvolutionStore, RecoveredLog)> {
        let _span = eve_trace::span("store.recovery");
        let dir = dir.into();
        let lock = DirLock::acquire(&dir)?;
        let mut segments = Self::segment_paths(&dir)?;
        let Some((_, last_path)) = segments.last() else {
            return Err(Error::state(format!(
                "{} holds no evolution store (no log segments)",
                dir.display()
            )));
        };

        // Torn rotation: a crash between creating the new segment file and
        // its 16-byte header reaching disk leaves a short final segment. It
        // holds no acknowledged record, so drop it and continue on the
        // previous segment — unless it is the *only* file, in which case
        // nothing acknowledged ever existed and the store is unusable.
        let mut torn_bytes = 0u64;
        let len = std::fs::metadata(last_path)
            .map_err(|e| Error::io(last_path, e))?
            .len();
        if len < 16 {
            if segments.len() == 1 {
                return Err(Error::corrupt(format!(
                    "{} holds only a headerless segment (crash during creation)",
                    dir.display()
                )));
            }
            fs::remove_file(last_path).map_err(|e| Error::io(last_path, e))?;
            segments.pop();
            sync_dir(&dir)?;
            torn_bytes += len;
        }
        Self::remove_leftover_temps(&dir)?;

        // Newest intact snapshot wins; damaged ones — including deltas
        // whose base chain cannot be resolved — are skipped (recovery then
        // replays more log). A retired search policy is no damage: falling
        // back would replay its log under another policy.
        let entries = Self::snapshot_files(&dir)?;
        let mut snapshot: Option<(u64, EngineSnapshot)> = None;
        let mut snapshots_skipped = 0usize;
        for idx in (0..entries.len()).rev() {
            match Self::load_snapshot_entry(&entries, idx, 0) {
                Ok(state) => {
                    snapshot = Some((entries[idx].0, state));
                    break;
                }
                Err(retired @ Error::RetiredPolicy { .. }) => return Err(retired),
                Err(_) => snapshots_skipped += 1,
            }
        }
        let replay_from = snapshot.as_ref().map_or(0, |(seq, _)| *seq);

        // One pass in segment order: validate ordering/continuity and
        // collect the replay tail. Segment boundaries align with snapshots
        // (rotation happens on checkpoint), so a non-final segment whose
        // successor starts at or before the replay point holds only
        // pre-snapshot records and only gets its header checked; every
        // other segment is read, CRC-verified and decoded in full.
        let last_idx = segments.len() - 1;
        let mut tail: Vec<SealedRecord> = Vec::new();
        let mut next_seq = replay_from;
        let mut torn_records = 0u64;
        let mut active_valid_len = 16u64;
        for (idx, (start_seq, path)) in segments.iter().enumerate() {
            let is_last = idx == last_idx;
            if !is_last && segments[idx + 1].0 <= replay_from {
                let header_seq = crate::log::read_segment_header(path)?;
                if header_seq != *start_seq {
                    return Err(Error::corrupt(format!(
                        "{} header start_seq {header_seq} disagrees with its name",
                        path.display()
                    )));
                }
                next_seq = segments[idx + 1].0;
                continue;
            }
            let contents = read_segment(path)?;
            if contents.start_seq != *start_seq {
                return Err(Error::corrupt(format!(
                    "{} header start_seq {} disagrees with its name",
                    path.display(),
                    contents.start_seq
                )));
            }
            if contents.torn_bytes > 0 {
                if !is_last {
                    return Err(Error::corrupt(format!(
                        "torn frame in non-final segment {}",
                        path.display()
                    )));
                }
                torn_bytes += contents.torn_bytes;
                torn_records = 1;
            }
            let seg_end = start_seq + contents.records.len() as u64;
            if idx + 1 < segments.len() {
                let expected_next = segments[idx + 1].0;
                if seg_end != expected_next {
                    return Err(Error::corrupt(format!(
                        "{} holds records up to {seg_end} but the next segment starts at {expected_next}",
                        path.display()
                    )));
                }
            }
            if is_last {
                active_valid_len = contents.valid_len;
            }
            // Collect the records at/after the replay point.
            if seg_end > replay_from {
                let skip = replay_from.saturating_sub(*start_seq) as usize;
                tail.extend(contents.records.into_iter().skip(skip));
            }
            next_seq = seg_end;
        }

        // Truncate the torn tail so appends continue on a frame boundary.
        let (_, active_path) = segments[last_idx].clone();
        if torn_records > 0 {
            truncate_segment(&active_path, active_valid_len)?;
        }

        let active = OpenOptions::new()
            .append(true)
            .open(&active_path)
            .map_err(|e| Error::io(&active_path, e))?;

        mirrors().records_replayed.add(tail.len() as u64);
        let stats = StoreStats {
            records_replayed: tail.len() as u64,
            torn_bytes_truncated: torn_bytes,
            torn_records_truncated: torn_records,
            ..StoreStats::default()
        };
        let store = EvolutionStore {
            dir,
            active,
            active_path,
            active_len: active_valid_len,
            next_seq,
            stats,
            _lock: lock,
        };
        let recovered = RecoveredLog {
            snapshot,
            tail,
            next_seq,
            torn_bytes,
            snapshots_skipped,
        };
        Ok((store, recovered))
    }

    /// The store directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The sequence number the next appended record will receive.
    #[must_use]
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Accumulated I/O counters.
    #[must_use]
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// Appends one record durably: framed, checksummed, written and
    /// `fsync`'d before returning. Returns the record's sequence number.
    ///
    /// # Errors
    ///
    /// I/O failures (the log may then hold a torn frame, which the next
    /// recovery truncates — the record is *not* considered durable).
    pub fn append(&mut self, post_generation: u64, record: LogRecord) -> Result<u64> {
        let sealed = SealedRecord {
            post_generation,
            record,
        };
        let bytes = frame(&sealed)?;
        self.append_encoded_batch(&[&bytes])
    }

    /// Appends a batch of pre-framed records as **one** contiguous write
    /// followed by **one** fsync — the group-commit primitive. Frames must
    /// come from [`frame`] (framing does not depend on the sequence
    /// number, so callers can encode before knowing their position).
    /// Returns the sequence number of the batch's first record; the rest
    /// follow contiguously.
    ///
    /// # Errors
    ///
    /// I/O failures. On failure nothing in the batch is acknowledged: the
    /// file is rolled back to the durable prefix (a torn residue is also
    /// re-truncated by the next recovery), and every sequence number is
    /// reused.
    pub(crate) fn append_encoded_batch(&mut self, frames: &[&[u8]]) -> Result<u64> {
        if frames.is_empty() {
            return Ok(self.next_seq);
        }
        let _span = eve_trace::span("store.group_flush");
        let total: usize = frames.iter().map(|f| f.len()).sum();
        let mut buf = Vec::with_capacity(total);
        for f in frames {
            buf.extend_from_slice(f);
        }
        let flush_started = Instant::now();
        let write =
            crate::log::append_all(&mut self.active, &self.active_path, &buf).and_then(|()| {
                self.active
                    .sync_data()
                    .map_err(|e| Error::io(&self.active_path, e))
            });
        if let Err(e) = write {
            // The segment may now hold a partial batch — or a complete one
            // whose fsync failed, which was never acknowledged and must not
            // survive (its sequence numbers will be reused). Roll the file
            // back to the durable prefix; if that also fails,
            // `ensure_tail` retries before the next rotation.
            let _ = self.ensure_tail();
            return Err(e);
        }
        let first_seq = self.next_seq;
        self.next_seq += frames.len() as u64;
        self.active_len += total as u64;
        self.stats.records_appended += frames.len() as u64;
        self.stats.log_bytes_appended += total as u64;
        self.stats.fsyncs += 1;
        let m = mirrors();
        m.records_appended.add(frames.len() as u64);
        m.log_bytes_appended.add(total as u64);
        m.fsyncs.inc();
        m.fsync_us
            .record(u64::try_from(flush_started.elapsed().as_micros()).unwrap_or(u64::MAX));
        m.group_batch_records.record(frames.len() as u64);
        Ok(first_seq)
    }

    /// Truncates the active segment back to its durable prefix
    /// ([`Self::active_len`]) if a failed append left extra bytes behind.
    /// No-op when the file already ends on the durable boundary.
    fn ensure_tail(&mut self) -> Result<()> {
        let len = self
            .active
            .metadata()
            .map_err(|e| Error::io(&self.active_path, e))?
            .len();
        if len != self.active_len {
            self.active
                .set_len(self.active_len)
                .map_err(|e| Error::io(&self.active_path, e))?;
            self.active
                .sync_all()
                .map_err(|e| Error::io(&self.active_path, e))?;
        }
        Ok(())
    }

    /// Writes a snapshot of the current engine state at the current
    /// sequence number and rotates the active segment so the next append
    /// starts a fresh file. Historical segments/snapshots are retained for
    /// time-travel until [`EvolutionStore::compact`].
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn write_snapshot(&mut self, snapshot: &EngineSnapshot) -> Result<u64> {
        let _span = eve_trace::span("store.snapshot");
        let seq = self.next_seq;
        let written = write_snapshot_file(&snap_path(&self.dir, seq), seq, snapshot)?;
        self.stats.snapshots_written += 1;
        self.stats.snapshot_bytes_written += written;
        let m = mirrors();
        m.snapshots_written.inc();
        m.snapshot_bytes_written.add(written);
        self.rotate_after_snapshot(seq)?;
        Ok(seq)
    }

    /// Writes an **incremental** snapshot at the current sequence number:
    /// the state difference against the snapshot at `delta.base_seq`,
    /// which must exist on disk (recovery resolves the chain). Costs
    /// I/O proportional to the state *changed* since the base instead of
    /// total warehouse state. Rotates the active segment exactly like
    /// [`EvolutionStore::write_snapshot`].
    ///
    /// # Errors
    ///
    /// I/O failures, or [`Error::State`] when `base_seq` does not precede
    /// the current sequence number's snapshot point.
    pub fn write_delta_snapshot(&mut self, delta: &DeltaSnapshot) -> Result<u64> {
        let seq = self.next_seq;
        if delta.base_seq > seq {
            return Err(Error::state(format!(
                "delta base_seq {} is ahead of the store (next_seq {seq})",
                delta.base_seq
            )));
        }
        let _span = eve_trace::span("store.snapshot_delta");
        let written = write_delta_file(&delta_path(&self.dir, seq), seq, delta)?;
        self.stats.snapshots_written += 1;
        self.stats.delta_snapshots_written += 1;
        self.stats.snapshot_bytes_written += written;
        let m = mirrors();
        m.snapshots_written.inc();
        m.snapshot_bytes_written.add(written);
        self.rotate_after_snapshot(seq)?;
        Ok(seq)
    }

    /// Rotates the active segment after a snapshot at `seq`: later records
    /// land in a fresh segment starting at `seq`. A checkpoint at the very
    /// start of a segment needs no rotation. Before the current segment
    /// stops being final, any residue of a failed append must be truncated
    /// away — recovery only tolerates a damaged tail on the *final*
    /// segment. A failing truncation aborts the rotation (the snapshot
    /// itself is already durable, so recovery stays anchored and correct).
    fn rotate_after_snapshot(&mut self, seq: u64) -> Result<()> {
        let current_start = self
            .active_path
            .file_name()
            .and_then(|n| parse_numbered(&n.to_string_lossy(), "seg-", ".evl"));
        if current_start != Some(seq) {
            self.ensure_tail()?;
            let active_path = seg_path(&self.dir, seq);
            let mut active = OpenOptions::new()
                .create_new(true)
                .append(true)
                .open(&active_path)
                .map_err(|e| Error::io(&active_path, e))?;
            crate::log::append_all(&mut active, &active_path, &segment_header(seq))?;
            active.sync_all().map_err(|e| Error::io(&active_path, e))?;
            // Make the rotation itself durable: the new segment's
            // directory entry must survive a crash, or recovery sees a
            // snapshot whose follow-on segment vanished.
            sync_dir(&self.dir)?;
            self.active = active;
            self.active_path = active_path;
            self.active_len = 16;
            mirrors().segments_created.inc();
        }
        Ok(())
    }

    /// All snapshots (full and delta) with a well-formed header, in
    /// sequence order (damaged files are skipped). Header-only — listing
    /// does not read whole multi-megabyte state images; payload checksums
    /// are verified when a snapshot is actually loaded.
    ///
    /// # Errors
    ///
    /// I/O failures while listing.
    pub fn snapshot_index(&self) -> Result<Vec<SnapshotMeta>> {
        let mut out = Vec::new();
        for (seq, kind, path) in Self::snapshot_files(&self.dir)? {
            let generation = match kind {
                SnapshotKind::Full => read_snapshot_header(&path).map(|(_, g)| g),
                SnapshotKind::Delta => read_delta_header(&path).map(|(_, g, _)| g),
            };
            if let Ok(generation) = generation {
                out.push(SnapshotMeta {
                    seq,
                    generation,
                    kind,
                });
            }
        }
        Ok(out)
    }

    /// Number of log segment files currently on disk.
    ///
    /// # Errors
    ///
    /// I/O failures while listing.
    pub fn segment_count(&self) -> Result<usize> {
        Ok(Self::segment_paths(&self.dir)?.len())
    }

    /// Plans a time-travel read against a store *directory*: the newest
    /// intact snapshot at or before `generation`, plus every subsequent
    /// record whose post-generation is `<= generation`. The caller replays
    /// the records on the snapshot. Read-only — no lock, no truncation, no
    /// mutation — so a historical read runs while a live store handle
    /// holds the directory lock. A torn tail on the final segment is
    /// simply ignored (its record was never acknowledged).
    ///
    /// # Errors
    ///
    /// [`Error::State`] when `generation` precedes the retained horizon
    /// (i.e. history before the oldest snapshot was compacted away);
    /// [`Error::RetiredPolicy`] as for [`EvolutionStore::open`].
    pub fn plan_travel_in(
        dir: &Path,
        generation: u64,
    ) -> Result<(EngineSnapshot, Vec<SealedRecord>)> {
        // Newest intact snapshot with generation <= target. The header
        // pre-filter skips too-new snapshots without reading their state
        // images; candidates that pass it are fully validated (delta
        // candidates through their whole base chain).
        let entries = Self::snapshot_files(dir)?;
        let mut base: Option<(u64, EngineSnapshot)> = None;
        for idx in (0..entries.len()).rev() {
            let (seq, kind, path) = &entries[idx];
            let header_generation = match kind {
                SnapshotKind::Full => read_snapshot_header(path).map(|(_, g)| g),
                SnapshotKind::Delta => read_delta_header(path).map(|(_, g, _)| g),
            };
            if !matches!(header_generation, Ok(g) if g <= generation) {
                continue;
            }
            match Self::load_snapshot_entry(&entries, idx, 0) {
                Ok(state) => {
                    base = Some((*seq, state));
                    break;
                }
                Err(retired @ Error::RetiredPolicy { .. }) => return Err(retired),
                Err(_) => {}
            }
        }
        let Some((base_seq, snapshot)) = base else {
            return Err(Error::state(format!(
                "generation {generation} precedes the retained horizon — no snapshot at or \
                 before it exists (history may have been compacted)"
            )));
        };

        // Segments wholly before the base snapshot never replay: rotation
        // aligns boundaries with snapshots, so a segment whose successor
        // starts at or before `base_seq` is skipped without decoding.
        let segments = Self::segment_paths(dir)?;
        let mut records = Vec::new();
        for (idx, (start_seq, path)) in segments.iter().enumerate() {
            if segments
                .get(idx + 1)
                .is_some_and(|(next, _)| *next <= base_seq)
            {
                continue;
            }
            let contents = read_segment(path)?;
            let seg_end = start_seq + contents.records.len() as u64;
            if seg_end <= base_seq {
                continue;
            }
            let skip = base_seq.saturating_sub(*start_seq) as usize;
            for sealed in contents.records.into_iter().skip(skip) {
                if sealed.post_generation > generation {
                    return Ok((snapshot, records));
                }
                records.push(sealed);
            }
        }
        Ok((snapshot, records))
    }

    /// Deletes segments and snapshots strictly older than the newest
    /// **intact** snapshot, bounding disk use and recovery work. Time
    /// travel before that snapshot's generation becomes impossible
    /// afterwards. Returns `(segments_deleted, snapshots_deleted)`.
    ///
    /// The anchor is validated before anything is deleted: a damaged
    /// newest snapshot is skipped (exactly as recovery skips it), so
    /// compaction can never delete the only snapshot recovery could still
    /// load.
    ///
    /// # Errors
    ///
    /// I/O failures; [`Error::State`] when no intact snapshot exists
    /// (nothing to anchor recovery).
    pub fn compact(&mut self) -> Result<(usize, usize)> {
        let entries = Self::snapshot_files(&self.dir)?;
        let anchor = (0..entries.len()).rev().find_map(|idx| {
            Self::load_snapshot_entry(&entries, idx, 0)
                .ok()
                .map(|state| (idx, state))
        });
        let Some((anchor_idx, anchor_state)) = anchor else {
            return Err(Error::state(
                "cannot compact a store without an intact snapshot".to_owned(),
            ));
        };
        let (anchor_seq, anchor_kind, _) = entries[anchor_idx];

        // A delta anchor depends on its base chain, which is about to be
        // deleted — materialize the chain-resolved state as a full image
        // at the anchor's sequence number first. Only then is everything
        // older (including the delta chain itself) safe to drop.
        if anchor_kind == SnapshotKind::Delta {
            let written =
                write_snapshot_file(&snap_path(&self.dir, anchor_seq), anchor_seq, &anchor_state)?;
            self.stats.snapshots_written += 1;
            self.stats.snapshot_bytes_written += written;
        }

        let mut segments_deleted = 0usize;
        for (start_seq, path) in Self::segment_paths(&self.dir)? {
            // Rotation aligns segment boundaries with snapshot points, so a
            // segment starting before the anchor holds only pre-anchor
            // records — except the active segment, which is never deleted.
            if start_seq < anchor_seq && path != self.active_path {
                fs::remove_file(&path).map_err(|e| Error::io(&path, e))?;
                segments_deleted += 1;
            }
        }
        let mut snapshots_deleted = 0usize;
        for (seq, kind, path) in entries {
            // Deltas at the anchor sequence are superseded by the full
            // image that now exists there (materialized above, or already
            // present and intact).
            let superseded = seq == anchor_seq && kind == SnapshotKind::Delta;
            if seq < anchor_seq || superseded {
                fs::remove_file(&path).map_err(|e| Error::io(&path, e))?;
                snapshots_deleted += 1;
            }
        }
        if segments_deleted + snapshots_deleted > 0 {
            sync_dir(&self.dir)?;
        }
        Ok((segments_deleted, snapshots_deleted))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::SnapshotManifest;
    use eve_relational::tup;
    use eve_sync::EvolutionOp;

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "eve-store-store-tests-{}-{name}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn empty_snapshot() -> EngineSnapshot {
        EngineSnapshot {
            mkb: eve_misd::Mkb::new().export_state(),
            sites: Vec::new(),
            views: Vec::new(),
            config: crate::snapshot::EngineConfig {
                sync_options: eve_sync::SyncOptions::default(),
                qc_params: eve_qc::QcParams::default(),
                workload: eve_qc::WorkloadModel::SingleUpdate,
                strategy: eve_qc::SelectionStrategy::QcBest,
                index_hints: Vec::new(),
            },
        }
    }

    fn batch_record(k: i64) -> LogRecord {
        LogRecord::Batch(vec![EvolutionOp::insert("R", vec![tup![k]])])
    }

    #[test]
    fn create_append_reopen() {
        let dir = temp_dir("basic");
        let mut store = EvolutionStore::create(&dir).unwrap();
        store.write_snapshot(&empty_snapshot()).unwrap();
        for k in 0..5 {
            let seq = store.append(0, batch_record(k)).unwrap();
            assert_eq!(seq, k as u64);
        }
        assert_eq!(store.next_seq(), 5);
        drop(store); // simulated crash: no shutdown handshake exists

        let (store, recovered) = EvolutionStore::open(&dir).unwrap();
        assert_eq!(recovered.next_seq, 5);
        assert_eq!(recovered.tail.len(), 5, "snapshot at 0, all records replay");
        assert!(recovered.snapshot.is_some());
        assert_eq!(recovered.torn_bytes, 0);
        assert_eq!(store.next_seq(), 5);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn create_refuses_existing_store() {
        let dir = temp_dir("refuse");
        drop(EvolutionStore::create(&dir).unwrap());
        let err = EvolutionStore::create(&dir).unwrap_err();
        assert!(err.to_string().contains("already contains"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_open_of_same_directory_is_rejected() {
        // Pins the satellite bugfix: two live handles on one directory
        // would interleave appends and corrupt the tail. The second open
        // (or create) must fail while the first handle is alive, and
        // succeed again once it is dropped — including after a simulated
        // crash (drop without shutdown), since `flock` dies with the
        // descriptor.
        let dir = temp_dir("lock");
        let mut store = EvolutionStore::create(&dir).unwrap();
        store.write_snapshot(&empty_snapshot()).unwrap();
        store.append(0, batch_record(1)).unwrap();

        let err = EvolutionStore::open(&dir).unwrap_err();
        assert!(err.to_string().contains("already open"), "{err}");
        let err = EvolutionStore::create(&dir).unwrap_err();
        assert!(err.to_string().contains("already open"), "{err}");

        drop(store); // crash
        let (_, recovered) = EvolutionStore::open(&dir).unwrap();
        assert_eq!(recovered.next_seq, 1, "the lock never blocks recovery");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn encoded_batch_is_one_fsync_and_contiguous_seqs() {
        let dir = temp_dir("group");
        let mut store = EvolutionStore::create(&dir).unwrap();
        store.write_snapshot(&empty_snapshot()).unwrap();
        let frames: Vec<Vec<u8>> = (0..5)
            .map(|k| {
                frame(&SealedRecord {
                    post_generation: 0,
                    record: batch_record(k),
                })
                .unwrap()
            })
            .collect();
        let slices: Vec<&[u8]> = frames.iter().map(Vec::as_slice).collect();
        let first = store.append_encoded_batch(&slices).unwrap();
        assert_eq!(first, 0);
        assert_eq!(store.next_seq(), 5);
        let stats = store.stats();
        assert_eq!(stats.records_appended, 5);
        assert_eq!(stats.fsyncs, 1, "one fsync covers the whole batch");
        drop(store);

        let (_, recovered) = EvolutionStore::open(&dir).unwrap();
        assert_eq!(recovered.tail.len(), 5);
        assert_eq!(recovered.next_seq, 5);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn delta_snapshot_chain_anchors_recovery() {
        let dir = temp_dir("delta-chain");
        let mut store = EvolutionStore::create(&dir).unwrap();
        let state = empty_snapshot();
        store.write_snapshot(&state).unwrap(); // full @ 0
        for k in 0..3 {
            store.append(0, batch_record(k)).unwrap();
        }
        let d1 = DeltaSnapshot::between(0, &SnapshotManifest::of(&state), &state);
        store.write_delta_snapshot(&d1).unwrap(); // delta @ 3, base 0
        store.append(0, batch_record(3)).unwrap();
        let d2 = DeltaSnapshot::between(3, &SnapshotManifest::of(&state), &state);
        store.write_delta_snapshot(&d2).unwrap(); // delta @ 4, base 3
        store.append(0, batch_record(4)).unwrap();
        assert_eq!(store.stats().delta_snapshots_written, 2);
        drop(store);

        let (store, recovered) = EvolutionStore::open(&dir).unwrap();
        assert_eq!(
            recovered.snapshot.as_ref().map(|(s, _)| *s),
            Some(4),
            "recovery anchors on the delta chain head"
        );
        assert_eq!(
            recovered.snapshot.as_ref().unwrap().1.to_bytes(),
            state.to_bytes(),
            "chain resolution reproduces the full state"
        );
        assert_eq!(recovered.tail.len(), 1, "only the post-delta record");
        let kinds: Vec<SnapshotKind> = store
            .snapshot_index()
            .unwrap()
            .iter()
            .map(|m| m.kind)
            .collect();
        assert_eq!(
            kinds,
            vec![SnapshotKind::Full, SnapshotKind::Delta, SnapshotKind::Delta]
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn damaged_delta_chain_falls_back_to_full_anchor() {
        let dir = temp_dir("delta-damaged");
        let mut store = EvolutionStore::create(&dir).unwrap();
        let state = empty_snapshot();
        store.write_snapshot(&state).unwrap();
        store.append(0, batch_record(1)).unwrap();
        let d = DeltaSnapshot::between(0, &SnapshotManifest::of(&state), &state);
        store.write_delta_snapshot(&d).unwrap(); // delta @ 1, base 0
        store.append(0, batch_record(2)).unwrap();
        drop(store);

        // Damage the delta: the whole chain candidate must be skipped and
        // recovery must re-anchor on the older full snapshot.
        let delta = delta_path(&dir, 1);
        let mut bytes = std::fs::read(&delta).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&delta, &bytes).unwrap();

        let (_, recovered) = EvolutionStore::open(&dir).unwrap();
        assert_eq!(recovered.snapshots_skipped, 1);
        assert_eq!(recovered.snapshot.as_ref().map(|(s, _)| *s), Some(0));
        assert_eq!(recovered.tail.len(), 2, "replays from the older anchor");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compact_materializes_a_delta_anchor_before_dropping_its_chain() {
        let dir = temp_dir("delta-compact");
        let mut store = EvolutionStore::create(&dir).unwrap();
        let state = empty_snapshot();
        store.write_snapshot(&state).unwrap();
        for k in 0..2 {
            store.append(0, batch_record(k)).unwrap();
        }
        let d = DeltaSnapshot::between(0, &SnapshotManifest::of(&state), &state);
        store.write_delta_snapshot(&d).unwrap(); // delta @ 2, base 0
        store.append(0, batch_record(2)).unwrap();

        let (segs, snaps) = store.compact().unwrap();
        assert_eq!(segs, 1, "the pre-anchor segment is gone");
        assert_eq!(snaps, 2, "the base full image and the delta itself");
        assert!(
            snap_path(&dir, 2).exists(),
            "the anchor was materialized as a full image"
        );
        assert!(!delta_path(&dir, 2).exists());
        drop(store);

        let (_, recovered) = EvolutionStore::open(&dir).unwrap();
        assert_eq!(recovered.snapshot.as_ref().map(|(s, _)| *s), Some(2));
        assert_eq!(
            recovered.snapshot.as_ref().unwrap().1.to_bytes(),
            state.to_bytes()
        );
        assert_eq!(recovered.tail.len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_refuses_missing_store() {
        let dir = temp_dir("missing");
        std::fs::create_dir_all(&dir).unwrap();
        assert!(EvolutionStore::open(&dir).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_rotates_segment_and_anchors_recovery() {
        let dir = temp_dir("rotate");
        let mut store = EvolutionStore::create(&dir).unwrap();
        store.write_snapshot(&empty_snapshot()).unwrap();
        for k in 0..3 {
            store.append(0, batch_record(k)).unwrap();
        }
        store.write_snapshot(&empty_snapshot()).unwrap();
        assert_eq!(store.segment_count().unwrap(), 2);
        for k in 3..5 {
            store.append(0, batch_record(k)).unwrap();
        }
        drop(store);

        let (store, recovered) = EvolutionStore::open(&dir).unwrap();
        assert_eq!(
            recovered.snapshot.as_ref().map(|(s, _)| *s),
            Some(3),
            "recovery anchors on the newest snapshot"
        );
        assert_eq!(recovered.tail.len(), 2, "only post-snapshot records replay");
        assert_eq!(recovered.next_seq, 5);
        assert_eq!(store.snapshot_index().unwrap().len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_truncated_and_appends_continue() {
        let dir = temp_dir("torn");
        let mut store = EvolutionStore::create(&dir).unwrap();
        store.write_snapshot(&empty_snapshot()).unwrap();
        for k in 0..3 {
            store.append(0, batch_record(k)).unwrap();
        }
        let active_path = store.active_path.clone();
        drop(store);

        // Tear the last record: cut 5 bytes off the file.
        let len = std::fs::metadata(&active_path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&active_path).unwrap();
        f.set_len(len - 5).unwrap();
        drop(f);

        let (mut store, recovered) = EvolutionStore::open(&dir).unwrap();
        assert_eq!(recovered.tail.len(), 2, "torn record dropped");
        assert_eq!(recovered.next_seq, 2);
        assert!(recovered.torn_bytes > 0);
        assert_eq!(store.stats().torn_records_truncated, 1);

        // The store keeps working after truncation.
        let seq = store.append(0, batch_record(99)).unwrap();
        assert_eq!(seq, 2);
        drop(store);
        let (_, recovered) = EvolutionStore::open(&dir).unwrap();
        assert_eq!(recovered.tail.len(), 3);
        assert_eq!(recovered.torn_bytes, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn damaged_snapshot_falls_back_to_older_one() {
        let dir = temp_dir("fallback");
        let mut store = EvolutionStore::create(&dir).unwrap();
        store.write_snapshot(&empty_snapshot()).unwrap();
        store.append(0, batch_record(1)).unwrap();
        store.write_snapshot(&empty_snapshot()).unwrap();
        store.append(0, batch_record(2)).unwrap();
        drop(store);

        // Damage the newer snapshot.
        let snap1 = snap_path(&dir, 1);
        let mut bytes = std::fs::read(&snap1).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&snap1, &bytes).unwrap();

        let (_, recovered) = EvolutionStore::open(&dir).unwrap();
        assert_eq!(recovered.snapshots_skipped, 1);
        assert_eq!(recovered.snapshot.as_ref().map(|(s, _)| *s), Some(0));
        assert_eq!(recovered.tail.len(), 2, "replays from the older anchor");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_removes_a_crashed_snapshot_write_and_recovers_the_same_state() {
        let dir = temp_dir("leftover-tmp");
        let mut store = EvolutionStore::create(&dir).unwrap();
        store.write_snapshot(&empty_snapshot()).unwrap();
        for k in 0..3 {
            store.append(0, batch_record(k)).unwrap();
        }
        let next = store.next_seq();
        drop(store);
        let (_, before) = EvolutionStore::open(&dir).unwrap();

        // A crash mid-write leaves a truncated temp file beside the store;
        // a directory of the same shape is not the store's to delete.
        let full = std::fs::read(snap_path(&dir, 0)).unwrap();
        let tmp = dir.join(format!("snap-{next:020}.tmp"));
        std::fs::write(&tmp, &full[..full.len() / 2]).unwrap();
        let foreign = dir.join(format!("snap-{:020}.tmp", next + 1));
        std::fs::create_dir(&foreign).unwrap();

        let (_, after) = EvolutionStore::open(&dir).unwrap();
        assert!(!tmp.exists(), "the leftover temp file is deleted");
        assert!(foreign.is_dir(), "only regular files are deleted");
        assert_eq!(after.next_seq, before.next_seq);
        let encoded = |tail: &[SealedRecord]| tail.iter().map(crate::to_bytes).collect::<Vec<_>>();
        assert_eq!(encoded(&after.tail), encoded(&before.tail));
        assert_eq!(
            after.snapshot.map(|(s, snap)| (s, snap.to_bytes())),
            before.snapshot.map(|(s, snap)| (s, snap.to_bytes()))
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_failed_snapshot_write_removes_its_temp_file() {
        let dir = temp_dir("failed-write");
        let mut store = EvolutionStore::create(&dir).unwrap();
        store.write_snapshot(&empty_snapshot()).unwrap();
        store.append(0, batch_record(1)).unwrap();
        // A directory on the final path fails the rename after the temp
        // file was written and synced.
        let seq = store.next_seq();
        std::fs::create_dir(snap_path(&dir, seq)).unwrap();
        assert!(store.write_snapshot(&empty_snapshot()).is_err());
        assert!(!dir.join(format!("snap-{seq:020}.tmp")).exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compact_drops_pre_anchor_history() {
        let dir = temp_dir("compact");
        let mut store = EvolutionStore::create(&dir).unwrap();
        store.write_snapshot(&empty_snapshot()).unwrap();
        for k in 0..4 {
            store.append(0, batch_record(k)).unwrap();
        }
        store.write_snapshot(&empty_snapshot()).unwrap();
        store.append(0, batch_record(9)).unwrap();
        let (segs, snaps) = store.compact().unwrap();
        assert_eq!(segs, 1);
        assert_eq!(snaps, 1);
        drop(store);
        let (_, recovered) = EvolutionStore::open(&dir).unwrap();
        assert_eq!(recovered.snapshot.as_ref().map(|(s, _)| *s), Some(4));
        assert_eq!(recovered.tail.len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compact_never_anchors_on_a_damaged_snapshot() {
        let dir = temp_dir("compact-damaged");
        let mut store = EvolutionStore::create(&dir).unwrap();
        store.write_snapshot(&empty_snapshot()).unwrap();
        store.append(0, batch_record(1)).unwrap();
        store.write_snapshot(&empty_snapshot()).unwrap();
        store.append(0, batch_record(2)).unwrap();

        // Damage the newest snapshot: recovery would skip it, so compaction
        // must not delete the older intact anchor.
        let snap1 = snap_path(&dir, 1);
        let mut bytes = std::fs::read(&snap1).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&snap1, &bytes).unwrap();

        let (segs, snaps) = store.compact().unwrap();
        assert_eq!(
            (segs, snaps),
            (0, 0),
            "intact anchor is seq 0 — nothing precedes it"
        );
        drop(store);
        let (_, recovered) = EvolutionStore::open(&dir).unwrap();
        assert_eq!(
            recovered.snapshot.as_ref().map(|(s, _)| *s),
            Some(0),
            "the intact snapshot survived compaction"
        );
        assert_eq!(recovered.tail.len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_rotation_headerless_final_segment_is_dropped() {
        let dir = temp_dir("torn-rotation");
        let mut store = EvolutionStore::create(&dir).unwrap();
        store.write_snapshot(&empty_snapshot()).unwrap();
        for k in 0..3 {
            store.append(0, batch_record(k)).unwrap();
        }
        store.write_snapshot(&empty_snapshot()).unwrap(); // rotates to seg-3
        drop(store);

        // Crash window: the rotated segment file exists but its header
        // never reached disk.
        let seg3 = seg_path(&dir, 3);
        let f = OpenOptions::new().write(true).open(&seg3).unwrap();
        f.set_len(7).unwrap();
        drop(f);

        let (mut store, recovered) = EvolutionStore::open(&dir).unwrap();
        assert_eq!(recovered.next_seq, 3, "no acknowledged record lost");
        assert_eq!(recovered.snapshot.as_ref().map(|(s, _)| *s), Some(3));
        assert!(recovered.torn_bytes > 0, "the headerless file was counted");
        assert!(!seg3.exists(), "the torn rotation residue is gone");
        // Appends continue on the previous segment.
        assert_eq!(store.append(0, batch_record(9)).unwrap(), 3);
        drop(store);
        let (_, recovered) = EvolutionStore::open(&dir).unwrap();
        assert_eq!(recovered.next_seq, 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rotation_truncates_foreign_tail_residue_first() {
        // A failed append can leave bytes past the durable prefix. The
        // rotation on checkpoint must truncate them, otherwise the damaged
        // tail would sit in a non-final segment and brick the next open.
        let dir = temp_dir("residue");
        let mut store = EvolutionStore::create(&dir).unwrap();
        store.write_snapshot(&empty_snapshot()).unwrap();
        store.append(0, batch_record(1)).unwrap();

        // Simulate the residue through a second handle.
        use std::io::Write;
        let mut raw = OpenOptions::new()
            .append(true)
            .open(&store.active_path)
            .unwrap();
        raw.write_all(&[0xAA, 0xBB, 0xCC]).unwrap();
        raw.sync_all().unwrap();
        drop(raw);

        store.write_snapshot(&empty_snapshot()).unwrap(); // must ensure_tail
        store.append(0, batch_record(2)).unwrap();
        drop(store);

        let (_, recovered) = EvolutionStore::open(&dir).unwrap();
        assert_eq!(recovered.torn_bytes, 0, "no damage survived the rotation");
        assert_eq!(recovered.next_seq, 2);
        assert_eq!(recovered.tail.len(), 1, "replay from the seq-1 snapshot");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_index_is_header_only_but_travel_validates_payloads() {
        let dir = temp_dir("header-only");
        let mut store = EvolutionStore::create(&dir).unwrap();
        store.write_snapshot(&empty_snapshot()).unwrap();
        store.append(0, batch_record(1)).unwrap();
        store.write_snapshot(&empty_snapshot()).unwrap();

        // Flip a payload byte in the newest snapshot: the header still
        // reads, so the listing keeps it, but travel planning must fall
        // back to the older intact snapshot instead of failing on decode.
        let snap1 = snap_path(&dir, 1);
        let mut bytes = std::fs::read(&snap1).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&snap1, &bytes).unwrap();

        assert_eq!(store.snapshot_index().unwrap().len(), 2, "headers intact");
        let (snapshot, records) = EvolutionStore::plan_travel_in(&dir, u64::MAX).unwrap();
        assert_eq!(snapshot.generation(), 0);
        assert_eq!(records.len(), 1, "replays from the intact seq-0 anchor");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn append_stats_accumulate_and_reset() {
        let dir = temp_dir("stats");
        let mut store = EvolutionStore::create(&dir).unwrap();
        store.write_snapshot(&empty_snapshot()).unwrap();
        store.append(0, batch_record(1)).unwrap();
        let stats = store.stats();
        assert_eq!(stats.records_appended, 1);
        assert_eq!(stats.fsyncs, 1);
        assert!(stats.log_bytes_appended > 12);
        assert_eq!(stats.snapshots_written, 1);
        assert!(stats.snapshot_bytes_written > 0);
        // The counters belong to the handle: a reopened store starts from
        // zero and counts only what its recovery replayed.
        drop(store);
        let (store, _) = EvolutionStore::open(&dir).unwrap();
        assert_eq!(
            store.stats(),
            StoreStats {
                records_replayed: 1,
                ..StoreStats::default()
            }
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
