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
//!
//! ## One reader
//!
//! Recovery ([`EvolutionStore::open`]), time travel
//! ([`EvolutionStore::plan_travel_in`]) and [`EvolutionStore::compact`]
//! read the directory through one private reader: one listing, one
//! search for the newest loadable snapshot within an optional generation
//! bound, and one walk of the log after it. So travel refuses what
//! recovery refuses (a torn frame in a non-final segment, a segment header
//! that disagrees with its name, a gap between segments) with the same
//! error, and compaction anchors where recovery would. Only `open`
//! repairs what the reader reports: it truncates a torn tail and deletes
//! a headerless final segment and leftover temp files, under the lock.

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
/// every store in the process for the `metrics` surface, alongside the
/// append latency histogram the scalar stats cannot express.
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
    /// `fsync` calls issued for log appends: one per durable append, so
    /// it equals `records_appended`.
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

/// The MKB generation a snapshot file's header names, read without the
/// payload.
fn header_generation(kind: SnapshotKind, path: &Path) -> Result<u64> {
    match kind {
        SnapshotKind::Full => read_snapshot_header(path).map(|(_, g)| g),
        SnapshotKind::Delta => read_delta_header(path).map(|(_, g, _)| g),
    }
}

fn horizon_error(generation: u64) -> Error {
    Error::state(format!(
        "generation {generation} precedes the retained horizon — no snapshot at or \
         before it exists (history may have been compacted)"
    ))
}

/// One `read_dir` of a store directory, sorted. Everything the store
/// reads of its directory — recovery, time travel, compaction and the
/// listings — starts from one of these.
struct Listing {
    /// Log segments in start-sequence order.
    segments: Vec<(u64, PathBuf)>,
    /// Full and delta snapshots in sequence order; at equal sequence
    /// numbers a full image sorts before a delta, so backward scans prefer
    /// the self-contained file.
    snapshots: Vec<(u64, SnapshotKind, PathBuf)>,
    /// `snap-<seq>.tmp` regular files a crashed snapshot write left behind.
    temps: Vec<PathBuf>,
}

/// The log records after an anchor, as one walk over the segments found
/// them.
struct LogTail {
    records: Vec<SealedRecord>,
    /// One past the last record of the final segment (unbounded walks).
    next_seq: u64,
    /// The final segment walked, its intact prefix length, and the torn
    /// bytes past that prefix.
    last: PathBuf,
    valid_len: u64,
    torn_bytes: u64,
}

/// What one read of a store directory found: its listing, the anchor
/// snapshot, and the log after it, with every check recovery makes
/// already made. Reading changes nothing on disk; what recovery repairs
/// (a headerless final segment, a torn tail, leftover temp files) is
/// reported here.
struct StoreRead {
    listing: Listing,
    anchor: Option<(u64, EngineSnapshot)>,
    snapshots_skipped: usize,
    /// A final segment shorter than its 16-byte header, with its length:
    /// a rotation torn by a crash. It holds no acknowledged record and is
    /// taken out of the listing and the walk.
    headerless: Option<(PathBuf, u64)>,
    tail: LogTail,
}

impl Listing {
    fn read(dir: &Path) -> Result<Listing> {
        let mut listing = Listing {
            segments: Vec::new(),
            snapshots: Vec::new(),
            temps: Vec::new(),
        };
        for entry in fs::read_dir(dir).map_err(|e| Error::io(dir, e))? {
            let entry = entry.map_err(|e| Error::io(dir, e))?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            let path = entry.path();
            if let Some(seq) = parse_numbered(&name, "seg-", ".evl") {
                listing.segments.push((seq, path));
            } else if let Some(seq) = parse_numbered(&name, "snap-", ".evs") {
                listing.snapshots.push((seq, SnapshotKind::Full, path));
            } else if let Some(seq) = parse_numbered(&name, "snap-", ".evd") {
                listing.snapshots.push((seq, SnapshotKind::Delta, path));
            } else if parse_numbered(&name, "snap-", ".tmp").is_some()
                && entry.file_type().is_ok_and(|t| t.is_file())
            {
                listing.temps.push(path);
            }
        }
        listing.segments.sort();
        listing.snapshots.sort();
        Ok(listing)
    }

    /// Whether the directory holds no segment and no snapshot.
    fn is_empty(&self) -> bool {
        self.segments.is_empty() && self.snapshots.is_empty()
    }

    /// Loads the full state a snapshot entry describes, resolving delta
    /// chains recursively: a delta's base is looked up by sequence number
    /// (full image preferred), loaded, and overlaid. Any failure anywhere
    /// in the chain fails the whole candidate — the anchor search then
    /// falls back to an older entry, exactly as with a damaged full
    /// snapshot.
    fn load(&self, idx: usize, depth: usize) -> Result<EngineSnapshot> {
        if depth > MAX_DELTA_CHAIN {
            return Err(Error::corrupt(format!(
                "delta-snapshot chain deeper than {MAX_DELTA_CHAIN} (cyclic base_seq?)"
            )));
        }
        // Replay resumes at the sequence number in the file name, so a
        // header naming another point (a copied or renamed file, a flipped
        // header word outside the payload checksum) is damage.
        let (seq, kind, path) = &self.snapshots[idx];
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
                let entries = &self.snapshots;
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
                let base = self.load(base_idx, depth + 1)?;
                Ok(parsed.delta.apply_to(&base))
            }
        }
    }

    /// The newest loadable snapshot whose header generation is within
    /// `bound` (any, for `None`), as its index and state, and how many
    /// damaged entries the search skipped. The header pre-filter passes
    /// over too-new snapshots without reading their state images; a
    /// candidate is validated in full, a delta through its whole base
    /// chain. A retired search policy is no damage: falling back would
    /// replay its log under another policy, so it fails the search.
    fn anchor(&self, bound: Option<u64>) -> Result<(Option<(usize, EngineSnapshot)>, usize)> {
        let mut skipped = 0usize;
        for idx in (0..self.snapshots.len()).rev() {
            if let Some(bound) = bound {
                let (_, kind, path) = &self.snapshots[idx];
                match header_generation(*kind, path) {
                    Ok(generation) if generation <= bound => {}
                    Ok(_) => continue,
                    Err(_) => {
                        skipped += 1;
                        continue;
                    }
                }
            }
            match self.load(idx, 0) {
                Ok(state) => return Ok((Some((idx, state)), skipped)),
                Err(retired @ Error::RetiredPolicy { .. }) => return Err(retired),
                Err(_) => skipped += 1,
            }
        }
        Ok((None, skipped))
    }

    /// Deletes what an anchor at `seq` supersedes: segments starting
    /// before it (never `active`), snapshots older than it, and deltas at
    /// its sequence (a full image is there). Rotation aligns segment
    /// boundaries with snapshot points, so such a segment holds only
    /// pre-anchor records. Returns `(segments, snapshots)` deleted.
    fn remove_before(&self, dir: &Path, seq: u64, active: &Path) -> Result<(usize, usize)> {
        let segments: Vec<&PathBuf> = self
            .segments
            .iter()
            .filter(|(start, path)| *start < seq && path != active)
            .map(|(_, path)| path)
            .collect();
        let snapshots: Vec<&PathBuf> = self
            .snapshots
            .iter()
            .filter(|(s, kind, _)| *s < seq || (*s == seq && *kind == SnapshotKind::Delta))
            .map(|(_, _, path)| path)
            .collect();
        for path in segments.iter().chain(&snapshots) {
            fs::remove_file(path).map_err(|e| Error::io(path, e))?;
        }
        if !segments.is_empty() || !snapshots.is_empty() {
            sync_dir(dir)?;
        }
        Ok((segments.len(), snapshots.len()))
    }
}

fn check_segment_start(path: &Path, named: u64, header: u64) -> Result<()> {
    if header == named {
        return Ok(());
    }
    Err(Error::corrupt(format!(
        "{} header start_seq {header} disagrees with its name",
        path.display()
    )))
}

/// Walks `segments` once from record `from`, checking in segment order
/// that every header names its file's start sequence, that no frame is
/// torn but in the final segment, and that each segment ends where the
/// next begins. A segment whose successor starts at or before `from`
/// holds only pre-anchor records and gets its header checked only; every
/// other one is read, CRC-verified and decoded in full. With a generation
/// `bound` the walk stops at the first record past it and reads no later
/// segment.
fn walk_log(segments: &[(u64, PathBuf)], from: u64, bound: Option<u64>) -> Result<LogTail> {
    let mut tail = LogTail {
        records: Vec::new(),
        next_seq: from,
        last: PathBuf::new(),
        valid_len: 16,
        torn_bytes: 0,
    };
    for (idx, (start_seq, path)) in segments.iter().enumerate() {
        let next_start = segments.get(idx + 1).map(|(next, _)| *next);
        if let Some(next) = next_start.filter(|next| *next <= from) {
            check_segment_start(path, *start_seq, crate::log::read_segment_header(path)?)?;
            tail.next_seq = next;
            continue;
        }
        let contents = read_segment(path)?;
        check_segment_start(path, *start_seq, contents.start_seq)?;
        if contents.torn_bytes > 0 && next_start.is_some() {
            return Err(Error::corrupt(format!(
                "torn frame in non-final segment {}",
                path.display()
            )));
        }
        let seg_end = start_seq + contents.records.len() as u64;
        if let Some(next) = next_start.filter(|next| *next != seg_end) {
            return Err(Error::corrupt(format!(
                "{} holds records up to {seg_end} but the next segment starts at {next}",
                path.display()
            )));
        }
        tail.next_seq = seg_end;
        tail.last.clone_from(path);
        tail.valid_len = contents.valid_len;
        tail.torn_bytes = contents.torn_bytes;
        let skip = from.saturating_sub(*start_seq) as usize;
        for sealed in contents.records.into_iter().skip(skip) {
            if bound.is_some_and(|bound| sealed.post_generation > bound) {
                return Ok(tail);
            }
            tail.records.push(sealed);
        }
    }
    Ok(tail)
}

/// Reads the store in `dir` as of generation `bound` (all of it for
/// `None`): one listing, one anchor search, one log walk. A bounded read
/// needs an anchor within the bound; an unbounded one without any replays
/// the log from its first record.
fn read_store(dir: &Path, bound: Option<u64>) -> Result<StoreRead> {
    let mut listing = Listing::read(dir)?;
    let Some((_, last_path)) = listing.segments.last() else {
        return Err(Error::state(format!(
            "{} holds no evolution store (no log segments)",
            dir.display()
        )));
    };
    // Torn rotation: a crash between creating the new segment file and its
    // 16-byte header reaching disk leaves a short final segment. It holds
    // no acknowledged record, so the walk ends on the previous segment —
    // unless it is the *only* file, in which case nothing acknowledged
    // ever existed and the store is unusable.
    let len = fs::metadata(last_path)
        .map_err(|e| Error::io(last_path, e))?
        .len();
    let mut headerless = None;
    if len < 16 {
        if listing.segments.len() == 1 {
            return Err(Error::corrupt(format!(
                "{} holds only a headerless segment (crash during creation)",
                dir.display()
            )));
        }
        headerless = listing.segments.pop().map(|(_, path)| (path, len));
    }
    let (found, snapshots_skipped) = listing.anchor(bound)?;
    let anchor = found.map(|(idx, state)| (listing.snapshots[idx].0, state));
    let from = match (&anchor, bound) {
        (Some((seq, _)), _) => *seq,
        (None, None) => 0,
        (None, Some(generation)) => return Err(horizon_error(generation)),
    };
    let tail = walk_log(&listing.segments, from, bound)?;
    Ok(StoreRead {
        listing,
        anchor,
        snapshots_skipped,
        headerless,
        tail,
    })
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
        if !Listing::read(&dir)?.is_empty() {
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
        Ok(dir.is_dir() && !Listing::read(dir)?.is_empty())
    }

    /// Opens an existing store: picks the newest intact snapshot, reads the
    /// log records after it, truncates a torn tail on the active segment,
    /// and returns both the store (positioned for appends) and the replay
    /// plan. Under the directory lock it also deletes what a crash left
    /// behind: a headerless final segment and `snap-<seq>.tmp` files, each
    /// of which can hold a whole snapshot no reader ever looks at.
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
        let read = read_store(&dir, None)?;
        let tail = read.tail;
        let mut torn_bytes = tail.torn_bytes;
        if let Some((path, len)) = &read.headerless {
            fs::remove_file(path).map_err(|e| Error::io(path, e))?;
            sync_dir(&dir)?;
            torn_bytes += len;
        }
        for path in &read.listing.temps {
            fs::remove_file(path).map_err(|e| Error::io(path, e))?;
        }
        // Truncate the torn tail so appends continue on a frame boundary.
        let torn_records = u64::from(tail.torn_bytes > 0);
        if torn_records > 0 {
            truncate_segment(&tail.last, tail.valid_len)?;
        }
        let active = OpenOptions::new()
            .append(true)
            .open(&tail.last)
            .map_err(|e| Error::io(&tail.last, e))?;

        let replayed = tail.records.len() as u64;
        mirrors().records_replayed.add(replayed);
        let store = EvolutionStore {
            dir,
            active,
            active_path: tail.last,
            active_len: tail.valid_len,
            next_seq: tail.next_seq,
            stats: StoreStats {
                records_replayed: replayed,
                torn_bytes_truncated: torn_bytes,
                torn_records_truncated: torn_records,
                ..StoreStats::default()
            },
            _lock: lock,
        };
        let recovered = RecoveredLog {
            snapshot: read.anchor,
            tail: tail.records,
            next_seq: tail.next_seq,
            torn_bytes,
            snapshots_skipped: read.snapshots_skipped,
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
    /// `fsync`'d on the caller's thread before returning. Returns the
    /// record's sequence number.
    ///
    /// # Errors
    ///
    /// [`Error::TooLarge`] for a record past the frame format, or I/O
    /// failures. On failure the record is not acknowledged: the file is
    /// rolled back to the durable prefix (a torn residue is also
    /// re-truncated by the next recovery), and its sequence number is
    /// reused.
    pub fn append(&mut self, post_generation: u64, record: LogRecord) -> Result<u64> {
        let _span = eve_trace::span("store.append");
        let bytes = frame(&SealedRecord {
            post_generation,
            record,
        })?;
        let flush_started = Instant::now();
        let write =
            crate::log::append_all(&mut self.active, &self.active_path, &bytes).and_then(|()| {
                self.active
                    .sync_data()
                    .map_err(|e| Error::io(&self.active_path, e))
            });
        if let Err(e) = write {
            // The segment may now hold a partial frame — or a complete one
            // whose fsync failed, which was never acknowledged and must not
            // survive (its sequence number will be reused). Roll the file
            // back to the durable prefix; if that also fails,
            // `ensure_tail` retries before the next rotation.
            let _ = self.ensure_tail();
            return Err(e);
        }
        let seq = self.next_seq;
        let len = bytes.len() as u64;
        self.next_seq += 1;
        self.active_len += len;
        self.stats.records_appended += 1;
        self.stats.log_bytes_appended += len;
        self.stats.fsyncs += 1;
        let m = mirrors();
        m.records_appended.inc();
        m.log_bytes_appended.add(len);
        m.fsyncs.inc();
        m.fsync_us
            .record(u64::try_from(flush_started.elapsed().as_micros()).unwrap_or(u64::MAX));
        Ok(seq)
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
        let seq = self.next_seq;
        self.put_snapshot(SnapshotKind::Full, seq, |path| {
            write_snapshot_file(path, seq, snapshot)
        })
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
        self.put_snapshot(SnapshotKind::Delta, seq, |path| {
            write_delta_file(path, seq, delta)
        })
    }

    /// Writes one snapshot file at `seq` through `write` (which returns
    /// the bytes written) and counts it, in the handle's [`StoreStats`]
    /// and the registry's `store.` counters alike. A snapshot at the log's
    /// head then rotates the active segment; compaction materialises an
    /// older anchor, which must not.
    fn put_snapshot(
        &mut self,
        kind: SnapshotKind,
        seq: u64,
        write: impl FnOnce(&Path) -> Result<u64>,
    ) -> Result<u64> {
        let (span, path) = match kind {
            SnapshotKind::Full => ("store.snapshot", snap_path(&self.dir, seq)),
            SnapshotKind::Delta => ("store.snapshot_delta", delta_path(&self.dir, seq)),
        };
        let _span = eve_trace::span(span);
        let written = write(&path)?;
        self.stats.snapshots_written += 1;
        self.stats.delta_snapshots_written += u64::from(kind == SnapshotKind::Delta);
        self.stats.snapshot_bytes_written += written;
        let m = mirrors();
        m.snapshots_written.inc();
        m.snapshot_bytes_written.add(written);
        if seq == self.next_seq {
            self.rotate_after_snapshot(seq)?;
        }
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
        Ok(Listing::read(&self.dir)?
            .snapshots
            .into_iter()
            .filter_map(|(seq, kind, path)| {
                let generation = header_generation(kind, &path).ok()?;
                Some(SnapshotMeta {
                    seq,
                    generation,
                    kind,
                })
            })
            .collect())
    }

    /// Number of log segment files currently on disk.
    ///
    /// # Errors
    ///
    /// I/O failures while listing.
    pub fn segment_count(&self) -> Result<usize> {
        Ok(Listing::read(&self.dir)?.segments.len())
    }

    /// Plans a time-travel read against a store *directory*: the newest
    /// intact snapshot at or before `generation`, plus every subsequent
    /// record whose post-generation is `<= generation`. The caller replays
    /// the records on the snapshot. It reads through the same reader as
    /// [`EvolutionStore::open`] and so refuses what recovery refuses —
    /// a torn frame in a non-final segment it needs, a segment header that
    /// disagrees with its name, a gap between segments — but it is
    /// read-only: no lock, no truncation, no deletion, so a historical
    /// read runs while a live store handle holds the directory lock. A
    /// torn tail on the final segment is ignored (its record was never
    /// acknowledged), and so is a headerless final segment (a rotation
    /// torn by a crash, or one in flight).
    ///
    /// # Errors
    ///
    /// [`Error::State`] when `generation` precedes the retained horizon
    /// (i.e. history before the oldest snapshot was compacted away);
    /// [`Error::Corrupt`] and [`Error::RetiredPolicy`] as for
    /// [`EvolutionStore::open`].
    pub fn plan_travel_in(
        dir: &Path,
        generation: u64,
    ) -> Result<(EngineSnapshot, Vec<SealedRecord>)> {
        let read = read_store(dir, Some(generation))?;
        let (_, snapshot) = read.anchor.ok_or_else(|| horizon_error(generation))?;
        Ok((snapshot, read.tail.records))
    }

    /// Deletes segments and snapshots strictly older than the newest
    /// **intact** snapshot, bounding disk use and recovery work. Time
    /// travel before that snapshot's generation becomes impossible
    /// afterwards. Returns `(segments_deleted, snapshots_deleted)`.
    ///
    /// The anchor is the one recovery would pick, found by the same
    /// search: a damaged newest snapshot is skipped, so compaction can
    /// never delete the only snapshot recovery could still load.
    ///
    /// # Errors
    ///
    /// I/O failures; [`Error::State`] when no intact snapshot exists
    /// (nothing to anchor recovery); [`Error::RetiredPolicy`] as for
    /// [`EvolutionStore::open`].
    pub fn compact(&mut self) -> Result<(usize, usize)> {
        let listing = Listing::read(&self.dir)?;
        let (Some((anchor_idx, anchor_state)), _) = listing.anchor(None)? else {
            return Err(Error::state(
                "cannot compact a store without an intact snapshot".to_owned(),
            ));
        };
        let (anchor_seq, anchor_kind, _) = listing.snapshots[anchor_idx];
        // A delta anchor depends on its base chain, which is about to be
        // deleted — materialize the chain-resolved state as a full image
        // at the anchor's sequence number first. Only then is everything
        // older (including the delta chain itself) safe to drop.
        if anchor_kind == SnapshotKind::Delta {
            self.put_snapshot(SnapshotKind::Full, anchor_seq, |path| {
                write_snapshot_file(path, anchor_seq, &anchor_state)
            })?;
        }
        listing.remove_before(&self.dir, anchor_seq, &self.active_path)
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
