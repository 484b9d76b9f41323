//! The durable engine: an [`EveEngine`] whose evolution history survives
//! crashes, backed by the `eve-store` write-ahead evolution log.
//!
//! ## Durability contract
//!
//! There is one durable mutation entry, [`DurableEngine::apply`]: it runs
//! a command ([`LogRecord`]) through [`EveEngine::apply`] on the in-memory
//! engine, then appends that record with [`EvolutionStore::append`]: one
//! frame, one write and one `fsync` on the calling thread. When the call
//! returns `Ok`, the operation is on disk and recovery will reproduce it.
//! A crash between apply and commit loses at most the in-flight call
//! (which was never acknowledged); a crash mid-append leaves a torn frame
//! the next [`DurableEngine::open`] truncates.
//!
//! ## Recovery
//!
//! [`DurableEngine::open`] loads the newest intact snapshot, rebuilds the
//! engine from it, and replays the log tail through the *live* pipeline —
//! the same [`EveEngine::apply`] the records originally went through.
//! Since application is deterministic under a fixed configuration (the
//! configuration is part of every snapshot), the recovered engine is
//! byte-identical — MKB generation, site extents and counters, installed
//! rewritings — to the engine that never crashed. The differential suite
//! in `tests/durability.rs` pins exactly that across random op streams and
//! random crash points.
//!
//! ## Time travel
//!
//! Records carry the MKB generation observed after applying them, and
//! snapshots are retained (until [`DurableEngine::compact`]), so
//! [`DurableEngine::open_at`] can rebuild the engine as of any retained
//! generation `g`: the newest snapshot at or before `g` plus every record
//! whose post-generation is `≤ g`. Queries can then be evaluated against
//! past MKB generations — "what did this view look like at generation N".

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use eve_misd::{Mkb, SiteId};
use eve_store::{
    DeltaSnapshot, EngineConfig, EngineSnapshot, EvolutionStore, LogRecord, SealedRecord,
    SiteSnapshot, SnapshotManifest, SnapshotMeta, StoreStats, ViewSnapshot,
};
use eve_sync::EvolutionOp;

use crate::engine::{BatchOutcome, EveEngine, MaterializedView};
use crate::error::{Error, Result};
use crate::site::SimSite;

impl From<eve_store::Error> for Error {
    fn from(e: eve_store::Error) -> Error {
        match e {
            // Keep "store busy" typed across the layer boundary: the shell
            // and server surface it with the lock path and a usage hint
            // instead of collapsing it into a generic state error.
            eve_store::Error::Busy { .. } => Error::Busy {
                detail: e.to_string(),
            },
            eve_store::Error::RetiredPolicy { policy } => Error::RetiredPolicy { policy },
            other => Error::State {
                detail: other.to_string(),
            },
        }
    }
}

/// What [`DurableEngine::open`] reports about the recovery it performed.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// Sequence number of the snapshot recovery anchored on (`None` when
    /// the store held no intact snapshot and replay started from empty).
    pub snapshot_seq: Option<u64>,
    /// MKB generation of that snapshot.
    pub snapshot_generation: Option<u64>,
    /// Log records replayed on top of the snapshot.
    pub replayed_records: u64,
    /// Bytes truncated from a torn tail frame (0 on a clean shutdown).
    pub torn_bytes_truncated: u64,
    /// Damaged snapshot files that were skipped in favour of older ones.
    pub snapshots_skipped: usize,
    /// MKB generation after recovery completed.
    pub generation: u64,
}

/// An engine plus its evolution store. All mutations must flow through
/// [`DurableEngine::apply`] to be durable; [`DurableEngine::engine_mut`]
/// exists for read-mostly tweaks but anything reaching state the snapshot
/// covers should be followed by [`DurableEngine::checkpoint`].
#[derive(Debug)]
pub struct DurableEngine {
    engine: EveEngine,
    store: EvolutionStore,
    dir: PathBuf,
    /// Write an incremental delta checkpoint automatically after every
    /// `k` batches (`None` disables automatic checkpoints; explicit ones
    /// always work).
    pub snapshot_every: Option<u64>,
    batches_since_snapshot: u64,
    /// Seq and manifest of the newest snapshot written or recovered
    /// through this handle — the base the next delta diffs against. The
    /// manifest holds no extent (see [`SnapshotManifest`]), so the first
    /// write to a relation after a checkpoint copies nothing for it.
    last_snapshot: Option<(u64, SnapshotManifest)>,
    deltas_since_full: u64,
    /// Set when a failed mutation could not be re-anchored with a
    /// snapshot: the store is behind the live engine. While poisoned,
    /// every durable mutation fails closed (the engine is not touched);
    /// a successful [`DurableEngine::checkpoint`] clears it.
    poisoned: Option<String>,
}

/// Every `N`th automatic delta checkpoint is promoted to a full image,
/// bounding the recovery chain length (the store also enforces a hard
/// depth cap when resolving chains).
const FULL_SNAPSHOT_EVERY: u64 = 8;

/// Rebuilds an engine from a snapshot (an empty engine without one),
/// dropping the image before it replays `records` through
/// [`EveEngine::apply`], the function they first went through: recovery
/// and time travel alike.
fn replay(snapshot: Option<EngineSnapshot>, records: Vec<SealedRecord>) -> Result<EveEngine> {
    let mut engine = match snapshot {
        Some(snapshot) => EveEngine::from_snapshot_state(&snapshot)?,
        None => EveEngine::new(),
    };
    for sealed in records {
        engine.apply(sealed.record)?;
    }
    Ok(engine)
}

impl DurableEngine {
    /// Creates a fresh store at `dir` around a new, empty engine.
    ///
    /// # Errors
    ///
    /// Store I/O failures, or `dir` already holding a store.
    pub fn create(dir: impl Into<PathBuf>) -> Result<DurableEngine> {
        DurableEngine::create_with(dir, EveEngine::new())
    }

    /// Creates a fresh store at `dir`, bootstrapping it with `engine`'s
    /// current state as the sequence-0 snapshot (so pre-existing sites,
    /// relations and views are durable from the start).
    ///
    /// # Errors
    ///
    /// Store I/O failures, or `dir` already holding a store.
    pub fn create_with(dir: impl Into<PathBuf>, engine: EveEngine) -> Result<DurableEngine> {
        let dir = dir.into();
        let mut store = EvolutionStore::create(&dir)?;
        let snapshot = engine.snapshot_state();
        let seq = store.write_snapshot(&snapshot)?;
        Ok(DurableEngine {
            engine,
            store,
            dir,
            snapshot_every: None,
            batches_since_snapshot: 0,
            last_snapshot: Some((seq, SnapshotManifest::of(&snapshot))),
            deltas_since_full: 0,
            poisoned: None,
        })
    }

    /// Opens an existing store at `dir`, recovering the engine from the
    /// newest intact snapshot plus log-tail replay (truncating a torn tail
    /// record, if the process died mid-write).
    ///
    /// # Errors
    ///
    /// Store I/O/corruption failures, [`Error::RetiredPolicy`] for a store
    /// written under a retired search policy, or replay failures (which
    /// indicate a log produced under a different engine version).
    pub fn open(dir: impl Into<PathBuf>) -> Result<(DurableEngine, RecoveryReport)> {
        let dir = dir.into();
        let (store, recovered) = EvolutionStore::open(&dir)?;
        let snapshot = recovered.snapshot;
        let last_snapshot = snapshot
            .as_ref()
            .map(|(seq, snap)| (*seq, SnapshotManifest::of(snap)));
        let snapshot_generation = snapshot.as_ref().map(|(_, snap)| snap.generation());
        let replayed_records = recovered.tail.len() as u64;
        let engine = replay(snapshot.map(|(_, snap)| snap), recovered.tail)?;
        let report = RecoveryReport {
            snapshot_seq: last_snapshot.as_ref().map(|(seq, _)| *seq),
            snapshot_generation,
            replayed_records,
            torn_bytes_truncated: recovered.torn_bytes,
            snapshots_skipped: recovered.snapshots_skipped,
            generation: engine.mkb().generation(),
        };
        Ok((
            DurableEngine {
                engine,
                store,
                dir,
                snapshot_every: None,
                batches_since_snapshot: 0,
                last_snapshot,
                deltas_since_full: 0,
                poisoned: None,
            },
            report,
        ))
    }

    /// Opens the store read-only as of MKB generation `generation`: the
    /// newest snapshot at or before it plus every record whose
    /// post-generation does not exceed it — i.e. the state just before the
    /// first operation that moved the MKB past `generation`.
    ///
    /// Uses the store's read-only travel planner, so it works while a
    /// *live* [`DurableEngine`] still holds the directory's single-opener
    /// lock — historical reads never contend with the writer.
    ///
    /// # Errors
    ///
    /// Store failures, `generation` preceding the retained (compacted)
    /// horizon, or replay failures.
    pub fn open_at(dir: impl AsRef<Path>, generation: u64) -> Result<EveEngine> {
        let (snapshot, records) = EvolutionStore::plan_travel_in(dir.as_ref(), generation)?;
        replay(Some(snapshot), records)
    }

    /// The wrapped engine (read access).
    #[must_use]
    pub fn engine(&self) -> &EveEngine {
        &self.engine
    }

    /// Mutable engine access. Mutations made here bypass the log — use
    /// [`DurableEngine::apply`] for anything recovery must reproduce, or
    /// follow up with [`DurableEngine::checkpoint`].
    pub fn engine_mut(&mut self) -> &mut EveEngine {
        &mut self.engine
    }

    /// The store's accumulated I/O counters.
    #[must_use]
    pub(crate) fn store_stats(&self) -> StoreStats {
        self.store.stats()
    }

    /// The store directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The sequence number of the next log record.
    #[must_use]
    pub fn next_seq(&self) -> u64 {
        self.store.next_seq()
    }

    /// Intact snapshots (full and delta), in sequence order.
    ///
    /// # Errors
    ///
    /// Store I/O failures.
    pub fn snapshot_index(&self) -> Result<Vec<SnapshotMeta>> {
        Ok(self.store.snapshot_index()?)
    }

    /// Number of log segment files on disk.
    ///
    /// # Errors
    ///
    /// Store I/O failures.
    pub fn segment_count(&self) -> Result<usize> {
        Ok(self.store.segment_count()?)
    }

    /// Writes a **full** snapshot of the current engine state and rotates
    /// the log segment. History stays on disk for time travel until
    /// [`DurableEngine::compact`].
    ///
    /// # Errors
    ///
    /// Store I/O failures.
    pub fn checkpoint(&mut self) -> Result<u64> {
        let snapshot = self.engine.snapshot_state();
        let seq = self.store.write_snapshot(&snapshot)?;
        self.batches_since_snapshot = 0;
        self.deltas_since_full = 0;
        self.last_snapshot = Some((seq, SnapshotManifest::of(&snapshot)));
        // A full snapshot re-anchors durability on the live state: any
        // earlier double failure is healed, so the host is live again.
        self.poisoned = None;
        Ok(seq)
    }

    /// Writes an **incremental** delta checkpoint: the state difference
    /// against the last snapshot written or recovered through this handle.
    /// I/O cost is proportional to the state *changed* since that anchor
    /// — unchanged relations are recognized in O(1) by the base's extent
    /// handles — so periodic checkpointing stops scaling with total
    /// warehouse state. Falls back to a full snapshot when there is no
    /// base to diff against or every [`FULL_SNAPSHOT_EVERY`]th call, which
    /// bounds the chain recovery must resolve.
    ///
    /// # Errors
    ///
    /// Store I/O failures.
    pub(crate) fn checkpoint_delta(&mut self) -> Result<u64> {
        let Some((base_seq, base)) = &self.last_snapshot else {
            return self.checkpoint();
        };
        let base_seq = *base_seq;
        if self.deltas_since_full + 1 >= FULL_SNAPSHOT_EVERY {
            return self.checkpoint();
        }
        if self.store.next_seq() == base_seq {
            // Nothing logged since the anchor: a delta here could only be
            // empty — and would shadow its own base at the same seq.
            self.batches_since_snapshot = 0;
            return Ok(base_seq);
        }
        let current = self.engine.snapshot_state();
        let delta = DeltaSnapshot::between(base_seq, base, &current);
        let seq = self.store.write_delta_snapshot(&delta)?;
        self.batches_since_snapshot = 0;
        self.deltas_since_full += 1;
        self.last_snapshot = Some((seq, SnapshotManifest::of(&current)));
        Ok(seq)
    }

    /// Drops history before the newest snapshot, bounding disk use and
    /// recovery replay at the price of the time-travel horizon. Returns
    /// `(segments_deleted, snapshots_deleted)`.
    ///
    /// # Errors
    ///
    /// Store failures, or [`Error::Poisoned`]: a store that is behind the
    /// live engine must not have its history rewritten.
    pub fn compact(&mut self) -> Result<(usize, usize)> {
        self.ensure_live()?;
        Ok(self.store.compact()?)
    }

    /// Records the double failure and returns the typed error surfaced to
    /// the caller (and to every durable mutation attempted afterwards).
    fn poison(&mut self, detail: String) -> Error {
        self.poisoned = Some(detail.clone());
        Error::Poisoned { detail }
    }

    /// Fails closed when the host is poisoned — called before the engine
    /// is touched, so a half-anchored store never drifts further from its
    /// log while the operator decides how to recover.
    fn ensure_live(&self) -> Result<()> {
        match &self.poisoned {
            Some(detail) => Err(Error::Poisoned {
                detail: detail.clone(),
            }),
            None => Ok(()),
        }
    }

    // ------------------------------------------------------------------
    // The durable mutation entry (engine first, then the fsync'd record)
    // ------------------------------------------------------------------

    /// Appends the record for a mutation the engine has already applied;
    /// it is fsync'd when this returns `Ok`. If the commit fails, the live
    /// engine is ahead of the log; a snapshot re-anchors durability on the
    /// actual state (the same remedy as a failed batch) before the error
    /// is surfaced — without it, later successful appends would replay on
    /// top of a log missing this record and recovery would silently
    /// diverge.
    fn log(&mut self, record: LogRecord) -> Result<()> {
        match self.store.append(self.engine.mkb().generation(), record) {
            Ok(_) => Ok(()),
            Err(append_err) => Err(self.reanchor("log append", append_err)),
        }
    }

    /// The live engine is not where the log says: snapshot it so recovery
    /// lands exactly here and hand `cause` back — or, if even the snapshot
    /// fails, poison the host: the store is now behind the live engine.
    fn reanchor(&mut self, what: &str, cause: impl std::fmt::Display + Into<Error>) -> Error {
        match self.checkpoint() {
            Ok(_) => cause.into(),
            Err(anchor_err) => self.poison(format!(
                "{what} failed ({cause}) and the re-anchoring snapshot also \
                 failed ({anchor_err}): the store is behind the live engine"
            )),
        }
    }

    /// Runs one command durably — **the** durable mutation entry: refuse
    /// when poisoned, interpret the command with [`EveEngine::apply`] (the
    /// function recovery replays it through), then commit the record.
    /// Three commands carry a rule of their own:
    ///
    /// * `Batch` is the log unit of the evolution stream. If the engine
    ///   rejects it partway, an immediate snapshot re-anchors durability on
    ///   the actual state instead of logging a record that only partially
    ///   applied; a successful one counts towards
    ///   [`snapshot_every`](DurableEngine::snapshot_every). Once its record
    ///   is durable the batch is committed: an automatic checkpoint that
    ///   fails after it does not fail it, and the next batch retries.
    /// * `DeclareIndex` is logged only when the hint is new — re-declaring
    ///   re-warms the index without touching the log.
    /// * `DefineView` logs the definition as *installed* (validated and
    ///   normalised), not as submitted.
    ///
    /// # Errors
    ///
    /// [`Error::Poisoned`], engine failures (for a batch, after the
    /// re-anchoring snapshot) or store failures.
    pub fn apply(&mut self, cmd: LogRecord) -> Result<BatchOutcome> {
        self.ensure_live()?;
        let is_batch = matches!(cmd, LogRecord::Batch(_));
        let hints_before = self.engine.index_hints().len();
        let outcome = match self.engine.apply(cmd.clone()) {
            Ok(outcome) => outcome,
            Err(e) if is_batch => return Err(self.reanchor("batch", e)),
            Err(e) => return Err(e),
        };
        let record = match cmd {
            LogRecord::DeclareIndex(_) if self.engine.index_hints().len() == hints_before => {
                return Ok(outcome);
            }
            LogRecord::DefineView(def) => {
                LogRecord::DefineView(self.engine.view(&def.name)?.def.clone())
            }
            other => other,
        };
        self.log(record)?;
        if is_batch {
            self.batches_since_snapshot += 1;
            if self
                .snapshot_every
                .is_some_and(|k| self.batches_since_snapshot >= k.max(1))
            {
                // The log already replays this batch, so a failed
                // checkpoint costs only recovery time; the count stays up
                // and the next batch tries again.
                self.checkpoint_delta().ok();
            }
        }
        Ok(outcome)
    }

    /// [`DurableEngine::apply`] of one [`LogRecord::Batch`].
    ///
    /// # Errors
    ///
    /// As for [`DurableEngine::apply`].
    pub fn apply_batch(&mut self, ops: Vec<EvolutionOp>) -> Result<BatchOutcome> {
        self.apply(LogRecord::Batch(ops))
    }

    /// Parses E-SQL source text and [`DurableEngine::apply`]s the
    /// resulting [`LogRecord::DefineView`].
    ///
    /// # Errors
    ///
    /// Parse failures, then as for [`DurableEngine::apply`].
    pub fn define_view_sql(&mut self, sql: &str) -> Result<&MaterializedView> {
        let def = eve_esql::parse_view(sql)?;
        let name = def.name.clone();
        self.apply(LogRecord::DefineView(def))?;
        self.engine.view(&name)
    }

    /// Durable [`EveEngine::rebalance_views`]: migrations mutate installed
    /// rewritings without a log record, so the pass is followed by a
    /// checkpoint when anything moved. A pass that fails partway may
    /// already have migrated views, so it re-anchors like a failed batch;
    /// a checkpoint that fails after a migration poisons the host, since
    /// a later append would land on a log that lacks the migration.
    ///
    /// # Errors
    ///
    /// Engine failures (after the re-anchoring snapshot), or
    /// [`Error::Poisoned`].
    pub fn rebalance_views(&mut self) -> Result<Vec<crate::engine::MigrationReport>> {
        self.ensure_live()?;
        let reports = match self.engine.rebalance_views() {
            Ok(reports) => reports,
            Err(e) => return Err(self.reanchor("rebalance", e)),
        };
        if reports.iter().any(|r| r.migrated) {
            if let Err(e) = self.checkpoint() {
                return Err(self.poison(format!(
                    "the checkpoint after a view migration failed ({e}): \
                     the store is behind the live engine"
                )));
            }
        }
        Ok(reports)
    }
}

// ---------------------------------------------------------------------
// Engine <-> snapshot conversion
// ---------------------------------------------------------------------

impl EveEngine {
    /// Captures the engine's complete durable state — MKB (with its
    /// generation), per-site extents and accounting, installed rewritings
    /// and configuration — as a canonical [`EngineSnapshot`]. Equal engine
    /// states produce byte-equal [`EngineSnapshot::to_bytes`] encodings,
    /// which is the comparison the crash-recovery test suites run on.
    ///
    /// Ephemeral memoization (partner closures, index hit/miss counters)
    /// is deliberately excluded: it is reconstructible and does not affect
    /// any observable outcome.
    #[must_use]
    pub fn snapshot_state(&self) -> EngineSnapshot {
        EngineSnapshot {
            mkb: self.mkb.export_state(),
            sites: self
                .sites
                .values()
                .map(|site| SiteSnapshot {
                    id: site.id.0,
                    name: site.name.clone(),
                    relations: site
                        .hosted_with_blocking_factors()
                        .map(|(rel, bfr)| (rel.clone(), bfr))
                        .collect(),
                    io_count: site.io_count(),
                    message_count: site.message_count(),
                })
                .collect(),
            views: self
                .views
                .values()
                .map(|mv| ViewSnapshot {
                    def: mv.def.clone(),
                    extent: mv.extent.clone(),
                })
                .collect(),
            config: EngineConfig {
                sync_options: self.sync_options.clone(),
                qc_params: self.qc_params.clone(),
                workload: self.workload,
                strategy: self.strategy,
                index_hints: self.index_hints.clone(),
            },
        }
    }

    /// Rebuilds an engine from a snapshot, re-validating the MKB and site
    /// extents. The restored engine starts with cold caches but identical
    /// durable state (including the MKB generation and site accounting).
    ///
    /// # Errors
    ///
    /// Validation failures on corrupted snapshots.
    pub(crate) fn from_snapshot_state(snapshot: &EngineSnapshot) -> Result<EveEngine> {
        let mkb = Mkb::from_state(&snapshot.mkb)?;
        let mut sites = BTreeMap::new();
        for s in &snapshot.sites {
            let site = SimSite::from_parts(
                SiteId(s.id),
                s.name.clone(),
                s.relations.clone(),
                s.io_count,
                s.message_count,
            )?;
            sites.insert(s.id, site);
        }
        let mut views = BTreeMap::new();
        for v in &snapshot.views {
            views.insert(
                v.def.name.clone(),
                MaterializedView {
                    def: v.def.clone(),
                    extent: v.extent.clone(),
                },
            );
        }
        let engine = EveEngine {
            mkb,
            sites,
            views,
            index_hints: snapshot.config.index_hints.clone(),
            partners: eve_sync::PartnerCache::new(),
            sync_options: snapshot.config.sync_options.clone(),
            qc_params: snapshot.config.qc_params.clone(),
            workload: snapshot.config.workload,
            strategy: snapshot.config.strategy,
            // Runtime tuning knob, deliberately not part of snapshots:
            // recovery always starts serial and byte-identical.
            exec_options: eve_relational::ExecOptions::default(),
        };
        // Index contents are reconstructible and deliberately not part of
        // the snapshot; re-warm the declared ones on the restored extents.
        engine.warm_declared_indexes();
        Ok(engine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eve_misd::{
        AttributeInfo, PcConstraint, PcRelationship, PcSide, RelationInfo, SchemaChange,
    };
    use eve_relational::{tup, DataType, IndexKind, Relation, Schema};
    use eve_store::IndexHint;
    use std::sync::atomic::{AtomicU64, Ordering};

    static DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "eve-durable-tests-{}-{}-{name}",
            std::process::id(),
            DIR_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn attrs() -> Vec<AttributeInfo> {
        vec![
            AttributeInfo::new("K", DataType::Int),
            AttributeInfo::new("P", DataType::Int),
        ]
    }

    fn schema() -> Schema {
        Schema::of(&[("K", DataType::Int), ("P", DataType::Int)]).unwrap()
    }

    /// Builds a small durable warehouse entirely through logged commands.
    fn build(dir: &Path) -> DurableEngine {
        let mut d = DurableEngine::create(dir).unwrap();
        for (id, name) in [(1, "one"), (2, "two")] {
            d.apply(LogRecord::AddSite {
                id,
                name: name.into(),
            })
            .unwrap();
        }
        for (name, site) in [("Ra", 1u32), ("Rb", 1), ("Rc", 2)] {
            d.apply(LogRecord::RegisterRelation {
                info: RelationInfo::new(name, SiteId(site), attrs(), 10),
                extent: Relation::empty(name, schema()),
            })
            .unwrap();
            d.apply(LogRecord::SeedTuples {
                relation: name.into(),
                tuples: (0..10i64).map(|k| tup![k, k % 3]).collect(),
            })
            .unwrap();
        }
        d.apply(LogRecord::AddPcConstraint(PcConstraint::new(
            PcSide::projection("Rb", &["K", "P"]),
            PcRelationship::Equivalent,
            PcSide::projection("Rc", &["K", "P"]),
        )))
        .unwrap();
        d.apply(LogRecord::SetJoinSelectivity {
            left: "Ra".into(),
            right: "Rb".into(),
            js: 0.01,
        })
        .unwrap();
        d.define_view_sql(
            "CREATE VIEW V (VE = '~') AS SELECT A.K, B.P AS BP \
             FROM Ra A, Rb B (RR = true) WHERE A.K = B.K",
        )
        .unwrap();
        d
    }

    /// The capability change the tests below evolve the warehouse with.
    fn delete_rb(d: &mut DurableEngine) {
        d.apply_batch(vec![EvolutionOp::change(SchemaChange::DeleteRelation {
            relation: "Rb".into(),
        })])
        .unwrap();
    }

    /// Declares an index durably; `true` when the declaration was logged.
    fn declare_index(d: &mut DurableEngine, relation: &str, column: &str, kind: IndexKind) -> bool {
        let seq = d.next_seq();
        d.apply(LogRecord::DeclareIndex(IndexHint {
            relation: relation.into(),
            column: column.into(),
            kind,
        }))
        .unwrap();
        d.next_seq() > seq
    }

    fn fingerprint(engine: &EveEngine) -> Vec<u8> {
        engine.snapshot_state().to_bytes()
    }

    #[test]
    fn a_store_written_under_a_retired_search_policy_is_refused() {
        let dir = temp_dir("retired-policy");
        let mut d = build(&dir);
        let seq = d.checkpoint().unwrap();
        let generation = d.engine().mkb().generation();
        let hints = d.engine().snapshot_state().config.index_hints;
        drop(d);

        // Rewrite the newest snapshot as a build that still ran the beam
        // search would have written it: search-policy tag 2, width 4, just
        // before the index hints.
        let path = dir.join(format!("snap-{seq:020}.evs"));
        let file = std::fs::read(&path).unwrap();
        let (header, payload) = file.split_at(36);
        let mut tail = eve_store::Enc::new();
        eve_store::vec_encode(&hints, &mut tail);
        let at = payload.len() - tail.into_bytes().len() - 1;
        assert_eq!(payload[at], 0, "the exhaustive tag");
        let mut beam = eve_store::Enc::new();
        beam.u8(2);
        beam.usize(4);
        let payload = [&payload[..at], &beam.into_bytes(), &payload[at + 1..]].concat();
        let mut patched = header[..24].to_vec();
        patched.extend_from_slice(&u32::try_from(payload.len()).unwrap().to_le_bytes());
        patched.extend_from_slice(&eve_store::checksum::crc64(&payload).to_le_bytes());
        patched.extend_from_slice(&payload);
        std::fs::write(&path, patched).unwrap();

        // Refused by name — neither skipped as damaged nor replayed under
        // the exhaustive search.
        let retired = Error::RetiredPolicy {
            policy: "beam (width 4)".into(),
        };
        let err = DurableEngine::open(&dir).unwrap_err();
        assert_eq!(err, retired);
        assert!(err.to_string().contains("beam (width 4)"), "{err}");
        assert_eq!(
            DurableEngine::open_at(&dir, generation).unwrap_err(),
            retired
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_state_roundtrips_byte_identically() {
        let dir = temp_dir("roundtrip");
        let d = build(&dir);
        let snap = d.engine().snapshot_state();
        let rebuilt = EveEngine::from_snapshot_state(&snap).unwrap();
        assert_eq!(fingerprint(&rebuilt), snap.to_bytes());
        // And the rebuilt engine answers queries identically.
        let v1 = d.engine().view("V").unwrap();
        let v2 = rebuilt.view("V").unwrap();
        assert_eq!(v1.extent.tuples(), v2.extent.tuples());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopen_recovers_byte_identical_state() {
        let dir = temp_dir("reopen");
        let mut d = build(&dir);
        d.apply_batch(vec![
            EvolutionOp::insert("Ra", vec![tup![100, 0]]),
            EvolutionOp::insert("Rb", vec![tup![100, 2]]),
        ])
        .unwrap();
        delete_rb(&mut d);
        let expected = fingerprint(d.engine());
        drop(d); // crash: no shutdown handshake

        let (recovered, report) = DurableEngine::open(&dir).unwrap();
        assert_eq!(fingerprint(recovered.engine()), expected);
        assert!(report.replayed_records > 0);
        assert_eq!(report.torn_bytes_truncated, 0);
        assert_eq!(report.generation, recovered.engine().mkb().generation());
        // The view survived the capability change via the Rc mirror and is
        // intact after recovery.
        let v = recovered.engine().view("V").unwrap();
        assert!(v.def.from.iter().any(|f| f.relation == "Rc"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_bounds_replay_and_preserves_state() {
        let dir = temp_dir("checkpoint");
        let mut d = build(&dir);
        d.apply_batch(vec![EvolutionOp::insert("Ra", vec![tup![50, 1]])])
            .unwrap();
        d.checkpoint().unwrap();
        d.apply_batch(vec![EvolutionOp::insert("Ra", vec![tup![51, 1]])])
            .unwrap();
        let expected = fingerprint(d.engine());
        drop(d);
        let (recovered, report) = DurableEngine::open(&dir).unwrap();
        assert_eq!(report.replayed_records, 1, "only the post-snapshot batch");
        assert!(report.snapshot_seq.is_some());
        assert_eq!(fingerprint(recovered.engine()), expected);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn automatic_snapshots_every_k_batches() {
        let dir = temp_dir("auto");
        let mut d = build(&dir);
        d.snapshot_every = Some(2);
        let snaps_before = d.snapshot_index().unwrap().len();
        for k in 0..4 {
            d.apply_batch(vec![EvolutionOp::insert("Ra", vec![tup![200 + k, 0]])])
                .unwrap();
        }
        let snaps_after = d.snapshot_index().unwrap().len();
        assert_eq!(snaps_after - snaps_before, 2, "4 batches / every 2");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_record_is_dropped_cleanly() {
        let dir = temp_dir("torn");
        let mut d = build(&dir);
        d.apply_batch(vec![EvolutionOp::insert("Ra", vec![tup![70, 0]])])
            .unwrap();
        let before_last = fingerprint(d.engine());
        d.apply_batch(vec![EvolutionOp::insert("Ra", vec![tup![71, 0]])])
            .unwrap();
        drop(d);

        // Tear the final record mid-frame.
        let mut segs: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|x| x == "evl"))
            .collect();
        segs.sort();
        let active = segs.last().unwrap();
        let len = std::fs::metadata(active).unwrap().len();
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(active)
            .unwrap();
        f.set_len(len - 7).unwrap();
        f.sync_all().unwrap();
        drop(f);

        let (recovered, report) = DurableEngine::open(&dir).unwrap();
        assert!(report.torn_bytes_truncated > 0);
        assert_eq!(
            fingerprint(recovered.engine()),
            before_last,
            "state rolls back to the last intact record"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_at_travels_to_past_generations() {
        let dir = temp_dir("travel");
        let mut d = build(&dir);
        let g0 = d.engine().mkb().generation();
        let fp0 = fingerprint(d.engine());
        // A data batch does not move the MKB generation…
        d.apply_batch(vec![EvolutionOp::insert("Ra", vec![tup![42, 2]])])
            .unwrap();
        assert_eq!(d.engine().mkb().generation(), g0);
        let fp_data = fingerprint(d.engine());
        // …a capability change does.
        delete_rb(&mut d);
        let g1 = d.engine().mkb().generation();
        let fp1 = fingerprint(d.engine());
        assert!(g1 > g0);
        drop(d);

        // Travelling to g0 includes the data batch (same generation) but
        // not the capability change.
        let at_g0 = DurableEngine::open_at(&dir, g0).unwrap();
        assert_eq!(fingerprint(&at_g0), fp_data);
        assert_ne!(fp0, fp_data, "the data batch changed site extents");
        // The historical engine still answers queries: Rb exists there.
        assert!(at_g0.mkb().has_relation("Rb"));
        assert!(at_g0
            .view("V")
            .unwrap()
            .def
            .from
            .iter()
            .any(|f| f.relation == "Rb"));

        // Travelling to the latest generation reproduces the final state.
        let at_g1 = DurableEngine::open_at(&dir, g1).unwrap();
        assert_eq!(fingerprint(&at_g1), fp1);

        // Travelling to generation 0 lands on the bootstrap snapshot: the
        // empty engine `create` anchored the store with.
        let at_zero = DurableEngine::open_at(&dir, 0).unwrap();
        assert!(!at_zero.mkb().has_relation("Ra"), "pre-registration state");
        assert!(at_zero.view("V").is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compact_trades_travel_horizon_for_space() {
        let dir = temp_dir("compact");
        let mut d = build(&dir);
        let g0 = d.engine().mkb().generation();
        delete_rb(&mut d);
        d.checkpoint().unwrap();
        let (segs, snaps) = d.compact().unwrap();
        assert!(segs >= 1 && snaps >= 1);
        let latest = fingerprint(d.engine());
        drop(d);
        // Recovery still lands on the exact latest state…
        let (recovered, _) = DurableEngine::open(&dir).unwrap();
        assert_eq!(fingerprint(recovered.engine()), latest);
        drop(recovered);
        // …but travel before the compaction anchor now fails loudly.
        let err = DurableEngine::open_at(&dir, g0).unwrap_err();
        assert!(err.to_string().contains("horizon"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn drop_view_and_selectivities_replay() {
        let dir = temp_dir("dropview");
        let mut d = build(&dir);
        d.apply(LogRecord::SetDefaultJoinSelectivity { js: 0.02 })
            .unwrap();
        d.apply(LogRecord::DropView { name: "V".into() }).unwrap();
        let expected = fingerprint(d.engine());
        drop(d);
        let (recovered, _) = DurableEngine::open(&dir).unwrap();
        assert_eq!(fingerprint(recovered.engine()), expected);
        assert!(recovered.engine().view("V").is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn delta_checkpoints_recover_byte_identically() {
        let dir = temp_dir("delta");
        let mut d = build(&dir);
        d.snapshot_every = Some(1); // a delta checkpoint after every batch
        for k in 0..5 {
            d.apply_batch(vec![EvolutionOp::insert("Ra", vec![tup![300 + k, 0]])])
                .unwrap();
        }
        let index = d.snapshot_index().unwrap();
        assert!(
            index
                .iter()
                .any(|m| m.kind == eve_store::SnapshotKind::Delta),
            "automatic checkpoints wrote deltas: {index:?}"
        );
        let expected = fingerprint(d.engine());
        drop(d);
        let (recovered, report) = DurableEngine::open(&dir).unwrap();
        assert_eq!(fingerprint(recovered.engine()), expected);
        // Recovery anchored on the newest (delta) snapshot, so the chain
        // resolution — not tail replay — reproduced the state.
        assert_eq!(report.replayed_records, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_at_works_while_a_live_handle_holds_the_lock() {
        let dir = temp_dir("live-travel");
        let mut d = build(&dir);
        let g0 = d.engine().mkb().generation();
        delete_rb(&mut d);
        // Historical reads go through the read-only travel planner and
        // succeed while the live handle holds the single-opener lock…
        let past = DurableEngine::open_at(&dir, g0).unwrap();
        assert!(past.mkb().has_relation("Rb"));
        // …whereas a second full open is refused outright.
        let err = DurableEngine::open(&dir).unwrap_err();
        assert!(err.to_string().contains("already open"), "{err}");
        drop(d);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_batch_reanchors_with_a_snapshot() {
        let dir = temp_dir("failbatch");
        let mut d = build(&dir);
        let snaps_before = d.snapshot_index().unwrap().len();
        let err = d.apply_batch(vec![
            EvolutionOp::insert("Ra", vec![tup![1, 1]]),
            EvolutionOp::insert("Ghost", vec![tup![2, 2]]),
        ]);
        assert!(err.is_err());
        assert_eq!(
            d.snapshot_index().unwrap().len(),
            snaps_before + 1,
            "failure re-anchors durability on the actual state"
        );
        let expected = fingerprint(d.engine());
        drop(d);
        let (recovered, _) = DurableEngine::open(&dir).unwrap();
        assert_eq!(fingerprint(recovered.engine()), expected);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_rebalance_whose_checkpoint_fails_poisons_the_host() {
        let dir = temp_dir("rebalance-poison");
        let mut d = build(&dir);
        // `Rn` holds `Rb`'s rows next to `Ra` in a narrower encoding, so
        // maintaining `V` over it ships fewer bytes: rebalance moves `V`.
        let narrow = vec![
            AttributeInfo::sized("K", DataType::Int, 1),
            AttributeInfo::sized("P", DataType::Int, 1),
        ];
        d.apply(LogRecord::RegisterRelation {
            info: RelationInfo::new("Rn", SiteId(1), narrow, 10),
            extent: Relation::empty("Rn", schema()),
        })
        .unwrap();
        d.apply(LogRecord::SeedTuples {
            relation: "Rn".into(),
            tuples: (0..10i64).map(|k| tup![k, k % 3]).collect(),
        })
        .unwrap();
        d.apply(LogRecord::AddPcConstraint(PcConstraint::new(
            PcSide::projection("Rb", &["K", "P"]),
            PcRelationship::Equivalent,
            PcSide::projection("Rn", &["K", "P"]),
        )))
        .unwrap();

        // A directory on the snapshot's temp path fails the checkpoint;
        // log appends still succeed.
        let blocker = dir.join(format!("snap-{:020}.tmp", d.next_seq()));
        std::fs::create_dir(&blocker).unwrap();
        let err = d.rebalance_views().unwrap_err();
        assert!(matches!(err, Error::Poisoned { .. }), "{err:?}");
        assert!(d
            .engine()
            .view("V")
            .unwrap()
            .def
            .from
            .iter()
            .any(|f| f.relation == "Rn"));
        // The next mutation is refused, not acknowledged onto a log that
        // lacks the migration.
        let err = d
            .apply_batch(vec![EvolutionOp::insert("Ra", vec![tup![60, 1]])])
            .unwrap_err();
        assert!(matches!(err, Error::Poisoned { .. }), "{err:?}");

        std::fs::remove_dir(&blocker).unwrap();
        d.checkpoint().unwrap();
        let expected = fingerprint(d.engine());
        drop(d);
        let (recovered, _) = DurableEngine::open(&dir).unwrap();
        assert!(fingerprint(recovered.engine()) == expected);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_failed_automatic_checkpoint_leaves_the_batch_committed() {
        let dir = temp_dir("auto-checkpoint-fails");
        let mut d = build(&dir);
        d.snapshot_every = Some(1);
        let snapshots = d.snapshot_index().unwrap().len();
        // A directory on the temp path of the snapshot after the next
        // record fails that checkpoint; the log append still succeeds.
        let blocker = dir.join(format!("snap-{:020}.tmp", d.next_seq() + 1));
        std::fs::create_dir(&blocker).unwrap();
        d.apply_batch(vec![EvolutionOp::insert("Ra", vec![tup![400, 0]])])
            .expect("the batch is durable, so it is acknowledged");
        assert_eq!(
            d.snapshot_index().unwrap().len(),
            snapshots,
            "no checkpoint"
        );
        assert!(d.engine().view("V").is_ok());

        // The next batch retries the checkpoint, and the delta it writes
        // carries both batches.
        std::fs::remove_dir(&blocker).unwrap();
        d.apply_batch(vec![EvolutionOp::insert("Ra", vec![tup![401, 0]])])
            .unwrap();
        let index = d.snapshot_index().unwrap();
        assert_eq!(index.len(), snapshots + 1);
        assert_eq!(index.last().unwrap().kind, eve_store::SnapshotKind::Delta);
        let expected = fingerprint(d.engine());
        drop(d);
        let (recovered, report) = DurableEngine::open(&dir).unwrap();
        assert_eq!(report.replayed_records, 0, "anchored on the retried delta");
        assert!(fingerprint(recovered.engine()) == expected);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The relations and views the next delta checkpoint of `d` carries.
    fn delta_names(d: &DurableEngine) -> (Vec<String>, Vec<String>) {
        let (seq, base) = d.last_snapshot.as_ref().unwrap();
        let delta = DeltaSnapshot::between(*seq, base, &d.engine().snapshot_state());
        (
            delta
                .changed_relations
                .iter()
                .map(|(_, rel, _)| rel.name().to_owned())
                .collect(),
            delta
                .changed_views
                .iter()
                .map(|v| v.def.name.clone())
                .collect(),
        )
    }

    #[test]
    fn a_delta_carries_exactly_the_written_extents() {
        let dir = temp_dir("delta-manifest");
        let mut d = build(&dir);
        d.checkpoint().unwrap();
        assert_eq!(delta_names(&d), (vec![], vec![]));

        // `Ra` feeds `V` (a row that joins `Rb`); `Rc` feeds no view.
        d.apply_batch(vec![EvolutionOp::insert("Ra", vec![tup![5, 1]])])
            .unwrap();
        assert_eq!(delta_names(&d), (vec!["Ra".into()], vec!["V".into()]));
        d.apply_batch(vec![EvolutionOp::delete("Rc", vec![tup![3, 0]])])
            .unwrap();
        assert_eq!(
            delta_names(&d),
            (vec!["Ra".into(), "Rc".into()], vec!["V".into()])
        );
        // A delete of a row `Rb` does not hold writes nothing.
        d.apply_batch(vec![EvolutionOp::delete("Rb", vec![tup![99, 0]])])
            .unwrap();
        assert_eq!(delta_names(&d).0, vec!["Ra".to_owned(), "Rc".into()]);
        d.checkpoint_delta().unwrap();
        assert_eq!(delta_names(&d), (vec![], vec![]));

        // Dropped and registered again with the very same rows: a new
        // extent, so the delta carries it.
        d.apply_batch(vec![EvolutionOp::change(SchemaChange::DeleteRelation {
            relation: "Rc".into(),
        })])
        .unwrap();
        d.apply(LogRecord::RegisterRelation {
            info: RelationInfo::new("Rc", SiteId(2), attrs(), 10),
            extent: Relation::empty("Rc", schema()),
        })
        .unwrap();
        let mut rows: Vec<_> = (0..10i64).map(|k| tup![k, k % 3]).collect();
        rows.remove(3);
        d.apply(LogRecord::SeedTuples {
            relation: "Rc".into(),
            tuples: rows,
        })
        .unwrap();
        assert_eq!(delta_names(&d).0, vec!["Rc".to_owned()]);
        d.checkpoint_delta().unwrap();

        // A renamed attribute keeps the rows' storage but not the schema.
        d.apply_batch(vec![EvolutionOp::change(SchemaChange::RenameAttribute {
            relation: "Rc".into(),
            from: "P".into(),
            to: "Q".into(),
        })])
        .unwrap();
        assert_eq!(delta_names(&d).0, vec!["Rc".to_owned()]);
        let seq = d.checkpoint_delta().unwrap();

        // The resolved chain is the full snapshot, byte for byte.
        let expected = fingerprint(d.engine());
        drop(d);
        let (recovered, report) = DurableEngine::open(&dir).unwrap();
        assert_eq!(report.snapshot_seq, Some(seq));
        assert_eq!(report.replayed_records, 0);
        assert!(fingerprint(recovered.engine()) == expected);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_batch_refused_at_a_rename_recovers_its_applied_prefix() {
        let dir = temp_dir("refused-rename");
        let mut d = build(&dir);
        // No view reads `Rc`, and `Rb` is taken (at the other site): the
        // insert applies, the rename is refused before any site moves.
        let insert = EvolutionOp::insert("Rc", vec![tup![40, 1]]);
        let mut expected = d.engine().clone();
        expected
            .apply(LogRecord::Batch(vec![insert.clone()]))
            .unwrap();
        let err = d
            .apply_batch(vec![
                insert,
                EvolutionOp::change(SchemaChange::RenameRelation {
                    from: "Rc".into(),
                    to: "Rb".into(),
                }),
            ])
            .unwrap_err();
        assert_eq!(
            err.to_string(),
            "MKB error: relation `Rb` is already registered"
        );
        let (expected, live) = (fingerprint(&expected), fingerprint(d.engine()));
        drop(d);
        let (recovered, _) = DurableEngine::open(&dir).unwrap();
        assert!(
            fingerprint(recovered.engine()) == expected,
            "the store recovers another state"
        );
        assert!(live == expected, "the live engine moved");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn declared_indexes_survive_log_replay_and_snapshots() {
        let dir = temp_dir("index-hints");
        let mut d = build(&dir);
        assert!(declare_index(&mut d, "Ra", "K", IndexKind::Hash));
        assert!(
            !declare_index(&mut d, "Ra", "K", IndexKind::Hash),
            "duplicate declaration is not re-logged"
        );
        declare_index(&mut d, "Rb", "P", IndexKind::Sorted);
        let expected = fingerprint(d.engine());
        drop(d);

        // Log replay restores the hints and re-warms the indexes.
        let (recovered, _) = DurableEngine::open(&dir).unwrap();
        assert_eq!(fingerprint(recovered.engine()), expected);
        assert_eq!(recovered.engine().index_hints().len(), 2);
        let ra = recovered.engine().sites[&1].relation("Ra").unwrap();
        assert!(ra.has_index(0, IndexKind::Hash), "replay re-warmed Ra.K");

        // A snapshot carries the hints without the log.
        let mut recovered = recovered;
        recovered.checkpoint().unwrap();
        drop(recovered);
        let (from_snap, report) = DurableEngine::open(&dir).unwrap();
        assert_eq!(report.replayed_records, 0, "state came from the snapshot");
        assert_eq!(fingerprint(from_snap.engine()), expected);
        assert_eq!(from_snap.engine().index_hints().len(), 2);
        let rb = from_snap.engine().sites[&1].relation("Rb").unwrap();
        assert!(rb.has_index(1, IndexKind::Sorted), "restore re-warmed Rb.P");
        std::fs::remove_dir_all(&dir).ok();
    }
}
