//! Full-state snapshots of the engine: MKB, per-site extents, installed
//! rewritings (materialized views) and the engine configuration.
//!
//! A snapshot is the recovery anchor: loading it and replaying the log
//! records appended after its sequence number reproduces the engine
//! exactly. Its encoding is canonical, so two engines in the same state
//! encode to the same bytes — the differential crash-recovery suites
//! compare engines through [`EngineSnapshot::to_bytes`].
//!
//! ```text
//! snapshot file := MAGIC ("EVESNP01") seq (u64) generation (u64)
//!                  len (u32) crc64 (u64, over payload) payload
//! payload       := EngineSnapshot encoding
//! ```

use std::collections::{BTreeMap, BTreeSet};
use std::fs::File;
use std::io::Read;
use std::path::Path;

use eve_esql::ViewDef;
use eve_misd::MkbState;
use eve_qc::{QcParams, SelectionStrategy, WorkloadModel};
use eve_relational::{ExtentHandle, IndexKind, Relation};
use eve_sync::SyncOptions;

use crate::checksum::crc64;
use crate::codec::{from_bytes, to_bytes, Codec, Dec, Enc};
use crate::error::{Error, Result};

/// Magic prefix of a snapshot file.
pub(crate) const SNAPSHOT_MAGIC: &[u8; 8] = b"EVESNP01";

/// One simulated information source: hosted extents with their blocking
/// factors, plus the resource-accounting counters (so recovered cost
/// reports continue exactly where the crashed process stopped).
#[derive(Debug, Clone, PartialEq)]
pub struct SiteSnapshot {
    /// Site id.
    pub id: u32,
    /// Site name.
    pub name: String,
    /// Hosted relations with their blocking factors, ordered by name.
    pub relations: Vec<(Relation, u64)>,
    /// Block I/Os charged so far.
    pub io_count: u64,
    /// Messages charged so far.
    pub message_count: u64,
}

/// One installed rewriting: the (possibly evolved) view definition and its
/// materialized extent.
#[derive(Debug, Clone, PartialEq)]
pub struct ViewSnapshot {
    /// The view definition.
    pub def: ViewDef,
    /// The materialized extent (bag semantics, insertion order preserved).
    pub extent: Relation,
}

/// One declared secondary index: relation, column and physical shape —
/// the engine's own hint type (`eve-system` re-exports it), carried as is
/// by snapshots and by [`LogRecord::DeclareIndex`](crate::LogRecord).
///
/// Only *declared* hints persist — lazily warmed index state is
/// reconstructible and excluded so equal engine states keep byte-equal
/// snapshot encodings regardless of which queries happened to run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexHint {
    /// The indexed relation's name.
    pub relation: String,
    /// The indexed column's (bare) attribute name.
    pub column: String,
    /// Physical index shape.
    pub kind: IndexKind,
}

/// The engine's tunable configuration. Replay must run under the same
/// configuration the ops were originally applied with — a capability
/// change ranked under different QC parameters could adopt a different
/// rewriting, silently forking history.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Synchronizer options.
    pub sync_options: SyncOptions,
    /// QC-Model parameters.
    pub qc_params: QcParams,
    /// Workload model.
    pub workload: WorkloadModel,
    /// Rewriting selection strategy.
    pub strategy: SelectionStrategy,
    /// Declared secondary indexes, in declaration order.
    pub index_hints: Vec<IndexHint>,
}

/// A complete, self-contained image of the engine.
#[derive(Debug, Clone)]
pub struct EngineSnapshot {
    /// The Meta Knowledge Base, including its mutation generation.
    pub mkb: MkbState,
    /// Every simulated site, ordered by id.
    pub sites: Vec<SiteSnapshot>,
    /// Every materialized view, ordered by name.
    pub views: Vec<ViewSnapshot>,
    /// The engine configuration under which the log was produced.
    pub config: EngineConfig,
}

impl EngineSnapshot {
    /// The MKB generation captured in this snapshot.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.mkb.generation
    }

    /// The canonical encoding — equal states encode to equal bytes, which
    /// is the "byte-identical" notion the recovery test suites pin.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        to_bytes(self)
    }

    /// Decodes a snapshot from its canonical encoding.
    ///
    /// # Errors
    ///
    /// [`Error::Corrupt`] on malformed input.
    pub fn from_bytes(bytes: &[u8]) -> Result<EngineSnapshot> {
        from_bytes(bytes)
    }
}

impl Codec for SiteSnapshot {
    fn encode(&self, enc: &mut Enc) {
        enc.u32(self.id);
        enc.str(&self.name);
        enc.usize(self.relations.len());
        for (rel, bfr) in &self.relations {
            rel.encode(enc);
            enc.u64(*bfr);
        }
        enc.u64(self.io_count);
        enc.u64(self.message_count);
    }

    fn decode(dec: &mut Dec<'_>) -> Result<SiteSnapshot> {
        let id = dec.u32()?;
        let name = dec.str()?;
        let n = dec.len()?;
        let mut relations = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            let rel = Relation::decode(dec)?;
            let bfr = dec.u64()?;
            relations.push((rel, bfr));
        }
        Ok(SiteSnapshot {
            id,
            name,
            relations,
            io_count: dec.u64()?,
            message_count: dec.u64()?,
        })
    }
}

impl Codec for ViewSnapshot {
    fn encode(&self, enc: &mut Enc) {
        self.def.encode(enc);
        self.extent.encode(enc);
    }

    fn decode(dec: &mut Dec<'_>) -> Result<ViewSnapshot> {
        Ok(ViewSnapshot {
            def: ViewDef::decode(dec)?,
            extent: Relation::decode(dec)?,
        })
    }
}

impl Codec for IndexHint {
    fn encode(&self, enc: &mut Enc) {
        enc.str(&self.relation);
        enc.str(&self.column);
        self.kind.encode(enc);
    }

    fn decode(dec: &mut Dec<'_>) -> Result<IndexHint> {
        Ok(IndexHint {
            relation: dec.str()?,
            column: dec.str()?,
            kind: IndexKind::decode(dec)?,
        })
    }
}

impl Codec for EngineConfig {
    fn encode(&self, enc: &mut Enc) {
        self.sync_options.encode(enc);
        self.qc_params.encode(enc);
        self.workload.encode(enc);
        self.strategy.encode(enc);
        // The search-policy tag: 0 is the exhaustive search, the only
        // policy left.
        enc.u8(0);
        enc.usize(self.index_hints.len());
        for hint in &self.index_hints {
            hint.encode(enc);
        }
    }

    fn decode(dec: &mut Dec<'_>) -> Result<EngineConfig> {
        let sync_options = SyncOptions::decode(dec)?;
        let qc_params = QcParams::decode(dec)?;
        let workload = WorkloadModel::decode(dec)?;
        let strategy = SelectionStrategy::decode(dec)?;
        // Tags 1 (best-first) and 2 (beam) name search policies the engine
        // no longer runs. Replaying their log under the exhaustive search
        // could adopt other rewritings, so such a store is refused, not
        // skipped as damaged.
        match dec.u8()? {
            0 => {}
            1 => {
                return Err(Error::RetiredPolicy {
                    policy: "best-first".into(),
                })
            }
            2 => {
                let width = dec.usize()?;
                return Err(Error::RetiredPolicy {
                    policy: format!("beam (width {width})"),
                });
            }
            other => {
                return Err(Error::corrupt(format!("invalid search-policy tag {other}")));
            }
        }
        let n = dec.len()?;
        let mut index_hints = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            index_hints.push(IndexHint::decode(dec)?);
        }
        Ok(EngineConfig {
            sync_options,
            qc_params,
            workload,
            strategy,
            index_hints,
        })
    }
}

impl Codec for EngineSnapshot {
    fn encode(&self, enc: &mut Enc) {
        self.mkb.encode(enc);
        enc.usize(self.sites.len());
        for s in &self.sites {
            s.encode(enc);
        }
        enc.usize(self.views.len());
        for v in &self.views {
            v.encode(enc);
        }
        self.config.encode(enc);
    }

    fn decode(dec: &mut Dec<'_>) -> Result<EngineSnapshot> {
        let mkb = MkbState::decode(dec)?;
        let n_sites = dec.len()?;
        let mut sites = Vec::with_capacity(n_sites.min(4096));
        for _ in 0..n_sites {
            sites.push(SiteSnapshot::decode(dec)?);
        }
        let n_views = dec.len()?;
        let mut views = Vec::with_capacity(n_views.min(4096));
        for _ in 0..n_views {
            views.push(ViewSnapshot::decode(dec)?);
        }
        Ok(EngineSnapshot {
            mkb,
            sites,
            views,
            config: EngineConfig::decode(dec)?,
        })
    }
}

/// Writes a snapshot file atomically (temp file + rename + directory
/// fsync). The final directory fsync is part of the guarantee: without it
/// a crash can lose the rename and the "durable" snapshot with it.
///
/// # Errors
///
/// I/O failures (including a failed directory fsync — the snapshot is
/// only atomic-durable once the rename itself is on disk), or
/// [`Error::TooLarge`] when the encoded state exceeds the `u32` length
/// prefix.
pub(crate) fn write_snapshot_file(path: &Path, seq: u64, snapshot: &EngineSnapshot) -> Result<u64> {
    let payload = snapshot.to_bytes();
    write_anchored_file(
        path,
        SNAPSHOT_MAGIC,
        &[seq, snapshot.generation()],
        &payload,
        "snapshot",
    )
}

/// Shared atomic-write path for snapshot-shaped files: `magic ++ header
/// words (u64 LE each) ++ len (u32) ++ crc64 ++ payload`, written to a
/// temp file, fsync'd, renamed into place, with the parent directory
/// fsync'd afterwards so the rename survives power loss. The fixed
/// header and the payload go out as two writes, so the payload is never
/// copied. A step that fails after the temp file exists removes it.
fn write_anchored_file(
    path: &Path,
    magic: &[u8; 8],
    header_words: &[u64],
    payload: &[u8],
    what: &'static str,
) -> Result<u64> {
    use std::io::Write;
    let len = u32::try_from(payload.len()).map_err(|_| Error::too_large(payload.len(), what))?;
    let mut header = Vec::with_capacity(8 + header_words.len() * 8 + 12);
    header.extend_from_slice(magic);
    for word in header_words {
        header.extend_from_slice(&word.to_le_bytes());
    }
    header.extend_from_slice(&len.to_le_bytes());
    header.extend_from_slice(&crc64(payload).to_le_bytes());

    let tmp = path.with_extension("tmp");
    let mut file = File::create(&tmp).map_err(|e| Error::io(&tmp, e))?;
    let written = file
        .write_all(&header)
        .and_then(|()| file.write_all(payload))
        .and_then(|()| file.sync_all())
        .map_err(|e| Error::io(&tmp, e));
    drop(file);
    let placed = written.and_then(|()| std::fs::rename(&tmp, path).map_err(|e| Error::io(path, e)));
    if let Err(e) = placed {
        // Best effort: the write already failed, and a temp file left
        // behind is removed by the next `EvolutionStore::open`.
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    // Persist the rename itself — propagated, not swallowed: an unsynced
    // rename is exactly the crash window the temp-file dance exists to
    // close.
    if let Some(dir) = path.parent() {
        crate::fsutil::sync_dir(dir)?;
    }
    Ok((header.len() + payload.len()) as u64)
}

/// A parsed snapshot file.
#[derive(Debug)]
pub(crate) struct SnapshotFile {
    /// Sequence number: records `0..seq` are folded into this snapshot.
    pub seq: u64,
    /// The state image.
    pub snapshot: EngineSnapshot,
}

/// Splits an anchored file's fixed prefix (`magic ++ W header words ++ len
/// ++ crc64`) off the front of `bytes`: the header words, the declared
/// payload length, the payload checksum and the bytes after the prefix.
/// `None` when `bytes` is shorter than the prefix; the magic is not
/// checked here.
fn split_anchored_header<const W: usize>(bytes: &[u8]) -> Option<([u64; W], u64, u64, &[u8])> {
    let mut rest = bytes.get(8..)?;
    let mut words = [0u64; W];
    for word in &mut words {
        let (head, tail) = rest.split_first_chunk::<8>()?;
        *word = u64::from_le_bytes(*head);
        rest = tail;
    }
    let (len, rest) = rest.split_first_chunk::<4>()?;
    let (crc, rest) = rest.split_first_chunk::<8>()?;
    Some((
        words,
        u64::from(u32::from_le_bytes(*len)),
        u64::from_le_bytes(*crc),
        rest,
    ))
}

fn check_anchored_len(path: &Path, actual: u64, declared: u64) -> Result<()> {
    if actual != declared {
        return Err(Error::corrupt(format!(
            "{}: payload length {actual} does not match header {declared}",
            path.display()
        )));
    }
    Ok(())
}

/// Header-only form of [`read_anchored_file`]: reads just the fixed prefix
/// and returns its `W` header words, checking the magic and that the
/// declared payload length matches the file size — but not the payload
/// checksum.
fn read_anchored_header<const W: usize>(
    path: &Path,
    magic: &[u8; 8],
    what: &str,
) -> Result<[u64; W]> {
    let short = || {
        Error::corrupt(format!(
            "{} is not a {what} file (short header)",
            path.display()
        ))
    };
    let mut file = File::open(path).map_err(|e| Error::io(path, e))?;
    let mut header = vec![0u8; 8 + W * 8 + 12];
    file.read_exact(&mut header).map_err(|_| short())?;
    if &header[..8] != magic {
        return Err(Error::corrupt(format!(
            "{} is not a {what} file (bad magic)",
            path.display()
        )));
    }
    let (words, len, _, _) = split_anchored_header(&header).ok_or_else(short)?;
    let size = file.metadata().map_err(|e| Error::io(path, e))?.len();
    check_anchored_len(path, size.saturating_sub(header.len() as u64), len)?;
    Ok(words)
}

/// The mirror image of [`write_anchored_file`]: reads a whole
/// snapshot-shaped file and returns its `W` header words and its payload
/// decoded by `decode`, having checked the magic, the header length, the
/// declared payload length against the file size and the payload's
/// CRC-64. The payload is checked and decoded in place in the buffer the
/// file was read into, never copied out of it.
fn read_anchored_file<const W: usize, T>(
    path: &Path,
    magic: &[u8; 8],
    what: &str,
    decode: impl FnOnce(&[u8]) -> Result<T>,
) -> Result<([u64; W], T)> {
    let bytes = std::fs::read(path).map_err(|e| Error::io(path, e))?;
    let header = if bytes.first_chunk::<8>() == Some(magic) {
        split_anchored_header(&bytes)
    } else {
        None
    };
    let Some((words, len, crc, payload)) = header else {
        return Err(Error::corrupt(format!(
            "{} is not a {what} file (bad or short header)",
            path.display()
        )));
    };
    check_anchored_len(path, payload.len() as u64, len)?;
    if crc64(payload) != crc {
        return Err(Error::corrupt(format!(
            "{}: {what} checksum mismatch",
            path.display()
        )));
    }
    Ok((words, decode(payload)?))
}

fn check_header_generation(path: &Path, header: u64, payload: u64) -> Result<()> {
    if header != payload {
        return Err(Error::corrupt(format!(
            "{}: header generation {header} disagrees with payload {payload}",
            path.display()
        )));
    }
    Ok(())
}

/// Reads only a snapshot file's header (`seq`, `generation`), checking
/// the magic and that the payload length matches the file size — but not
/// the payload checksum. Cheap pre-filter for listings and backward scans
/// over large snapshots; anything that will actually be *loaded* must go
/// through [`read_snapshot_file`].
///
/// # Errors
///
/// I/O failures, or [`Error::Corrupt`] for a foreign/short/length-
/// inconsistent file.
pub(crate) fn read_snapshot_header(path: &Path) -> Result<(u64, u64)> {
    let [seq, generation] = read_anchored_header(path, SNAPSHOT_MAGIC, "snapshot")?;
    Ok((seq, generation))
}

/// Reads and validates a snapshot file.
///
/// # Errors
///
/// I/O failures, or [`Error::Corrupt`] when the header, checksum or
/// payload is damaged (recovery then falls back to an older snapshot).
pub(crate) fn read_snapshot_file(path: &Path) -> Result<SnapshotFile> {
    let ([seq, generation], snapshot) =
        read_anchored_file(path, SNAPSHOT_MAGIC, "snapshot", EngineSnapshot::from_bytes)?;
    check_header_generation(path, generation, snapshot.generation())?;
    Ok(SnapshotFile { seq, snapshot })
}

// ---------------------------------------------------------------------
// Incremental delta snapshots
// ---------------------------------------------------------------------

/// Magic prefix of a delta-snapshot file.
pub(crate) const DELTA_MAGIC: &[u8; 8] = b"EVEDLT01";

/// A site's metadata in a delta snapshot: identity plus the accounting
/// counters (always small), with the extents themselves carried only when
/// they changed since the base.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaSite {
    /// Site id.
    pub id: u32,
    /// Site name.
    pub name: String,
    /// Block I/Os charged so far.
    pub io_count: u64,
    /// Messages charged so far.
    pub message_count: u64,
}

/// An incremental snapshot: the state *difference* against a base
/// snapshot (full or itself a delta) at `base_seq`. Large payloads — site
/// extents and materialized view extents — appear only when they changed
/// since the base, so checkpoint cost scales with the ops since the
/// anchor instead of with total warehouse state. The MKB and engine
/// configuration are always carried whole: they are metadata-sized and
/// make the delta self-describing (generation, schema) without loading
/// the base.
#[derive(Debug, Clone)]
pub struct DeltaSnapshot {
    /// Sequence number of the snapshot this delta applies on top of.
    pub base_seq: u64,
    /// The full MKB state (small; includes the generation).
    pub mkb: MkbState,
    /// The full engine configuration (small).
    pub config: EngineConfig,
    /// The complete site roster in id order — a site absent here was
    /// dropped since the base.
    pub sites: Vec<DeltaSite>,
    /// Relations whose extent or blocking factor changed (or are new),
    /// as `(site_id, relation, blocking_factor)`.
    pub changed_relations: Vec<(u32, Relation, u64)>,
    /// Relations dropped from a surviving site, as `(site_id, name)`.
    pub removed_relations: Vec<(u32, String)>,
    /// Views whose definition or extent changed (or are new).
    pub changed_views: Vec<ViewSnapshot>,
    /// Views dropped since the base.
    pub removed_views: Vec<String>,
}

/// What a delta checkpoint needs to know of its base snapshot: per site,
/// each hosted relation's blocking factor and [`ExtentHandle`]; per view,
/// its definition and extent handle. [`DeltaSnapshot::between`] writes a
/// changed extent whole, so the base only has to tell *whether* an extent
/// changed, and a handle tells that without holding the extent — a write
/// to a relation the base names copies nothing on the base's account.
#[derive(Debug, Clone)]
pub struct SnapshotManifest {
    sites: BTreeMap<u32, BTreeMap<String, (u64, ExtentHandle)>>,
    views: BTreeMap<String, (ViewDef, ExtentHandle)>,
}

impl SnapshotManifest {
    /// The manifest of `snapshot` as its extents stand now.
    #[must_use]
    pub fn of(snapshot: &EngineSnapshot) -> SnapshotManifest {
        SnapshotManifest {
            sites: snapshot
                .sites
                .iter()
                .map(|site| {
                    let relations = site
                        .relations
                        .iter()
                        .map(|(rel, bfr)| (rel.name().to_owned(), (*bfr, ExtentHandle::of(rel))))
                        .collect();
                    (site.id, relations)
                })
                .collect(),
            views: snapshot
                .views
                .iter()
                .map(|v| {
                    let extent = ExtentHandle::of(&v.extent);
                    (v.def.name.clone(), (v.def.clone(), extent))
                })
                .collect(),
        }
    }
}

impl DeltaSnapshot {
    /// The MKB generation captured in this delta.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.mkb.generation
    }

    /// Computes the delta from `base` (the manifest of the snapshot at
    /// `base_seq`) to `current`. A relation or view whose extent handle
    /// still names its storage, name and schema is skipped without looking
    /// at its tuples; every other one travels whole.
    #[must_use]
    pub fn between(
        base_seq: u64,
        base: &SnapshotManifest,
        current: &EngineSnapshot,
    ) -> DeltaSnapshot {
        let no_relations = BTreeMap::new();
        let mut sites = Vec::with_capacity(current.sites.len());
        let mut changed_relations = Vec::new();
        let mut removed_relations = Vec::new();
        for site in &current.sites {
            sites.push(DeltaSite {
                id: site.id,
                name: site.name.clone(),
                io_count: site.io_count,
                message_count: site.message_count,
            });
            let base_rels = base.sites.get(&site.id).unwrap_or(&no_relations);
            for (rel, bfr) in &site.relations {
                match base_rels.get(rel.name()) {
                    Some((base_bfr, handle)) if *base_bfr == *bfr && handle.is_of(rel) => {}
                    _ => changed_relations.push((site.id, rel.clone(), *bfr)),
                }
            }
            let current_names: BTreeSet<&str> =
                site.relations.iter().map(|(rel, _)| rel.name()).collect();
            for name in base_rels.keys() {
                if !current_names.contains(name.as_str()) {
                    removed_relations.push((site.id, name.clone()));
                }
            }
        }

        let mut changed_views = Vec::new();
        for view in &current.views {
            match base.views.get(&view.def.name) {
                Some((def, handle)) if *def == view.def && handle.is_of(&view.extent) => {}
                _ => changed_views.push(view.clone()),
            }
        }
        let current_views: BTreeSet<&str> =
            current.views.iter().map(|v| v.def.name.as_str()).collect();
        let removed_views = base
            .views
            .keys()
            .filter(|name| !current_views.contains(name.as_str()))
            .cloned()
            .collect();

        DeltaSnapshot {
            base_seq,
            mkb: current.mkb.clone(),
            config: current.config.clone(),
            sites,
            changed_relations,
            removed_relations,
            changed_views,
            removed_views,
        }
    }

    /// Materializes the full state this delta describes by overlaying it
    /// on its base. Site and view orderings match the canonical
    /// [`EngineSnapshot`] layout (sites by id, relations and views by
    /// name), so the result is byte-identical to the full snapshot the
    /// engine would have written.
    #[must_use]
    pub(crate) fn apply_to(&self, base: &EngineSnapshot) -> EngineSnapshot {
        let base_sites: BTreeMap<u32, &SiteSnapshot> =
            base.sites.iter().map(|s| (s.id, s)).collect();
        let mut changed: BTreeMap<u32, BTreeMap<&str, (&Relation, u64)>> = BTreeMap::new();
        for (site_id, rel, bfr) in &self.changed_relations {
            changed
                .entry(*site_id)
                .or_default()
                .insert(rel.name(), (rel, *bfr));
        }
        let mut removed: BTreeMap<u32, BTreeSet<&str>> = BTreeMap::new();
        for (site_id, name) in &self.removed_relations {
            removed.entry(*site_id).or_default().insert(name.as_str());
        }
        let sites = self
            .sites
            .iter()
            .map(|meta| {
                let mut rels: BTreeMap<&str, (&Relation, u64)> = base_sites
                    .get(&meta.id)
                    .map(|b| {
                        b.relations
                            .iter()
                            .map(|(rel, bfr)| (rel.name(), (rel, *bfr)))
                            .collect()
                    })
                    .unwrap_or_default();
                if let Some(gone) = removed.get(&meta.id) {
                    rels.retain(|name, _| !gone.contains(name));
                }
                if let Some(upserts) = changed.get(&meta.id) {
                    rels.extend(upserts.iter().map(|(name, v)| (*name, *v)));
                }
                SiteSnapshot {
                    id: meta.id,
                    name: meta.name.clone(),
                    relations: rels
                        .into_values()
                        .map(|(rel, bfr)| (rel.clone(), bfr))
                        .collect(),
                    io_count: meta.io_count,
                    message_count: meta.message_count,
                }
            })
            .collect();

        let mut views: BTreeMap<&str, &ViewSnapshot> = base
            .views
            .iter()
            .map(|v| (v.def.name.as_str(), v))
            .collect();
        for name in &self.removed_views {
            views.remove(name.as_str());
        }
        for view in &self.changed_views {
            views.insert(view.def.name.as_str(), view);
        }
        EngineSnapshot {
            mkb: self.mkb.clone(),
            sites,
            views: views.into_values().cloned().collect(),
            config: self.config.clone(),
        }
    }
}

impl Codec for DeltaSite {
    fn encode(&self, enc: &mut Enc) {
        enc.u32(self.id);
        enc.str(&self.name);
        enc.u64(self.io_count);
        enc.u64(self.message_count);
    }

    fn decode(dec: &mut Dec<'_>) -> Result<DeltaSite> {
        Ok(DeltaSite {
            id: dec.u32()?,
            name: dec.str()?,
            io_count: dec.u64()?,
            message_count: dec.u64()?,
        })
    }
}

impl Codec for DeltaSnapshot {
    fn encode(&self, enc: &mut Enc) {
        enc.u64(self.base_seq);
        self.mkb.encode(enc);
        self.config.encode(enc);
        enc.usize(self.sites.len());
        for s in &self.sites {
            s.encode(enc);
        }
        enc.usize(self.changed_relations.len());
        for (site_id, rel, bfr) in &self.changed_relations {
            enc.u32(*site_id);
            rel.encode(enc);
            enc.u64(*bfr);
        }
        enc.usize(self.removed_relations.len());
        for (site_id, name) in &self.removed_relations {
            enc.u32(*site_id);
            enc.str(name);
        }
        enc.usize(self.changed_views.len());
        for v in &self.changed_views {
            v.encode(enc);
        }
        enc.usize(self.removed_views.len());
        for name in &self.removed_views {
            enc.str(name);
        }
    }

    fn decode(dec: &mut Dec<'_>) -> Result<DeltaSnapshot> {
        let base_seq = dec.u64()?;
        let mkb = MkbState::decode(dec)?;
        let config = EngineConfig::decode(dec)?;
        let n_sites = dec.len()?;
        let mut sites = Vec::with_capacity(n_sites.min(4096));
        for _ in 0..n_sites {
            sites.push(DeltaSite::decode(dec)?);
        }
        let n_changed = dec.len()?;
        let mut changed_relations = Vec::with_capacity(n_changed.min(4096));
        for _ in 0..n_changed {
            let site_id = dec.u32()?;
            let rel = Relation::decode(dec)?;
            let bfr = dec.u64()?;
            changed_relations.push((site_id, rel, bfr));
        }
        let n_removed = dec.len()?;
        let mut removed_relations = Vec::with_capacity(n_removed.min(4096));
        for _ in 0..n_removed {
            let site_id = dec.u32()?;
            removed_relations.push((site_id, dec.str()?));
        }
        let n_views = dec.len()?;
        let mut changed_views = Vec::with_capacity(n_views.min(4096));
        for _ in 0..n_views {
            changed_views.push(ViewSnapshot::decode(dec)?);
        }
        let n_removed_views = dec.len()?;
        let mut removed_views = Vec::with_capacity(n_removed_views.min(4096));
        for _ in 0..n_removed_views {
            removed_views.push(dec.str()?);
        }
        Ok(DeltaSnapshot {
            base_seq,
            mkb,
            config,
            sites,
            changed_relations,
            removed_relations,
            changed_views,
            removed_views,
        })
    }
}

/// Writes a delta-snapshot file atomically.
///
/// ```text
/// delta file := MAGIC ("EVEDLT01") seq (u64) generation (u64)
///               base_seq (u64) len (u32) crc64 (u64) payload
/// payload    := DeltaSnapshot encoding
/// ```
///
/// # Errors
///
/// I/O failures (directory fsync included) or [`Error::TooLarge`].
pub(crate) fn write_delta_file(path: &Path, seq: u64, delta: &DeltaSnapshot) -> Result<u64> {
    let payload = to_bytes(delta);
    write_anchored_file(
        path,
        DELTA_MAGIC,
        &[seq, delta.generation(), delta.base_seq],
        &payload,
        "delta snapshot",
    )
}

/// A parsed delta-snapshot file.
#[derive(Debug)]
pub(crate) struct DeltaFile {
    /// Sequence number of the delta checkpoint.
    pub seq: u64,
    /// The decoded delta.
    pub delta: DeltaSnapshot,
}

/// Reads only a delta file's header (`seq`, `generation`, `base_seq`),
/// checking the magic and that the payload length matches the file size —
/// the same cheap pre-filter contract as [`read_snapshot_header`].
///
/// # Errors
///
/// I/O failures, or [`Error::Corrupt`] for a foreign/short/length-
/// inconsistent file.
pub(crate) fn read_delta_header(path: &Path) -> Result<(u64, u64, u64)> {
    let [seq, generation, base_seq] = read_anchored_header(path, DELTA_MAGIC, "delta-snapshot")?;
    Ok((seq, generation, base_seq))
}

/// Reads and validates a delta-snapshot file.
///
/// # Errors
///
/// I/O failures, or [`Error::Corrupt`] when the header, checksum or
/// payload is damaged (recovery then falls back to an older anchor).
pub(crate) fn read_delta_file(path: &Path) -> Result<DeltaFile> {
    let ([seq, generation, base_seq], delta) = read_anchored_file(
        path,
        DELTA_MAGIC,
        "delta-snapshot",
        from_bytes::<DeltaSnapshot>,
    )?;
    check_header_generation(path, generation, delta.generation())?;
    if delta.base_seq != base_seq {
        return Err(Error::corrupt(format!(
            "{}: header base_seq {base_seq} disagrees with payload {}",
            path.display(),
            delta.base_seq
        )));
    }
    Ok(DeltaFile { seq, delta })
}

#[cfg(test)]
mod tests {
    use super::*;
    use eve_misd::{AttributeInfo, RelationInfo, SiteId};
    use eve_relational::{tup, DataType, Schema};

    fn sample_snapshot() -> EngineSnapshot {
        let mut mkb = eve_misd::Mkb::new();
        mkb.register_site(SiteId(1), "one").unwrap();
        mkb.register_relation(RelationInfo::new(
            "R",
            SiteId(1),
            vec![AttributeInfo::new("A", DataType::Int)],
            3,
        ))
        .unwrap();
        let extent = Relation::with_tuples(
            "R",
            Schema::of(&[("A", DataType::Int)]).unwrap(),
            vec![tup![1], tup![2], tup![1]],
        )
        .unwrap();
        let view = eve_esql::parse_view("CREATE VIEW V (VE = '~') AS SELECT R.A FROM R").unwrap();
        EngineSnapshot {
            mkb: mkb.export_state(),
            sites: vec![SiteSnapshot {
                id: 1,
                name: "one".into(),
                relations: vec![(extent.clone(), 10)],
                io_count: 42,
                message_count: 7,
            }],
            views: vec![ViewSnapshot { def: view, extent }],
            config: EngineConfig {
                sync_options: SyncOptions::default(),
                qc_params: QcParams::default(),
                workload: WorkloadModel::PerSite { updates: 10.0 },
                strategy: SelectionStrategy::QcBest,
                index_hints: vec![IndexHint {
                    relation: "R".into(),
                    column: "A".into(),
                    kind: IndexKind::Sorted,
                }],
            },
        }
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "eve-store-snap-tests-{}-{name}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("snap.evs")
    }

    #[test]
    fn snapshot_encoding_is_canonical() {
        let snap = sample_snapshot();
        let a = snap.to_bytes();
        let b = snap.clone().to_bytes();
        assert_eq!(a, b);
        let back = EngineSnapshot::from_bytes(&a).unwrap();
        assert_eq!(back.to_bytes(), a);
        assert_eq!(back.generation(), snap.generation());
        assert_eq!(back.sites, snap.sites);
        assert_eq!(back.views, snap.views);
    }

    /// `snap`'s encoding with its search-policy tag byte (just before the
    /// index hints) replaced by `tag`.
    fn with_policy_tag(snap: &EngineSnapshot, tag: &[u8]) -> Vec<u8> {
        let bytes = snap.to_bytes();
        let mut hints = Enc::new();
        crate::codec::vec_encode(&snap.config.index_hints, &mut hints);
        let at = bytes.len() - hints.into_bytes().len() - 1;
        assert_eq!(bytes[at], 0, "the exhaustive tag");
        [&bytes[..at], tag, &bytes[at + 1..]].concat()
    }

    #[test]
    fn retired_search_policies_are_refused_not_corrupt() {
        let snap = sample_snapshot();
        let mut beam = Enc::new();
        beam.u8(2);
        beam.usize(4);
        let err =
            EngineSnapshot::from_bytes(&with_policy_tag(&snap, &beam.into_bytes())).unwrap_err();
        assert!(
            matches!(&err, Error::RetiredPolicy { policy } if policy == "beam (width 4)"),
            "{err}"
        );
        let err = EngineSnapshot::from_bytes(&with_policy_tag(&snap, &[1])).unwrap_err();
        assert!(
            matches!(&err, Error::RetiredPolicy { policy } if policy == "best-first"),
            "{err}"
        );
        let err = EngineSnapshot::from_bytes(&with_policy_tag(&snap, &[3])).unwrap_err();
        assert!(matches!(err, Error::Corrupt { .. }), "{err}");
    }

    #[test]
    fn snapshot_file_roundtrip() {
        let path = temp_path("roundtrip");
        let snap = sample_snapshot();
        write_snapshot_file(&path, 11, &snap).unwrap();
        let parsed = read_snapshot_file(&path).unwrap();
        assert_eq!(parsed.seq, 11);
        assert_eq!(parsed.snapshot.generation(), snap.generation());
        assert_eq!(parsed.snapshot.to_bytes(), snap.to_bytes());
        std::fs::remove_file(&path).ok();
    }

    /// A variant of `base` with one extent mutated, one relation added and
    /// the view dropped — the shapes a delta must carry.
    fn evolved_snapshot(base: &EngineSnapshot) -> EngineSnapshot {
        let mut snap = base.clone();
        let grown = Relation::with_tuples(
            "R",
            Schema::of(&[("A", DataType::Int)]).unwrap(),
            vec![tup![1], tup![2], tup![1], tup![9]],
        )
        .unwrap();
        let extra = Relation::with_tuples(
            "S",
            Schema::of(&[("B", DataType::Int)]).unwrap(),
            vec![tup![7]],
        )
        .unwrap();
        snap.sites[0].relations = vec![(grown, 10), (extra, 12)];
        snap.sites[0].io_count += 5;
        snap.views.clear();
        snap
    }

    #[test]
    fn delta_between_then_apply_is_byte_identical() {
        let base = sample_snapshot();
        let current = evolved_snapshot(&base);
        let delta = DeltaSnapshot::between(3, &SnapshotManifest::of(&base), &current);
        // Only the touched extents travel: R changed, S is new, the view
        // was removed — and the unchanged case carries nothing.
        assert_eq!(delta.changed_relations.len(), 2);
        assert_eq!(delta.removed_views, vec!["V".to_owned()]);
        assert_eq!(delta.apply_to(&base).to_bytes(), current.to_bytes());

        // An untouched engine produces an (almost) empty delta: every
        // extent still is the storage its handle names.
        let idle = DeltaSnapshot::between(3, &SnapshotManifest::of(&base), &base.clone());
        assert!(idle.changed_relations.is_empty());
        assert!(idle.changed_views.is_empty());
        assert!(idle.removed_relations.is_empty());
        assert!(idle.removed_views.is_empty());
        assert_eq!(idle.apply_to(&base).to_bytes(), base.to_bytes());
    }

    #[test]
    fn delta_file_roundtrip_and_damage_detection() {
        let dir = std::env::temp_dir().join(format!(
            "eve-store-snap-tests-{}-delta-file",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.evd");
        let base = sample_snapshot();
        let current = evolved_snapshot(&base);
        let delta = DeltaSnapshot::between(3, &SnapshotManifest::of(&base), &current);
        write_delta_file(&path, 5, &delta).unwrap();

        let (seq, generation, base_seq) = read_delta_header(&path).unwrap();
        assert_eq!((seq, generation, base_seq), (5, delta.generation(), 3));
        let parsed = read_delta_file(&path).unwrap();
        assert_eq!(parsed.seq, 5);
        assert_eq!(
            parsed.delta.apply_to(&base).to_bytes(),
            current.to_bytes(),
            "the decoded delta reproduces the state exactly"
        );

        // Payload damage is detected by checksum.
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert!(read_delta_file(&path).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn damaged_snapshot_is_detected() {
        let path = temp_path("damaged");
        write_snapshot_file(&path, 0, &sample_snapshot()).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let err = read_snapshot_file(&path).unwrap_err();
        assert!(err.to_string().contains("checksum") || err.to_string().contains("corrupt"));
        // Truncation is also detected.
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        assert!(read_snapshot_file(&path).is_err());
        std::fs::remove_file(&path).ok();
    }
}
