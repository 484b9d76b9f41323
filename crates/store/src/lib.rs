//! # eve-store
//!
//! The durable evolution log: persistence for the warehouse's *history*.
//!
//! The paper's whole premise is that the information space evolves —
//! sequences of capability and data changes drive re-synchronization — yet
//! an in-memory engine forgets that history on restart. This crate makes
//! the evolution stream itself the unit of durability:
//!
//! * [`log`] — a length-prefixed, CRC-64-checksummed **write-ahead
//!   evolution log**. Every record carries the MKB generation observed
//!   after applying it; an append is one frame, one write and one `fsync`
//!   on the caller's thread before acknowledgement, and torn tail frames
//!   from a crash mid-write are detected and truncated. The active segment
//!   grows by whole 4 KiB blocks of zeros, which frames then overwrite in
//!   place, and a zero tail after the last frame is the log's clean end.
//! * [`snapshot`] — canonical full-state **snapshots** (MKB incl.
//!   generation, per-site relations/extents, installed rewritings, engine
//!   configuration). Equal states encode to equal bytes, which is the
//!   "byte-identical" notion the differential crash-recovery suites pin.
//! * [`store`] — the [`EvolutionStore`]: one directory of segments and
//!   snapshots with **crash recovery** (newest intact snapshot + log tail
//!   replay), segment rotation on checkpoint, compaction, and the
//!   **generation time-travel** planner ([`EvolutionStore::plan_travel_in`])
//!   that reconstructs the state as of any retained MKB generation.
//! * [`group`] — a pass-through ([`GroupCommitLog`]) kept only for the
//!   benchmark's direct-append rung; it appends through
//!   [`EvolutionStore::append`].
//! * [`codec`] — the hand-rolled binary codec for every persisted domain
//!   type (std-only; the build environment has no registry access).
//!
//! The crate is engine-agnostic by design: it defines the command
//! vocabulary ([`LogRecord`]) and plans recovery and travel (snapshot +
//! records), while `eve-system` interprets a record — live and on replay
//! alike — in one place, `EveEngine::apply`; the dependency arrow keeps
//! pointing from the runtime to the storage layer.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod checksum;
pub mod codec;
pub mod error;
mod fsutil;
pub mod group;
pub mod log;
pub mod snapshot;
pub mod store;

pub use codec::{from_bytes, to_bytes, vec_decode, vec_encode, Codec, Dec, Enc};
pub use error::{Error, Result};
pub use group::{GroupCommitLog, GroupCommitPolicy};
pub use log::{LogRecord, SealedRecord};
pub use snapshot::{
    DeltaSite, DeltaSnapshot, EngineConfig, EngineSnapshot, IndexHint, SiteSnapshot,
    SnapshotManifest, ViewSnapshot,
};
pub use store::{EvolutionStore, RecoveredLog, SnapshotKind, SnapshotMeta, StoreStats};
