//! The write-ahead evolution log: length-prefixed, checksummed record
//! frames in segment files that only ever gain frames at their end.
//!
//! ## Frame format
//!
//! ```text
//! segment file  := MAGIC ("EVESEG01", 8 bytes) start_seq (u64 LE) frame* zero*
//! frame         := len (u32 LE)  crc64 (u64 LE, over payload)  payload
//! payload       := post_generation (u64 LE)  LogRecord encoding
//! ```
//!
//! `post_generation` is the MKB mutation generation *after* the record was
//! applied — the index generation time-travel addresses history by.
//!
//! ## The zero tail
//!
//! The active segment grows a 4 KiB block at a time: a frame that does not
//! fit in the file is written together with zeros up to the next block
//! boundary, and the next frames overwrite those zeros in place, so their
//! `sync_data` has no new file size to commit. While a store is open (and
//! after a crash) its active segment may therefore end in zeros after its
//! last frame; closing the store trims them. A zero length field is never
//! a frame, since every payload holds at least its 8-byte generation, and
//! it must not be read as one: the CRC-64 of an empty payload is 0, so a
//! zero header would pass its checksum. [`read_segment`] reads a remainder
//! of zeros after the last whole frame as the log's clean end.
//!
//! ## Torn tails
//!
//! A crash mid-`write` leaves a partial frame at the end of the active
//! segment: a short header, a short payload, a payload whose checksum
//! does not match, or a zero header followed by bytes that are not all
//! zero (a frame's later page reached disk but not the page holding its
//! header). [`read_segment`] detects all of these, reports the byte
//! offset of the last intact frame, and recovery truncates the file there.
//! The same conditions anywhere *but* the tail of the last segment are
//! real corruption and fail recovery loudly, and so is a zero tail there:
//! rotation trims the segment it closes.

use std::fs::File;
use std::io::Read;
use std::path::Path;

use eve_esql::ViewDef;
use eve_misd::{JoinConstraint, PcConstraint};
use eve_relational::{Relation, Tuple};
use eve_sync::EvolutionOp;

use crate::checksum::crc64;
use crate::codec::{from_bytes, to_bytes, Codec, Dec, Enc};
use crate::error::{Error, Result};
use crate::snapshot::IndexHint;

/// Magic prefix of a log segment file (version baked into the last two
/// bytes).
pub(crate) const SEGMENT_MAGIC: &[u8; 8] = b"EVESEG01";

/// One command of the mutation vocabulary, and the unit the log records.
/// Every variant is interpreted by `EveEngine::apply` in `eve-system` —
/// live (shell line, wire request, `DurableEngine::apply`) and on replay
/// (recovery, time travel) alike, so there is one dispatch to keep right.
/// `Batch` carries the paper's evolution ops (data updates + capability
/// changes); the other variants are the bootstrap/administrative
/// mutations that precede them, so a store can replay from an empty
/// engine.
#[derive(Debug, Clone)]
pub enum LogRecord {
    /// Register an information source.
    AddSite {
        /// Site id.
        id: u32,
        /// Site name.
        name: String,
    },
    /// Register a relation: metadata into the MKB, initial extent at its
    /// site.
    RegisterRelation {
        /// The relation's MKB description.
        info: eve_misd::RelationInfo,
        /// The initial extent hosted at the site.
        extent: Relation,
    },
    /// Base-data seeding without view maintenance (initial loading).
    SeedTuples {
        /// The seeded relation.
        relation: String,
        /// The seeded tuples.
        tuples: Vec<Tuple>,
    },
    /// Add a partial/complete-containment constraint to the MKB.
    AddPcConstraint(PcConstraint),
    /// Add a join constraint to the MKB.
    AddJoinConstraint(JoinConstraint),
    /// Set one relation pair's join selectivity.
    SetJoinSelectivity {
        /// One endpoint.
        left: String,
        /// The other endpoint.
        right: String,
        /// The pair selectivity.
        js: f64,
    },
    /// Set the MKB's default join selectivity.
    SetDefaultJoinSelectivity {
        /// The global default.
        js: f64,
    },
    /// Define and materialize a view (the full definition, structurally;
    /// the log holds the definition as installed, i.e. validate-normalised).
    DefineView(ViewDef),
    /// Drop a materialized view.
    DropView {
        /// The dropped view's name.
        name: String,
    },
    /// One batch of evolution ops, in order, through the batched pipeline.
    Batch(Vec<EvolutionOp>),
    /// Declare (and warm) a secondary index — a persisted hint, logged
    /// only the first time it is declared.
    DeclareIndex(IndexHint),
}

impl Codec for LogRecord {
    fn encode(&self, enc: &mut Enc) {
        match self {
            LogRecord::AddSite { id, name } => {
                enc.u8(0);
                enc.u32(*id);
                enc.str(name);
            }
            LogRecord::RegisterRelation { info, extent } => {
                enc.u8(1);
                info.encode(enc);
                extent.encode(enc);
            }
            LogRecord::SeedTuples { relation, tuples } => {
                enc.u8(2);
                enc.str(relation);
                crate::codec::vec_encode(tuples, enc);
            }
            LogRecord::AddPcConstraint(pc) => {
                enc.u8(3);
                pc.encode(enc);
            }
            LogRecord::AddJoinConstraint(jc) => {
                enc.u8(4);
                jc.encode(enc);
            }
            LogRecord::SetJoinSelectivity { left, right, js } => {
                enc.u8(5);
                enc.str(left);
                enc.str(right);
                enc.f64(*js);
            }
            LogRecord::SetDefaultJoinSelectivity { js } => {
                enc.u8(6);
                enc.f64(*js);
            }
            LogRecord::DefineView(view) => {
                enc.u8(7);
                view.encode(enc);
            }
            LogRecord::DropView { name } => {
                enc.u8(8);
                enc.str(name);
            }
            LogRecord::Batch(ops) => {
                enc.u8(9);
                crate::codec::vec_encode(ops, enc);
            }
            LogRecord::DeclareIndex(hint) => {
                enc.u8(10);
                hint.encode(enc);
            }
        }
    }

    fn decode(dec: &mut Dec<'_>) -> Result<LogRecord> {
        Ok(match dec.u8()? {
            0 => LogRecord::AddSite {
                id: dec.u32()?,
                name: dec.str()?,
            },
            1 => LogRecord::RegisterRelation {
                info: eve_misd::RelationInfo::decode(dec)?,
                extent: Relation::decode(dec)?,
            },
            2 => LogRecord::SeedTuples {
                relation: dec.str()?,
                tuples: crate::codec::vec_decode(dec)?,
            },
            3 => LogRecord::AddPcConstraint(PcConstraint::decode(dec)?),
            4 => LogRecord::AddJoinConstraint(JoinConstraint::decode(dec)?),
            5 => LogRecord::SetJoinSelectivity {
                left: dec.str()?,
                right: dec.str()?,
                js: dec.f64()?,
            },
            6 => LogRecord::SetDefaultJoinSelectivity { js: dec.f64()? },
            7 => LogRecord::DefineView(ViewDef::decode(dec)?),
            8 => LogRecord::DropView { name: dec.str()? },
            9 => LogRecord::Batch(crate::codec::vec_decode(dec)?),
            10 => LogRecord::DeclareIndex(IndexHint::decode(dec)?),
            other => return Err(Error::corrupt(format!("invalid LogRecord tag {other}"))),
        })
    }
}

/// A record as stored in a frame: the record plus the MKB generation
/// observed after applying it.
#[derive(Debug, Clone)]
pub struct SealedRecord {
    /// MKB generation after the record was applied.
    pub post_generation: u64,
    /// The logged operation.
    pub record: LogRecord,
}

impl Codec for SealedRecord {
    fn encode(&self, enc: &mut Enc) {
        enc.u64(self.post_generation);
        self.record.encode(enc);
    }

    fn decode(dec: &mut Dec<'_>) -> Result<SealedRecord> {
        Ok(SealedRecord {
            post_generation: dec.u64()?,
            record: LogRecord::decode(dec)?,
        })
    }
}

/// Builds one on-disk frame (`len ++ crc ++ payload`) for a sealed record.
///
/// # Errors
///
/// [`Error::TooLarge`] when the encoded record does not fit the `u32`
/// length prefix — the limit surfaces as a typed error to the appender
/// instead of a panic that would abort the process (or recovery) on an
/// oversized record.
pub fn frame(record: &SealedRecord) -> Result<Vec<u8>> {
    let payload = to_bytes(record);
    let len =
        u32::try_from(payload.len()).map_err(|_| Error::too_large(payload.len(), "log record"))?;
    let mut out = Vec::with_capacity(payload.len() + 12);
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&crc64(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    Ok(out)
}

/// The fixed segment header: magic + start sequence number.
#[must_use]
pub(crate) fn segment_header(start_seq: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(16);
    out.extend_from_slice(SEGMENT_MAGIC);
    out.extend_from_slice(&start_seq.to_le_bytes());
    out
}

/// Everything recovered from one segment file.
#[derive(Debug)]
pub(crate) struct SegmentContents {
    /// The sequence number of the segment's first record.
    pub start_seq: u64,
    /// The intact records, in order.
    pub records: Vec<SealedRecord>,
    /// Byte length of the intact prefix (header + whole frames). Anything
    /// past this offset is a zero tail or a torn tail.
    pub valid_len: u64,
    /// Bytes past the intact prefix when they are not all zero: a torn
    /// tail (0 when the file ends on a frame boundary or in zeros).
    pub torn_bytes: u64,
    /// Bytes past the intact prefix when they are all zero: the log's
    /// clean end, the unwritten rest of the active segment's last block.
    pub zero_tail: u64,
}

/// Reads a whole segment file, stopping cleanly at a zero or torn tail.
/// This is the one place that tells the two apart: after the last whole
/// frame, a remainder of zeros is the log's clean end and anything else is
/// a torn frame.
///
/// # Errors
///
/// I/O failures, or a missing/foreign header. Torn/corrupt *frames* are
/// not an error here — the caller decides whether a torn or zero tail is
/// acceptable (last segment) or fatal (any earlier segment).
pub(crate) fn read_segment(path: &Path) -> Result<SegmentContents> {
    let mut file = File::open(path).map_err(|e| Error::io(path, e))?;
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)
        .map_err(|e| Error::io(path, e))?;

    let Some(start_seq) = segment_start_seq(&bytes) else {
        return Err(Error::corrupt(format!(
            "{} is not an evolution-log segment (bad or short header)",
            path.display()
        )));
    };

    let mut records = Vec::new();
    let mut pos = 16usize;
    let valid_len = loop {
        // Everything here must be a *checked* read: the tail of a crashed
        // segment can be cut at any byte, and a torn `len` field can
        // declare any value up to `u32::MAX` — neither may ever panic on
        // slicing or overflow arithmetic. `None` from either getter means
        // the frame runs past the file's end: a torn tail.
        let Some(tail) = bytes.get(pos..) else {
            break pos; // defensive: pos is always <= len, but never slice-panic
        };
        if tail.is_empty() {
            break pos; // clean end on a frame boundary
        }
        let Some((len_bytes, rest)) = tail.split_first_chunk::<4>() else {
            break pos; // torn frame header (1..=3 bytes)
        };
        let len = u32::from_le_bytes(*len_bytes) as usize;
        if len == 0 {
            break pos; // never a frame: the zero tail, or a torn header
        }
        let Some(crc_bytes) = rest.first_chunk::<8>() else {
            break pos; // torn frame header (4..=11 bytes)
        };
        let crc = u64::from_le_bytes(*crc_bytes);
        // `12 + len` cannot overflow usize on 64-bit (len <= u32::MAX) but
        // the checked form keeps 32-bit targets honest too.
        let Some(payload) = 12usize.checked_add(len).and_then(|end| tail.get(12..end)) else {
            break pos; // torn payload (declared length overruns the file)
        };
        if crc64(payload) != crc {
            break pos; // torn / corrupt payload
        }
        // A frame that passes the checksum but fails decoding is real
        // corruption (the checksum says the bytes are what was written).
        let record: SealedRecord = from_bytes(payload).map_err(|e| {
            Error::corrupt(format!(
                "{} frame at offset {pos} passes its checksum but does not decode: {e}",
                path.display()
            ))
        })?;
        records.push(record);
        pos += 12 + len;
    };

    let rest = bytes.get(valid_len..).unwrap_or_default();
    let past = rest.len() as u64;
    let (torn_bytes, zero_tail) = if rest.iter().all(|&b| b == 0) {
        (0, past)
    } else {
        (past, 0)
    };
    Ok(SegmentContents {
        start_seq,
        records,
        valid_len: valid_len as u64,
        torn_bytes,
        zero_tail,
    })
}

/// Reads and validates only a segment file's 16-byte header, returning
/// its start sequence. Used to skip frame decoding for segments recovery
/// does not need to replay.
///
/// # Errors
///
/// I/O failures, or a missing/foreign header.
pub(crate) fn read_segment_header(path: &Path) -> Result<u64> {
    let mut file = File::open(path).map_err(|e| Error::io(path, e))?;
    let mut header = [0u8; 16];
    file.read_exact(&mut header).map_err(|_| {
        Error::corrupt(format!(
            "{} is not an evolution-log segment (short header)",
            path.display()
        ))
    })?;
    segment_start_seq(&header).ok_or_else(|| {
        Error::corrupt(format!(
            "{} is not an evolution-log segment (bad magic)",
            path.display()
        ))
    })
}

/// The start sequence named by the 16-byte segment header at the front
/// of `bytes`; `None` when `bytes` is shorter or the magic is foreign.
fn segment_start_seq(bytes: &[u8]) -> Option<u64> {
    let (magic, rest) = bytes.split_first_chunk::<8>()?;
    let start_seq = rest.first_chunk::<8>()?;
    (magic == SEGMENT_MAGIC).then(|| u64::from_le_bytes(*start_seq))
}

/// Truncates a segment file to its intact prefix, discarding a torn tail.
///
/// # Errors
///
/// I/O failures.
pub(crate) fn truncate_segment(path: &Path, valid_len: u64) -> Result<()> {
    let file = std::fs::OpenOptions::new()
        .write(true)
        .open(path)
        .map_err(|e| Error::io(path, e))?;
    file.set_len(valid_len).map_err(|e| Error::io(path, e))?;
    file.sync_all().map_err(|e| Error::io(path, e))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use eve_relational::tup;

    fn sample_records() -> Vec<SealedRecord> {
        vec![
            SealedRecord {
                post_generation: 1,
                record: LogRecord::AddSite {
                    id: 1,
                    name: "one".into(),
                },
            },
            SealedRecord {
                post_generation: 2,
                record: LogRecord::Batch(vec![
                    EvolutionOp::insert("R", vec![tup![1, "x"]]),
                    EvolutionOp::delete("R", vec![tup![2, "y"]]),
                ]),
            },
            SealedRecord {
                post_generation: 2,
                record: LogRecord::SetJoinSelectivity {
                    left: "R".into(),
                    right: "S".into(),
                    js: 0.005,
                },
            },
        ]
    }

    fn write_segment(path: &Path, start_seq: u64, records: &[SealedRecord]) {
        let mut bytes = segment_header(start_seq);
        for r in records {
            bytes.extend_from_slice(&frame(r).unwrap());
        }
        std::fs::write(path, bytes).unwrap();
    }

    fn temp_file(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("eve-store-log-tests-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("segment.evl")
    }

    #[test]
    fn segment_roundtrip() {
        let path = temp_file("roundtrip");
        let records = sample_records();
        write_segment(&path, 7, &records);
        let contents = read_segment(&path).unwrap();
        assert_eq!(contents.start_seq, 7);
        assert_eq!(contents.records.len(), 3);
        assert_eq!(contents.torn_bytes, 0);
        assert_eq!(contents.records[1].post_generation, 2);
        match &contents.records[1].record {
            LogRecord::Batch(ops) => assert_eq!(ops.len(), 2),
            other => panic!("unexpected record {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn every_truncation_point_yields_a_clean_prefix() {
        let path = temp_file("truncation");
        let records = sample_records();
        write_segment(&path, 0, &records);
        let full = std::fs::read(&path).unwrap();
        // Frame boundaries, for the expected record counts.
        let mut boundaries = vec![16usize];
        {
            let mut pos = 16;
            for r in &records {
                pos += frame(r).unwrap().len();
                boundaries.push(pos);
            }
        }
        for cut in 16..=full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let contents = read_segment(&path).unwrap();
            let expected_records = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
            assert_eq!(
                contents.records.len(),
                expected_records,
                "cut at byte {cut}"
            );
            let expected_valid = boundaries[expected_records] as u64;
            assert_eq!(contents.valid_len, expected_valid, "cut at byte {cut}");
            assert_eq!(contents.torn_bytes, cut as u64 - expected_valid);
            // Truncation then re-read is stable.
            truncate_segment(&path, contents.valid_len).unwrap();
            let again = read_segment(&path).unwrap();
            assert_eq!(again.records.len(), expected_records);
            assert_eq!(again.torn_bytes, 0);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_payload_byte_stops_at_previous_boundary() {
        let path = temp_file("bitflip");
        let records = sample_records();
        write_segment(&path, 0, &records);
        let mut bytes = std::fs::read(&path).unwrap();
        let second_frame_start = 16 + frame(&records[0]).unwrap().len();
        // Flip a byte inside the second frame's payload.
        bytes[second_frame_start + 20] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let contents = read_segment(&path).unwrap();
        assert_eq!(contents.records.len(), 1, "only the first frame survives");
        assert_eq!(contents.valid_len, second_frame_start as u64);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn short_tail_of_every_length_is_torn_not_a_panic() {
        // The short-tail torn-segment regression: a crash can leave a tail
        // of *any* length after the last intact frame — including the 1–3
        // byte stubs that don't even cover the `len` field, and headers
        // whose declared length overruns the file (up to `u32::MAX`).
        // Every such tail must scan as torn bytes, never panic, and
        // truncate to a clean prefix.
        let path = temp_file("short-tail");
        let records = sample_records();
        write_segment(&path, 3, &records);
        let intact = std::fs::read(&path).unwrap();

        // (a) Tails of every length 1..=24 after the full segment: covers
        // partial len fields (1-3 bytes), partial crc fields (4-11), and
        // short payloads against any plausible declared length.
        for tail_len in 1..=24usize {
            let mut bytes = intact.clone();
            bytes.extend(std::iter::repeat_n(0xAB, tail_len));
            std::fs::write(&path, &bytes).unwrap();
            let contents = read_segment(&path).unwrap();
            assert_eq!(contents.records.len(), records.len(), "tail {tail_len}");
            assert_eq!(contents.valid_len, intact.len() as u64, "tail {tail_len}");
            assert_eq!(contents.torn_bytes, tail_len as u64, "tail {tail_len}");
            truncate_segment(&path, contents.valid_len).unwrap();
            assert_eq!(read_segment(&path).unwrap().torn_bytes, 0);
        }

        // (b) A complete 12-byte frame header whose declared length is
        // absurd — u32::MAX and friends — followed by a few bytes. The
        // `pos + len` style arithmetic must not overflow or slice past
        // the end; the whole thing is one torn tail.
        for declared in [u32::MAX, u32::MAX - 1, 1 << 31, 4096] {
            let mut bytes = intact.clone();
            bytes.extend_from_slice(&declared.to_le_bytes());
            bytes.extend_from_slice(&0xDEAD_BEEFu64.to_le_bytes());
            bytes.extend_from_slice(&[1, 2, 3]);
            std::fs::write(&path, &bytes).unwrap();
            let contents = read_segment(&path).unwrap();
            assert_eq!(contents.records.len(), records.len(), "declared {declared}");
            assert_eq!(contents.valid_len, intact.len() as u64);
            assert_eq!(contents.torn_bytes, 15);
        }

        // (c) Files shorter than the 16-byte segment header are a typed
        // corruption error (there is no intact prefix to keep), not a
        // panic.
        for cut in 0..16usize {
            std::fs::write(&path, &intact[..cut]).unwrap();
            let err = read_segment(&path).unwrap_err();
            assert!(err.to_string().contains("segment"), "cut {cut}: {err}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_zero_tail_is_the_clean_end_and_a_zero_header_before_other_bytes_is_torn() {
        let path = temp_file("zero-tail");
        let records = sample_records();
        write_segment(&path, 0, &records);
        let intact = std::fs::read(&path).unwrap();
        let read_with = |tail: &[u8]| {
            let mut bytes = intact.clone();
            bytes.extend_from_slice(tail);
            std::fs::write(&path, &bytes).unwrap();
            let contents = read_segment(&path).unwrap();
            assert_eq!(contents.records.len(), records.len());
            assert_eq!(contents.valid_len, intact.len() as u64);
            (contents.torn_bytes, contents.zero_tail)
        };
        // Zeros shorter than a frame header, a whole zero header (its
        // empty payload's CRC-64 is 0, so it "passes its checksum"), one
        // byte more, and the rest of a block: all the log's clean end.
        for zeros in [1usize, 11, 12, 13, 4095] {
            assert_eq!(read_with(&vec![0; zeros]), (0, zeros as u64), "{zeros}");
        }
        // A zero length field followed by any non-zero byte is a frame
        // whose header never reached disk: torn, wherever that byte is.
        for (zeros, byte) in [(4, 0x01), (11, 0x80), (12, 0xAB), (4094, 0x01)] {
            let mut tail = vec![0; zeros];
            tail.push(byte);
            let torn = tail.len() as u64;
            assert_eq!(read_with(&tail), (torn, 0), "{zeros} zeros, then {byte:#x}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn foreign_file_is_rejected() {
        let path = temp_file("foreign");
        std::fs::write(&path, b"not a segment at all").unwrap();
        assert!(read_segment(&path).is_err());
        std::fs::remove_file(&path).ok();
    }
}
