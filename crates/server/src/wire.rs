//! The wire layer: length-prefixed, CRC-framed messages plus the
//! in-process duplex "sockets" the load generator drives clients over.
//!
//! A wire frame is byte-for-byte the evolution log's record framing:
//!
//! ```text
//! frame := len u32 LE ++ crc64 u64 LE ++ payload   (len = payload bytes)
//! ```
//!
//! Reusing the log's framing means the server inherits its corruption
//! story: a truncated header or payload is indistinguishable from a torn
//! log tail and is reported — never panicked on — and a flipped payload
//! bit fails the CRC before the payload reaches the protocol decoder.
//! Unlike the log (whose segments are bounded by rotation), the wire cap
//! is explicit: a frame declaring more than [`MAX_FRAME`] bytes is
//! rejected immediately, so a corrupt length prefix cannot make the
//! reader buffer gigabytes waiting for a payload that never comes.

use std::sync::mpsc::{channel, Receiver, Sender};

use eve_store::checksum::crc64;

use crate::{Error, Result};

/// Frame header size: `len u32 ++ crc64 u64`.
pub const FRAME_HEADER: usize = 12;

/// Hard cap on a single frame's payload. Requests carry statements and
/// evolution-op batches; responses carry view extents — 64 MiB is far
/// above any legitimate message and small enough that a corrupted length
/// prefix fails fast instead of stalling the stream.
pub const MAX_FRAME: usize = 64 << 20;

/// Encodes one payload as a wire frame.
///
/// # Errors
///
/// [`Error::Frame`] when the payload exceeds [`MAX_FRAME`].
pub fn encode_frame(payload: &[u8]) -> Result<Vec<u8>> {
    let len = match u32::try_from(payload.len()) {
        Ok(len) if payload.len() <= MAX_FRAME => len,
        _ => {
            return Err(Error::frame(format!(
                "payload of {} bytes exceeds the {MAX_FRAME}-byte frame cap",
                payload.len()
            )))
        }
    };
    let mut out = Vec::with_capacity(FRAME_HEADER + payload.len());
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&crc64(payload).to_le_bytes());
    out.extend_from_slice(payload);
    Ok(out)
}

/// Incremental frame reassembler: feed it stream chunks in any split —
/// byte by byte, frame by frame, or many frames at once — and pull
/// complete, CRC-verified payloads out.
///
/// The reader mirrors the log's torn-tail scan: an incomplete frame is
/// simply "not yet" (`Ok(None)`), while a frame that can never complete —
/// oversized declared length, CRC mismatch — is a typed [`Error::Frame`],
/// after which the stream is unusable (framing has lost synchronization).
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
}

impl FrameReader {
    /// A reader with an empty buffer.
    #[must_use]
    pub fn new() -> FrameReader {
        FrameReader::default()
    }

    /// Appends raw stream bytes to the reassembly buffer.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes currently buffered and not yet returned as frames.
    #[must_use]
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Extracts the next complete frame's payload, if one is buffered.
    ///
    /// # Errors
    ///
    /// [`Error::Frame`] when the buffered header declares a payload past
    /// [`MAX_FRAME`] or the payload fails its CRC — both mean the stream
    /// is corrupt, not merely incomplete.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>> {
        let Some((len_bytes, rest)) = self.buf.split_first_chunk::<4>() else {
            return Ok(None);
        };
        let len = u32::from_le_bytes(*len_bytes) as usize;
        if len > MAX_FRAME {
            return Err(Error::frame(format!(
                "declared payload of {len} bytes exceeds the {MAX_FRAME}-byte frame cap"
            )));
        }
        let Some((crc_bytes, rest)) = rest.split_first_chunk::<8>() else {
            return Ok(None);
        };
        let crc = u64::from_le_bytes(*crc_bytes);
        let end = FRAME_HEADER + len;
        let Some(payload) = rest.get(..len) else {
            return Ok(None);
        };
        if crc64(payload) != crc {
            return Err(Error::frame(format!(
                "payload of {len} bytes failed its CRC (expected {crc:#018x})"
            )));
        }
        let payload = payload.to_vec();
        self.buf.drain(..end);
        Ok(Some(payload))
    }

    /// Decodes every complete frame in `bytes` (which must contain only
    /// whole frames — leftover bytes are a framing error, distinguishing
    /// a datagram-style message from a stream still in flight).
    ///
    /// # Errors
    ///
    /// [`Error::Frame`] on any malformed frame or trailing garbage.
    pub fn decode_all(bytes: &[u8]) -> Result<Vec<Vec<u8>>> {
        let mut reader = FrameReader::new();
        reader.feed(bytes);
        let mut frames = Vec::new();
        while let Some(frame) = reader.next_frame()? {
            frames.push(frame);
        }
        if reader.buffered() > 0 {
            return Err(Error::frame(format!(
                "{} trailing bytes after the last complete frame",
                reader.buffered()
            )));
        }
        Ok(frames)
    }
}

/// One end of an in-process duplex byte stream — the stand-in for a TCP
/// connection that lets the load generator open thousands of client
/// connections without sockets. Bytes written on one end arrive on the
/// other in order, in whatever chunks the writer chose, so the receiving
/// side genuinely exercises [`FrameReader`] reassembly.
#[derive(Debug)]
pub(crate) struct WireEnd {
    tx: Sender<Vec<u8>>,
    rx: Receiver<Vec<u8>>,
    reader: FrameReader,
}

/// Creates a connected pair of stream ends.
#[must_use]
pub(crate) fn duplex() -> (WireEnd, WireEnd) {
    let (a_tx, b_rx) = channel();
    let (b_tx, a_rx) = channel();
    (
        WireEnd {
            tx: a_tx,
            rx: a_rx,
            reader: FrameReader::new(),
        },
        WireEnd {
            tx: b_tx,
            rx: b_rx,
            reader: FrameReader::new(),
        },
    )
}

impl WireEnd {
    /// Frames `payload` and writes it to the peer — deliberately split
    /// across two chunks when possible, so the peer's [`FrameReader`]
    /// always reassembles rather than getting lucky with whole frames.
    ///
    /// # Errors
    ///
    /// [`Error::Frame`] on oversized payloads, [`Error::Shutdown`] when
    /// the peer end is gone.
    pub(crate) fn send_frame(&self, payload: &[u8]) -> Result<()> {
        let frame = encode_frame(payload)?;
        let gone = |_| Error::shutdown("peer connection closed");
        if frame.len() > FRAME_HEADER {
            self.tx.send(frame[..FRAME_HEADER].to_vec()).map_err(gone)?;
            self.tx.send(frame[FRAME_HEADER..].to_vec()).map_err(gone)
        } else {
            self.tx.send(frame).map_err(gone)
        }
    }

    /// Blocks until one complete frame arrives and returns its payload.
    ///
    /// # Errors
    ///
    /// [`Error::Frame`] on stream corruption, [`Error::Shutdown`] when
    /// the peer hangs up mid-frame.
    pub(crate) fn recv_frame(&mut self) -> Result<Vec<u8>> {
        loop {
            if let Some(frame) = self.reader.next_frame()? {
                return Ok(frame);
            }
            let chunk = self
                .rx
                .recv()
                .map_err(|_| Error::shutdown("peer connection closed"))?;
            self.reader.feed(&chunk);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_roundtrip_through_arbitrary_chunking() {
        let payloads: Vec<Vec<u8>> =
            vec![vec![], vec![0x42], (0..=255u8).collect(), vec![0xAB; 4096]];
        let mut stream = Vec::new();
        for p in &payloads {
            stream.extend_from_slice(&encode_frame(p).unwrap());
        }
        // Feed one byte at a time: worst-case reassembly.
        let mut reader = FrameReader::new();
        let mut out = Vec::new();
        for b in &stream {
            reader.feed(std::slice::from_ref(b));
            while let Some(frame) = reader.next_frame().unwrap() {
                out.push(frame);
            }
        }
        assert_eq!(out, payloads);
        assert_eq!(reader.buffered(), 0);
    }

    #[test]
    fn oversized_declared_length_is_a_typed_error_not_a_buffer_bomb() {
        let mut bad = Vec::new();
        bad.extend_from_slice(&u32::MAX.to_le_bytes());
        bad.extend_from_slice(&0u64.to_le_bytes());
        let mut reader = FrameReader::new();
        reader.feed(&bad);
        let err = reader.next_frame().unwrap_err();
        assert!(matches!(err, Error::Frame { .. }), "{err:?}");
        assert!(err.to_string().contains("frame cap"), "{err}");
    }

    #[test]
    fn crc_flip_is_detected() {
        let mut frame = encode_frame(b"hello warehouse").unwrap();
        let last = frame.len() - 1;
        frame[last] ^= 0x01;
        let mut reader = FrameReader::new();
        reader.feed(&frame);
        let err = reader.next_frame().unwrap_err();
        assert!(matches!(err, Error::Frame { .. }), "{err:?}");
        assert!(err.to_string().contains("CRC"), "{err}");
    }

    #[test]
    fn duplex_delivers_frames_both_ways() {
        let (a, mut b) = duplex();
        a.send_frame(b"ping").unwrap();
        assert_eq!(b.recv_frame().unwrap(), b"ping");
        b.send_frame(b"pong").unwrap();
        let mut a = a;
        assert_eq!(a.recv_frame().unwrap(), b"pong");
        drop(b);
        let err = a.send_frame(b"into the void").unwrap_err();
        assert!(matches!(err, Error::Shutdown { .. }), "{err:?}");
    }
}
