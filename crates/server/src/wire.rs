//! The wire layer: length-prefixed, CRC-framed messages. A client seals
//! each request into one frame and the server checks it where it lies
//! (`frame_payload`); [`FrameReader`] reassembles frames from a stream
//! cut into arbitrary chunks.
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
    let mut out = Vec::with_capacity(FRAME_HEADER + payload.len());
    out.extend_from_slice(&[0; FRAME_HEADER]);
    out.extend_from_slice(payload);
    seal_frame(out)
}

/// Turns `frame` — [`FRAME_HEADER`] reserved bytes, then the payload —
/// into a wire frame by writing the header in place, so a payload
/// encoded straight into the frame's buffer is never copied.
///
/// # Errors
///
/// [`Error::Frame`] when the payload exceeds [`MAX_FRAME`], or `frame`
/// is shorter than a header.
pub(crate) fn seal_frame(mut frame: Vec<u8>) -> Result<Vec<u8>> {
    let Some((header, payload)) = frame.split_first_chunk_mut::<FRAME_HEADER>() else {
        return Err(Error::frame("no room reserved for the frame header"));
    };
    let len = match u32::try_from(payload.len()) {
        Ok(len) if payload.len() <= MAX_FRAME => len,
        _ => {
            return Err(Error::frame(format!(
                "payload of {} bytes exceeds the {MAX_FRAME}-byte frame cap",
                payload.len()
            )))
        }
    };
    header[..4].copy_from_slice(&len.to_le_bytes());
    header[4..].copy_from_slice(&crc64(payload).to_le_bytes());
    Ok(frame)
}

/// The payload of the one frame `bytes` holds, checked against the
/// length cap and its CRC where it lies, without copying it.
///
/// # Errors
///
/// [`Error::Frame`] when `bytes` is not exactly one whole, intact frame.
pub fn frame_payload(bytes: &[u8]) -> Result<&[u8]> {
    match split_frame(bytes)? {
        Some((payload, end)) if end == bytes.len() => Ok(payload),
        Some((_, end)) => Err(Error::frame(format!(
            "{} trailing bytes after the frame",
            bytes.len() - end
        ))),
        None => Err(Error::frame(format!(
            "{} bytes hold no whole frame",
            bytes.len()
        ))),
    }
}

/// The first frame in `buf`: its CRC-checked payload and the offset just
/// past it, or `None` while the frame is incomplete.
///
/// # Errors
///
/// [`Error::Frame`] when the header declares a payload past
/// [`MAX_FRAME`] or the payload fails its CRC.
fn split_frame(buf: &[u8]) -> Result<Option<(&[u8], usize)>> {
    let Some((len_bytes, rest)) = buf.split_first_chunk::<4>() else {
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
    let Some(payload) = rest.get(..len) else {
        return Ok(None);
    };
    if crc64(payload) != crc {
        return Err(Error::frame(format!(
            "payload of {len} bytes failed its CRC (expected {crc:#018x})"
        )));
    }
    Ok(Some((payload, FRAME_HEADER + len)))
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
        let Some((payload, end)) = split_frame(&self.buf)? else {
            return Ok(None);
        };
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
    fn frame_payload_takes_exactly_one_intact_frame() {
        let frame = encode_frame(b"one answer").unwrap();
        assert_eq!(frame_payload(&frame).unwrap(), b"one answer");
        let two = [frame.clone(), frame.clone()].concat();
        let cut = &frame[..frame.len() - 1];
        let mut flipped = frame.clone();
        flipped[FRAME_HEADER] ^= 0x01;
        for (bad, why) in [
            (&two[..], "trailing"),
            (cut, "no whole frame"),
            (&[][..], "no whole frame"),
            (&flipped[..], "CRC"),
        ] {
            let err = frame_payload(bad).unwrap_err();
            assert!(err.to_string().contains(why), "{err}");
        }
    }

    #[test]
    fn seal_frame_needs_its_reserved_header() {
        let err = seal_frame(vec![0; FRAME_HEADER - 1]).unwrap_err();
        assert!(matches!(err, Error::Frame { .. }), "{err:?}");
        assert_eq!(
            seal_frame(vec![0; FRAME_HEADER]).unwrap(),
            encode_frame(b"").unwrap()
        );
    }
}
