//! The request/response protocol carried inside wire frames, encoded with
//! the store's canonical codec — the same [`eve_store::Codec`] machinery
//! that serializes log records and snapshots, so a statement travelling
//! to the server and an evolution op landing in a `seg-*.evl` segment
//! share one encoding discipline (and one corruption story: every decode
//! failure is a typed error, never a panic).
//!
//! An `Output` response — a view's answer, most of the bytes the server
//! sends — is written in place at both ends. The server reserves the
//! frame header and the `Output` prefix and writes the text behind them
//! ([`OutputFrame`]), so a `Query` answer is copied from the relation's
//! kept text into its frame once. The client takes the frame's buffer
//! as the text: [`decode_response_frame`] removes the prefix in place
//! and checks the text's UTF-8, allocating nothing. The bytes on the
//! wire are those of `encode_frame(&encode_response(..))`.

use eve_store::codec::utf8_string;
use eve_store::{from_bytes, to_bytes, vec_decode, vec_encode, Codec, Dec, Enc};
use eve_sync::EvolutionOp;

use crate::warehouse::TenantStats;
use crate::wire::{frame_payload, seal_frame, FRAME_HEADER};
use crate::{Error, Result};

/// The body tag of [`ResponseBody::Output`].
const OUTPUT_TAG: u8 = 3;

/// Bytes of an `Output` payload before its text: the session id, the
/// body tag and the text's length prefix.
const OUTPUT_PREFIX: usize = 8 + 1 + 8;

/// One client request: the session it belongs to plus the operation.
/// Session 0 is the "no session yet" id used by
/// [`RequestBody::OpenSession`].
#[derive(Debug)]
pub struct Request {
    /// Session id (0 until a session is opened).
    pub session: u64,
    /// The operation.
    pub body: RequestBody,
}

/// The operations a client can request.
#[derive(Debug)]
pub enum RequestBody {
    /// Open a session bound to `tenant`, creating the tenant's warehouse
    /// on first use. Answered with [`ResponseBody::SessionOpened`].
    OpenSession {
        /// Tenant name (one durable store directory per tenant).
        tenant: String,
    },
    /// Re-attach to an existing session (e.g. after a client reconnect):
    /// answers with the tenant the session is bound to.
    Attach,
    /// Close the request's session.
    CloseSession,
    /// Execute one shell statement (E-SQL view definitions, updates,
    /// schema changes, …) against the session's tenant. Mutating
    /// statements are serialized per tenant and subject to admission
    /// control.
    Statement {
        /// The statement line, in shell syntax.
        esql: String,
    },
    /// Apply a batch of evolution ops — the same payload a log record
    /// carries — against the session's tenant.
    Apply {
        /// The batch.
        ops: Vec<EvolutionOp>,
    },
    /// Evaluate a view and return its extent.
    Query {
        /// View name.
        view: String,
    },
    /// The tenant's admission/budget counters.
    Stats,
    /// Zero the tenant's budget usage and drain its deferred-mutation
    /// queue (applying the queued work, in arrival order).
    ResetBudget,
    /// A full metrics image: the process-global registry merged with the
    /// session tenant's engine telemetry and the server's own request
    /// latency histograms. Answered with [`ResponseBody::Metrics`].
    Metrics,
}

/// One server response, echoing the session it answers.
#[derive(Debug)]
pub struct Response {
    /// The session the response belongs to.
    pub session: u64,
    /// The payload.
    pub body: ResponseBody,
}

/// Response payloads.
#[derive(Debug)]
pub enum ResponseBody {
    /// A session was opened.
    SessionOpened {
        /// The new session id (never 0).
        session: u64,
    },
    /// [`RequestBody::Attach`] answer: the session's tenant.
    Attached {
        /// Tenant name.
        tenant: String,
    },
    /// The session was closed.
    Closed,
    /// A statement, query or apply completed; the display text.
    Output {
        /// Human-readable result (shell output or view extent).
        text: String,
    },
    /// The mutation was admitted into the tenant's deferred queue
    /// (admission policy [`crate::AdmissionPolicy::Queue`], budget
    /// spent); it will apply on the next budget reset.
    Queued {
        /// Position in the deferred queue (0 = next to drain).
        position: u64,
    },
    /// [`RequestBody::Stats`] answer: the tenant's admission counters.
    Stats(TenantStats),
    /// [`RequestBody::ResetBudget`] answer.
    BudgetReset {
        /// Deferred mutations drained and applied by the reset.
        drained: u64,
    },
    /// [`RequestBody::Metrics`] answer: the merged metrics image.
    Metrics {
        /// Counters, gauges and histograms at the time of the request.
        snapshot: eve_trace::MetricsSnapshot,
    },
    /// The request failed; `code` is machine-matchable, `detail` human-
    /// readable.
    Err {
        /// The error class.
        code: ErrorCode,
        /// Explanation.
        detail: String,
    },
}

/// Machine-readable error classes carried in [`ResponseBody::Err`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// Admission control rejected the mutation: budget spent.
    BudgetExceeded,
    /// The deferred queue is at capacity.
    QueueFull,
    /// The tenant's store is locked by another handle.
    Busy,
    /// The tenant's durable host is poisoned; checkpoint to heal.
    Poisoned,
    /// The server is shutting down.
    Shutdown,
    /// Unknown tenant.
    UnknownTenant,
    /// Unknown or closed session.
    UnknownSession,
    /// The request frame or payload was malformed.
    Malformed,
    /// Any other engine/store failure.
    Engine,
}

impl ErrorCode {
    /// Maps a server error to its wire code.
    #[must_use]
    pub fn of(err: &Error) -> ErrorCode {
        match err {
            Error::BudgetExceeded { .. } => ErrorCode::BudgetExceeded,
            Error::QueueFull { .. } => ErrorCode::QueueFull,
            Error::Busy { .. } => ErrorCode::Busy,
            Error::Poisoned { .. } => ErrorCode::Poisoned,
            Error::Shutdown { .. } => ErrorCode::Shutdown,
            Error::UnknownTenant { .. } => ErrorCode::UnknownTenant,
            Error::UnknownSession { .. } => ErrorCode::UnknownSession,
            Error::Frame { .. } | Error::Protocol { .. } => ErrorCode::Malformed,
            Error::Engine { .. } => ErrorCode::Engine,
        }
    }
}

impl Response {
    /// The error response for `err`, echoing `session`.
    #[must_use]
    pub fn error(session: u64, err: &Error) -> Response {
        Response {
            session,
            body: ResponseBody::Err {
                code: ErrorCode::of(err),
                detail: err.to_string(),
            },
        }
    }
}

impl Codec for ErrorCode {
    fn encode(&self, enc: &mut Enc) {
        enc.u8(match self {
            ErrorCode::BudgetExceeded => 0,
            ErrorCode::QueueFull => 1,
            ErrorCode::Busy => 2,
            ErrorCode::Poisoned => 3,
            ErrorCode::Shutdown => 4,
            ErrorCode::UnknownTenant => 5,
            ErrorCode::UnknownSession => 6,
            ErrorCode::Malformed => 7,
            ErrorCode::Engine => 8,
        });
    }

    fn decode(dec: &mut Dec<'_>) -> eve_store::Result<ErrorCode> {
        Ok(match dec.u8()? {
            0 => ErrorCode::BudgetExceeded,
            1 => ErrorCode::QueueFull,
            2 => ErrorCode::Busy,
            3 => ErrorCode::Poisoned,
            4 => ErrorCode::Shutdown,
            5 => ErrorCode::UnknownTenant,
            6 => ErrorCode::UnknownSession,
            7 => ErrorCode::Malformed,
            8 => ErrorCode::Engine,
            other => {
                return Err(eve_store::Error::corrupt(format!(
                    "invalid ErrorCode tag {other}"
                )))
            }
        })
    }
}

impl Codec for RequestBody {
    fn encode(&self, enc: &mut Enc) {
        match self {
            RequestBody::OpenSession { tenant } => {
                enc.u8(0);
                enc.str(tenant);
            }
            RequestBody::Attach => enc.u8(1),
            RequestBody::CloseSession => enc.u8(2),
            RequestBody::Statement { esql } => {
                enc.u8(3);
                enc.str(esql);
            }
            RequestBody::Apply { ops } => {
                enc.u8(4);
                vec_encode(ops, enc);
            }
            RequestBody::Query { view } => {
                enc.u8(5);
                enc.str(view);
            }
            RequestBody::Stats => enc.u8(6),
            RequestBody::ResetBudget => enc.u8(7),
            RequestBody::Metrics => enc.u8(8),
        }
    }

    fn decode(dec: &mut Dec<'_>) -> eve_store::Result<RequestBody> {
        Ok(match dec.u8()? {
            0 => RequestBody::OpenSession { tenant: dec.str()? },
            1 => RequestBody::Attach,
            2 => RequestBody::CloseSession,
            3 => RequestBody::Statement { esql: dec.str()? },
            4 => RequestBody::Apply {
                ops: vec_decode(dec)?,
            },
            5 => RequestBody::Query { view: dec.str()? },
            6 => RequestBody::Stats,
            7 => RequestBody::ResetBudget,
            8 => RequestBody::Metrics,
            other => {
                return Err(eve_store::Error::corrupt(format!(
                    "invalid RequestBody tag {other}"
                )))
            }
        })
    }
}

impl Codec for Request {
    fn encode(&self, enc: &mut Enc) {
        enc.u64(self.session);
        self.body.encode(enc);
    }

    fn decode(dec: &mut Dec<'_>) -> eve_store::Result<Request> {
        Ok(Request {
            session: dec.u64()?,
            body: RequestBody::decode(dec)?,
        })
    }
}

impl Codec for ResponseBody {
    fn encode(&self, enc: &mut Enc) {
        match self {
            ResponseBody::SessionOpened { session } => {
                enc.u8(0);
                enc.u64(*session);
            }
            ResponseBody::Attached { tenant } => {
                enc.u8(1);
                enc.str(tenant);
            }
            ResponseBody::Closed => enc.u8(2),
            ResponseBody::Output { text } => {
                enc.u8(OUTPUT_TAG);
                enc.str(text);
            }
            ResponseBody::Queued { position } => {
                enc.u8(4);
                enc.u64(*position);
            }
            ResponseBody::Stats(stats) => {
                enc.u8(5);
                enc.u64(stats.candidates_used);
                enc.u64(stats.io_used);
                enc.u64(stats.candidate_budget);
                enc.u64(stats.io_budget);
                enc.u64(stats.queued);
                enc.u64(stats.exec_parallelism);
            }
            ResponseBody::BudgetReset { drained } => {
                enc.u8(6);
                enc.u64(*drained);
            }
            ResponseBody::Err { code, detail } => {
                enc.u8(7);
                code.encode(enc);
                enc.str(detail);
            }
            ResponseBody::Metrics { snapshot } => {
                enc.u8(8);
                encode_snapshot(snapshot, enc);
            }
        }
    }

    fn decode(dec: &mut Dec<'_>) -> eve_store::Result<ResponseBody> {
        Ok(match dec.u8()? {
            0 => ResponseBody::SessionOpened {
                session: dec.u64()?,
            },
            1 => ResponseBody::Attached { tenant: dec.str()? },
            2 => ResponseBody::Closed,
            OUTPUT_TAG => ResponseBody::Output { text: dec.str()? },
            4 => ResponseBody::Queued {
                position: dec.u64()?,
            },
            5 => ResponseBody::Stats(TenantStats {
                candidates_used: dec.u64()?,
                io_used: dec.u64()?,
                candidate_budget: dec.u64()?,
                io_budget: dec.u64()?,
                queued: dec.u64()?,
                exec_parallelism: dec.u64()?,
            }),
            6 => ResponseBody::BudgetReset {
                drained: dec.u64()?,
            },
            7 => ResponseBody::Err {
                code: ErrorCode::decode(dec)?,
                detail: dec.str()?,
            },
            8 => ResponseBody::Metrics {
                snapshot: decode_snapshot(dec)?,
            },
            other => {
                return Err(eve_store::Error::corrupt(format!(
                    "invalid ResponseBody tag {other}"
                )))
            }
        })
    }
}

/// Wire layout for a [`eve_trace::MetricsSnapshot`]: three length-
/// prefixed name→value tables (counters, gauges, histograms), the
/// histogram buckets written in full so merged quantiles survive the
/// round-trip exactly. `MetricsSnapshot` lives in `eve-trace`, which
/// stays codec-free by design, so the encoding lives here with the rest
/// of the protocol.
fn encode_snapshot(snapshot: &eve_trace::MetricsSnapshot, enc: &mut Enc) {
    enc.usize(snapshot.counters.len());
    for (name, v) in &snapshot.counters {
        enc.str(name);
        enc.u64(*v);
    }
    enc.usize(snapshot.gauges.len());
    for (name, v) in &snapshot.gauges {
        enc.str(name);
        enc.i64(*v);
    }
    enc.usize(snapshot.histograms.len());
    for (name, h) in &snapshot.histograms {
        enc.str(name);
        enc.u64(h.sum);
        for b in &h.buckets {
            enc.u64(*b);
        }
    }
}

fn decode_snapshot(dec: &mut Dec<'_>) -> eve_store::Result<eve_trace::MetricsSnapshot> {
    let mut snapshot = eve_trace::MetricsSnapshot::default();
    for _ in 0..dec.len()? {
        let name = dec.str()?;
        snapshot.counters.insert(name, dec.u64()?);
    }
    for _ in 0..dec.len()? {
        let name = dec.str()?;
        snapshot.gauges.insert(name, dec.i64()?);
    }
    for _ in 0..dec.len()? {
        let name = dec.str()?;
        let mut h = eve_trace::HistogramSnapshot {
            sum: dec.u64()?,
            ..eve_trace::HistogramSnapshot::default()
        };
        for b in &mut h.buckets {
            *b = dec.u64()?;
        }
        snapshot.histograms.insert(name, h);
    }
    Ok(snapshot)
}

impl Codec for Response {
    fn encode(&self, enc: &mut Enc) {
        enc.u64(self.session);
        self.body.encode(enc);
    }

    fn decode(dec: &mut Dec<'_>) -> eve_store::Result<Response> {
        Ok(Response {
            session: dec.u64()?,
            body: ResponseBody::decode(dec)?,
        })
    }
}

/// Encodes a request as a frame payload.
#[must_use]
pub fn encode_request(req: &Request) -> Vec<u8> {
    to_bytes(req)
}

/// Decodes a request frame payload.
///
/// # Errors
///
/// [`Error::Protocol`] on any malformed payload.
pub fn decode_request(bytes: &[u8]) -> Result<Request> {
    from_bytes(bytes).map_err(|e| Error::protocol(e.to_string()))
}

/// Encodes a response as a frame payload.
#[must_use]
pub fn encode_response(resp: &Response) -> Vec<u8> {
    to_bytes(resp)
}

/// Encodes a request as a whole wire frame, in one buffer. The bytes
/// equal `encode_frame(&encode_request(req))`.
///
/// # Errors
///
/// [`Error::Frame`] when the payload exceeds the frame cap.
pub(crate) fn encode_request_frame(req: &Request) -> Result<Vec<u8>> {
    let text = match &req.body {
        RequestBody::Statement { esql } => esql.len(),
        _ => 0,
    };
    encode_sealed(req, text)
}

/// Encodes a response as a whole wire frame, in one buffer. The bytes
/// equal `encode_frame(&encode_response(resp))`. An `Output` is written
/// by the [`OutputFrame`] a `Query` answer is written with.
///
/// # Errors
///
/// [`Error::Frame`] when the payload exceeds the frame cap.
pub(crate) fn encode_response_frame(resp: &Response) -> Result<Vec<u8>> {
    match &resp.body {
        ResponseBody::Output { text } => {
            let mut frame = OutputFrame::new(resp.session, text.len());
            frame.text().extend_from_slice(text.as_bytes());
            frame.seal()
        }
        _ => encode_sealed(resp, 0),
    }
}

/// An [`ResponseBody::Output`] response frame written in place: the
/// frame header and the `Output` prefix are reserved, the text is
/// appended behind them, and [`OutputFrame::seal`] fills in the text's
/// length and the header. A writer can append the text while it holds a
/// lock and seal after releasing it.
#[derive(Debug)]
pub(crate) struct OutputFrame(Vec<u8>);

impl OutputFrame {
    /// The frame of an answer to `session`, with room for `text` bytes of
    /// text.
    pub(crate) fn new(session: u64, text: usize) -> OutputFrame {
        let mut buf = Vec::with_capacity(FRAME_HEADER + OUTPUT_PREFIX + text);
        buf.extend_from_slice(&[0; FRAME_HEADER]);
        buf.extend_from_slice(&session.to_le_bytes());
        buf.push(OUTPUT_TAG);
        // The text's length, filled in by `seal`.
        buf.extend_from_slice(&[0; 8]);
        OutputFrame(buf)
    }

    /// The buffer to append the text's UTF-8 bytes to, behind the
    /// reserved prefix. Bytes before the end must not change.
    pub(crate) fn text(&mut self) -> &mut Vec<u8> {
        &mut self.0
    }

    /// The finished frame: the text's length and the frame header written
    /// in place.
    ///
    /// # Errors
    ///
    /// [`Error::Frame`] when the payload exceeds the frame cap.
    pub(crate) fn seal(mut self) -> Result<Vec<u8>> {
        let at = FRAME_HEADER + OUTPUT_PREFIX;
        let text = (self.0.len() - at) as u64;
        self.0[at - 8..at].copy_from_slice(&text.to_le_bytes());
        seal_frame(self.0)
    }
}

/// Encodes `message` as a whole wire frame: the header is reserved, the
/// payload encoded behind it, then the header filled in. A message's
/// text (`text` bytes) is most of its payload, so the buffer is sized to
/// fit it.
fn encode_sealed(message: &impl Codec, text: usize) -> Result<Vec<u8>> {
    // Session id, body tag and the text's length prefix, then the text.
    let mut buf = Vec::with_capacity(FRAME_HEADER + 17 + text);
    buf.extend_from_slice(&[0; FRAME_HEADER]);
    let mut enc = Enc::appending_to(buf);
    message.encode(&mut enc);
    seal_frame(enc.into_bytes())
}

/// Decodes a response frame payload.
///
/// # Errors
///
/// [`Error::Protocol`] on any malformed payload.
pub fn decode_response(bytes: &[u8]) -> Result<Response> {
    from_bytes(bytes).map_err(|e| Error::protocol(e.to_string()))
}

/// Decodes one whole response frame, taking its buffer. The frame is
/// checked against the length cap and its CRC where it lies, as
/// [`frame_payload`] checks it. An `Output` whose length prefix covers
/// exactly the rest of the payload becomes its text in the same buffer:
/// the bytes before the text are removed in place and the text's UTF-8
/// is checked, with no second buffer. Any other payload, a damaged
/// `Output` included, decodes as [`decode_response`] decodes it, so both
/// routes give the same response or the same error.
///
/// # Errors
///
/// [`Error::Frame`] when `frame` is not one whole, intact frame;
/// [`Error::Protocol`] on a malformed payload.
pub fn decode_response_frame(mut frame: Vec<u8>) -> Result<Response> {
    let payload = frame_payload(&frame)?;
    let Some(session) = output_session(payload) else {
        return decode_response(payload);
    };
    frame.drain(..FRAME_HEADER + OUTPUT_PREFIX);
    let text = utf8_string(frame).map_err(|e| Error::protocol(e.to_string()))?;
    Ok(Response {
        session,
        body: ResponseBody::Output { text },
    })
}

/// The session of `payload` when it is an `Output` whose length prefix
/// is the number of bytes after it.
fn output_session(payload: &[u8]) -> Option<u64> {
    let (session, rest) = payload.split_first_chunk::<8>()?;
    let (&tag, rest) = rest.split_first()?;
    let (len, text) = rest.split_first_chunk::<8>()?;
    (tag == OUTPUT_TAG && u64::from_le_bytes(*len) == text.len() as u64)
        .then(|| u64::from_le_bytes(*session))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{encode_frame, frame_payload};

    #[test]
    fn a_request_frame_is_the_frame_of_its_payload() {
        let requests = [
            Request {
                session: 7,
                body: RequestBody::Statement {
                    esql: "update R insert (1, 'a')".repeat(500),
                },
            },
            Request {
                session: 0,
                body: RequestBody::OpenSession {
                    tenant: "alpha".into(),
                },
            },
            Request {
                session: 3,
                body: RequestBody::Stats,
            },
        ];
        for req in &requests {
            let frame = encode_request_frame(req).unwrap();
            assert_eq!(frame, encode_frame(&encode_request(req)).unwrap());
            assert_eq!(
                encode_request(&decode_request(frame_payload(&frame).unwrap()).unwrap()),
                encode_request(req)
            );
        }
    }

    #[test]
    fn a_response_frame_is_the_frame_of_its_payload() {
        let responses = [
            Response {
                session: 7,
                body: ResponseBody::Output {
                    text: "V(K INT) [1 tuples]\n  (1)\n".repeat(9_000),
                },
            },
            Response {
                session: 1,
                body: ResponseBody::Output {
                    text: String::new(),
                },
            },
            Response {
                session: 0,
                body: ResponseBody::Closed,
            },
            Response::error(3, &Error::protocol("bad")),
        ];
        for resp in &responses {
            let frame = encode_response_frame(resp).unwrap();
            assert_eq!(frame, encode_frame(&encode_response(resp)).unwrap());
            assert_eq!(
                encode_response(&decode_response(frame_payload(&frame).unwrap()).unwrap()),
                encode_response(resp)
            );
        }
    }

    #[test]
    fn an_output_written_in_place_is_the_frame_of_its_payload() {
        let texts = [
            String::new(),
            "x".to_owned(),
            "V(K INT) [1 tuples]\n  (1)\n".repeat(3_000),
            "Straße, 東京 — ü".to_owned(),
            "  ('a, b', 'it''s')\n\n'".to_owned(),
        ];
        assert!(texts[2].len() > 64 << 10);
        for (session, text) in (0..).zip(&texts) {
            // Written in two pieces, as a header and the kept chunks are.
            let mut frame = OutputFrame::new(session, 0);
            let (head, tail) = text.as_bytes().split_at(text.len() / 2);
            frame.text().extend_from_slice(head);
            frame.text().extend_from_slice(tail);
            let frame = frame.seal().unwrap();
            let resp = Response {
                session,
                body: ResponseBody::Output { text: text.clone() },
            };
            assert_eq!(frame, encode_frame(&encode_response(&resp)).unwrap());
            match decode_response_frame(frame).unwrap() {
                Response {
                    session: got,
                    body: ResponseBody::Output { text: decoded },
                } => assert_eq!((got, &decoded), (session, text)),
                other => panic!("{other:?}"),
            }
        }
    }
}
