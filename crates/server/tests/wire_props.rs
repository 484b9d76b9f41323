//! Property suite for the serving layer's trust boundary: wire frames
//! and protocol payloads must roundtrip exactly, and every malformed
//! input — truncated frames, oversized declared lengths, CRC flips,
//! arbitrary garbage — must surface as a typed error, never a panic.

use std::sync::Arc;

use proptest::prelude::*;

use eve_server::protocol::{
    decode_request, decode_response, encode_request, encode_response, ErrorCode, Request,
    RequestBody, Response, ResponseBody,
};
use eve_server::wire::{encode_frame, FrameReader, FRAME_HEADER, MAX_FRAME};
use eve_server::{Error, Server, ServerConfig, TenantStats, Warehouse};
use eve_sync::EvolutionOp;
use eve_system::Shell;

fn cases(default: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(64)))]

    /// A stream of frames survives any chunking: payloads come back
    /// byte-identical and in order.
    #[test]
    fn frames_roundtrip_under_random_chunking(
        payloads in prop::collection::vec(
            prop::collection::vec(0u8..=255, 0..200), 1..8),
        chunk in 1usize..64,
    ) {
        let mut stream = Vec::new();
        for p in &payloads {
            stream.extend_from_slice(&encode_frame(p).unwrap());
        }
        let mut reader = FrameReader::new();
        let mut out = Vec::new();
        for piece in stream.chunks(chunk) {
            reader.feed(piece);
            while let Some(frame) = reader.next_frame().unwrap() {
                out.push(frame);
            }
        }
        prop_assert_eq!(out, payloads);
        prop_assert_eq!(reader.buffered(), 0);
    }

    /// Truncating a valid stream at any byte yields the intact prefix of
    /// frames and then "incomplete" — never an error, never a panic, and
    /// never a partial payload.
    #[test]
    fn truncated_streams_are_incomplete_not_corrupt(
        payloads in prop::collection::vec(
            prop::collection::vec(0u8..=255, 0..64), 1..5),
        cut_fraction in 0.0f64..1.0,
    ) {
        let mut stream = Vec::new();
        let mut boundaries = Vec::new();
        for p in &payloads {
            stream.extend_from_slice(&encode_frame(p).unwrap());
            boundaries.push(stream.len());
        }
        #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let cut = ((stream.len() as f64) * cut_fraction) as usize;
        let mut reader = FrameReader::new();
        reader.feed(&stream[..cut]);
        let mut out = Vec::new();
        while let Some(frame) = reader.next_frame().unwrap() {
            out.push(frame);
        }
        // Exactly the frames whose encoding fits entirely before the cut.
        let intact = boundaries.iter().filter(|b| **b <= cut).count();
        prop_assert_eq!(out.len(), intact);
        prop_assert_eq!(&out[..], &payloads[..intact]);
    }

    /// Flipping any single bit of a frame's CRC or payload is detected as
    /// a typed frame error (flips in the length prefix may instead leave
    /// the frame incomplete or oversized — also typed, never a panic).
    #[test]
    fn single_bit_flips_never_panic_and_corrupt_payloads_are_caught(
        payload in prop::collection::vec(0u8..=255, 1..128),
        byte_index in 0usize..1000,
        bit in 0u8..8,
    ) {
        let mut frame = encode_frame(&payload).unwrap();
        let idx = byte_index % frame.len();
        frame[idx] ^= 1 << bit;
        let mut reader = FrameReader::new();
        reader.feed(&frame);
        match reader.next_frame() {
            // A flip in the length prefix can make the frame "longer":
            // incomplete is acceptable. A flip that leaves the frame
            // complete must be caught by CRC (or the length cap).
            Ok(None) => prop_assert!(idx < 4, "only length flips may stall the frame"),
            Ok(Some(decoded)) => {
                // The flip must have been in the length prefix, shortening
                // the frame; the CRC then matched a *prefix* — impossible:
                // crc64 of a strict prefix differing payload cannot equal
                // the original unless the payload is unchanged.
                prop_assert_eq!(decoded, payload, "decoded payload must be unflipped");
            }
            Err(Error::Frame { .. }) => {}
            Err(other) => prop_assert!(false, "unexpected error type: {other:?}"),
        }
    }

    /// Declared lengths past the cap are rejected immediately, for every
    /// oversized value — the reader never buffers waiting for them.
    #[test]
    fn oversized_declared_lengths_are_rejected(excess in 1u64..u64::from(u32::MAX)) {
        let len = (MAX_FRAME as u64 + excess).min(u64::from(u32::MAX));
        let mut bad = Vec::new();
        #[allow(clippy::cast_possible_truncation)]
        bad.extend_from_slice(&(len as u32).to_le_bytes());
        bad.extend_from_slice(&0u64.to_le_bytes());
        bad.extend_from_slice(&[0xAB; 16]);
        let mut reader = FrameReader::new();
        reader.feed(&bad);
        let err = reader.next_frame().unwrap_err();
        prop_assert!(matches!(err, Error::Frame { .. }), "{err:?}");
    }

    /// Arbitrary garbage fed to the protocol decoders is a typed error,
    /// never a panic.
    #[test]
    fn protocol_decoders_never_panic_on_garbage(
        bytes in prop::collection::vec(0u8..=255, 0..256),
    ) {
        if let Err(e) = decode_request(&bytes) {
            prop_assert!(matches!(e, Error::Protocol { .. }), "{e:?}");
        }
        if let Err(e) = decode_response(&bytes) {
            prop_assert!(matches!(e, Error::Protocol { .. }), "{e:?}");
        }
    }

    /// Truncating a valid request payload at any point is a typed
    /// protocol error (or, for a lucky prefix, a different valid message
    /// — but never a panic).
    #[test]
    fn truncated_request_payloads_error_cleanly(
        session in 0u64..u64::MAX,
        tag in 0usize..5,
        cut_fraction in 0.0f64..1.0,
    ) {
        let body = request_body(tag);
        let bytes = encode_request(&Request { session, body });
        #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let cut = ((bytes.len() as f64) * cut_fraction) as usize;
        if cut < bytes.len() {
            // Shorter payloads either fail (usual) or decode to something
            // else (rare prefix luck); both are fine, panics are not.
            let _ = decode_request(&bytes[..cut]);
        }
    }

    /// Statement text cannot panic the shell's parser or the server. A
    /// shell line with fragments spliced in (non-ASCII, unbalanced `(` and
    /// `'`, stray `<=`/`>=`, out-of-range numbers) and possibly cut short,
    /// and a line of fragments alone, each parse to `Ok` or `Err`. Sent as
    /// a `Statement` to a tenant holding a relation and a view, each is
    /// answered `Output` or `Err`, and the connection keeps serving.
    #[test]
    fn statement_text_never_panics_the_parser_or_the_server(
        seed in prop::sample::select(SHELL_LINES.to_vec()),
        edits in prop::collection::vec(
            (0.0f64..1.0, prop::sample::select(FRAGMENTS.to_vec())), 0..6),
        cut in 0.0f64..2.0,
        noise in prop::collection::vec(prop::sample::select(FRAGMENTS.to_vec()), 0..12),
    ) {
        let root = std::env::temp_dir().join(format!(
            "eve-wire-props-{}-{}",
            std::process::id(),
            NEXT_ROOT.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        std::fs::remove_dir_all(&root).ok();
        let server = Server::start(
            Arc::new(Warehouse::open(&root).unwrap()),
            ServerConfig::default(),
        );
        let mut client = server.connect().unwrap();
        client.open_session("fuzz").unwrap();
        for line in SETUP {
            let answer = client.request(RequestBody::Statement { esql: line.into() });
            prop_assert!(matches!(answer, Ok(ResponseBody::Output { .. })), "{line}: {answer:?}");
        }
        for line in [splice(seed, &edits, cut), noise.concat()] {
            // Ok or Err, whatever the text: a panic fails the case.
            let _ = Shell::parse(&line);
            let answer = client.request(RequestBody::Statement { esql: line.clone() });
            prop_assert!(
                matches!(answer, Ok(ResponseBody::Output { .. } | ResponseBody::Err { .. })),
                "`{line}`: {answer:?}"
            );
            let alive = client.request(RequestBody::Stats);
            prop_assert!(matches!(alive, Ok(ResponseBody::Stats(_))), "after `{line}`: {alive:?}");
        }
        drop(client);
        server.shutdown();
        std::fs::remove_dir_all(&root).ok();
    }
}

static NEXT_ROOT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// The tenant every statement case starts from.
const SETUP: [&str; 5] = [
    "site 1 s1",
    "relation R @1 (K:int, P:text)",
    "relation M @1 (K:int, P:text)",
    "insert R (1, 'a')",
    "view CREATE VIEW V (VE = '~') AS SELECT X.K FROM R X (RR = true)",
];

/// Well-formed shell lines the statement case starts its mutations from.
const SHELL_LINES: [&str; 16] = [
    "site 2 tokyo",
    "relation S @1 (K:int:8, P:text:16, F:float, B:bool) sel=0.5 bfr=4",
    "insert R (2, 'b, c')",
    "pc R (K, P) <= M (K, P)",
    "pc R (K) >= M (K)",
    "jc R.K = M.K",
    "view CREATE VIEW W (VE = '~') AS SELECT X.K FROM R X (RR = true) WHERE X.K = 1",
    "update R insert (3, 'd')",
    "update R delete (1, 'a')",
    "change rename-attribute R.P Q",
    "change delete-relation M",
    "index R K sorted",
    "query V",
    "show constraints",
    "travel 1 V",
    "# a comment",
];

/// Pieces spliced into shell lines: delimiters left unbalanced,
/// constraint operators, non-ASCII and NUL, numbers out of range.
const FRAGMENTS: [&str; 24] = [
    "(",
    ")",
    "'",
    "<=",
    ">=",
    "=",
    ",",
    ".",
    ":",
    "@",
    " ",
    "\t",
    "é",
    "∆",
    "🦀",
    "\u{0}",
    "-1",
    "18446744073709551616",
    "1e309",
    "NaN",
    "sel=",
    "insert",
    "R",
    "V",
];

/// `seed` with each `(at, fragment)` spliced in at that fraction of its
/// length, in order, then cut to the fraction `cut` of its characters
/// when `cut < 1`.
#[allow(
    clippy::cast_precision_loss,
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss
)]
fn splice(seed: &str, edits: &[(f64, &str)], cut: f64) -> String {
    let mut chars: Vec<char> = seed.chars().collect();
    for (at, fragment) in edits {
        let i = ((chars.len() as f64) * at) as usize;
        chars.splice(i..i, fragment.chars());
    }
    if cut < 1.0 {
        chars.truncate(((chars.len() as f64) * cut) as usize);
    }
    chars.into_iter().collect()
}

fn request_body(tag: usize) -> RequestBody {
    match tag {
        0 => RequestBody::OpenSession {
            tenant: "tenant-x".into(),
        },
        1 => RequestBody::Statement {
            esql: "view CREATE VIEW V (VE = '~') AS SELECT R.K FROM R (RR = true)".into(),
        },
        2 => RequestBody::Apply {
            ops: vec![EvolutionOp::insert(
                "R",
                vec![eve_relational::tup![1, "x"], eve_relational::tup![2, "y"]],
            )],
        },
        3 => RequestBody::Query { view: "V".into() },
        _ => RequestBody::ResetBudget,
    }
}

/// Exhaustive (non-property) roundtrips of every request and response
/// variant through encode → frame → reassemble → decode.
#[test]
fn every_protocol_variant_roundtrips_through_the_wire() {
    let requests = vec![
        Request {
            session: 0,
            body: RequestBody::OpenSession {
                tenant: "alpha".into(),
            },
        },
        Request {
            session: 7,
            body: RequestBody::Attach,
        },
        Request {
            session: 7,
            body: RequestBody::CloseSession,
        },
        Request {
            session: 7,
            body: RequestBody::Statement {
                esql: "site 1 s1".into(),
            },
        },
        Request {
            session: 7,
            body: RequestBody::Apply {
                ops: vec![
                    EvolutionOp::insert("R", vec![eve_relational::tup![1, "x"]]),
                    EvolutionOp::delete("R", vec![eve_relational::tup![2, "y"]]),
                ],
            },
        },
        Request {
            session: 7,
            body: RequestBody::Query { view: "V".into() },
        },
        Request {
            session: 7,
            body: RequestBody::Stats,
        },
        Request {
            session: 7,
            body: RequestBody::ResetBudget,
        },
        Request {
            session: 7,
            body: RequestBody::Metrics,
        },
    ];
    for req in &requests {
        let frame = encode_frame(&encode_request(req)).unwrap();
        let mut reader = FrameReader::new();
        reader.feed(&frame);
        let payload = reader.next_frame().unwrap().unwrap();
        let back = decode_request(&payload).unwrap();
        assert_eq!(back.session, req.session);
        assert_eq!(
            encode_request(&back),
            encode_request(req),
            "canonical re-encoding matches"
        );
    }

    let responses = vec![
        Response {
            session: 1,
            body: ResponseBody::SessionOpened { session: 1 },
        },
        Response {
            session: 1,
            body: ResponseBody::Attached {
                tenant: "alpha".into(),
            },
        },
        Response {
            session: 1,
            body: ResponseBody::Closed,
        },
        Response {
            session: 1,
            body: ResponseBody::Output {
                text: "3 rows".into(),
            },
        },
        Response {
            session: 1,
            body: ResponseBody::Queued { position: 4 },
        },
        Response {
            session: 1,
            body: ResponseBody::Stats(TenantStats {
                candidates_used: 10,
                io_used: 20,
                candidate_budget: 100,
                io_budget: 200,
                queued: 3,
                exec_parallelism: 4,
            }),
        },
        Response {
            session: 1,
            body: ResponseBody::BudgetReset { drained: 5 },
        },
        Response {
            session: 1,
            body: ResponseBody::Err {
                code: ErrorCode::BudgetExceeded,
                detail: "over budget".into(),
            },
        },
        Response {
            session: 1,
            body: ResponseBody::Metrics {
                snapshot: {
                    let registry = eve_trace::Registry::new();
                    registry.counter("server.requests.query").add(12);
                    registry.gauge("server.sessions").set(3);
                    let h = registry.histogram("server.latency_us.query");
                    for v in [0, 1, 7, 130, 4096] {
                        h.record(v);
                    }
                    registry.snapshot()
                },
            },
        },
    ];
    for resp in &responses {
        let frame = encode_frame(&encode_response(resp)).unwrap();
        let mut reader = FrameReader::new();
        reader.feed(&frame);
        let payload = reader.next_frame().unwrap().unwrap();
        let back = decode_response(&payload).unwrap();
        assert_eq!(back.session, resp.session);
        assert_eq!(
            encode_response(&back),
            encode_response(resp),
            "canonical re-encoding matches"
        );
    }
}

/// The header itself truncated (0..FRAME_HEADER bytes) is always
/// "incomplete", mirroring the log's torn-tail semantics.
#[test]
fn sub_header_tails_are_incomplete() {
    let frame = encode_frame(b"payload").unwrap();
    for cut in 0..FRAME_HEADER {
        let mut reader = FrameReader::new();
        reader.feed(&frame[..cut]);
        assert!(reader.next_frame().unwrap().is_none(), "cut {cut}");
    }
}
