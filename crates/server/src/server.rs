//! Session management and the worker topology.
//!
//! A client's own thread is the server's entry. It checks the request
//! frame's length cap and CRC where the frame lies, decodes it, and
//! answers a session op inline against the session table, whose ids are
//! a deterministic counter, so a fixed request order yields a fixed id
//! assignment. Mutations are dispatched by tenant hash onto a fixed
//! **shard**: every mutation for a tenant lands on the same
//! single-threaded worker, which is what makes per-tenant writes
//! serialized (and byte-identical to a serial application of the same
//! stream) while different tenants mutate in parallel. Reads go to a
//! separate **read pool** that takes the tenant shell's read lock, so
//! queries against one tenant run concurrently with each other and with
//! other tenants' writes.
//!
//! A request and its response each travel as one [`crate::wire`] frame,
//! framed and CRC-checked exactly as a socket transport would carry them;
//! the response comes back on a channel of the call's own.

use std::collections::HashMap;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, PoisonError, RwLock};
use std::thread::JoinHandle;
use std::time::Instant;

use eve_trace::{Counter, Histogram, MetricsSnapshot, Registry};

use crate::protocol::{
    decode_request, decode_response, encode_request_frame, encode_response_frame, Request,
    RequestBody, Response, ResponseBody,
};
use crate::warehouse::{Admitted, Mutation, Tenant, Warehouse};
use crate::wire::frame_payload;
use crate::{Error, Result};

/// Worker topology knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Mutation shards (single-threaded each; a tenant maps to exactly
    /// one, so per-tenant mutations are serialized).
    pub shards: usize,
    /// Read-pool workers (concurrent; they only take read locks).
    pub readers: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            shards: 4,
            readers: 4,
        }
    }
}

/// What a [`Job`] runs against its tenant. The session ops are answered
/// at the server's entry and never become one.
enum TenantRequest {
    Mutate(Mutation),
    ResetBudget,
    Query(String),
    Stats,
    Metrics,
}

/// A unit of dispatched work: the decoded request plus where to send the
/// response bytes.
struct Job {
    session: u64,
    tenant: Arc<Tenant>,
    /// The session's `server.tenant.<name>.latency_us`.
    latency: Arc<Histogram>,
    kind: Kind,
    request: TenantRequest,
    /// The call's own channel and its only sender, so a worker that
    /// drops the job unanswered hangs the call up instead of blocking it.
    reply: Sender<Vec<u8>>,
    /// When the server's entry took the request's frame — so the latency
    /// the server records includes queueing behind the shard/read pool,
    /// not just execution.
    received: Instant,
}

/// Where tenant requests go, until shutdown takes it.
#[derive(Debug)]
struct Dispatch {
    warehouse: Arc<Warehouse>,
    shards: Vec<Sender<Job>>,
    reads: Sender<Job>,
}

/// The session table: each open session's tenant, and how many sessions
/// were ever opened (the last id handed out).
#[derive(Debug, Default)]
struct Sessions {
    tenants: HashMap<u64, Session>,
    opened: u64,
}

/// An open session: its tenant's name and latency histogram
/// (`server.tenant.<name>.latency_us`), resolved when it opened.
#[derive(Debug)]
struct Session {
    tenant: String,
    latency: Arc<Histogram>,
}

/// A request's type, the index of its label in [`KINDS`].
#[derive(Debug, Clone, Copy)]
enum Kind {
    OpenSession,
    Attach,
    CloseSession,
    Statement,
    Apply,
    Query,
    Stats,
    ResetBudget,
    Metrics,
}

/// The `<kind>` of `server.requests.<kind>` and `server.latency_us.<kind>`,
/// in [`Kind`] order.
const KINDS: [&str; 9] = [
    "open_session",
    "attach",
    "close_session",
    "statement",
    "apply",
    "query",
    "stats",
    "reset_budget",
    "metrics",
];

impl Kind {
    fn of(body: &RequestBody) -> Kind {
        match body {
            RequestBody::OpenSession { .. } => Kind::OpenSession,
            RequestBody::Attach => Kind::Attach,
            RequestBody::CloseSession => Kind::CloseSession,
            RequestBody::Statement { .. } => Kind::Statement,
            RequestBody::Apply { .. } => Kind::Apply,
            RequestBody::Query { .. } => Kind::Query,
            RequestBody::Stats => Kind::Stats,
            RequestBody::ResetBudget => Kind::ResetBudget,
            RequestBody::Metrics => Kind::Metrics,
        }
    }
}

/// The server's registry and the handles of the metrics every request
/// moves, resolved once when the server starts, so serving a request
/// formats no name and takes no registry lock.
#[derive(Debug)]
struct Metrics {
    registry: Arc<Registry>,
    /// `server.requests.<kind>`, indexed by [`Kind`].
    requests: [Arc<Counter>; KINDS.len()],
    /// `server.latency_us.<kind>`, indexed by [`Kind`].
    latency: [Arc<Histogram>; KINDS.len()],
    /// `server.errors`.
    errors: Arc<Counter>,
}

impl Metrics {
    fn new() -> Metrics {
        let registry = Arc::new(Registry::new());
        Metrics {
            requests: KINDS.map(|kind| registry.counter(&format!("server.requests.{kind}"))),
            latency: KINDS.map(|kind| registry.histogram(&format!("server.latency_us.{kind}"))),
            errors: registry.counter("server.errors"),
            registry,
        }
    }

    /// Records one served request and sends its response: the request
    /// counter for its kind, the kind's latency histogram, the tenant's
    /// latency histogram (when the request resolved to a tenant) and the
    /// error counter when the response is [`ResponseBody::Err`].
    fn answer(
        &self,
        reply: &Sender<Vec<u8>>,
        kind: Kind,
        tenant: Option<&Histogram>,
        received: Instant,
        resp: &Response,
    ) {
        let us = u64::try_from(received.elapsed().as_micros()).unwrap_or(u64::MAX);
        self.requests[kind as usize].inc();
        self.latency[kind as usize].record(us);
        if let Some(tenant) = tenant {
            tenant.record(us);
        }
        if matches!(resp.body, ResponseBody::Err { .. }) {
            self.errors.inc();
        }
        send_response(reply, resp);
    }
}

/// What a server and its clients share. A client that outlives its
/// server keeps only this, and after shutdown it holds no warehouse and
/// no worker sender, so it pins no tenant and keeps no worker alive.
#[derive(Debug)]
struct Shared {
    metrics: Arc<Metrics>,
    sessions: RwLock<Sessions>,
    dispatch: RwLock<Option<Dispatch>>,
}

/// The running server. Dropping it (or calling [`Server::shutdown`])
/// joins every worker.
#[derive(Debug)]
pub struct Server {
    warehouse: Arc<Warehouse>,
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Starts the shard workers and read pool over `warehouse`.
    ///
    /// # Panics
    ///
    /// When the operating system refuses a thread.
    #[must_use]
    #[allow(
        clippy::expect_used,
        reason = "the signature returns no Result yet, so a refused worker spawn panics"
    )]
    pub fn start(warehouse: Arc<Warehouse>, config: ServerConfig) -> Server {
        let shards = config.shards.max(1);
        let readers = config.readers.max(1);
        let metrics = Arc::new(Metrics::new());

        let mut shard_txs = Vec::with_capacity(shards);
        let mut workers = Vec::with_capacity(shards + readers);
        for i in 0..shards {
            let (tx, rx) = channel::<Job>();
            shard_txs.push(tx);
            let metrics = Arc::clone(&metrics);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("eve-shard-{i}"))
                    .spawn(move || shard_worker(&rx, &metrics))
                    .expect("spawn shard worker"),
            );
        }
        let (read_tx, read_rx) = channel::<Job>();
        let read_rx = Arc::new(Mutex::new(read_rx));
        for i in 0..readers {
            let rx = Arc::clone(&read_rx);
            let metrics = Arc::clone(&metrics);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("eve-reader-{i}"))
                    .spawn(move || read_worker(&rx, &metrics))
                    .expect("spawn read worker"),
            );
        }

        let shared = Arc::new(Shared {
            metrics,
            sessions: RwLock::default(),
            dispatch: RwLock::new(Some(Dispatch {
                warehouse: Arc::clone(&warehouse),
                shards: shard_txs,
                reads: read_tx,
            })),
        });
        Server {
            warehouse,
            shared,
            workers,
        }
    }

    /// The server's own metrics registry: per-request-type and per-tenant
    /// latency histograms (`server.latency_us.*`,
    /// `server.tenant.<name>.latency_us`) plus request/error counters,
    /// recorded from the server's entry to response-ready.
    #[must_use]
    pub fn metrics_registry(&self) -> &Arc<Registry> {
        &self.shared.metrics.registry
    }

    /// The warehouse this server fronts.
    #[must_use]
    pub fn warehouse(&self) -> &Arc<Warehouse> {
        &self.warehouse
    }

    /// Opens a new client connection, served on the caller's thread.
    ///
    /// # Errors
    ///
    /// None while the server runs; the signature leaves room for a
    /// transport that can refuse.
    pub fn connect(&self) -> Result<Client> {
        Ok(Client {
            server: Arc::clone(&self.shared),
            session: 0,
        })
    }

    /// Joins every worker once it has drained the jobs already queued;
    /// later calls fail with [`Error::Shutdown`].
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        // Taking the warehouse and the worker senders out of the shared
        // state ends every worker loop once its queue is drained, however
        // many clients still hold that state.
        drop(
            self.shared
                .dispatch
                .write()
                .unwrap_or_else(PoisonError::into_inner)
                .take(),
        );
        for w in self.workers.drain(..) {
            w.join().ok();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// FNV-1a — a stable tenant→shard map with no per-process seed, so shard
/// assignment (and therefore mutation interleaving) is reproducible.
fn tenant_shard(name: &str, shards: usize) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    // The remainder is below `shards`, so it fits a usize.
    (h % shards.max(1) as u64) as usize
}

/// Sends `resp` as one frame, built in one buffer.
fn send_response(reply: &Sender<Vec<u8>>, resp: &Response) {
    if let Ok(frame) = encode_response_frame(resp) {
        // A vanished client is not a server error.
        reply.send(frame).ok();
    }
}

impl Shared {
    fn sessions(&self) -> std::sync::RwLockReadGuard<'_, Sessions> {
        self.sessions.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn sessions_mut(&self) -> std::sync::RwLockWriteGuard<'_, Sessions> {
        self.sessions
            .write()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// The server's one entry, on the calling thread. It checks `frame`'s
    /// length cap and CRC where the frame lies (the trust boundary),
    /// decodes the request, answers a session op inline and hands a
    /// tenant request to its shard or to the read pool. Every answer,
    /// including a refused frame's, goes back on `reply`.
    ///
    /// # Errors
    ///
    /// [`Error::Shutdown`] once the server has shut down.
    fn serve(&self, frame: &[u8], reply: Sender<Vec<u8>>) -> Result<()> {
        let received = Instant::now();
        let dispatch = self.dispatch.read().unwrap_or_else(PoisonError::into_inner);
        let dispatch = dispatch
            .as_ref()
            .ok_or_else(|| Error::shutdown("server is stopping"))?;
        let req = match frame_payload(frame).and_then(decode_request) {
            Ok(req) => req,
            Err(e) => {
                self.metrics.errors.inc();
                send_response(&reply, &Response::error(0, &e));
                return Ok(());
            }
        };
        let (session, kind) = (req.session, Kind::of(&req.body));
        let respond = |tenant: Option<&Histogram>, resp: &Response| {
            self.metrics.answer(&reply, kind, tenant, received, resp);
            Ok(())
        };
        let unknown = || Response::error(session, &Error::UnknownSession { session });
        let request = match req.body {
            RequestBody::OpenSession { tenant } => {
                let name = format!("server.tenant.{tenant}.latency_us");
                let latency = self.metrics.registry.histogram(&name);
                let resp = match dispatch.warehouse.tenant(&tenant) {
                    Ok(_) => {
                        let mut sessions = self.sessions_mut();
                        sessions.opened += 1;
                        let id = sessions.opened;
                        let latency = Arc::clone(&latency);
                        sessions.tenants.insert(id, Session { tenant, latency });
                        Response {
                            session: id,
                            body: ResponseBody::SessionOpened { session: id },
                        }
                    }
                    Err(e) => Response::error(0, &e),
                };
                return respond(Some(&latency), &resp);
            }
            RequestBody::Attach => {
                let sessions = self.sessions();
                let open = sessions.tenants.get(&session);
                let resp = match open {
                    Some(open) => Response {
                        session,
                        body: ResponseBody::Attached {
                            tenant: open.tenant.clone(),
                        },
                    },
                    None => unknown(),
                };
                return respond(open.map(|open| &*open.latency), &resp);
            }
            RequestBody::CloseSession => {
                let closed = self.sessions_mut().tenants.remove(&session);
                let resp = match closed {
                    Some(_) => Response {
                        session,
                        body: ResponseBody::Closed,
                    },
                    None => unknown(),
                };
                return respond(closed.as_ref().map(|open| &*open.latency), &resp);
            }
            RequestBody::Statement { esql } => TenantRequest::Mutate(Mutation::Statement(esql)),
            RequestBody::Apply { ops } => TenantRequest::Mutate(Mutation::Apply(ops)),
            RequestBody::ResetBudget => TenantRequest::ResetBudget,
            RequestBody::Query { view } => TenantRequest::Query(view),
            RequestBody::Stats => TenantRequest::Stats,
            RequestBody::Metrics => TenantRequest::Metrics,
        };
        let sessions = self.sessions();
        let Some(Session {
            tenant: name,
            latency,
        }) = sessions.tenants.get(&session)
        else {
            return respond(None, &unknown());
        };
        let tenant = match dispatch.warehouse.existing(name) {
            Ok(tenant) => tenant,
            Err(e) => return respond(Some(latency), &Response::error(session, &e)),
        };
        let target = match request {
            TenantRequest::Query(_) | TenantRequest::Stats | TenantRequest::Metrics => {
                &dispatch.reads
            }
            TenantRequest::Mutate(_) | TenantRequest::ResetBudget => {
                &dispatch.shards[tenant_shard(name, dispatch.shards.len())]
            }
        };
        // A worker that is gone drops the job, and with it the call's
        // only reply sender: the call then answers `Error::Shutdown`.
        target
            .send(Job {
                session,
                tenant,
                latency: Arc::clone(latency),
                kind,
                request,
                reply,
                received,
            })
            .ok();
        Ok(())
    }
}

fn execute_job(
    tenant: &Tenant,
    request: TenantRequest,
    registry: &Registry,
) -> Result<ResponseBody> {
    Ok(match request {
        TenantRequest::Mutate(mutation) => match tenant.execute_mutation(mutation)? {
            Admitted::Executed(text) => ResponseBody::Output { text },
            Admitted::Queued(position) => ResponseBody::Queued {
                position: position as u64,
            },
        },
        TenantRequest::ResetBudget => ResponseBody::BudgetReset {
            drained: tenant.reset_budget()? as u64,
        },
        TenantRequest::Query(view) => ResponseBody::Output {
            text: tenant.query(&view)?,
        },
        TenantRequest::Stats => ResponseBody::Stats(tenant.stats()),
        TenantRequest::Metrics => {
            // Process-global families + this tenant's per-instance engine
            // counters + the server's own request histograms, merged into
            // one image. The read lock pins the engine while its instance
            // registry is snapshotted.
            let engine_snapshot = tenant.read().engine().metrics_snapshot();
            ResponseBody::Metrics {
                snapshot: engine_snapshot.merge(registry.snapshot()),
            }
        }
    })
}

fn run_and_reply(job: Job, metrics: &Metrics) {
    let resp = match execute_job(&job.tenant, job.request, &metrics.registry) {
        Ok(body) => Response {
            session: job.session,
            body,
        },
        Err(e) => Response::error(job.session, &e),
    };
    metrics.answer(
        &job.reply,
        job.kind,
        Some(&job.latency),
        job.received,
        &resp,
    );
}

fn shard_worker(rx: &Receiver<Job>, metrics: &Metrics) {
    while let Ok(job) = rx.recv() {
        run_and_reply(job, metrics);
    }
}

fn read_worker(rx: &Arc<Mutex<Receiver<Job>>>, metrics: &Metrics) {
    loop {
        let job = {
            let guard = rx.lock().unwrap_or_else(|e| e.into_inner());
            guard.recv()
        };
        match job {
            Ok(job) => run_and_reply(job, metrics),
            Err(_) => break,
        }
    }
}

/// A client connection: the state it shares with its server plus the
/// session id most callers want managed for them.
#[derive(Debug)]
pub struct Client {
    server: Arc<Shared>,
    session: u64,
}

impl Client {
    /// The current session id (0 before [`Client::open_session`]).
    #[must_use]
    pub fn session(&self) -> u64 {
        self.session
    }

    /// Sends one request and blocks for its response.
    ///
    /// # Errors
    ///
    /// Wire errors, [`Error::Shutdown`] when the server stopped.
    pub fn call(&mut self, req: &Request) -> Result<Response> {
        let (reply_tx, reply_rx) = channel::<Vec<u8>>();
        self.server.serve(&encode_request_frame(req)?, reply_tx)?;
        // The response is one frame: check it and decode where it lies.
        let frame = reply_rx
            .recv()
            .map_err(|_| Error::shutdown("server stopped before responding"))?;
        decode_response(frame_payload(&frame)?)
    }

    /// Opens a session on `tenant` and remembers its id.
    ///
    /// # Errors
    ///
    /// Wire failures or a typed error response.
    pub fn open_session(&mut self, tenant: &str) -> Result<u64> {
        let resp = self.call(&Request {
            session: 0,
            body: RequestBody::OpenSession {
                tenant: tenant.to_owned(),
            },
        })?;
        match resp.body {
            ResponseBody::SessionOpened { session } => {
                self.session = session;
                Ok(session)
            }
            ResponseBody::Err { detail, .. } => Err(Error::Engine { detail }),
            other => Err(Error::protocol(format!(
                "unexpected response to OpenSession: {other:?}"
            ))),
        }
    }

    /// Issues a request body on the current session.
    ///
    /// # Errors
    ///
    /// Wire failures or a typed error response.
    pub fn request(&mut self, body: RequestBody) -> Result<ResponseBody> {
        let resp = self.call(&Request {
            session: self.session,
            body,
        })?;
        Ok(resp.body)
    }

    /// Fetches the merged metrics snapshot for the session's tenant:
    /// process-global families, the tenant engine's instance counters and
    /// the server's request latency histograms.
    ///
    /// # Errors
    ///
    /// Wire failures or a typed error response.
    pub fn metrics(&mut self) -> Result<MetricsSnapshot> {
        match self.request(RequestBody::Metrics)? {
            ResponseBody::Metrics { snapshot } => Ok(snapshot),
            ResponseBody::Err { detail, .. } => Err(Error::Engine { detail }),
            other => Err(Error::protocol(format!(
                "unexpected response to Metrics: {other:?}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::ErrorCode;
    use crate::wire::{encode_frame, FRAME_HEADER};

    #[test]
    fn a_refused_frame_is_answered_on_session_0_and_counted_once() {
        let root = std::env::temp_dir().join(format!("eve-server-refused-{}", std::process::id()));
        let server = Server::start(
            Arc::new(Warehouse::open(&root).unwrap()),
            ServerConfig::default(),
        );
        let good = encode_request_frame(&Request {
            session: 0,
            body: RequestBody::Stats,
        })
        .unwrap();
        let cut = &good[..good.len() - 1];
        let mut flipped = good.clone();
        flipped[FRAME_HEADER] ^= 0x01;
        let trailing = [&good[..], &[0]].concat();
        // An intact frame whose payload names no request variant.
        let garbage = encode_frame(&[0xFF; 9]).unwrap();
        let errors = server.metrics_registry().counter("server.errors");
        for (frame, what) in [
            (cut, "wire frame error"),
            (&flipped[..], "wire frame error"),
            (&trailing[..], "wire frame error"),
            (&garbage[..], "protocol error"),
        ] {
            let before = errors.get();
            let (tx, rx) = channel();
            server.shared.serve(frame, tx).unwrap();
            let resp = decode_response(frame_payload(&rx.recv().unwrap()).unwrap()).unwrap();
            assert_eq!(resp.session, 0);
            match resp.body {
                ResponseBody::Err { code, detail } => {
                    assert_eq!(code, ErrorCode::Malformed);
                    assert!(detail.starts_with(what), "{detail}");
                }
                other => panic!("{other:?}"),
            }
            assert_eq!(errors.get(), before + 1, "{what}");
        }
        server.shutdown();
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn tenant_shard_is_stable_and_in_range() {
        for shards in [1usize, 2, 7, 16] {
            for name in ["alpha", "beta", "tenant-00", "tenant-63"] {
                let s = tenant_shard(name, shards);
                assert!(s < shards);
                assert_eq!(s, tenant_shard(name, shards), "stable");
            }
        }
    }
}
