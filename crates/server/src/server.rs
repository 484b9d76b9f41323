//! Session management and the worker topology.
//!
//! One **router** thread owns the session table and assigns session ids —
//! a deterministic counter, so a fixed request arrival order yields a
//! fixed id assignment. Mutations are dispatched by tenant hash onto a
//! fixed **shard**: every mutation for a tenant lands on the same
//! single-threaded worker, which is what makes per-tenant writes
//! serialized (and byte-identical to a serial application of the same
//! stream) while different tenants mutate in parallel. Reads go to a
//! separate **read pool** that takes the tenant shell's read lock, so
//! queries against one tenant run concurrently with each other and with
//! other tenants' writes.
//!
//! Clients talk to the router over the in-process duplex byte streams of
//! [`crate::wire`] — framed, CRC-checked request/response bytes, exactly
//! as a socket transport would carry them.

use std::collections::HashMap;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use eve_trace::{MetricsSnapshot, Registry};

use crate::protocol::{
    decode_request, decode_response, encode_request, encode_response_frame, Request, RequestBody,
    Response, ResponseBody,
};
use crate::warehouse::{Admitted, Mutation, Tenant, Warehouse};
use crate::wire::{duplex, WireEnd};
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

/// A unit of dispatched work: the decoded request plus where to send the
/// response bytes.
struct Job {
    session: u64,
    tenant: Arc<Tenant>,
    body: RequestBody,
    reply: Sender<Vec<u8>>,
    /// When the router decoded the request's frame — so the latency the
    /// server records includes queueing behind the shard/read pool, not
    /// just execution.
    received: Instant,
}

/// What a client connection sends to the router: raw frame bytes plus
/// the channel responses travel back on — or the server's own stop
/// signal. Clients hold sender clones, so the router cannot rely on
/// channel disconnection to learn the server is stopping.
enum Inbound {
    Frame {
        bytes: Vec<u8>,
        reply: Sender<Vec<u8>>,
    },
    Stop,
}

/// The running server. Dropping it (or calling [`Server::shutdown`])
/// stops the router and joins every worker.
#[derive(Debug)]
pub struct Server {
    warehouse: Arc<Warehouse>,
    metrics: Arc<Registry>,
    inbound_tx: Option<Sender<Inbound>>,
    router: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Starts the router, shard workers and read pool over `warehouse`.
    ///
    /// # Panics
    ///
    /// When the operating system refuses a thread.
    #[must_use]
    #[allow(
        clippy::expect_used,
        reason = "the signature returns no Result yet, so a refused thread spawn panics"
    )]
    pub fn start(warehouse: Arc<Warehouse>, config: ServerConfig) -> Server {
        let shards = config.shards.max(1);
        let readers = config.readers.max(1);
        let metrics = Arc::new(Registry::new());

        let mut shard_txs = Vec::with_capacity(shards);
        let mut workers = Vec::with_capacity(shards + readers);
        for i in 0..shards {
            let (tx, rx) = channel::<Job>();
            shard_txs.push(tx);
            let registry = Arc::clone(&metrics);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("eve-shard-{i}"))
                    .spawn(move || shard_worker(&rx, &registry))
                    .expect("spawn shard worker"),
            );
        }
        let (read_tx, read_rx) = channel::<Job>();
        let read_rx = Arc::new(Mutex::new(read_rx));
        for i in 0..readers {
            let rx = Arc::clone(&read_rx);
            let registry = Arc::clone(&metrics);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("eve-reader-{i}"))
                    .spawn(move || read_worker(&rx, &registry))
                    .expect("spawn read worker"),
            );
        }

        let (inbound_tx, inbound_rx) = channel::<Inbound>();
        let router_warehouse = Arc::clone(&warehouse);
        let router_metrics = Arc::clone(&metrics);
        let router = std::thread::Builder::new()
            .name("eve-router".into())
            .spawn(move || {
                route(
                    &router_warehouse,
                    &router_metrics,
                    &inbound_rx,
                    &shard_txs,
                    &read_tx,
                )
            })
            .expect("spawn router");

        Server {
            warehouse,
            metrics,
            inbound_tx: Some(inbound_tx),
            router: Some(router),
            workers,
        }
    }

    /// The server's own metrics registry: per-request-type and per-tenant
    /// latency histograms (`server.latency_us.*`,
    /// `server.tenant.<name>.latency_us`) plus request/error counters,
    /// recorded from frame-decode to response-ready on the worker that
    /// executed the request.
    #[must_use]
    pub fn metrics_registry(&self) -> &Arc<Registry> {
        &self.metrics
    }

    /// The warehouse this server fronts.
    #[must_use]
    pub fn warehouse(&self) -> &Arc<Warehouse> {
        &self.warehouse
    }

    /// Opens a new client connection (in-process duplex transport).
    ///
    /// # Errors
    ///
    /// [`Error::Shutdown`] when the server is stopping.
    pub fn connect(&self) -> Result<Client> {
        let tx = self
            .inbound_tx
            .as_ref()
            .ok_or_else(|| Error::shutdown("server is stopping"))?
            .clone();
        let (client_end, server_end) = duplex();
        Ok(Client {
            wire: client_end,
            server_wire: server_end,
            inbound: tx,
            session: 0,
        })
    }

    /// Stops the router and joins every worker. In-flight requests are
    /// drained; new sends fail with [`Error::Shutdown`].
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        // An explicit stop message ends the router loop (clients hold
        // sender clones, so mere disconnection never happens while any
        // client lives); the router then drops the shard/read senders,
        // ending every worker loop.
        if let Some(tx) = self.inbound_tx.take() {
            tx.send(Inbound::Stop).ok();
        }
        if let Some(router) = self.router.take() {
            router.join().ok();
        }
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

/// The request-type label used in `server.requests.<kind>` and
/// `server.latency_us.<kind>` metric names.
fn request_kind(body: &RequestBody) -> &'static str {
    match body {
        RequestBody::OpenSession { .. } => "open_session",
        RequestBody::Attach => "attach",
        RequestBody::CloseSession => "close_session",
        RequestBody::Statement { .. } => "statement",
        RequestBody::Apply { .. } => "apply",
        RequestBody::Query { .. } => "query",
        RequestBody::Stats => "stats",
        RequestBody::ResetBudget => "reset_budget",
        RequestBody::Metrics => "metrics",
    }
}

/// Records one served request: the request counter for its kind, the
/// kind's latency histogram, the tenant's latency histogram (when the
/// request resolved to a tenant) and the error counter when the response
/// was [`ResponseBody::Err`].
fn record_request(
    registry: &Registry,
    kind: &str,
    tenant: Option<&str>,
    received: Instant,
    is_err: bool,
) {
    let us = u64::try_from(received.elapsed().as_micros()).unwrap_or(u64::MAX);
    registry.counter(&format!("server.requests.{kind}")).inc();
    registry
        .histogram(&format!("server.latency_us.{kind}"))
        .record(us);
    if let Some(tenant) = tenant {
        registry
            .histogram(&format!("server.tenant.{tenant}.latency_us"))
            .record(us);
    }
    if is_err {
        registry.counter("server.errors").inc();
    }
}

#[allow(clippy::too_many_lines)]
fn route(
    warehouse: &Arc<Warehouse>,
    metrics: &Arc<Registry>,
    inbound: &Receiver<Inbound>,
    shard_txs: &[Sender<Job>],
    read_tx: &Sender<Job>,
) {
    let mut sessions: HashMap<u64, String> = HashMap::new();
    let mut next_session: u64 = 1;

    while let Ok(msg) = inbound.recv() {
        let Inbound::Frame { bytes, reply } = msg else {
            break;
        };
        // Each inbound message carries whole frames (the client's duplex
        // chunking was reassembled by its WireEnd peer buffer); still run
        // them through the frame reader so length and CRC are enforced at
        // the trust boundary.
        let frames = match crate::wire::FrameReader::decode_all(&bytes) {
            Ok(frames) => frames,
            Err(e) => {
                send_response(&reply, &Response::error(0, &e));
                continue;
            }
        };
        for frame in frames {
            let received = Instant::now();
            let req = match decode_request(&frame) {
                Ok(req) => req,
                Err(e) => {
                    send_response(&reply, &Response::error(0, &e));
                    metrics.counter("server.errors").inc();
                    continue;
                }
            };
            let kind = request_kind(&req.body);
            match req.body {
                RequestBody::OpenSession { tenant } => {
                    match warehouse.tenant(&tenant) {
                        Ok(_) => {
                            let session = next_session;
                            next_session += 1;
                            record_request(metrics, kind, Some(&tenant), received, false);
                            sessions.insert(session, tenant);
                            send_response(
                                &reply,
                                &Response {
                                    session,
                                    body: ResponseBody::SessionOpened { session },
                                },
                            );
                        }
                        Err(e) => {
                            record_request(metrics, kind, Some(&tenant), received, true);
                            send_response(&reply, &Response::error(0, &e));
                        }
                    }
                    continue;
                }
                RequestBody::Attach => {
                    let resp = match sessions.get(&req.session) {
                        Some(tenant) => Response {
                            session: req.session,
                            body: ResponseBody::Attached {
                                tenant: tenant.clone(),
                            },
                        },
                        None => Response::error(
                            req.session,
                            &Error::UnknownSession {
                                session: req.session,
                            },
                        ),
                    };
                    record_request(
                        metrics,
                        kind,
                        sessions.get(&req.session).map(String::as_str),
                        received,
                        !sessions.contains_key(&req.session),
                    );
                    send_response(&reply, &resp);
                    continue;
                }
                RequestBody::CloseSession => {
                    let closed = sessions.remove(&req.session);
                    let resp = if closed.is_some() {
                        Response {
                            session: req.session,
                            body: ResponseBody::Closed,
                        }
                    } else {
                        Response::error(
                            req.session,
                            &Error::UnknownSession {
                                session: req.session,
                            },
                        )
                    };
                    record_request(metrics, kind, closed.as_deref(), received, closed.is_none());
                    send_response(&reply, &resp);
                    continue;
                }
                body @ (RequestBody::Statement { .. }
                | RequestBody::Apply { .. }
                | RequestBody::Query { .. }
                | RequestBody::Stats
                | RequestBody::ResetBudget
                | RequestBody::Metrics) => {
                    let Some(tenant_name) = sessions.get(&req.session) else {
                        record_request(metrics, kind, None, received, true);
                        send_response(
                            &reply,
                            &Response::error(
                                req.session,
                                &Error::UnknownSession {
                                    session: req.session,
                                },
                            ),
                        );
                        continue;
                    };
                    let tenant = match warehouse.existing(tenant_name) {
                        Ok(t) => t,
                        Err(e) => {
                            record_request(metrics, kind, Some(tenant_name), received, true);
                            send_response(&reply, &Response::error(req.session, &e));
                            continue;
                        }
                    };
                    let is_read = matches!(
                        body,
                        RequestBody::Query { .. } | RequestBody::Stats | RequestBody::Metrics
                    );
                    let target = if is_read {
                        read_tx
                    } else {
                        &shard_txs[tenant_shard(tenant_name, shard_txs.len())]
                    };
                    let job = Job {
                        session: req.session,
                        tenant,
                        body,
                        reply: reply.clone(),
                        received,
                    };
                    if let Err(e) = target.send(job) {
                        send_response(
                            &e.0.reply.clone(),
                            &Response::error(e.0.session, &Error::shutdown("worker pool stopped")),
                        );
                    }
                }
            }
        }
    }
    // Router exit drops shard_txs/read_tx clones it owns; the original
    // senders live in this stack frame and die here, ending the workers.
}

fn execute_job(tenant: &Tenant, body: RequestBody, registry: &Registry) -> Result<ResponseBody> {
    let admitted_to_body = |admitted| match admitted {
        Admitted::Executed(text) => ResponseBody::Output { text },
        Admitted::Queued(position) => ResponseBody::Queued {
            position: position as u64,
        },
    };
    match body {
        RequestBody::Statement { esql } => Ok(admitted_to_body(
            tenant.execute_mutation(Mutation::Statement(esql))?,
        )),
        RequestBody::Apply { ops } => Ok(admitted_to_body(
            tenant.execute_mutation(Mutation::Apply(ops))?,
        )),
        RequestBody::ResetBudget => {
            let drained = tenant.reset_budget()?;
            Ok(ResponseBody::BudgetReset {
                drained: drained as u64,
            })
        }
        RequestBody::Query { view } => {
            let text = tenant.query(&view)?;
            Ok(ResponseBody::Output { text })
        }
        RequestBody::Stats => Ok(ResponseBody::Stats(tenant.stats())),
        RequestBody::Metrics => {
            // Process-global families + this tenant's per-instance engine
            // counters + the server's own request histograms, merged into
            // one image. The read lock pins the engine while its instance
            // registry is snapshotted.
            let engine_snapshot = tenant.read().engine().metrics_snapshot();
            Ok(ResponseBody::Metrics {
                snapshot: engine_snapshot.merge(registry.snapshot()),
            })
        }
        RequestBody::OpenSession { .. } | RequestBody::Attach | RequestBody::CloseSession => {
            Err(Error::protocol("session ops are handled by the router"))
        }
    }
}

fn run_and_reply(job: Job, registry: &Registry) {
    let Job {
        session,
        tenant,
        body,
        reply,
        received,
    } = job;
    let kind = request_kind(&body);
    let resp = match execute_job(&tenant, body, registry) {
        Ok(body) => Response { session, body },
        Err(e) => Response::error(session, &e),
    };
    record_request(
        registry,
        kind,
        Some(tenant.name()),
        received,
        matches!(resp.body, ResponseBody::Err { .. }),
    );
    send_response(&reply, &resp);
}

fn shard_worker(rx: &Receiver<Job>, registry: &Registry) {
    while let Ok(job) = rx.recv() {
        run_and_reply(job, registry);
    }
}

fn read_worker(rx: &Arc<Mutex<Receiver<Job>>>, registry: &Registry) {
    loop {
        let job = {
            let guard = rx.lock().unwrap_or_else(|e| e.into_inner());
            guard.recv()
        };
        match job {
            Ok(job) => run_and_reply(job, registry),
            Err(_) => break,
        }
    }
}

/// A client connection: a duplex wire to the router plus the session id
/// state most callers want managed for them.
#[derive(Debug)]
pub struct Client {
    wire: WireEnd,
    /// The server-side end of the duplex pair: the client forwards the
    /// reassembled frame bytes it produces to the router. Holding it here
    /// keeps the pair's lifetime tied to the client.
    server_wire: WireEnd,
    inbound: Sender<Inbound>,
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
        // Client → wire: the request travels as split frame chunks and is
        // reassembled by the server-side wire end, exercising the real
        // framing path in both directions.
        self.wire.send_frame(&encode_request(req))?;
        let frame = self.server_wire.recv_frame()?;
        let rewrapped = crate::wire::encode_frame(&frame)?;
        let (reply_tx, reply_rx) = channel::<Vec<u8>>();
        self.inbound
            .send(Inbound::Frame {
                bytes: rewrapped,
                reply: reply_tx,
            })
            .map_err(|_| Error::shutdown("server is stopping"))?;
        // The response is one frame: check it and decode where it lies.
        let resp_frame = reply_rx
            .recv()
            .map_err(|_| Error::shutdown("server stopped before responding"))?;
        decode_response(crate::wire::frame_payload(&resp_frame)?)
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
