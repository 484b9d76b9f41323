//! Session management and the server's entry.
//!
//! A client's own thread is the server and runs every request to its
//! response. It checks the request frame's length cap and CRC where the
//! frame lies, decodes it, and answers a session op against the session
//! table, whose ids are a deterministic counter, so a fixed request order
//! yields a fixed id assignment. A tenant request runs against its
//! tenant right there: the tenant's shell lock is what orders it against
//! other clients' requests. A mutation holds the write lock from its
//! admission check to its charge, so one tenant's mutations apply one at
//! a time, in the order they take the lock, and different tenants mutate
//! in parallel. Reads take the read lock, so queries against one tenant
//! run concurrently with each other and with other tenants' writes.
//!
//! A request and its response each travel as one [`crate::wire`] frame,
//! framed and CRC-checked exactly as a socket transport would carry them.
//! A `Query` answer is written under the tenant's read lock straight
//! into its response frame ([`crate::protocol::OutputFrame`]), which is
//! sealed once the lock is released, and [`Client::call`] takes that
//! frame's buffer as the answer's text
//! ([`crate::protocol::decode_response_frame`]): the answer is copied
//! once, from the relation's kept text into the frame.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, PoisonError, RwLock};
use std::time::Instant;

use eve_trace::{Counter, Histogram, MetricsSnapshot, Registry};

use crate::protocol::{
    decode_request, decode_response_frame, encode_request_frame, encode_response_frame,
    OutputFrame, Request, RequestBody, Response, ResponseBody,
};
use crate::warehouse::{Admitted, Mutation, Tenant, Warehouse};
use crate::wire::frame_payload;
use crate::{Error, Result};

/// Nothing reads it: a request runs on its client's thread, so the server
/// has no workers to size. It stays only because the benchmark reads
/// `ServerConfig::default().shards` (`benchmark/src/workloads.rs`).
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Unused; 4 by default.
    pub shards: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig { shards: 4 }
    }
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

    /// Records one served request: the request counter for its kind, the
    /// kind's latency histogram, the tenant's latency histogram (when the
    /// request resolved to a tenant) and the error counter when the
    /// response is an [`ResponseBody::Err`].
    fn record(&self, kind: Kind, tenant: Option<&Histogram>, received: Instant, failed: bool) {
        let us = u64::try_from(received.elapsed().as_micros()).unwrap_or(u64::MAX);
        self.requests[kind as usize].inc();
        self.latency[kind as usize].record(us);
        if let Some(tenant) = tenant {
            tenant.record(us);
        }
        if failed {
            self.errors.inc();
        }
    }
}

/// What a server and its clients share. A client that outlives its
/// server keeps only this, and after shutdown it holds no warehouse, so
/// it pins no tenant.
#[derive(Debug)]
struct Shared {
    metrics: Metrics,
    sessions: RwLock<Sessions>,
    /// Taken by shutdown; every call holds it for read until its response
    /// is built.
    warehouse: RwLock<Option<Arc<Warehouse>>>,
}

/// The running server. Dropping it (or calling [`Server::shutdown`])
/// waits for the calls in flight; later calls fail with
/// [`Error::Shutdown`].
#[derive(Debug)]
pub struct Server {
    warehouse: Arc<Warehouse>,
    shared: Arc<Shared>,
}

impl Server {
    /// Serves `warehouse` to the clients [`Server::connect`] opens. It
    /// starts no thread; the [`ServerConfig`] is unused.
    #[must_use]
    pub fn start(warehouse: Arc<Warehouse>, _config: ServerConfig) -> Server {
        let shared = Arc::new(Shared {
            metrics: Metrics::new(),
            sessions: RwLock::default(),
            warehouse: RwLock::new(Some(Arc::clone(&warehouse))),
        });
        Server { warehouse, shared }
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

    /// Waits for the calls in flight to answer; later calls fail with
    /// [`Error::Shutdown`].
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        // Every call holds the read side until its response is built, so
        // the write side waits for them. Taking the warehouse out of the
        // shared state unpins every tenant, however many clients still
        // hold that state.
        drop(
            self.shared
                .warehouse
                .write()
                .unwrap_or_else(PoisonError::into_inner)
                .take(),
        );
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
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
    /// decodes the request and runs it to its response frame. Every
    /// answer, including a refused frame's, is a response frame.
    ///
    /// # Errors
    ///
    /// [`Error::Shutdown`] once the server has shut down; a response too
    /// large for one frame.
    fn serve(&self, frame: &[u8]) -> Result<Vec<u8>> {
        let received = Instant::now();
        let warehouse = self
            .warehouse
            .read()
            .unwrap_or_else(PoisonError::into_inner);
        let warehouse = warehouse
            .as_ref()
            .ok_or_else(|| Error::shutdown("server is stopping"))?;
        let req = match frame_payload(frame).and_then(decode_request) {
            Ok(req) => req,
            Err(e) => {
                self.metrics.errors.inc();
                return encode_response_frame(&Response::error(0, &e));
            }
        };
        let (session, kind) = (req.session, Kind::of(&req.body));
        let unknown = || Response::error(session, &Error::UnknownSession { session });
        let (latency, resp) = match req.body {
            RequestBody::OpenSession { tenant } => {
                let name = format!("server.tenant.{tenant}.latency_us");
                let latency = self.metrics.registry.histogram(&name);
                let resp = match warehouse.tenant(&tenant) {
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
                (Some(latency), resp)
            }
            RequestBody::Attach => match self.sessions().tenants.get(&session) {
                Some(open) => (
                    Some(Arc::clone(&open.latency)),
                    Response {
                        session,
                        body: ResponseBody::Attached {
                            tenant: open.tenant.clone(),
                        },
                    },
                ),
                None => (None, unknown()),
            },
            RequestBody::CloseSession => match self.sessions_mut().tenants.remove(&session) {
                Some(closed) => (
                    Some(closed.latency),
                    Response {
                        session,
                        body: ResponseBody::Closed,
                    },
                ),
                None => (None, unknown()),
            },
            RequestBody::Statement { esql } => self.on_tenant(warehouse, session, |t| {
                t.execute_mutation(Mutation::Statement(esql)).map(admitted)
            }),
            RequestBody::Apply { ops } => self.on_tenant(warehouse, session, |t| {
                t.execute_mutation(Mutation::Apply(ops)).map(admitted)
            }),
            RequestBody::ResetBudget => self.on_tenant(warehouse, session, |t| {
                Ok(ResponseBody::BudgetReset {
                    drained: t.reset_budget()? as u64,
                })
            }),
            RequestBody::Query { view } => {
                let (latency, frame) = self.run_on_tenant(warehouse, session, |t| {
                    let mut frame = OutputFrame::new(session, 0);
                    t.write_query(&view, frame.text())?;
                    Ok(frame)
                });
                match frame {
                    Ok(frame) => {
                        self.metrics
                            .record(kind, latency.as_deref(), received, false);
                        // The tenant's read lock is released: seal here.
                        return frame.seal();
                    }
                    Err(e) => (latency, Response::error(session, &e)),
                }
            }
            RequestBody::Stats => {
                self.on_tenant(warehouse, session, |t| t.stats().map(ResponseBody::Stats))
            }
            RequestBody::Metrics => self.on_tenant(warehouse, session, |t| {
                // Process-global families + this tenant's per-instance
                // engine counters + the server's own request histograms,
                // merged into one image. The read lock pins the engine
                // while its instance registry is snapshotted.
                let engine = t.read_shell()?.engine().metrics_snapshot();
                Ok(ResponseBody::Metrics {
                    snapshot: engine.merge(self.metrics.registry.snapshot()),
                })
            }),
        };
        let failed = matches!(resp.body, ResponseBody::Err { .. });
        self.metrics
            .record(kind, latency.as_deref(), received, failed);
        encode_response_frame(&resp)
    }

    /// Runs `run` against `session`'s tenant and answers with the
    /// session's latency histogram and `run`'s body.
    fn on_tenant(
        &self,
        warehouse: &Warehouse,
        session: u64,
        run: impl FnOnce(&Tenant) -> Result<ResponseBody>,
    ) -> (Option<Arc<Histogram>>, Response) {
        let (latency, body) = self.run_on_tenant(warehouse, session, run);
        let resp = match body {
            Ok(body) => Response { session, body },
            Err(e) => Response::error(session, &e),
        };
        (latency, resp)
    }

    /// Runs `run` against `session`'s tenant and returns the session's
    /// latency histogram (none for an unknown session) with `run`'s
    /// result. A panic inside `run` is returned as an `Err`, so the
    /// client's thread never unwinds; one under the tenant's write lock
    /// poisons that tenant, which then refuses every request
    /// ([`Error::Poisoned`]) while other tenants answer as before.
    fn run_on_tenant<T>(
        &self,
        warehouse: &Warehouse,
        session: u64,
        run: impl FnOnce(&Tenant) -> Result<T>,
    ) -> (Option<Arc<Histogram>>, Result<T>) {
        // The session table is not held while the request runs, so a long
        // request does not hold up sessions opening and closing.
        let (tenant, latency) = {
            let sessions = self.sessions();
            let Some(open) = sessions.tenants.get(&session) else {
                return (None, Err(Error::UnknownSession { session }));
            };
            (warehouse.existing(&open.tenant), Arc::clone(&open.latency))
        };
        let result = tenant.and_then(|tenant| {
            catch_unwind(AssertUnwindSafe(|| run(&tenant))).unwrap_or_else(|_| {
                Err(Error::Engine {
                    detail: format!("tenant `{}`: the request panicked", tenant.name()),
                })
            })
        });
        (Some(latency), result)
    }
}

/// A mutation's answer: its output, or where it was parked.
fn admitted(admitted: Admitted) -> ResponseBody {
    match admitted {
        Admitted::Executed(text) => ResponseBody::Output { text },
        Admitted::Queued(position) => ResponseBody::Queued {
            position: position as u64,
        },
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
        let frame = self.server.serve(&encode_request_frame(req)?)?;
        // The response is one frame: check it where it lies and decode
        // it, an `Output` into its text in the frame's own buffer.
        decode_response_frame(frame)
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
    use crate::protocol::{decode_response, ErrorCode};
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
            let resp = server.shared.serve(frame).unwrap();
            let resp = decode_response(frame_payload(&resp).unwrap()).unwrap();
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
    fn a_panic_in_a_request_is_answered_and_the_tenant_serves_on() {
        let root = std::env::temp_dir().join(format!("eve-server-panic-{}", std::process::id()));
        let server = Server::start(
            Arc::new(Warehouse::open(&root).unwrap()),
            ServerConfig::default(),
        );
        let mut client = server.connect().unwrap();
        let session = client.open_session("fragile").unwrap();
        let shared = &server.shared;
        let warehouse = server.warehouse();
        let (latency, resp) = shared.on_tenant(warehouse, session, |_| panic!("a request fails"));
        assert!(latency.is_some());
        match resp.body {
            ResponseBody::Err { code, detail } => {
                assert_eq!(code, ErrorCode::Engine);
                assert!(detail.contains("panicked"), "{detail}");
            }
            other => panic!("{other:?}"),
        }
        // No write lock was held, so the tenant is not poisoned.
        match client.request(RequestBody::Stats).unwrap() {
            ResponseBody::Stats(_) => {}
            other => panic!("{other:?}"),
        }
        server.shutdown();
        std::fs::remove_dir_all(&root).ok();
    }
}
