//! The multi-tenant warehouse server: many independent EVE warehouses —
//! one durable engine per tenant directory — multiplexed behind a
//! length-prefixed binary wire protocol, each request served on its
//! client's own thread, and per-tenant admission control.
//!
//! The layers, bottom up:
//!
//! - [`wire`] — the frame codec shared with the evolution log: every
//!   request and response travels as `len u32 LE ++ crc64 u64 LE ++
//!   payload`, the exact framing of `seg-*.evl` records, so a corrupted
//!   or truncated frame is detected the same way a torn log tail is.
//!   A client seals each request into one frame, and the server checks
//!   that frame where it lies, so thousands of in-process clients drive
//!   the same bytes a socket would carry.
//! - [`protocol`] — [`protocol::Request`] / [`protocol::Response`] frame
//!   payloads, encoded with the store's canonical [`eve_store::Codec`]
//!   (the same machinery that encodes log records and snapshots).
//! - [`warehouse`] — the tenant registry: each tenant is an
//!   [`eve_system::Shell`] over its own [`eve_system::DurableEngine`],
//!   plus a QC budget ([`warehouse::TenantBudget`]) and an admission
//!   policy that rejects or queues mutations once the budget is spent.
//!   A statement is parsed to an [`eve_system::Command`] before any lock
//!   is taken, an `Apply` batch is wrapped as one, and both run through
//!   `Shell::run` under the tenant's write lock, whose candidate count
//!   and the engine's I/O are what the budget meters. A statement that
//!   only reads parses to an [`eve_system::ReadCommand`]: it is not
//!   gated or charged, and `Shell::answer` answers it under the tenant's
//!   read lock, as it answers a `Query` request.
//! - [`server`] — session management and the server's entry: each
//!   client's own thread checks and decodes its request frame, answers
//!   session ops against a shared session table and runs the rest
//!   against its tenant: statements and batches under the tenant's write
//!   lock (per-tenant serialized writes), `Query`, `Stats` and `Metrics`
//!   requests under its read lock. No thread is started and no request
//!   crosses a channel.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod protocol;
pub mod server;
pub mod warehouse;
pub mod wire;

pub use protocol::{ErrorCode, Request, RequestBody, Response, ResponseBody};
pub use server::{Client, Server, ServerConfig};
pub use warehouse::{AdmissionPolicy, TenantBudget, TenantStats, Warehouse};
pub use wire::{FrameReader, MAX_FRAME};

use std::fmt;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors raised by the serving layer.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// A malformed wire frame: truncated header, declared length past the
    /// frame cap, or a CRC mismatch. The connection's stream can no
    /// longer be trusted.
    Frame {
        /// Explanation.
        detail: String,
    },
    /// A frame decoded, but its payload is not a valid protocol message.
    Protocol {
        /// Explanation.
        detail: String,
    },
    /// The named tenant does not exist (and the request does not create
    /// tenants).
    UnknownTenant {
        /// Tenant name as received.
        tenant: String,
    },
    /// The request referenced a session id that was never opened or was
    /// already closed.
    UnknownSession {
        /// Session id as received.
        session: u64,
    },
    /// Admission control refused the mutation: the tenant spent its
    /// candidate/IO budget and its policy is to reject.
    BudgetExceeded {
        /// Tenant name.
        tenant: String,
        /// What was exceeded, with the numbers.
        detail: String,
    },
    /// Admission control could not even queue the mutation: the tenant's
    /// deferred queue is at capacity.
    QueueFull {
        /// Tenant name.
        tenant: String,
        /// Configured queue capacity.
        capacity: usize,
    },
    /// The tenant's store directory is locked by another handle.
    Busy {
        /// Explanation, including the lock path.
        detail: String,
    },
    /// The tenant's durable host is poisoned (store behind the live
    /// engine); mutations fail closed until a checkpoint heals it.
    Poisoned {
        /// Explanation.
        detail: String,
    },
    /// The server is shutting down (or already gone).
    Shutdown {
        /// Explanation.
        detail: String,
    },
    /// An engine/store failure surfaced while executing the request.
    Engine {
        /// Explanation.
        detail: String,
    },
}

impl Error {
    pub(crate) fn frame(detail: impl Into<String>) -> Error {
        Error::Frame {
            detail: detail.into(),
        }
    }

    pub(crate) fn protocol(detail: impl Into<String>) -> Error {
        Error::Protocol {
            detail: detail.into(),
        }
    }

    pub(crate) fn shutdown(detail: impl Into<String>) -> Error {
        Error::Shutdown {
            detail: detail.into(),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Frame { detail } => write!(f, "wire frame error: {detail}"),
            Error::Protocol { detail } => write!(f, "protocol error: {detail}"),
            Error::UnknownTenant { tenant } => write!(f, "unknown tenant `{tenant}`"),
            Error::UnknownSession { session } => write!(f, "unknown session {session}"),
            Error::BudgetExceeded { tenant, detail } => {
                write!(f, "tenant `{tenant}` over budget: {detail}")
            }
            Error::QueueFull { tenant, capacity } => write!(
                f,
                "tenant `{tenant}` deferred queue full ({capacity} entries) — \
                 reset the budget or drain the queue"
            ),
            Error::Busy { detail } => write!(f, "{detail}"),
            Error::Poisoned { detail } => write!(f, "{detail}"),
            Error::Shutdown { detail } => write!(f, "server shut down: {detail}"),
            Error::Engine { detail } => write!(f, "{detail}"),
        }
    }
}

impl std::error::Error for Error {}

impl From<eve_system::Error> for Error {
    fn from(e: eve_system::Error) -> Error {
        match e {
            eve_system::Error::Busy { detail } => Error::Busy { detail },
            eve_system::Error::Poisoned { detail } => Error::Poisoned { detail },
            other => Error::Engine {
                detail: other.to_string(),
            },
        }
    }
}

impl From<eve_store::Error> for Error {
    fn from(e: eve_store::Error) -> Error {
        match e {
            eve_store::Error::Busy { .. } => Error::Busy {
                detail: e.to_string(),
            },
            other => Error::Protocol {
                detail: other.to_string(),
            },
        }
    }
}
