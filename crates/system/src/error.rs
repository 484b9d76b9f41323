//! Runtime errors.

use std::fmt;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors raised by the EVE runtime.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// Relational-layer failure.
    Relational(eve_relational::Error),
    /// MKB failure.
    Misd(eve_misd::Error),
    /// E-SQL parse failure.
    Parse(eve_esql::ParseError),
    /// View validation failure.
    Validation(String),
    /// Synchronization failure.
    Sync(String),
    /// QC-Model failure.
    Qc(String),
    /// Runtime state problem (missing view/site, inconsistent extent, …).
    State {
        /// Explanation.
        detail: String,
    },
    /// A durable store is busy: its directory lock is held by another
    /// handle. Kept distinct from [`Error::State`] so front-ends (shell,
    /// server) can give the "close the other session" hint — and name the
    /// lock file — instead of surfacing a raw flock failure.
    Busy {
        /// Explanation, including the lock path.
        detail: String,
    },
    /// A durable store was written under a search policy the engine no
    /// longer runs (best-first or beam). Its log cannot be replayed under
    /// the exhaustive search without possibly adopting other rewritings,
    /// so [`DurableEngine::open`](crate::DurableEngine::open) refuses it.
    RetiredPolicy {
        /// The retired policy, e.g. `beam (width 4)`.
        policy: String,
    },
    /// The durable host is poisoned: a failed mutation could not be
    /// re-anchored with a snapshot, so the on-disk store is behind the
    /// live engine. All further durable mutations fail closed with this
    /// error until an explicit checkpoint re-anchors durability.
    Poisoned {
        /// Explanation of the double failure that poisoned the host.
        detail: String,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Relational(e) => write!(f, "relational error: {e}"),
            Error::Misd(e) => write!(f, "MKB error: {e}"),
            Error::Parse(e) => write!(f, "E-SQL parse error: {e}"),
            Error::Validation(m) => write!(f, "view validation error: {m}"),
            Error::Sync(m) => write!(f, "synchronization error: {m}"),
            Error::Qc(m) => write!(f, "QC-Model error: {m}"),
            Error::State { detail } => write!(f, "engine state error: {detail}"),
            Error::Busy { detail } => write!(f, "{detail}"),
            Error::RetiredPolicy { policy } => write!(
                f,
                "store configured for the retired `{policy}` search policy: its log \
                 cannot be replayed under the exhaustive search"
            ),
            Error::Poisoned { detail } => write!(
                f,
                "durable host poisoned: {detail} — run `checkpoint` to re-anchor \
                 the store before further durable mutations"
            ),
        }
    }
}

impl std::error::Error for Error {}

impl From<eve_relational::Error> for Error {
    fn from(e: eve_relational::Error) -> Self {
        Error::Relational(e)
    }
}

impl From<eve_misd::Error> for Error {
    fn from(e: eve_misd::Error) -> Self {
        Error::Misd(e)
    }
}

impl From<eve_esql::ParseError> for Error {
    fn from(e: eve_esql::ParseError) -> Self {
        Error::Parse(e)
    }
}

impl From<eve_sync::synchronizer::SyncError> for Error {
    fn from(e: eve_sync::synchronizer::SyncError) -> Self {
        Error::Sync(e.to_string())
    }
}

impl From<eve_qc::Error> for Error {
    fn from(e: eve_qc::Error) -> Self {
        Error::Qc(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: Error = eve_misd::Error::UnknownRelation {
            relation: "R".into(),
        }
        .into();
        assert!(e.to_string().contains("unknown relation"));
        let e: Error = eve_relational::Error::NotComparable.into();
        assert!(e.to_string().contains("not comparable"));
        let e = Error::State {
            detail: "no such view".into(),
        };
        assert_eq!(e.to_string(), "engine state error: no such view");
    }
}
