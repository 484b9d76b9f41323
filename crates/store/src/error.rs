//! Error type of the durable evolution store.

use std::fmt;
use std::io;
use std::path::PathBuf;

/// Any failure of the store: I/O, corruption, or a state/consistency
/// problem (e.g. time-travelling before the retained horizon).
#[derive(Debug)]
pub enum Error {
    /// An operating-system I/O failure, with the path it concerned.
    Io {
        /// The file or directory involved.
        path: PathBuf,
        /// The underlying error.
        source: io::Error,
    },
    /// A malformed or checksum-failing on-disk structure. Corruption in the
    /// *tail* of the active log segment is not an error (it is a torn write
    /// and gets truncated); corruption anywhere else is.
    Corrupt {
        /// Human-readable description.
        detail: String,
    },
    /// A usage/consistency problem (store already exists, unknown
    /// generation, horizon violations, …).
    State {
        /// Human-readable description.
        detail: String,
    },
    /// A record or snapshot payload too large for the frame format (the
    /// length prefix is a `u32`, so nothing ≥ 4 GiB can be framed). Raised
    /// on the *encode* side before any byte reaches disk — an oversized
    /// payload must surface as an error to the caller, never as a panic
    /// that aborts the process mid-append.
    TooLarge {
        /// The payload size that did not fit.
        size: usize,
        /// What was being framed.
        what: &'static str,
    },
    /// The store directory is already open by another handle: its advisory
    /// lock is held. Carries the directory and the lock file's path so
    /// callers (e.g. the shell) can say exactly *which* lock blocks them
    /// instead of surfacing a raw flock error.
    Busy {
        /// The store directory that was being opened.
        dir: PathBuf,
        /// The lock file another handle holds.
        lock: PathBuf,
    },
    /// A snapshot's engine configuration names a search policy the engine
    /// no longer runs. Its log was produced under that policy, and replay
    /// under the exhaustive search could adopt other rewritings, so the
    /// store is refused rather than skipped as damaged.
    RetiredPolicy {
        /// The retired policy, e.g. `beam (width 4)`.
        policy: String,
    },
    /// The group-commit log was shut down (dropped, or its leader died)
    /// while this record was still queued. The record was never
    /// acknowledged and is not durable; waiters receive this instead of
    /// blocking on a condvar that nobody will ever signal.
    Shutdown {
        /// What was being waited on.
        detail: String,
    },
}

impl Error {
    /// A corruption error with the given detail.
    #[must_use]
    pub fn corrupt(detail: impl Into<String>) -> Error {
        Error::Corrupt {
            detail: detail.into(),
        }
    }

    /// A state error with the given detail.
    #[must_use]
    pub fn state(detail: impl Into<String>) -> Error {
        Error::State {
            detail: detail.into(),
        }
    }

    /// Wraps an I/O error with the path it concerned.
    #[must_use]
    pub fn io(path: impl Into<PathBuf>, source: io::Error) -> Error {
        Error::Io {
            path: path.into(),
            source,
        }
    }

    /// An oversized-payload error for a frame of the given kind.
    #[must_use]
    pub(crate) fn too_large(size: usize, what: &'static str) -> Error {
        Error::TooLarge { size, what }
    }

    /// A store-busy error for a directory whose lock is already held.
    #[must_use]
    pub fn busy(dir: impl Into<PathBuf>, lock: impl Into<PathBuf>) -> Error {
        Error::Busy {
            dir: dir.into(),
            lock: lock.into(),
        }
    }

    /// A shutdown error with the given detail.
    #[must_use]
    pub fn shutdown(detail: impl Into<String>) -> Error {
        Error::Shutdown {
            detail: detail.into(),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Io { path, source } => write!(f, "store I/O on {}: {source}", path.display()),
            Error::Corrupt { detail } => write!(f, "store corruption: {detail}"),
            Error::State { detail } => write!(f, "store state: {detail}"),
            Error::TooLarge { size, what } => write!(
                f,
                "store frame overflow: {what} of {size} bytes exceeds the 4 GiB frame limit"
            ),
            Error::Busy { dir, lock } => write!(
                f,
                "store busy: {} is already open by another evolution-store handle \
                 (lock held at {}; close the other session or pick another directory)",
                dir.display(),
                lock.display()
            ),
            Error::RetiredPolicy { policy } => write!(
                f,
                "store configured for the retired `{policy}` search policy: its log \
                 cannot be replayed under the exhaustive search"
            ),
            Error::Shutdown { detail } => write!(f, "store shut down: {detail}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Store result alias.
pub type Result<T> = std::result::Result<T, Error>;
