//! Filesystem plumbing for the store's durability guarantees: directory
//! fsyncs (so file creation, rotation and the atomic snapshot rename
//! survive power loss), the positioned write log frames land with, and
//! the single-opener lock file that prevents two processes — or two
//! handles in one process — from interleaving appends on the same store
//! directory.

use std::fs::{File, OpenOptions};
use std::path::{Path, PathBuf};

use crate::error::{Error, Result};

/// Fsyncs a directory so directory-level mutations made inside it (file
/// creation, rename, removal) are themselves durable. A data fsync on a
/// freshly created file does not persist the *directory entry* pointing
/// at it — a crash can leave the fsync'd bytes unreachable. Every segment
/// creation, rotation and snapshot rename must be followed by this call.
///
/// # Errors
///
/// I/O failures opening or syncing the directory.
#[cfg(unix)]
pub(crate) fn sync_dir(dir: &Path) -> Result<()> {
    let d = File::open(dir).map_err(|e| Error::io(dir, e))?;
    d.sync_all().map_err(|e| Error::io(dir, e))
}

/// Non-Unix fallback: directory handles cannot generally be opened for
/// syncing; the rename/creation durability window is accepted there.
#[cfg(not(unix))]
pub(crate) fn sync_dir(_dir: &Path) -> Result<()> {
    Ok(())
}

/// Writes all of `bytes` at byte `offset` of `file` (one `pwrite` on
/// Unix). The file must not be open for appending: with `O_APPEND`,
/// Linux's `pwrite` ignores the offset and writes at the end.
#[cfg(unix)]
pub(crate) fn write_all_at(file: &File, bytes: &[u8], offset: u64) -> std::io::Result<()> {
    std::os::unix::fs::FileExt::write_all_at(file, bytes, offset)
}

/// Non-Unix fallback: a seek, then a write.
#[cfg(not(unix))]
pub(crate) fn write_all_at(mut file: &File, bytes: &[u8], offset: u64) -> std::io::Result<()> {
    use std::io::{Seek, SeekFrom, Write};
    file.seek(SeekFrom::Start(offset))?;
    file.write_all(bytes)
}

#[cfg(unix)]
mod sys {
    use std::fs::File;
    use std::os::unix::io::AsRawFd;

    // `std` exposes no advisory file locking and the build environment has
    // no `libc` crate, so declare the one syscall wrapper we need. `flock`
    // is per open-file-description: the lock dies with the process (or the
    // descriptor), which is exactly the crash semantics the store needs —
    // a killed process must not leave a stale lock behind.
    extern "C" {
        fn flock(fd: i32, operation: i32) -> i32;
    }

    const LOCK_EX: i32 = 2;
    const LOCK_NB: i32 = 4;

    pub(super) fn try_lock_exclusive(file: &File) -> std::io::Result<()> {
        // SAFETY: `fd` is a valid open descriptor for the lifetime of the
        // call; `flock` does not touch memory.
        let rc = unsafe { flock(file.as_raw_fd(), LOCK_EX | LOCK_NB) };
        if rc == 0 {
            Ok(())
        } else {
            Err(std::io::Error::last_os_error())
        }
    }
}

/// An exclusive advisory lock on a store directory, held for the lifetime
/// of an [`crate::EvolutionStore`]. Acquiring it a second time — from
/// another process or another handle in the same process — fails
/// immediately instead of letting two writers interleave segment appends
/// and corrupt the tail. Released automatically when dropped or when the
/// owning process dies, so crash-recovery reopens are never blocked.
#[derive(Debug)]
pub(crate) struct DirLock {
    path: PathBuf,
    _file: File,
}

impl DirLock {
    /// The lock file's name inside the store directory (not a store file:
    /// recovery listings only consider `.evl`/`.evs`/`.evd`).
    pub(crate) const FILE_NAME: &'static str = "store.lock";

    /// Acquires the exclusive store lock, creating the lock file if absent.
    ///
    /// # Errors
    ///
    /// I/O failures, or [`Error::Busy`] — naming both the directory and
    /// the lock file — when another store handle already holds the lock.
    pub(crate) fn acquire(dir: &Path) -> Result<DirLock> {
        let path = dir.join(Self::FILE_NAME);
        let file = OpenOptions::new()
            .create(true)
            .truncate(false)
            .read(true)
            .write(true)
            .open(&path)
            .map_err(|e| Error::io(&path, e))?;
        #[cfg(unix)]
        sys::try_lock_exclusive(&file).map_err(|e| {
            if e.kind() == std::io::ErrorKind::WouldBlock {
                Error::busy(dir, &path)
            } else {
                Error::io(&path, e)
            }
        })?;
        Ok(DirLock { path, _file: file })
    }

    /// The lock file path (diagnostics only).
    #[allow(dead_code)]
    pub(crate) fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "eve-store-fsutil-tests-{}-{name}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn sync_dir_missing_directory_is_an_error_not_a_silent_ok() {
        // Pins the satellite bugfix: a failed directory fsync must
        // propagate — `.ok()`-swallowing it silently voids the
        // atomic-snapshot guarantee.
        let missing = std::env::temp_dir().join(format!(
            "eve-store-fsutil-missing-{}-does-not-exist",
            std::process::id()
        ));
        assert!(sync_dir(&missing).is_err());
    }

    #[test]
    fn second_lock_acquisition_fails_until_first_is_dropped() {
        let dir = temp_dir("lock");
        let first = DirLock::acquire(&dir).unwrap();
        let err = DirLock::acquire(&dir).unwrap_err();
        assert!(err.to_string().contains("already open"), "{err}");
        // The failure is typed — not a raw flock error — and names the
        // lock file another handle holds.
        match &err {
            Error::Busy { lock, .. } => {
                assert!(lock.ends_with(DirLock::FILE_NAME), "{}", lock.display());
            }
            other => panic!("expected Error::Busy, got {other:?}"),
        }
        assert!(err.to_string().contains(DirLock::FILE_NAME), "{err}");
        drop(first);
        let _second = DirLock::acquire(&dir).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}
