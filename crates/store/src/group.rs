//! A pass-through kept for the benchmark's direct-append rung, which
//! names these two types. A commit is one frame, one write and one fsync
//! through [`EvolutionStore::append`]; ROADMAP item 2 deletes this shim
//! together with that rung.

use crate::error::Result;
use crate::log::LogRecord;
use crate::store::EvolutionStore;

/// No knob: every append is written and fsync'd on the caller's thread.
#[derive(Debug, Clone, Copy, Default)]
pub struct GroupCommitPolicy;

/// An [`EvolutionStore`] that appends durably and does nothing else.
#[derive(Debug)]
pub struct GroupCommitLog(EvolutionStore);

impl GroupCommitLog {
    /// Wraps `store`.
    #[must_use]
    pub fn new(store: EvolutionStore, _: GroupCommitPolicy) -> GroupCommitLog {
        GroupCommitLog(store)
    }

    /// [`EvolutionStore::append`].
    ///
    /// # Errors
    ///
    /// As [`EvolutionStore::append`].
    pub fn append_durable(&mut self, post_generation: u64, record: LogRecord) -> Result<u64> {
        self.0.append(post_generation, record)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eve_relational::tup;
    use eve_sync::EvolutionOp;

    #[test]
    fn single_threaded_appends_keep_exact_seq_order() {
        let dir = std::env::temp_dir().join(format!(
            "eve-store-group-tests-{}-single",
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let store = EvolutionStore::create(&dir).unwrap();
        let mut log = GroupCommitLog::new(store, GroupCommitPolicy);
        for k in 0..10 {
            let record = LogRecord::Batch(vec![EvolutionOp::insert("R", vec![tup![k]])]);
            assert_eq!(log.append_durable(0, record).unwrap(), k as u64);
        }
        drop(log);
        let (_, recovered) = EvolutionStore::open(&dir).unwrap();
        assert_eq!(recovered.tail.len(), 10);
        std::fs::remove_dir_all(&dir).ok();
    }
}
