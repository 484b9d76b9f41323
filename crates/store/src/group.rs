//! The group-commit writer: a bounded append queue in front of an
//! [`EvolutionStore`], amortizing one fsync over many records.
//!
//! ## Protocol (leader/follower)
//!
//! Callers [`GroupCommitLog::enqueue`] a record — framing happens off-lock,
//! since a frame does not depend on its sequence number — and block on the
//! returned [`CommitTicket`]. The first waiter to find the queue unclaimed
//! becomes the **leader**: it drains up to `max_batch` entries at once,
//! writes them as one contiguous buffer with a single fsync
//! ([`EvolutionStore::append_encoded_batch`]), then distributes sequence
//! numbers (or the shared error) to every follower's ticket and wakes
//! them. Followers that enqueued while a flush was in flight simply ride
//! the *next* leader's batch — under fsync pressure the queue naturally
//! fills while the device is busy, which is where the 10–50× amortization
//! comes from without the leader ever waiting for more arrivals.
//!
//! ## Crash semantics
//!
//! Durability acknowledgement moves from "append returned" to "ticket
//! resolved": a record is durable iff [`CommitTicket::wait`] returned
//! `Ok`. A crash between the buffer write and the fsync tears the batch —
//! recovery truncates at the last intact *frame*, which is always at or
//! after the last acknowledged batch boundary, because no ticket in a
//! batch resolves before that batch's fsync returns. Records still queued
//! (followers whose batch never flushed) simply never existed on disk.
//!
//! ## Shutdown semantics
//!
//! No ticket may wait forever on a condvar nobody will signal. Dropping
//! the log (or calling [`GroupCommitLog::shutdown`]) resolves every still-
//! queued slot with a typed [`Error::Shutdown`] — queued records stay
//! unacknowledged and are *not* flushed, preserving the exactly-the-acked-
//! prefix crash contract. A leader that panics mid-flush likewise resolves
//! its claimed batch with [`Error::Shutdown`] and releases the flush claim
//! on unwind, so followers never spin behind a dead leader.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use crate::error::{Error, Result};
use crate::log::{frame, LogRecord, SealedRecord};
use crate::store::EvolutionStore;

/// Locks a mutex, ignoring poisoning: a panicking appender must not brick
/// every other appender — the store's own torn-tail recovery already
/// handles half-written state.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Flush policy of the group-commit writer.
#[derive(Debug, Clone, Copy)]
pub struct GroupCommitPolicy {
    /// Most records a single flush may cover (at least one). Enqueueing
    /// past this bound drives a flush inline, so the queue never grows
    /// without bound.
    pub max_batch: usize,
}

impl Default for GroupCommitPolicy {
    fn default() -> GroupCommitPolicy {
        GroupCommitPolicy { max_batch: 512 }
    }
}

/// Completion state of one enqueued record, shared between the enqueuer's
/// ticket and the leader that flushes it. Per-ticket condvars avoid a
/// thundering herd on every flush.
#[derive(Debug, Default)]
struct Slot {
    state: Mutex<Option<std::result::Result<u64, Arc<Error>>>>,
    cv: Condvar,
}

/// The pending queue: framed bytes plus each record's completion slot.
#[derive(Debug, Default)]
struct Queue {
    pending: VecDeque<(Vec<u8>, Arc<Slot>)>,
    /// Whether a leader currently holds the flush (the store write happens
    /// outside the queue lock, so enqueues stay concurrent with fsync).
    flushing: bool,
    /// Once set, no new record is accepted and pending waiters have been
    /// (or are being) resolved with [`Error::Shutdown`].
    shutdown: bool,
}

/// Resolves a slot with the shared error, unless a leader already served
/// it, and wakes its waiter.
fn resolve_with_error(slot: &Slot, e: &Arc<Error>) {
    let mut state = lock(&slot.state);
    if state.is_none() {
        *state = Some(Err(Arc::clone(e)));
    }
    slot.cv.notify_all();
}

impl Drop for Queue {
    /// The drop-while-pending backstop: when the log is dropped with
    /// followers still holding unserved tickets, their slots resolve with
    /// a typed [`Error::Shutdown`] instead of leaving any waiter parked on
    /// a condvar nobody will ever signal. Queued records are *not* flushed
    /// — exactly the acknowledged prefix survives, as on a crash.
    fn drop(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let e = Arc::new(Error::shutdown(
            "the group-commit log was dropped while this record was still queued \
             (never acknowledged, not durable)",
        ));
        for (_, slot) in self.pending.drain(..) {
            resolve_with_error(&slot, &e);
        }
    }
}

/// A group-commit front-end owning an [`EvolutionStore`]. Shared across
/// appender threads by reference (`&GroupCommitLog` is `Sync`); other
/// store operations (snapshots, travel, stats) go through
/// [`GroupCommitLog::with_store`], which drains the queue first so the
/// store never checkpoints with acknowledged-but-unwritten records…
/// there are none by construction, but *queued* records must not be
/// silently reordered past a snapshot either.
#[derive(Debug)]
pub struct GroupCommitLog {
    queue: Mutex<Queue>,
    store: Mutex<EvolutionStore>,
    policy: GroupCommitPolicy,
}

/// A claim on one enqueued record. [`CommitTicket::wait`] blocks until the
/// record's batch is fsync'd and returns its sequence number — the
/// durability acknowledgement.
#[derive(Debug)]
pub struct CommitTicket<'a> {
    log: &'a GroupCommitLog,
    slot: Arc<Slot>,
}

/// Unwind protection for a flush leader: while armed, dropping it (i.e. a
/// panic anywhere between draining the batch and distributing outcomes)
/// resolves the claimed slots with [`Error::Shutdown`] and releases the
/// flush claim.
struct FlushGuard<'a> {
    log: &'a GroupCommitLog,
    batch: &'a [(Vec<u8>, Arc<Slot>)],
}

impl FlushGuard<'_> {
    /// The leader completed normally: skip the unwind path. The guard
    /// only borrows, so forgetting it leaks nothing.
    fn disarm(self) {
        std::mem::forget(self);
    }
}

impl Drop for FlushGuard<'_> {
    fn drop(&mut self) {
        let e = Arc::new(Error::shutdown(
            "the group-commit leader died mid-flush; this record was not \
             acknowledged and may not be durable",
        ));
        for (_, slot) in self.batch {
            resolve_with_error(slot, &e);
        }
        lock(&self.log.queue).flushing = false;
    }
}

impl GroupCommitLog {
    /// Wraps a store with the given flush policy. A `max_batch` of zero is
    /// read as one: a flush that drains nothing would never resolve a
    /// ticket.
    #[must_use]
    pub fn new(store: EvolutionStore, policy: GroupCommitPolicy) -> GroupCommitLog {
        GroupCommitLog {
            queue: Mutex::new(Queue::default()),
            store: Mutex::new(store),
            policy: GroupCommitPolicy {
                max_batch: policy.max_batch.max(1),
            },
        }
    }

    /// The flush policy.
    #[must_use]
    pub fn policy(&self) -> GroupCommitPolicy {
        self.policy
    }

    /// Enqueues one record for the next group commit. The frame is encoded
    /// before any lock is taken. Returns a ticket; the record is durable
    /// only once [`CommitTicket::wait`] returns `Ok`.
    ///
    /// # Errors
    ///
    /// [`Error::TooLarge`] when the record exceeds the frame format, or
    /// [`Error::Shutdown`] when the log has been shut down.
    pub fn enqueue(&self, post_generation: u64, record: LogRecord) -> Result<CommitTicket<'_>> {
        let bytes = frame(&SealedRecord {
            post_generation,
            record,
        })?;
        let slot = Arc::new(Slot::default());
        let overflowing = {
            let mut queue = lock(&self.queue);
            if queue.shutdown {
                return Err(Error::shutdown(
                    "the group-commit log is shut down and accepts no new records",
                ));
            }
            queue.pending.push_back((bytes, Arc::clone(&slot)));
            queue.pending.len() >= self.policy.max_batch && !queue.flushing
        };
        if overflowing {
            // Bound the queue: the enqueuer itself leads a flush once a
            // full batch is waiting, instead of letting memory grow until
            // somebody waits on a ticket.
            self.flush_round();
        }
        Ok(CommitTicket { log: self, slot })
    }

    /// Enqueue + wait in one call: the drop-in durable append.
    ///
    /// # Errors
    ///
    /// As [`GroupCommitLog::enqueue`] and [`CommitTicket::wait`].
    pub fn append_durable(&self, post_generation: u64, record: LogRecord) -> Result<u64> {
        self.enqueue(post_generation, record)?.wait()
    }

    /// One leader round. Returns `true` if this call flushed a batch,
    /// `false` if the queue was empty or another leader held the flush.
    fn flush_round(&self) -> bool {
        let batch: Vec<(Vec<u8>, Arc<Slot>)> = {
            let mut queue = lock(&self.queue);
            if queue.flushing || queue.pending.is_empty() {
                return false;
            }
            queue.flushing = true;
            let n = queue.pending.len().min(self.policy.max_batch);
            queue.pending.drain(..n).collect()
        };

        let _span = eve_trace::span("store.group_commit_round");
        // From here the leader owns the flush claim and the drained batch.
        // If it dies (the store panics mid-append), the guard's Drop still
        // resolves every claimed slot with a typed shutdown error and
        // releases the claim — otherwise followers would spin forever
        // behind `flushing == true` with nobody left to serve them.
        let guard = FlushGuard {
            log: self,
            batch: &batch,
        };
        let outcome = {
            let mut store = lock(&self.store);
            let frames: Vec<&[u8]> = batch.iter().map(|(bytes, _)| bytes.as_slice()).collect();
            store.append_encoded_batch(&frames)
        };
        guard.disarm();
        match outcome {
            Ok(first_seq) => {
                for (offset, (_, slot)) in batch.iter().enumerate() {
                    let mut state = lock(&slot.state);
                    *state = Some(Ok(first_seq + offset as u64));
                    slot.cv.notify_all();
                }
            }
            Err(e) => {
                // The whole batch shares the failure: nothing in it was
                // acknowledged and the store rolled back to its durable
                // prefix, so every sequence number is reused.
                let e = Arc::new(e);
                for (_, slot) in &batch {
                    resolve_with_error(slot, &e);
                }
            }
        }
        lock(&self.queue).flushing = false;
        true
    }

    /// Shuts the writer down: no further records are accepted, and every
    /// still-queued record's ticket resolves with [`Error::Shutdown`] —
    /// including waiters currently parked behind a leader that will never
    /// serve them. Records already acknowledged are unaffected; queued
    /// ones are *not* flushed (they were never acknowledged). Idempotent;
    /// also run by Drop.
    pub fn shutdown(&self) {
        let drained: Vec<Arc<Slot>> = {
            let mut queue = lock(&self.queue);
            queue.shutdown = true;
            queue.pending.drain(..).map(|(_, slot)| slot).collect()
        };
        if drained.is_empty() {
            return;
        }
        let e = Arc::new(Error::shutdown(
            "the group-commit log shut down while this record was still queued \
             (never acknowledged, not durable)",
        ));
        for slot in drained {
            resolve_with_error(&slot, &e);
        }
    }

    /// Drains every currently queued record to disk (callers still waiting
    /// on tickets are woken as usual).
    pub fn flush(&self) {
        while self.flush_round() {}
    }

    /// Runs `f` against the underlying store, after draining the queue so
    /// queued records are not reordered past whatever `f` does (e.g. a
    /// snapshot rotation).
    pub fn with_store<T>(&self, f: impl FnOnce(&mut EvolutionStore) -> T) -> T {
        self.flush();
        f(&mut lock(&self.store))
    }
}

impl CommitTicket<'_> {
    /// Blocks until this record's batch is fsync'd, returning its sequence
    /// number. The calling thread *participates* in the protocol: if no
    /// leader is active it becomes one (flushing up to `max_batch` queued
    /// records, oldest first); otherwise it waits on its completion slot
    /// and re-checks — a leader may have drained a capped batch that
    /// excluded this record, in which case the next round picks it up.
    ///
    /// # Errors
    ///
    /// [`Error::State`] wrapping the batch's shared store error (the
    /// write failed, nothing in the batch was acknowledged, and the
    /// store rolled back to its durable prefix), or [`Error::Shutdown`]
    /// when the log shut down — or its leader died — before this
    /// record's batch was flushed.
    pub fn wait(self) -> Result<u64> {
        loop {
            {
                let state = lock(&self.slot.state);
                if let Some(outcome) = state.as_ref() {
                    return match outcome {
                        Ok(seq) => Ok(*seq),
                        // A shutdown outcome stays typed so callers can
                        // distinguish "log is gone" from a write failure.
                        Err(e) => Err(match e.as_ref() {
                            Error::Shutdown { detail } => Error::shutdown(detail.clone()),
                            other => Error::state(format!("group commit failed: {other}")),
                        }),
                    };
                }
            }
            if self.log.flush_round() {
                continue;
            }
            // Another leader is mid-flush (or just finished). Wait on our
            // slot; the timeout covers the race where that leader's batch
            // was capped without us and no other waiter drives a round.
            // A shutdown with this slot still unresolved means nobody will
            // ever serve it — surface the typed error instead of spinning.
            let state = lock(&self.slot.state);
            if state.is_some() {
                continue;
            }
            if lock(&self.log.queue).shutdown {
                return Err(Error::shutdown(
                    "the group-commit log shut down before this record's batch \
                     was flushed (never acknowledged, not durable)",
                ));
            }
            let (state, _) = self
                .slot
                .cv
                .wait_timeout(state, Duration::from_millis(1))
                .unwrap_or_else(PoisonError::into_inner);
            drop(state);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{EngineConfig, EngineSnapshot};
    use eve_relational::tup;
    use eve_sync::EvolutionOp;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    static DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "eve-store-group-tests-{}-{}-{name}",
            std::process::id(),
            DIR_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn empty_snapshot() -> EngineSnapshot {
        EngineSnapshot {
            mkb: eve_misd::Mkb::new().export_state(),
            sites: Vec::new(),
            views: Vec::new(),
            config: EngineConfig {
                sync_options: eve_sync::SyncOptions::default(),
                qc_params: eve_qc::QcParams::default(),
                workload: eve_qc::WorkloadModel::SingleUpdate,
                strategy: eve_qc::SelectionStrategy::QcBest,
                index_hints: Vec::new(),
            },
        }
    }

    fn record(k: i64) -> LogRecord {
        LogRecord::Batch(vec![EvolutionOp::insert("R", vec![tup![k]])])
    }

    fn fresh_log(name: &str) -> (PathBuf, GroupCommitLog) {
        let dir = temp_dir(name);
        let mut store = EvolutionStore::create(&dir).unwrap();
        store.write_snapshot(&empty_snapshot()).unwrap();
        (
            dir,
            GroupCommitLog::new(store, GroupCommitPolicy::default()),
        )
    }

    #[test]
    fn single_threaded_appends_keep_exact_seq_order() {
        let (dir, log) = fresh_log("single");
        for k in 0..10 {
            let seq = log.append_durable(0, record(k)).unwrap();
            assert_eq!(seq, k as u64);
        }
        let (next_seq, stats) = log.with_store(|store| (store.next_seq(), store.stats()));
        assert_eq!(next_seq, 10);
        assert_eq!(stats.records_appended, 10);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_appends_all_durable_with_amortized_fsyncs() {
        let (dir, log) = fresh_log("concurrent");
        const THREADS: i64 = 8;
        const PER_THREAD: i64 = 25;
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let log = &log;
                scope.spawn(move || {
                    let mut last = None;
                    for k in 0..PER_THREAD {
                        let seq = log.append_durable(0, record(t * PER_THREAD + k)).unwrap();
                        // Per-thread acknowledgement order follows call
                        // order even when batches interleave threads.
                        if let Some(prev) = last {
                            assert!(seq > prev);
                        }
                        last = Some(seq);
                    }
                });
            }
        });
        let stats = log.with_store(|store| store.stats());
        assert_eq!(stats.records_appended, (THREADS * PER_THREAD) as u64);
        assert!(
            stats.fsyncs <= stats.records_appended,
            "fsyncs {} > records {}",
            stats.fsyncs,
            stats.records_appended
        );
        drop(log);
        let (_, recovered) = EvolutionStore::open(&dir).unwrap();
        assert_eq!(recovered.tail.len(), (THREADS * PER_THREAD) as usize);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pipelined_enqueues_share_fsyncs_at_least_five_fold() {
        // Each appender keeps up to WINDOW tickets in flight and waits
        // only on the oldest: the shape of a worker that enqueues a
        // record, starts its next mutation, and acks in order.
        const THREADS: u64 = 4;
        const PER_THREAD: u64 = 100;
        const WINDOW: usize = 32;
        let (dir, log) = fresh_log("pipelined");
        let fsyncs_before = log.with_store(|s| s.stats().fsyncs);
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let log = &log;
                scope.spawn(move || {
                    let mut in_flight = VecDeque::with_capacity(WINDOW);
                    for k in t * PER_THREAD..(t + 1) * PER_THREAD {
                        in_flight.push_back(log.enqueue(0, record(k as i64)).unwrap());
                        if in_flight.len() >= WINDOW {
                            in_flight.pop_front().unwrap().wait().unwrap();
                        }
                    }
                    for ticket in in_flight {
                        ticket.wait().unwrap();
                    }
                });
            }
        });
        let fsyncs = log.with_store(|store| store.stats().fsyncs) - fsyncs_before;
        // Holds under every interleaving, not just the likely ones: a
        // thread leads a flush only while blocked on its oldest ticket,
        // that flush drains everything the thread has enqueued, and it
        // then takes WINDOW more enqueues before the thread blocks again —
        // at most ⌈PER_THREAD / WINDOW⌉ led flushes per thread (≤ 16
        // fsyncs for 400 records here).
        assert!(
            THREADS * PER_THREAD >= 5 * fsyncs,
            "pipelining amortized only {} records over {fsyncs} fsyncs",
            THREADS * PER_THREAD
        );
        drop(log); // crash

        // Exactly the acknowledged set comes back: no loss, no duplicate.
        let (_, recovered) = EvolutionStore::open(&dir).unwrap();
        let mut got: Vec<Vec<u8>> = recovered.tail.iter().map(crate::to_bytes).collect();
        let mut want: Vec<Vec<u8>> = (0..THREADS * PER_THREAD)
            .map(|k| {
                crate::to_bytes(&SealedRecord {
                    post_generation: 0,
                    record: record(k as i64),
                })
            })
            .collect();
        got.sort();
        want.sort();
        assert_eq!(got, want);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn queue_overflow_flushes_inline_without_a_waiter() {
        let dir = temp_dir("overflow");
        let mut store = EvolutionStore::create(&dir).unwrap();
        store.write_snapshot(&empty_snapshot()).unwrap();
        let log = GroupCommitLog::new(store, GroupCommitPolicy { max_batch: 4 });
        let mut tickets = Vec::new();
        for k in 0..10 {
            tickets.push(log.enqueue(0, record(k)).unwrap());
        }
        // Two full batches of 4 flushed inline during enqueue; the last 2
        // records flush when their tickets are waited.
        let mid_fsyncs = log.with_store(|s| s.stats().fsyncs);
        assert!(mid_fsyncs >= 2);
        let seqs: Vec<u64> = tickets.into_iter().map(|t| t.wait().unwrap()).collect();
        assert_eq!(seqs, (0..10).collect::<Vec<u64>>());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dropping_unwaited_tickets_loses_only_unacknowledged_records() {
        // "Crash with N followers queued": enqueued-but-never-flushed
        // records are not durable — and nothing else is lost.
        let (dir, log) = fresh_log("drop-queued");
        log.append_durable(0, record(0)).unwrap();
        log.append_durable(0, record(1)).unwrap();
        let _t2 = log.enqueue(0, record(2)).unwrap();
        let _t3 = log.enqueue(0, record(3)).unwrap();
        drop(_t2);
        drop(_t3);
        drop(log); // crash: queued records never reached disk

        let (_, recovered) = EvolutionStore::open(&dir).unwrap();
        assert_eq!(
            recovered.tail.len(),
            2,
            "exactly the acknowledged records survive"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn drop_while_pending_tickets_resolves_with_shutdown_error() {
        // The drop-while-pending regression: tickets still queued when the
        // log goes away must resolve with a typed `Error::Shutdown`, never
        // hang a condvar wait forever.

        // (a) A follower parked behind a leader that will never serve it
        // (simulated stuck flush claim): an explicit shutdown wakes it
        // with the typed error instead of leaving it to spin.
        let (dir, log) = fresh_log("shutdown-waiter");
        lock(&log.queue).flushing = true; // a leader claimed the flush and died
        std::thread::scope(|scope| {
            let handle = scope.spawn(|| log.enqueue(0, record(1)).unwrap().wait());
            std::thread::sleep(Duration::from_millis(20));
            log.shutdown();
            let err = handle.join().unwrap().unwrap_err();
            assert!(
                matches!(err, Error::Shutdown { .. }),
                "expected Error::Shutdown, got {err:?}"
            );
        });
        // After shutdown, new records are refused with the same typed error.
        let err = log.append_durable(0, record(2)).unwrap_err();
        assert!(matches!(err, Error::Shutdown { .. }), "{err:?}");
        drop(log);
        std::fs::remove_dir_all(&dir).ok();

        // (b) Dropping the log itself with unserved tickets queued: every
        // pending slot resolves with `Error::Shutdown` (and the records,
        // never acknowledged, do not reach disk).
        let (dir, log) = fresh_log("shutdown-drop");
        lock(&log.queue).flushing = true; // nothing flushes the queue on drop paths
        let t1 = log.enqueue(0, record(1)).unwrap();
        let t2 = log.enqueue(0, record(2)).unwrap();
        let (s1, s2) = (Arc::clone(&t1.slot), Arc::clone(&t2.slot));
        drop(t1);
        drop(t2);
        drop(log);
        for slot in [&s1, &s2] {
            let state = lock(&slot.state);
            match state.as_ref() {
                Some(Err(e)) => assert!(matches!(e.as_ref(), Error::Shutdown { .. }), "{e:?}"),
                other => panic!("pending slot not resolved with shutdown: {other:?}"),
            }
        }
        let (_, recovered) = EvolutionStore::open(&dir).unwrap();
        assert_eq!(recovered.tail.len(), 0, "queued records never reached disk");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn with_store_drains_queued_records_before_running() {
        let (dir, log) = fresh_log("drain");
        let _ticket = log.enqueue(0, record(7)).unwrap();
        let next_seq = log.with_store(|s| s.next_seq());
        assert_eq!(next_seq, 1, "the queued record was flushed first");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dwell_policy_batches_without_losing_records() {
        let dir = temp_dir("dwell");
        let mut store = EvolutionStore::create(&dir).unwrap();
        store.write_snapshot(&empty_snapshot()).unwrap();
        let log = GroupCommitLog::new(store, GroupCommitPolicy { max_batch: 64 });
        std::thread::scope(|scope| {
            for t in 0..4i64 {
                let log = &log;
                scope.spawn(move || {
                    for k in 0..10 {
                        log.append_durable(0, record(t * 10 + k)).unwrap();
                    }
                });
            }
        });
        assert_eq!(log.with_store(|store| store.stats().records_appended), 40);
        drop(log);
        let (_, recovered) = EvolutionStore::open(&dir).unwrap();
        assert_eq!(recovered.tail.len(), 40);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn zero_max_batch_still_commits_every_record() {
        // A round that drained `min(len, 0)` records wrote nothing yet
        // reported progress, so `wait` and `flush` looped forever.
        let dir = temp_dir("zero-batch");
        let mut store = EvolutionStore::create(&dir).unwrap();
        store.write_snapshot(&empty_snapshot()).unwrap();
        let log = GroupCommitLog::new(store, GroupCommitPolicy { max_batch: 0 });
        for k in 0..3 {
            assert_eq!(log.append_durable(0, record(k)).unwrap(), k as u64);
        }
        drop(log);
        let (_, recovered) = EvolutionStore::open(&dir).unwrap();
        let got: Vec<Vec<u8>> = recovered.tail.iter().map(crate::to_bytes).collect();
        let want: Vec<Vec<u8>> = (0..3)
            .map(|k| {
                crate::to_bytes(&SealedRecord {
                    post_generation: 0,
                    record: record(k),
                })
            })
            .collect();
        assert_eq!(got, want);
        std::fs::remove_dir_all(&dir).ok();
    }
}
