//! Morsel scheduler: scoped worker pool with work-stealing deques.
//!
//! A *morsel* is a fixed-size row range of a [`crate::column::ColumnarBatch`]
//! (last one ragged). The executor splits an operator's input into morsels,
//! runs one closure per morsel on a scoped thread pool, and merges the
//! per-morsel outputs **in morsel order** — which is how parallel execution
//! stays byte-identical, order included, to the serial path: morsel `i`
//! covers rows `[i·m, (i+1)·m)`, so concatenating outputs by morsel index
//! reproduces exactly the row order a serial scan would emit.
//!
//! Scheduling is work-stealing: each worker owns a deque of morsel indices
//! (seeded with a contiguous block), pops from the front, and when empty
//! steals the back half of the fullest victim deque. Stealing only changes
//! *which thread* runs a morsel, never where its output lands — outputs go
//! to a slot indexed by morsel id.
//!
//! A panic inside a morsel is caught ([`std::panic::catch_unwind`]), turned
//! into a typed [`Error::Parallel`], and cancels the remaining morsels; the
//! scope joins every worker before returning, so a failing query can never
//! hang or hand back a partial extent.

use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread;

use eve_trace::Counter;

use crate::error::{Error, Result};

/// Default rows per morsel: large enough to amortize dispatch, small
/// enough that a handful of morsels exist even for modest extents.
pub(crate) const DEFAULT_MORSEL_ROWS: usize = 4096;

/// Execution knobs threaded from the engine down to every operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecOptions {
    /// Worker threads for intra-query parallelism. `0` and `1` both mean
    /// serial; the planner may lower an effective value below this for
    /// tiny inputs (see [`crate::plan::PlanEstimate::effective_parallelism`]).
    pub parallelism: usize,
    /// Rows per morsel (clamped to at least 1).
    pub morsel_rows: usize,
    /// Bypass the planner's tiny-input veto and run `parallelism` workers
    /// unconditionally. Off in production; the differential suites use it
    /// to exercise the parallel operators on arbitrarily small inputs.
    pub force_parallel: bool,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            parallelism: 1,
            morsel_rows: DEFAULT_MORSEL_ROWS,
            force_parallel: false,
        }
    }
}

impl ExecOptions {
    /// Serial execution (the default).
    #[must_use]
    pub fn serial() -> Self {
        ExecOptions::default()
    }

    /// `parallelism` workers with the default morsel size.
    #[must_use]
    pub fn with_parallelism(parallelism: usize) -> Self {
        ExecOptions {
            parallelism,
            ..ExecOptions::default()
        }
    }

    /// Rows per morsel, never zero.
    #[must_use]
    pub fn morsel_rows(&self) -> usize {
        self.morsel_rows.max(1)
    }

    /// Number of morsels covering `rows` input rows.
    #[must_use]
    pub(crate) fn morsel_count(&self, rows: usize) -> usize {
        rows.div_ceil(self.morsel_rows())
    }

    /// Row range `[start, end)` of morsel `i` over `rows` input rows.
    #[must_use]
    pub(crate) fn morsel_range(&self, i: usize, rows: usize) -> (usize, usize) {
        let m = self.morsel_rows();
        (i * m, ((i + 1) * m).min(rows))
    }
}

// ---------------------------------------------------------------------
// Process-wide execution counters, in the `eve-trace` global registry's
// `exec.` family: morsels dispatched, morsels stolen from another
// worker's deque, hash-join partitions built, operators run on the
// parallel path, and operators the planner kept serial. The shell's
// `stats`, the `metrics` command and the wire `Metrics` request all read
// them from a registry snapshot.
// ---------------------------------------------------------------------

struct ExecCounters {
    morsels: Arc<Counter>,
    steals: Arc<Counter>,
    partitions: Arc<Counter>,
    parallel_ops: Arc<Counter>,
    serial_fallbacks: Arc<Counter>,
}

fn counters() -> &'static ExecCounters {
    static COUNTERS: OnceLock<ExecCounters> = OnceLock::new();
    COUNTERS.get_or_init(|| {
        let registry = eve_trace::global();
        ExecCounters {
            morsels: registry.counter("exec.morsels"),
            steals: registry.counter("exec.steals"),
            partitions: registry.counter("exec.partitions"),
            parallel_ops: registry.counter("exec.parallel_ops"),
            serial_fallbacks: registry.counter("exec.serial_fallbacks"),
        }
    })
}

pub(crate) fn note_partitions(n: u64) {
    counters().partitions.add(n);
}

pub(crate) fn note_parallel_op() {
    counters().parallel_ops.inc();
}

pub(crate) fn note_serial_fallback() {
    counters().serial_fallbacks.inc();
}

// ---------------------------------------------------------------------
// The scheduler.
// ---------------------------------------------------------------------

fn panic_detail(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked".to_owned()
    }
}

/// Runs `f(0..morsels)` on up to `workers` scoped threads and returns the
/// outputs **in morsel order**. With `workers <= 1` (or a single morsel)
/// the closures run inline on the caller's thread — same results, no pool.
///
/// The first morsel error (or panic, surfaced as [`Error::Parallel`])
/// cancels the remaining morsels and is returned after every worker has
/// joined; the caller never observes a partial output vector.
pub fn run_morsels<T, F>(workers: usize, morsels: usize, f: F) -> Result<Vec<T>>
where
    T: Send,
    F: Fn(usize) -> Result<T> + Sync,
{
    counters().morsels.add(morsels as u64);
    let _span = eve_trace::span("exec.morsel_run");
    let workers = workers.min(morsels);
    if workers <= 1 {
        // Inline path, same failure contract as the pool: a panic in the
        // closure surfaces as a typed error, not an unwinding caller.
        return (0..morsels)
            .map(|i| match panic::catch_unwind(AssertUnwindSafe(|| f(i))) {
                Ok(out) => out,
                Err(payload) => Err(Error::Parallel {
                    detail: panic_detail(payload),
                }),
            })
            .collect();
    }

    // Seed each worker's deque with a contiguous block of morsel ids, so
    // with zero steals each worker scans adjacent rows (cache-friendly)
    // and the id → slot mapping keeps the merge deterministic regardless.
    let queues: Vec<Mutex<VecDeque<usize>>> = (0..workers)
        .map(|w| {
            Mutex::new(
                (0..morsels)
                    .filter(|i| i * workers / morsels == w)
                    .collect(),
            )
        })
        .collect();
    let slots: Vec<Mutex<Option<T>>> = (0..morsels).map(|_| Mutex::new(None)).collect();
    let failed = AtomicBool::new(false);
    let first_error: Mutex<Option<Error>> = Mutex::new(None);

    thread::scope(|scope| {
        for w in 0..workers {
            let queues = &queues;
            let slots = &slots;
            let failed = &failed;
            let first_error = &first_error;
            let f = &f;
            scope.spawn(move || {
                let mut local_steals = 0u64;
                loop {
                    if failed.load(Ordering::Relaxed) {
                        break;
                    }
                    // Own deque first (front), then steal the back half
                    // of the fullest victim.
                    let next = queues[w].lock().expect("morsel deque poisoned").pop_front();
                    let idx = match next {
                        Some(idx) => idx,
                        None => {
                            let victim = (0..queues.len()).filter(|&v| v != w).max_by_key(|&v| {
                                queues[v].lock().expect("morsel deque poisoned").len()
                            });
                            let stolen = victim.and_then(|v| {
                                let mut q = queues[v].lock().expect("morsel deque poisoned");
                                let take = q.len().div_ceil(2);
                                if take == 0 {
                                    return None;
                                }
                                let keep = q.len() - take;
                                let tail: VecDeque<usize> = q.split_off(keep);
                                Some(tail)
                            });
                            match stolen {
                                Some(mut tail) => {
                                    local_steals += tail.len() as u64;
                                    let first = tail.pop_front();
                                    if !tail.is_empty() {
                                        queues[w]
                                            .lock()
                                            .expect("morsel deque poisoned")
                                            .append(&mut tail);
                                    }
                                    match first {
                                        Some(idx) => idx,
                                        None => break,
                                    }
                                }
                                None => break, // all deques drained
                            }
                        }
                    };
                    match panic::catch_unwind(AssertUnwindSafe(|| f(idx))) {
                        Ok(Ok(out)) => {
                            *slots[idx].lock().expect("morsel slot poisoned") = Some(out);
                        }
                        Ok(Err(e)) => {
                            let mut guard = first_error.lock().expect("morsel error slot poisoned");
                            guard.get_or_insert(e);
                            failed.store(true, Ordering::Relaxed);
                            break;
                        }
                        Err(payload) => {
                            let mut guard = first_error.lock().expect("morsel error slot poisoned");
                            guard.get_or_insert(Error::Parallel {
                                detail: panic_detail(payload),
                            });
                            failed.store(true, Ordering::Relaxed);
                            break;
                        }
                    }
                }
                if local_steals > 0 {
                    counters().steals.add(local_steals);
                }
            });
        }
    });

    if let Some(e) = first_error
        .into_inner()
        .expect("morsel error slot poisoned")
    {
        return Err(e);
    }
    Ok(slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("morsel slot poisoned")
                .expect("every morsel ran: no error recorded and scope joined")
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outputs_arrive_in_morsel_order() {
        for workers in [1, 2, 4, 8] {
            let out = run_morsels(workers, 37, |i| Ok(i * 10)).unwrap();
            assert_eq!(out, (0..37).map(|i| i * 10).collect::<Vec<_>>());
        }
    }

    #[test]
    fn zero_morsels_is_empty() {
        let out: Vec<usize> = run_morsels(4, 0, Ok).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn worker_error_surfaces_as_that_error() {
        let err = run_morsels(4, 64, |i| {
            if i == 17 {
                Err(Error::NotComparable)
            } else {
                Ok(i)
            }
        })
        .unwrap_err();
        assert_eq!(err, Error::NotComparable);
    }

    #[test]
    fn worker_panic_surfaces_as_typed_parallel_error() {
        let err = run_morsels(4, 64, |i| {
            if i == 23 {
                panic!("morsel 23 exploded");
            }
            Ok(i)
        })
        .unwrap_err();
        match err {
            Error::Parallel { detail } => assert!(detail.contains("morsel 23 exploded")),
            other => panic!("expected Error::Parallel, got {other:?}"),
        }
    }

    #[test]
    fn steals_counter_moves_under_skewed_load() {
        // One slow morsel at the front of worker 0's block forces other
        // workers to finish and steal. Not asserted deterministically —
        // only that the counter never goes backwards.
        let steals = eve_trace::global().counter("exec.steals");
        let before = steals.get();
        let _ = run_morsels(4, 256, |i| {
            if i == 0 {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            Ok(())
        })
        .unwrap();
        assert!(steals.get() >= before);
    }
}
