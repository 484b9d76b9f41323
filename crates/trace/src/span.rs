//! The tracing half: RAII spans with parent links, recorded into a
//! bounded ring buffer, dumpable as `chrome://tracing` JSON.
//!
//! # Design
//!
//! * **Off by default.** [`span`] and [`instant`] check one relaxed
//!   atomic load when tracing is disabled and return inert guards — the
//!   instrumentation sites scattered through the executor, store and
//!   server cost effectively nothing until [`set_enabled`]`(true)`.
//! * **Parent links from a thread-local stack.** Each thread keeps its
//!   open-span stack in TLS; a new span's parent is the top of that
//!   stack. The stack lives *outside* the ring buffer, so ring
//!   wraparound (old events evicted under sustained load) can never
//!   corrupt the ancestry of spans still open — a property the
//!   wraparound proptests pin.
//! * **Complete events.** A span records one [`TraceEvent`] when it
//!   closes (start timestamp + duration), matching the `"ph":"X"`
//!   complete-event form of the Chrome trace format; [`instant`] records
//!   zero-duration marks.
//! * **Monotonic microseconds.** Timestamps are microseconds since the
//!   collector's first use (one process-wide [`Instant`] origin), so
//!   events from different threads order consistently.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

use crate::metrics::global;

/// Default ring capacity: enough for a full bench workload's operator
/// spans without unbounded growth.
pub const DEFAULT_CAPACITY: usize = 65_536;

/// One recorded span or instant mark.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Span id (unique per process run, never 0).
    pub id: u64,
    /// Id of the enclosing span on the same thread (0 = root).
    pub parent: u64,
    /// Site name (static: instrumentation sites are compiled in).
    pub name: &'static str,
    /// Start timestamp, microseconds since the collector origin.
    pub start_us: u64,
    /// Duration in microseconds (0 for instant marks).
    pub dur_us: u64,
    /// Small dense id of the recording thread.
    pub thread: u64,
    /// `true` for zero-duration [`instant`] marks, `false` for spans.
    pub mark: bool,
}

struct Ring {
    events: VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
}

impl Ring {
    fn push(&mut self, ev: TraceEvent) {
        if self.events.len() >= self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(ev);
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

/// The locked ring. A thread that panicked while holding it left the
/// ring intact (every update is a single push or clear), so the guard is
/// recovered instead of failing every later span in the process.
fn ring() -> MutexGuard<'static, Ring> {
    static RING: OnceLock<Mutex<Ring>> = OnceLock::new();
    RING.get_or_init(|| {
        Mutex::new(Ring {
            events: VecDeque::new(),
            capacity: DEFAULT_CAPACITY,
            dropped: 0,
        })
    })
    .lock()
    .unwrap_or_else(PoisonError::into_inner)
}

fn origin() -> Instant {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    *ORIGIN.get_or_init(Instant::now)
}

fn now_us() -> u64 {
    u64::try_from(origin().elapsed().as_micros()).unwrap_or(u64::MAX)
}

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static THREAD_ID: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// Turns span recording on or off. Disabling does not clear recorded
/// events ([`clear`] does).
pub fn set_enabled(enabled: bool) {
    ENABLED.store(enabled, Ordering::Relaxed);
}

/// Whether span recording is currently enabled.
#[must_use]
pub fn spans_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Replaces the ring capacity (and clears the buffer): bench isolation
/// and the wraparound tests.
pub fn set_capacity(capacity: usize) {
    let mut ring = ring();
    ring.capacity = capacity.max(1);
    ring.events.clear();
    ring.dropped = 0;
}

/// Drops every recorded event (open spans stay open — their stacks are
/// thread-local and unaffected).
pub fn clear() {
    let mut ring = ring();
    ring.events.clear();
    ring.dropped = 0;
}

/// The recorded events, oldest first.
#[must_use]
pub fn snapshot_events() -> Vec<TraceEvent> {
    ring().events.iter().cloned().collect()
}

/// Events evicted by ring wraparound since the last [`clear`].
#[must_use]
pub fn dropped_events() -> u64 {
    ring().dropped
}

/// Opens a span. Returns an inert guard (one atomic load, no allocation,
/// no lock) when tracing is disabled; otherwise the span records a
/// complete event when the guard drops.
#[must_use]
pub fn span(name: &'static str) -> SpanGuard {
    if !spans_enabled() {
        return SpanGuard {
            id: 0,
            parent: 0,
            name,
            start_us: 0,
        };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied().unwrap_or(0);
        s.push(id);
        parent
    });
    SpanGuard {
        id,
        parent,
        name,
        start_us: now_us(),
    }
}

/// Records a zero-duration mark under the current open span.
pub fn instant(name: &'static str) {
    if !spans_enabled() {
        return;
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| s.borrow().last().copied().unwrap_or(0));
    let ev = TraceEvent {
        id,
        parent,
        name,
        start_us: now_us(),
        dur_us: 0,
        thread: THREAD_ID.with(|t| *t),
        mark: true,
    };
    global().counter("trace.events_recorded").inc();
    ring().push(ev);
}

/// RAII span handle: records its event (and pops the thread's open-span
/// stack) on drop. Inert when created with tracing disabled.
#[derive(Debug)]
pub struct SpanGuard {
    id: u64,
    parent: u64,
    name: &'static str,
    start_us: u64,
}

impl SpanGuard {
    /// The span id (0 for an inert guard).
    #[must_use]
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            // Guards normally drop LIFO; a held-out-of-order guard removes
            // its own id wherever it sits so the stack never wedges.
            if s.last() == Some(&self.id) {
                s.pop();
            } else if let Some(pos) = s.iter().rposition(|&v| v == self.id) {
                s.remove(pos);
            }
        });
        let ev = TraceEvent {
            id: self.id,
            parent: self.parent,
            name: self.name,
            start_us: self.start_us,
            dur_us: now_us().saturating_sub(self.start_us),
            thread: THREAD_ID.with(|t| *t),
            mark: false,
        };
        global().counter("trace.events_recorded").inc();
        ring().push(ev);
    }
}

/// Renders the recorded events as `chrome://tracing` JSON (load via
/// `chrome://tracing` or Perfetto's legacy importer).
#[must_use]
pub fn chrome_json() -> String {
    let events = snapshot_events();
    let mut out = String::with_capacity(events.len() * 96 + 32);
    out.push_str("{\"traceEvents\":[");
    for (i, ev) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let ph = if ev.mark { "i" } else { "X" };
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"ph\":\"{ph}\",\"ts\":{},\"pid\":1,\"tid\":{}",
            ev.name, ev.start_us, ev.thread
        ));
        if ph == "X" {
            out.push_str(&format!(",\"dur\":{}", ev.dur_us));
        } else {
            out.push_str(",\"s\":\"t\"");
        }
        out.push_str(&format!(
            ",\"args\":{{\"id\":{},\"parent\":{}}}}}",
            ev.id, ev.parent
        ));
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex as StdMutex, OnceLock as StdOnceLock};

    /// Span tests toggle process-global state; serialize them.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: StdOnceLock<StdMutex<()>> = StdOnceLock::new();
        LOCK.get_or_init(|| StdMutex::new(()))
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _guard = lock();
        set_enabled(false);
        set_capacity(DEFAULT_CAPACITY);
        {
            let _s = span("nothing");
            instant("nothing.mark");
        }
        assert!(snapshot_events().is_empty());
    }

    #[test]
    fn nested_spans_link_parents() {
        let _guard = lock();
        set_capacity(DEFAULT_CAPACITY);
        set_enabled(true);
        {
            let outer = span("outer");
            let outer_id = outer.id();
            {
                let inner = span("inner");
                assert_ne!(inner.id(), 0);
            }
            instant("mark");
            drop(outer);
            let events = snapshot_events();
            let inner = events.iter().find(|e| e.name == "inner").expect("inner");
            let mark = events.iter().find(|e| e.name == "mark").expect("mark");
            let outer_ev = events.iter().find(|e| e.name == "outer").expect("outer");
            assert_eq!(inner.parent, outer_id);
            assert_eq!(mark.parent, outer_id);
            assert_eq!(outer_ev.parent, 0, "outer span is a root");
            assert!(outer_ev.dur_us >= inner.dur_us);
        }
        set_enabled(false);
    }

    #[test]
    fn wraparound_keeps_newest_events_and_counts_drops() {
        let _guard = lock();
        set_capacity(4);
        set_enabled(true);
        for _ in 0..10 {
            let _s = span("wrap");
        }
        let events = snapshot_events();
        assert_eq!(events.len(), 4);
        assert_eq!(dropped_events(), 6);
        // Newest retained: ids strictly increase.
        assert!(events.windows(2).all(|w| w[0].id < w[1].id));
        set_enabled(false);
        set_capacity(DEFAULT_CAPACITY);
    }

    #[test]
    fn chrome_json_has_trace_events_envelope() {
        let _guard = lock();
        set_capacity(DEFAULT_CAPACITY);
        set_enabled(true);
        {
            let _s = span("render.me");
        }
        instant("render.mark");
        set_enabled(false);
        let json = chrome_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\"name\":\"render.me\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"i\""));
        set_capacity(DEFAULT_CAPACITY);
    }

    #[test]
    fn out_of_order_guard_drop_does_not_wedge_the_stack() {
        let _guard = lock();
        set_capacity(DEFAULT_CAPACITY);
        set_enabled(true);
        let a = span("a");
        let b = span("b");
        drop(a); // non-LIFO
        let c = span("c");
        let events_parent_of_c = b.id();
        drop(c);
        drop(b);
        set_enabled(false);
        let events = snapshot_events();
        let c_ev = events.iter().find(|e| e.name == "c").expect("c recorded");
        assert_eq!(c_ev.parent, events_parent_of_c, "b still open when c began");
        STACK.with(|s| assert!(s.borrow().is_empty(), "stack drained"));
        set_capacity(DEFAULT_CAPACITY);
    }
}
