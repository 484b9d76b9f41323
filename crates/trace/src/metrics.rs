//! The metrics half: atomic primitives, a named registry, deterministic
//! snapshots and exposition formats.
//!
//! # Primitives
//!
//! * [`Counter`] — monotone `u64` (resettable for bench isolation).
//! * [`Gauge`] — signed instantaneous value.
//! * [`Histogram`] — 64 log₂ buckets over `u64` samples (bucket `b > 0`
//!   holds values in `[2^(b-1), 2^b)`, bucket 0 holds zero). Recording is
//!   one relaxed `fetch_add`; snapshots are mergeable and quantiles come
//!   straight from the cumulative bucket counts, so p50/p99 extraction
//!   needs no retained samples.
//!
//! # Registry
//!
//! A [`Registry`] maps hierarchical names (`store.fsyncs`,
//! `server.latency_us.query`) to shared metric handles. Handles are
//! `Arc`s: call sites cache them and pay only the atomic op per event,
//! never a map lookup. The process-wide [`global`] registry carries the
//! subsystem families; instance registries (one per engine, one per
//! server) carry per-instance counters and [merge](MetricsSnapshot::merge)
//! into one queryable surface.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Number of log₂ histogram buckets (covers the full `u64` range).
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A monotone atomic counter.
#[derive(Debug, Default)]
pub struct Counter {
    v: AtomicU64,
}

impl Counter {
    /// A fresh zero counter.
    #[must_use]
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.v.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.v.load(Ordering::Relaxed)
    }

    /// Zeroes the counter.
    pub fn reset(&self) {
        self.v.store(0, Ordering::Relaxed);
    }
}

impl Clone for Counter {
    /// Clones *detach*: the copy starts at the source's current value but
    /// counts independently afterwards — value semantics, matching how
    /// engine state (and therefore its embedded counters) is cloned for
    /// differential oracles.
    fn clone(&self) -> Counter {
        Counter {
            v: AtomicU64::new(self.get()),
        }
    }
}

/// A signed instantaneous value.
#[derive(Debug, Default)]
pub struct Gauge {
    v: AtomicI64,
}

impl Gauge {
    /// A fresh zero gauge.
    #[must_use]
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Sets the value.
    pub fn set(&self, v: i64) {
        self.v.store(v, Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.v.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> i64 {
        self.v.load(Ordering::Relaxed)
    }

    /// Zeroes the gauge.
    pub fn reset(&self) {
        self.set(0);
    }
}

/// Bucket index of a sample: 0 for 0, else `64 - leading_zeros` (capped).
#[must_use]
pub fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        (u64::BITS - v.leading_zeros()).min(63) as usize
    }
}

/// Inclusive upper bound of bucket `b` — the value a quantile query
/// reports for samples landing in that bucket.
#[must_use]
pub(crate) fn bucket_upper_bound(b: usize) -> u64 {
    if b == 0 {
        0
    } else if b >= 63 {
        u64::MAX
    } else {
        (1u64 << b) - 1
    }
}

/// A fixed-bucket log₂ histogram over `u64` samples.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// A fresh empty histogram.
    #[must_use]
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one sample.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Point-in-time snapshot of the bucket counts.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }

    /// Zeroes every bucket and the sum.
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.sum.store(0, Ordering::Relaxed);
    }
}

/// An immutable histogram image: mergeable, and the unit quantiles are
/// extracted from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (bucket 0 = value 0, bucket `b` = values
    /// in `[2^(b-1), 2^b)`).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Sum of all recorded samples.
    pub sum: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: [0; HISTOGRAM_BUCKETS],
            sum: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Total samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Bucket-wise sum with `other` — commutative and associative, so
    /// per-shard histograms roll up in any order.
    #[must_use]
    pub fn merged(&self, other: &HistogramSnapshot) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i] + other.buckets[i]),
            sum: self.sum + other.sum,
        }
    }

    /// The `q`-quantile (`0.0..=1.0`) as the upper bound of the first
    /// bucket whose cumulative count reaches `⌈q·count⌉` — i.e. the true
    /// quantile rounded up to its log₂ bucket boundary. Returns 0 for an
    /// empty histogram.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // ⌈q·count⌉, at least 1 so q=0 lands in the first occupied bucket.
        #[allow(clippy::cast_precision_loss, clippy::cast_sign_loss)]
        let target = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut cum = 0u64;
        for (b, n) in self.buckets.iter().enumerate() {
            cum += n;
            if cum >= target {
                return bucket_upper_bound(b);
            }
        }
        bucket_upper_bound(HISTOGRAM_BUCKETS - 1)
    }
}

#[derive(Debug, Clone)]
enum Slot {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// A named collection of metrics. Cheap to create; snapshots are
/// deterministic (name order) and mergeable across registries.
#[derive(Debug, Default)]
pub struct Registry {
    slots: RwLock<BTreeMap<String, Slot>>,
}

impl Registry {
    /// A fresh empty registry.
    #[must_use]
    pub fn new() -> Registry {
        Registry::default()
    }

    // A thread that panicked while holding the slots left the map intact
    // (every update is one insert), so both guards are recovered instead
    // of failing every later metric call in the process.
    fn read(&self) -> RwLockReadGuard<'_, BTreeMap<String, Slot>> {
        self.slots.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn write(&self) -> RwLockWriteGuard<'_, BTreeMap<String, Slot>> {
        self.slots.write().unwrap_or_else(PoisonError::into_inner)
    }

    fn lookup(&self, name: &str) -> Option<Slot> {
        self.read().get(name).cloned()
    }

    /// The counter named `name`, creating it on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        if let Some(slot) = self.lookup(name) {
            match slot {
                Slot::Counter(c) => return c,
                _ => panic!("metric `{name}` is not a counter"),
            }
        }
        let mut slots = self.write();
        match slots
            .entry(name.to_owned())
            .or_insert_with(|| Slot::Counter(Arc::new(Counter::new())))
        {
            Slot::Counter(c) => Arc::clone(c),
            _ => panic!("metric `{name}` is not a counter"),
        }
    }

    /// The gauge named `name`, creating it on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        if let Some(slot) = self.lookup(name) {
            match slot {
                Slot::Gauge(g) => return g,
                _ => panic!("metric `{name}` is not a gauge"),
            }
        }
        let mut slots = self.write();
        match slots
            .entry(name.to_owned())
            .or_insert_with(|| Slot::Gauge(Arc::new(Gauge::new())))
        {
            Slot::Gauge(g) => Arc::clone(g),
            _ => panic!("metric `{name}` is not a gauge"),
        }
    }

    /// The histogram named `name`, creating it on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        if let Some(slot) = self.lookup(name) {
            match slot {
                Slot::Histogram(h) => return h,
                _ => panic!("metric `{name}` is not a histogram"),
            }
        }
        let mut slots = self.write();
        match slots
            .entry(name.to_owned())
            .or_insert_with(|| Slot::Histogram(Arc::new(Histogram::new())))
        {
            Slot::Histogram(h) => Arc::clone(h),
            _ => panic!("metric `{name}` is not a histogram"),
        }
    }

    /// Adopts an externally owned counter under `name` (how per-instance
    /// counters — an MKB's index counters, a cache's hit counters — join
    /// an instance registry so one [`reset`](Registry::reset) covers
    /// them). Replaces any previous registration of the name.
    pub fn register_counter(&self, name: &str, counter: Arc<Counter>) {
        self.write().insert(name.to_owned(), Slot::Counter(counter));
    }

    /// Point-in-time snapshot of every registered metric, in name order.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let slots = self.read();
        let mut snap = MetricsSnapshot::default();
        for (name, slot) in slots.iter() {
            match slot {
                Slot::Counter(c) => {
                    snap.counters.insert(name.clone(), c.get());
                }
                Slot::Gauge(g) => {
                    snap.gauges.insert(name.clone(), g.get());
                }
                Slot::Histogram(h) => {
                    snap.histograms.insert(name.clone(), h.snapshot());
                }
            }
        }
        snap
    }

    /// Zeroes every registered metric — the one-call reset the engine's
    /// `reset_io` routes through.
    pub fn reset(&self) {
        self.reset_prefix("");
    }

    /// Zeroes every metric whose name starts with `prefix` (family-scoped
    /// reset, e.g. `exec.`).
    pub(crate) fn reset_prefix(&self, prefix: &str) {
        let slots = self.read();
        for (name, slot) in slots.iter() {
            if !name.starts_with(prefix) {
                continue;
            }
            match slot {
                Slot::Counter(c) => c.reset(),
                Slot::Gauge(g) => g.reset(),
                Slot::Histogram(h) => h.reset(),
            }
        }
    }
}

/// The process-wide registry every subsystem family publishes into.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// A deterministic, mergeable image of a registry: counters, gauges and
/// histogram snapshots keyed by metric name (sorted).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram images by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Merges `other` into `self`: colliding counters and gauges add,
    /// colliding histograms merge bucket-wise — so instance registries
    /// fold into the global families without losing samples.
    #[must_use]
    pub fn merge(mut self, other: MetricsSnapshot) -> MetricsSnapshot {
        for (name, v) in other.counters {
            *self.counters.entry(name).or_insert(0) += v;
        }
        for (name, v) in other.gauges {
            *self.gauges.entry(name).or_insert(0) += v;
        }
        for (name, h) in other.histograms {
            let slot = self.histograms.entry(name).or_default();
            *slot = slot.merged(&h);
        }
        self
    }

    /// The value of counter `name`; 0 when it was never registered.
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The sum of every counter named `<prefix>…<suffix>` — a family
    /// rollup such as the intern pool's per-shard `intern.shardNN.hits`.
    #[must_use]
    pub fn counter_sum(&self, prefix: &str, suffix: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(name, _)| name.starts_with(prefix) && name.ends_with(suffix))
            .map(|(_, v)| v)
            .sum()
    }

    /// Human-readable rendering, one metric per line (name order).
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            out.push_str(&format!("{name} = {v}\n"));
        }
        for (name, v) in &self.gauges {
            out.push_str(&format!("{name} = {v}\n"));
        }
        for (name, h) in &self.histograms {
            out.push_str(&format!(
                "{name}: count={} sum={} p50<={} p90<={} p99<={}\n",
                h.count(),
                h.sum,
                h.quantile(0.50),
                h.quantile(0.90),
                h.quantile(0.99),
            ));
        }
        out
    }

    /// Prometheus text exposition (metric names sanitized: `.` and `-`
    /// become `_`; histograms render as cumulative `le` buckets with
    /// `_sum`/`_count`).
    #[must_use]
    pub fn prometheus(&self) -> String {
        fn sanitize(name: &str) -> String {
            name.chars()
                .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
                .collect()
        }
        let mut out = String::new();
        for (name, v) in &self.counters {
            let n = sanitize(name);
            out.push_str(&format!("# TYPE {n} counter\n{n} {v}\n"));
        }
        for (name, v) in &self.gauges {
            let n = sanitize(name);
            out.push_str(&format!("# TYPE {n} gauge\n{n} {v}\n"));
        }
        for (name, h) in &self.histograms {
            let n = sanitize(name);
            out.push_str(&format!("# TYPE {n} histogram\n"));
            let mut cum = 0u64;
            let top = h
                .buckets
                .iter()
                .rposition(|&c| c > 0)
                .unwrap_or(0)
                .min(HISTOGRAM_BUCKETS - 2);
            for (b, c) in h.buckets.iter().enumerate().take(top + 1) {
                cum += c;
                out.push_str(&format!(
                    "{n}_bucket{{le=\"{}\"}} {cum}\n",
                    bucket_upper_bound(b)
                ));
            }
            out.push_str(&format!("{n}_bucket{{le=\"+Inf\"}} {}\n", h.count()));
            out.push_str(&format!("{n}_sum {}\n", h.sum));
            out.push_str(&format!("{n}_count {}\n", h.count()));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_log2() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), 63);
        for b in 0..HISTOGRAM_BUCKETS {
            assert_eq!(bucket_of(bucket_upper_bound(b)), b);
        }
    }

    #[test]
    fn histogram_quantiles_round_up_to_bucket_bounds() {
        let h = Histogram::new();
        for v in [1u64, 2, 3, 100, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 5);
        assert_eq!(s.sum, 1106);
        // p50 is the 3rd sample (value 3) → bucket 2 upper bound.
        assert_eq!(s.quantile(0.50), 3);
        assert_eq!(s.quantile(1.0), 1023);
        assert_eq!(s.quantile(0.0), 1);
    }

    #[test]
    fn empty_histogram_quantile_is_zero() {
        assert_eq!(HistogramSnapshot::default().quantile(0.99), 0);
    }

    #[test]
    fn registry_handles_are_shared_and_reset_covers_them() {
        let r = Registry::new();
        let a = r.counter("fam.a");
        let b = r.counter("fam.a");
        a.add(3);
        assert_eq!(b.get(), 3, "same name → same counter");
        r.histogram("fam.h").record(7);
        r.gauge("fam.g").set(-4);
        r.reset();
        assert_eq!(a.get(), 0);
        assert_eq!(r.gauge("fam.g").get(), 0);
        assert_eq!(r.histogram("fam.h").snapshot().count(), 0);
    }

    #[test]
    fn reset_prefix_scopes_to_a_family() {
        let r = Registry::new();
        r.counter("one.a").add(1);
        r.counter("two.a").add(2);
        r.reset_prefix("one.");
        assert_eq!(r.counter("one.a").get(), 0);
        assert_eq!(r.counter("two.a").get(), 2);
    }

    #[test]
    fn adopted_counters_reset_through_the_registry() {
        let r = Registry::new();
        let external = Arc::new(Counter::new());
        external.add(9);
        r.register_counter("inst.hits", Arc::clone(&external));
        assert_eq!(r.snapshot().counters["inst.hits"], 9);
        r.reset();
        assert_eq!(external.get(), 0, "one registry call resets the adoptee");
    }

    #[test]
    fn snapshots_merge_by_adding() {
        let a = Registry::new();
        a.counter("n").add(1);
        a.histogram("h").record(4);
        let b = Registry::new();
        b.counter("n").add(2);
        b.histogram("h").record(4);
        b.counter("only_b").add(5);
        let merged = a.snapshot().merge(b.snapshot());
        assert_eq!(merged.counters["n"], 3);
        assert_eq!(merged.counters["only_b"], 5);
        assert_eq!(merged.histograms["h"].count(), 2);
    }

    #[test]
    fn typed_reads_default_to_zero_and_sum_families() {
        let r = Registry::new();
        r.counter("pool.shard00.hits").add(2);
        r.counter("pool.shard01.hits").add(3);
        r.counter("pool.shard01.misses").add(7);
        let snap = r.snapshot();
        assert_eq!(snap.counter("pool.shard01.misses"), 7);
        assert_eq!(snap.counter("pool.never"), 0);
        assert_eq!(snap.counter_sum("pool.", ".hits"), 5);
        assert_eq!(snap.counter_sum("other.", ".hits"), 0);
    }

    #[test]
    fn counter_clone_detaches() {
        let c = Counter::new();
        c.add(5);
        let d = c.clone();
        c.add(1);
        assert_eq!(d.get(), 5);
        assert_eq!(c.get(), 6);
    }

    #[test]
    fn prometheus_exposition_is_cumulative_and_sanitized() {
        let r = Registry::new();
        r.counter("store.fsyncs").add(2);
        let h = r.histogram("server.latency_us.query");
        h.record(1);
        h.record(3);
        let text = r.snapshot().prometheus();
        assert!(text.contains("# TYPE store_fsyncs counter"));
        assert!(text.contains("store_fsyncs 2"));
        assert!(text.contains("server_latency_us_query_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("server_latency_us_query_count 2"));
        let b1 = text
            .lines()
            .find(|l| l.contains("le=\"1\""))
            .expect("bucket 1 line");
        assert!(b1.ends_with(" 1"), "cumulative count at le=1: {b1}");
        let b3 = text
            .lines()
            .find(|l| l.contains("le=\"3\""))
            .expect("bucket 2 line");
        assert!(b3.ends_with(" 2"), "cumulative count at le=3: {b3}");
    }

    #[test]
    fn a_poisoned_registry_still_registers_and_snapshots() {
        let r = Registry::new();
        r.counter("before").inc();
        std::thread::scope(|scope| {
            let poisoner = scope.spawn(|| {
                let _held = r.slots.write().unwrap();
                panic!("poison the registry lock");
            });
            assert!(poisoner.join().is_err());
        });
        assert!(r.slots.is_poisoned());
        r.counter("after").add(2);
        let snap = r.snapshot();
        assert_eq!(snap.counter("before"), 1);
        assert_eq!(snap.counter("after"), 2);
    }
}
