//! Process-wide metrics: named counters, gauges and quantile sketches
//! with cheap atomic hot-path updates.
//!
//! Instrumented components obtain handles once (at construction) from the
//! global [`metrics()`] registry and update them with relaxed atomics —
//! a handful of nanoseconds per update, safe from any thread. Reports
//! take a [`MetricsRegistry::snapshot`] and, for per-phase accounting,
//! diff two snapshots with [`MetricsSnapshot::delta_since`].
//!
//! Metrics are write-only during simulation: no simulated component ever
//! reads a metric back, so cross-thread accumulation order cannot leak
//! into run results and determinism is preserved.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::sketch::{AtomicSketch, QuantileSketch};

/// A monotonically increasing atomic counter.
#[derive(Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter at zero.
    pub const fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        // ordering: relaxed — a monotonic counter; readers only need an
        // eventually-consistent total, no happens-before edge.
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        // ordering: relaxed — snapshot read of an independent counter.
        self.0.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Counter({})", self.get())
    }
}

/// A last-write-wins atomic `f64` gauge.
#[derive(Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A gauge at `0.0`.
    pub const fn new() -> Gauge {
        Gauge(AtomicU64::new(0))
    }

    /// Stores `value`.
    pub fn set(&self, value: f64) {
        // ordering: relaxed — last-write-wins gauge; the bit pattern is
        // a single word, so no tearing and no ordering needed.
        self.0.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        // ordering: relaxed — see `set`; any recent value is valid.
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

impl std::fmt::Debug for Gauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Gauge({})", self.get())
    }
}

/// A process-wide registry of named metrics.
///
/// Names are `&'static str` in dotted form (`"meter.frames"`). The first
/// registration of a name fixes its kind; later lookups return the
/// same shared handle, so components
/// constructed many times (one governor per simulated run) all accumulate
/// into one metric.
///
/// # Examples
///
/// ```
/// use ccdem_obs::MetricsRegistry;
///
/// let registry = MetricsRegistry::new();
/// let frames = registry.counter("meter.frames");
/// frames.add(3);
/// registry.counter("meter.frames").inc(); // same underlying counter
/// assert_eq!(registry.snapshot().counters["meter.frames"], 4);
/// ```
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<&'static str, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<&'static str, Arc<Gauge>>>,
    sketches: Mutex<BTreeMap<&'static str, Arc<AtomicSketch>>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub const fn new() -> MetricsRegistry {
        MetricsRegistry {
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            sketches: Mutex::new(BTreeMap::new()),
        }
    }

    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &'static str) -> Arc<Counter> {
        let mut map = self.counters.lock().unwrap_or_else(|p| p.into_inner());
        map.entry(name)
            .or_insert_with(|| Arc::new(Counter::new()))
            .clone()
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &'static str) -> Arc<Gauge> {
        let mut map = self.gauges.lock().unwrap_or_else(|p| p.into_inner());
        map.entry(name)
            .or_insert_with(|| Arc::new(Gauge::new()))
            .clone()
    }

    /// The quantile sketch named `name`, created at
    /// [`DEFAULT_PRECISION`](crate::sketch::DEFAULT_PRECISION) on first
    /// use. All registry sketches share one precision so snapshots and
    /// deltas always merge exactly.
    pub fn sketch(&self, name: &'static str) -> Arc<AtomicSketch> {
        let mut map = self.sketches.lock().unwrap_or_else(|p| p.into_inner());
        map.entry(name)
            .or_insert_with(|| Arc::new(AtomicSketch::new()))
            .clone()
    }

    /// A point-in-time copy of every metric's value.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = self
            .counters
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .iter()
            .map(|(name, c)| (name.to_string(), c.get()))
            .collect();
        let gauges = self
            .gauges
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .iter()
            .map(|(name, g)| (name.to_string(), g.get()))
            .collect();
        let sketches = self
            .sketches
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .iter()
            .map(|(name, s)| (name.to_string(), s.snapshot()))
            .collect();
        MetricsSnapshot {
            counters,
            gauges,
            sketches,
        }
    }
}

/// The global registry used by instrumented ccdem components.
pub fn metrics() -> &'static MetricsRegistry {
    static GLOBAL: MetricsRegistry = MetricsRegistry::new();
    &GLOBAL
}

/// A point-in-time copy of registry contents, suitable for reports.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Quantile sketch contents by name.
    pub sketches: BTreeMap<String, QuantileSketch>,
}

impl MetricsSnapshot {
    /// The change between `earlier` and `self`.
    ///
    /// Counters subtract (saturating, in case `earlier` is from a
    /// different epoch); gauges keep the latest value; sketches subtract
    /// bucket-wise ([`QuantileSketch::delta_since`]). Metrics absent from
    /// `earlier` appear with their full current value.
    pub fn delta_since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let counters = self
            .counters
            .iter()
            .map(|(name, &now)| {
                let before = earlier.counters.get(name).copied().unwrap_or(0);
                (name.clone(), now.saturating_sub(before))
            })
            .collect();
        let sketches = self
            .sketches
            .iter()
            .map(|(name, now)| {
                let delta = match earlier.sketches.get(name) {
                    Some(before) => now.delta_since(before),
                    None => now.clone(),
                };
                (name.clone(), delta)
            })
            .collect();
        MetricsSnapshot {
            counters,
            gauges: self.gauges.clone(),
            sketches,
        }
    }

    /// Whether the snapshot records no activity: all counters zero and
    /// all sketches empty (gauges are levels, not activity, and are
    /// ignored here).
    pub fn is_empty(&self) -> bool {
        self.counters.values().all(|&v| v == 0)
            && self.sketches.values().all(QuantileSketch::is_empty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_snapshots_are_consistent_under_concurrency() {
        // Satellite check: counters updated from many threads are all
        // visible in a snapshot taken after the threads join.
        let registry = MetricsRegistry::new();
        let counter = registry.counter("test.ops");
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let counter = counter.clone();
                scope.spawn(move || {
                    for _ in 0..1000 {
                        counter.inc();
                    }
                });
            }
        });
        assert_eq!(registry.snapshot().counters["test.ops"], 4000);
    }

    #[test]
    fn registry_shares_handles_by_name() {
        let registry = MetricsRegistry::new();
        registry.counter("a").add(2);
        registry.counter("a").add(3);
        registry.gauge("g").set(1.25);
        let snap = registry.snapshot();
        assert_eq!(snap.counters["a"], 5);
        assert_eq!(snap.gauges["g"], 1.25);
    }

    #[test]
    fn delta_since_subtracts_counters_and_keeps_gauges() {
        let registry = MetricsRegistry::new();
        let c = registry.counter("c");
        c.add(10);
        let before = registry.snapshot();
        c.add(7);
        registry.gauge("g").set(4.0);
        let delta = registry.snapshot().delta_since(&before);
        assert_eq!(delta.counters["c"], 7);
        assert_eq!(delta.gauges["g"], 4.0);
        assert!(!delta.is_empty());
    }

    #[test]
    fn sketches_register_snapshot_and_delta() {
        let registry = MetricsRegistry::new();
        let s = registry.sketch("profile.test_phase");
        s.record(100);
        let before = registry.snapshot();
        assert_eq!(before.sketches["profile.test_phase"].count(), 1);
        registry.sketch("profile.test_phase").record(5000);
        s.record(5100);
        let delta = registry.snapshot().delta_since(&before);
        let sketch = &delta.sketches["profile.test_phase"];
        assert_eq!(sketch.count(), 2);
        let p50 = sketch.quantile(0.5).unwrap() as f64;
        assert!((p50 - 5000.0).abs() <= 5000.0 * sketch.relative_error());
        assert!(!delta.is_empty());
    }

    #[test]
    fn empty_delta_reports_empty() {
        let registry = MetricsRegistry::new();
        registry.counter("c").add(5);
        let snap = registry.snapshot();
        let delta = snap.delta_since(&snap);
        assert!(delta.is_empty());
    }

    #[test]
    fn global_registry_is_shared() {
        let a = metrics().counter("registry.test.global");
        let before = a.get();
        metrics().counter("registry.test.global").inc();
        assert_eq!(a.get(), before + 1);
    }
}
