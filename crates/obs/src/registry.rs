//! Process-wide metrics: named counters, gauges, and fixed-bucket
//! histograms with cheap atomic hot-path updates.
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

use ccdem_simkit::histogram::Histogram;

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

/// A lock-free histogram with uniform bins over `[lo, hi)`.
///
/// Same bucket semantics as [`ccdem_simkit::histogram::Histogram`]
/// (half-open bins, under/overflow counters), but recordable concurrently.
/// Unlike the simkit histogram, recording NaN is silently dropped rather
/// than a panic — telemetry must never abort a simulation.
///
/// # Examples
///
/// ```
/// use ccdem_obs::AtomicHistogram;
///
/// let h = AtomicHistogram::new(0.0, 10.0, 5);
/// h.record(1.0);
/// h.record(12.0);
/// let snap = h.snapshot();
/// assert_eq!(snap.bin_count(0), 1);
/// assert_eq!(snap.overflow(), 1);
/// ```
#[derive(Debug)]
pub struct AtomicHistogram {
    lo: f64,
    hi: f64,
    bins: Vec<AtomicU64>,
    underflow: AtomicU64,
    overflow: AtomicU64,
}

impl AtomicHistogram {
    /// A histogram with `bins` uniform bins over `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `bins` is zero, the bounds are not finite, or `lo >= hi`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> AtomicHistogram {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(
            lo.is_finite() && hi.is_finite() && lo < hi,
            "bounds must be finite with lo < hi"
        );
        AtomicHistogram {
            lo,
            hi,
            bins: (0..bins).map(|_| AtomicU64::new(0)).collect(),
            underflow: AtomicU64::new(0),
            overflow: AtomicU64::new(0),
        }
    }

    /// Records one sample. NaN samples are dropped.
    pub fn record(&self, value: f64) {
        if value.is_nan() {
            return;
        }
        if value < self.lo {
            // ordering: relaxed — monotonic counter, no data published.
            self.underflow.fetch_add(1, Ordering::Relaxed);
        } else if value >= self.hi {
            // ordering: relaxed — monotonic counter, no data published.
            self.overflow.fetch_add(1, Ordering::Relaxed);
        } else {
            let width = (self.hi - self.lo) / self.bins.len() as f64;
            let idx = ((value - self.lo) / width) as usize;
            // Guard the hi-boundary rounding case, as simkit does.
            let idx = idx.min(self.bins.len() - 1);
            if let Some(bin) = self.bins.get(idx) {
                // ordering: relaxed — independent monotonic counter; the
                // snapshot tolerates torn cross-bin reads by design.
                bin.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Materialises the current counts as a plain [`Histogram`].
    pub fn snapshot(&self) -> Histogram {
        // The snapshot is advisory telemetry: bins read at slightly
        // different instants may tear across bins, which is acceptable,
        // so no acquire edge is required on any of these loads.
        let bins: Vec<u64> = self
            .bins
            .iter()
            .map(|b| b.load(Ordering::Relaxed)) // ordering: relaxed — see above
            .collect();
        let underflow = self.underflow.load(Ordering::Relaxed); // ordering: relaxed — see above
        let overflow = self.overflow.load(Ordering::Relaxed); // ordering: relaxed — see above
        Histogram::from_parts(self.lo, self.hi, bins, underflow, overflow)
    }
}

/// A process-wide registry of named metrics.
///
/// Names are `&'static str` in dotted form (`"meter.frames"`). The first
/// registration of a name fixes its kind (and, for histograms, its
/// shape); later lookups return the same shared handle, so components
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
    histograms: Mutex<BTreeMap<&'static str, Arc<AtomicHistogram>>>,
    sketches: Mutex<BTreeMap<&'static str, Arc<AtomicSketch>>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub const fn new() -> MetricsRegistry {
        MetricsRegistry {
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
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

    /// The histogram named `name`, created with the given shape on first
    /// use. Later calls return the existing histogram regardless of the
    /// shape arguments — the first registration wins.
    pub fn histogram(
        &self,
        name: &'static str,
        lo: f64,
        hi: f64,
        bins: usize,
    ) -> Arc<AtomicHistogram> {
        let mut map = self.histograms.lock().unwrap_or_else(|p| p.into_inner());
        map.entry(name)
            .or_insert_with(|| Arc::new(AtomicHistogram::new(lo, hi, bins)))
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
        let histograms = self
            .histograms
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .iter()
            .map(|(name, h)| (name.to_string(), h.snapshot()))
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
            histograms,
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
    /// Histogram contents by name.
    pub histograms: BTreeMap<String, Histogram>,
    /// Quantile sketch contents by name.
    pub sketches: BTreeMap<String, QuantileSketch>,
}

impl MetricsSnapshot {
    /// The change between `earlier` and `self`.
    ///
    /// Counters subtract (saturating, in case `earlier` is from a
    /// different epoch); gauges keep the latest value; histograms
    /// subtract bin-wise when shapes match and otherwise keep the latest
    /// contents. Metrics absent from `earlier` appear with their full
    /// current value.
    pub fn delta_since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let counters = self
            .counters
            .iter()
            .map(|(name, &now)| {
                let before = earlier.counters.get(name).copied().unwrap_or(0);
                (name.clone(), now.saturating_sub(before))
            })
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(name, now)| {
                let delta = match earlier.histograms.get(name) {
                    Some(before) if same_shape(now, before) => Histogram::from_parts(
                        now.lo(),
                        now.hi(),
                        (0..now.bins())
                            .map(|i| now.bin_count(i).saturating_sub(before.bin_count(i)))
                            .collect(),
                        now.underflow().saturating_sub(before.underflow()),
                        now.overflow().saturating_sub(before.overflow()),
                    ),
                    _ => now.clone(),
                };
                (name.clone(), delta)
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
            histograms,
            sketches,
        }
    }

    /// Whether the snapshot records no activity: all counters zero and
    /// all histograms and sketches empty (gauges are levels, not
    /// activity, and are ignored here).
    pub fn is_empty(&self) -> bool {
        self.counters.values().all(|&v| v == 0)
            && self.histograms.values().all(|h| h.total() == 0)
            && self.sketches.values().all(QuantileSketch::is_empty)
    }
}

fn same_shape(a: &Histogram, b: &Histogram) -> bool {
    a.bins() == b.bins() && a.lo() == b.lo() && a.hi() == b.hi()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_bucket_edges_match_simkit_semantics() {
        // Satellite check: half-open [lo, hi) buckets, boundary values land
        // in the upper bin, hi itself overflows, lo itself is in-range.
        let h = AtomicHistogram::new(0.0, 10.0, 5);
        h.record(0.0); // first bin, inclusive lower edge
        h.record(2.0); // exactly on a bin edge -> bin 1
        h.record(9.999); // last bin
        h.record(10.0); // upper bound is exclusive -> overflow
        h.record(-0.001); // underflow
        h.record(f64::NAN); // dropped, not panicking
        let snap = h.snapshot();
        assert_eq!(snap.bin_count(0), 1);
        assert_eq!(snap.bin_count(1), 1);
        assert_eq!(snap.bin_count(4), 1);
        assert_eq!(snap.overflow(), 1);
        assert_eq!(snap.underflow(), 1);
        assert_eq!(snap.total(), 5);

        // The same samples into the single-threaded simkit histogram must
        // land identically (minus the NaN, which simkit rejects loudly).
        let mut reference = Histogram::new(0.0, 10.0, 5);
        reference.extend([0.0, 2.0, 9.999, 10.0, -0.001]);
        assert_eq!(snap, reference);
    }

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
        registry.histogram("h", 0.0, 1.0, 2).record(0.5);
        // Mismatched shape on re-lookup: first registration wins.
        registry.histogram("h", 0.0, 100.0, 50).record(0.5);
        let snap = registry.snapshot();
        assert_eq!(snap.counters["a"], 5);
        assert_eq!(snap.gauges["g"], 1.25);
        assert_eq!(snap.histograms["h"].bins(), 2);
        assert_eq!(snap.histograms["h"].bin_count(1), 2);
    }

    #[test]
    fn delta_since_subtracts_counters_and_bins() {
        let registry = MetricsRegistry::new();
        let c = registry.counter("c");
        let h = registry.histogram("h", 0.0, 10.0, 2);
        c.add(10);
        h.record(1.0);
        let before = registry.snapshot();
        c.add(7);
        h.record(1.0);
        h.record(8.0);
        registry.gauge("g").set(4.0);
        let delta = registry.snapshot().delta_since(&before);
        assert_eq!(delta.counters["c"], 7);
        assert_eq!(delta.histograms["h"].bin_count(0), 1);
        assert_eq!(delta.histograms["h"].bin_count(1), 1);
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
