//! Process-wide metrics: named counters, gauges and quantile sketches,
//! published once per run.
//!
//! No layer of the stack writes here while it works. Each layer keeps its
//! own counts, and the scenario engine publishes one run's totals when the
//! run finishes, through [`add`](MetricsRegistry::add),
//! [`set`](MetricsRegistry::set) and [`merge`](MetricsRegistry::merge).
//! Reports read a [`MetricsRegistry::snapshot`] after the runs end.
//!
//! Metrics are write-only during simulation: no simulated component ever
//! reads a metric back, so the order in which parallel runs publish cannot
//! leak into run results. Counter sums and sketch merges are exact and
//! order-independent, so a snapshot is the same for any worker count.

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::sketch::QuantileSketch;

/// A process-wide registry of named metrics: three plain maps behind one
/// lock.
///
/// Names are `&'static str` in dotted form (`"meter.frames"`). A counter
/// sums what every run adds, a gauge holds the last level set, and a
/// sketch is the exact merge of every run's sketch.
///
/// # Examples
///
/// ```
/// use ccdem_obs::{MetricsRegistry, QuantileSketch};
///
/// let registry = MetricsRegistry::new();
/// registry.add("meter.frames", 3);
/// registry.add("meter.frames", 1); // counters sum across publishes
/// registry.set("meter.grid_px", 2304.0);
/// let mut fps = QuantileSketch::new();
/// fps.record(24_000);
/// registry.merge("governor.content_fps", &fps);
/// let snapshot = registry.snapshot();
/// assert_eq!(snapshot.counters["meter.frames"], 4);
/// assert_eq!(snapshot.sketches["governor.content_fps"].count(), 1);
/// ```
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    metrics: Mutex<MetricsSnapshot>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub const fn new() -> MetricsRegistry {
        MetricsRegistry {
            metrics: Mutex::new(MetricsSnapshot {
                counters: BTreeMap::new(),
                gauges: BTreeMap::new(),
                sketches: BTreeMap::new(),
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, MetricsSnapshot> {
        // A publisher that panicked mid-publish leaves at worst part of one
        // run's totals; telemetry keeps working.
        self.metrics.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Adds `n` to the counter named `name` (created at zero on first use).
    pub fn add(&self, name: &'static str, n: u64) {
        let mut metrics = self.lock();
        let total = metrics.counters.entry(name).or_insert(0);
        *total = total.saturating_add(n);
    }

    /// Sets the gauge named `name` to `value`; the last set wins.
    pub fn set(&self, name: &'static str, value: f64) {
        self.lock().gauges.insert(name, value);
    }

    /// Merges `sketch` into the sketch named `name` (a copy of `sketch` on
    /// first use). Every publisher of one name must use one precision;
    /// see [`QuantileSketch::merge`].
    pub fn merge(&self, name: &'static str, sketch: &QuantileSketch) {
        self.lock()
            .sketches
            .entry(name)
            .and_modify(|total| total.merge(sketch))
            .or_insert_with(|| sketch.clone());
    }

    /// A copy of every metric's current value.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.lock().clone()
    }
}

/// The global registry the scenario engine publishes each run's totals to.
pub fn metrics() -> &'static MetricsRegistry {
    static GLOBAL: MetricsRegistry = MetricsRegistry::new();
    &GLOBAL
}

/// A copy of a registry's contents, for reports.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<&'static str, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<&'static str, f64>,
    /// Quantile sketch contents by name.
    pub sketches: BTreeMap<&'static str, QuantileSketch>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_sum_and_gauges_keep_the_last_value() {
        let registry = MetricsRegistry::new();
        registry.add("a", 2);
        registry.add("a", 3);
        registry.add("zero", 0);
        registry.set("g", 1.25);
        registry.set("g", 4.0);
        let snap = registry.snapshot();
        assert_eq!(snap.counters["a"], 5);
        assert_eq!(snap.counters["zero"], 0, "a zero publish still makes a row");
        assert_eq!(snap.gauges["g"], 4.0);
    }

    #[test]
    fn concurrent_publishes_equal_one_sequential_fold() {
        // One run's totals: a frame count and a content-rate sketch.
        let run = |seed: u64| {
            let mut fps = QuantileSketch::new();
            for i in 0..50 {
                fps.record(seed * 7919 + i * i);
            }
            (seed + 1, fps)
        };
        let publish = |registry: &MetricsRegistry, seed: u64| {
            let (frames, fps) = run(seed);
            registry.add("meter.frames", frames);
            registry.set("meter.grid_px", 2304.0);
            registry.merge("governor.content_fps", &fps);
        };
        let concurrent = MetricsRegistry::new();
        std::thread::scope(|scope| {
            for worker in 0..4 {
                let registry = &concurrent;
                scope.spawn(move || {
                    for seed in (worker..32).step_by(4) {
                        publish(registry, seed);
                    }
                });
            }
        });
        let sequential = MetricsRegistry::new();
        for seed in 0..32 {
            publish(&sequential, seed);
        }
        let snap = concurrent.snapshot();
        assert_eq!(snap, sequential.snapshot());
        assert_eq!(snap.counters["meter.frames"], (1..=32).sum::<u64>());
        assert_eq!(snap.sketches["governor.content_fps"].count(), 32 * 50);
    }

    #[test]
    fn global_registry_is_shared() {
        let total = || metrics().snapshot().counters["registry.test.global"];
        metrics().add("registry.test.global", 1);
        let before = total();
        metrics().add("registry.test.global", 1);
        assert_eq!(total(), before + 1);
    }
}
