//! Scoped timers that emit an event when dropped, with hierarchical
//! parent/child self-time accounting.
//!
//! Spans on one thread form a stack: while a child span is alive inside a
//! parent span, the child's total duration is charged to the parent as
//! *child time*, and on drop each span knows both its wall-clock total
//! (`host_dur_us`) and its **self time** (`host_self_us` — total minus
//! the totals of its direct children). Self times over a set of nested
//! phases therefore add up to the outermost total, which is what makes a
//! per-phase profile readable: no cost is counted twice.
//!
//! A span can additionally record into [`AtomicSketch`]es — its self time
//! via [`Span::record_self_into`], its total via
//! [`Span::record_total_into`] — in integer nanoseconds. Attaching a
//! sketch forces timing on even when the [`Obs`] handle is disabled, so a
//! profiler can collect latency distributions without paying for event
//! serialization.

use std::cell::RefCell;
use std::sync::Arc;
use std::sync::OnceLock;
use std::time::Instant;

use ccdem_simkit::time::SimTime;

use crate::event::Value;
use crate::sketch::AtomicSketch;
use crate::Obs;

/// Microseconds of host-monotonic time since the first telemetry emission
/// in this process. Host stamps order events across threads but are not
/// reproducible across runs; they never appear in simulation results.
pub fn host_micros() -> u64 {
    static START: OnceLock<Instant> = OnceLock::new();
    let start = *START.get_or_init(Instant::now);
    start.elapsed().as_micros() as u64
}

thread_local! {
    // One child-time accumulator per live *timed* span on this thread,
    // innermost last. Spans that take no clock reading are invisible to
    // the hierarchy.
    static CHILD_US: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// A scoped host-time measurement.
///
/// Created with [`Obs::span`]; when dropped it emits an event carrying any
/// fields added via [`field`](Span::field) plus `host_dur_us` (the
/// wall-clock duration of the span on the host) and `host_self_us` (the
/// duration minus time spent in nested spans). The simulation timestamp
/// is the one given at [`start`](Span::start) — spans measure *harness*
/// cost (how long a sweep took to execute), not simulated time.
///
/// On a disabled handle a span does nothing and takes no clock readings —
/// unless a sketch is attached with [`record_self_into`](Span::record_self_into)
/// or [`record_total_into`](Span::record_total_into), which turns timing
/// on so profiles work without an event sink.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use ccdem_obs::{Obs, RingSink, Value};
/// use ccdem_simkit::time::SimTime;
///
/// let sink = Arc::new(RingSink::new(4));
/// let obs = Obs::to_sink(sink.clone());
/// {
///     let mut span = obs.span("sweep", SimTime::ZERO);
///     span.field("runs", 90usize);
/// } // emits here
/// let events = sink.events();
/// assert_eq!(events[0].name, "sweep");
/// assert_eq!(events[0].get("runs"), Some(&Value::U64(90)));
/// assert!(events[0].get("host_dur_us").is_some());
/// assert!(events[0].get("host_self_us").is_some());
/// ```
#[derive(Debug)]
pub struct Span<'a> {
    obs: &'a Obs,
    name: &'static str,
    now: SimTime,
    started: Option<Instant>,
    fields: Vec<(&'static str, Value)>,
    self_sketch: Option<Arc<AtomicSketch>>,
    total_sketch: Option<Arc<AtomicSketch>>,
}

impl<'a> Span<'a> {
    /// Starts a span; reads the host clock only if `obs` is enabled.
    pub fn start(obs: &'a Obs, name: &'static str, now: SimTime) -> Span<'a> {
        let started = obs.enabled().then(Instant::now);
        if started.is_some() {
            CHILD_US.with(|stack| stack.borrow_mut().push(0.0));
        }
        Span {
            obs,
            name,
            now,
            started,
            fields: Vec::new(),
            self_sketch: None,
            total_sketch: None,
        }
    }

    /// Adds a field to the event emitted on drop.
    pub fn field(&mut self, key: &'static str, value: impl Into<Value>) -> &mut Span<'a> {
        if self.started.is_some() {
            self.fields.push((key, value.into()));
        }
        self
    }

    /// Records this span's **self time** (total minus nested spans) into
    /// `sketch`, in integer nanoseconds, when it drops. Forces timing on
    /// even if the handle is disabled.
    pub fn record_self_into(mut self, sketch: Arc<AtomicSketch>) -> Span<'a> {
        self.force_timing();
        self.self_sketch = Some(sketch);
        self
    }

    /// Records this span's **total duration** into `sketch`, in integer
    /// nanoseconds, when it drops. Forces timing on even if the handle is
    /// disabled.
    pub fn record_total_into(mut self, sketch: Arc<AtomicSketch>) -> Span<'a> {
        self.force_timing();
        self.total_sketch = Some(sketch);
        self
    }

    fn force_timing(&mut self) {
        if self.started.is_none() {
            self.started = Some(Instant::now());
            CHILD_US.with(|stack| stack.borrow_mut().push(0.0));
        }
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let Some(started) = self.started else {
            return;
        };
        let total_us = started.elapsed().as_secs_f64() * 1e6;
        let child_us = CHILD_US.with(|stack| {
            let mut stack = stack.borrow_mut();
            let child = stack.pop().unwrap_or(0.0);
            // Charge our whole duration to the enclosing span, if any.
            if let Some(parent) = stack.last_mut() {
                *parent += total_us;
            }
            child
        });
        let self_us = (total_us - child_us).max(0.0);
        if let Some(sketch) = &self.total_sketch {
            sketch.record((total_us * 1e3).round() as u64);
        }
        if let Some(sketch) = &self.self_sketch {
            sketch.record((self_us * 1e3).round() as u64);
        }
        let fields = std::mem::take(&mut self.fields);
        self.obs.emit(self.name, self.now, |event| {
            for (key, value) in fields {
                event.fields.push((key, value));
            }
            event.field("host_dur_us", total_us);
            event.field("host_self_us", self_us);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::RingSink;
    use std::sync::Arc;

    #[test]
    fn host_clock_is_monotonic() {
        let a = host_micros();
        let b = host_micros();
        assert!(b >= a);
    }

    #[test]
    fn span_emits_duration_on_drop() {
        let sink = Arc::new(RingSink::new(4));
        let obs = Obs::to_sink(sink.clone());
        {
            let mut span = obs.span("work", SimTime::from_millis(10));
            span.field("items", 3u64);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let events = sink.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name, "work");
        assert_eq!(events[0].sim_us, 10_000);
        assert_eq!(events[0].get("items"), Some(&Value::U64(3)));
        match events[0].get("host_dur_us") {
            Some(Value::F64(us)) => assert!(*us >= 1000.0, "slept 1ms, measured {us}us"),
            other => panic!("expected F64 duration, got {other:?}"),
        }
    }

    #[test]
    fn disabled_span_emits_nothing_and_skips_the_clock() {
        let obs = Obs::disabled();
        let mut span = obs.span("work", SimTime::ZERO);
        span.field("ignored", 1u64);
        assert!(span.started.is_none());
        drop(span);
    }

    #[test]
    fn nested_spans_split_self_time_from_child_time() {
        let sink = Arc::new(RingSink::new(8));
        let obs = Obs::to_sink(sink.clone());
        {
            let _outer = obs.span("outer", SimTime::ZERO);
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = obs.span("inner", SimTime::ZERO);
                std::thread::sleep(std::time::Duration::from_millis(4));
            }
        }
        let events = sink.events();
        assert_eq!(events.len(), 2);
        let (inner, outer) = (&events[0], &events[1]);
        assert_eq!(inner.name, "inner");
        assert_eq!(outer.name, "outer");
        let dur = |e: &crate::Event, key: &str| match e.get(key) {
            Some(Value::F64(us)) => *us,
            other => panic!("expected F64 {key}, got {other:?}"),
        };
        let inner_total = dur(inner, "host_dur_us");
        let outer_total = dur(outer, "host_dur_us");
        let outer_self = dur(outer, "host_self_us");
        // Inner self == inner total (it has no children).
        assert_eq!(dur(inner, "host_self_us"), inner_total);
        // Outer self excludes the inner span's whole duration.
        assert!(outer_total >= inner_total);
        assert!(
            (outer_self - (outer_total - inner_total)).abs() < 1.0,
            "outer self {outer_self} != total {outer_total} - inner {inner_total}"
        );
        assert!(outer_self >= 2000.0 * 0.5, "outer slept 2ms of self time");
        assert!(
            outer_self < outer_total,
            "outer must not absorb the inner 4ms"
        );
    }

    #[test]
    fn sketches_record_even_when_the_handle_is_disabled() {
        let obs = Obs::disabled();
        let self_sketch = Arc::new(AtomicSketch::new());
        let total_sketch = Arc::new(AtomicSketch::new());
        {
            let _outer = obs
                .span("outer", SimTime::ZERO)
                .record_total_into(total_sketch.clone());
            let _inner = obs
                .span("inner", SimTime::ZERO)
                .record_self_into(self_sketch.clone());
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(self_sketch.count(), 1);
        assert_eq!(total_sketch.count(), 1);
        // Nanosecond ticks: 1 ms sleep is at least ~500k ns even on a
        // noisy host.
        assert!(self_sketch.snapshot().max().unwrap() >= 500_000);
        // The outer total covers the inner self time.
        assert!(total_sketch.snapshot().max().unwrap() >= self_sketch.snapshot().max().unwrap());
    }

    #[test]
    fn sibling_spans_each_charge_the_parent() {
        let obs = Obs::disabled();
        let tick = Arc::new(AtomicSketch::new());
        let phase = Arc::new(AtomicSketch::new());
        {
            let _tick = obs
                .span("tick", SimTime::ZERO)
                .record_total_into(tick.clone());
            for _ in 0..2 {
                let _phase = obs
                    .span("phase", SimTime::ZERO)
                    .record_self_into(phase.clone());
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
        }
        assert_eq!(tick.count(), 1);
        assert_eq!(phase.count(), 2);
        let children: u128 = phase.snapshot().sum();
        let parent: u128 = tick.snapshot().sum();
        assert!(
            parent >= children,
            "parent total {parent} < children {children}"
        );
    }
}
