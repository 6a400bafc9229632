//! # ccdem-obs
//!
//! Observability for the `ccdem` governor/simulation stack: structured
//! events, a process-wide metrics registry, and pluggable sinks including
//! a JSONL writer for offline analysis.
//!
//! The crate is built around three pieces:
//!
//! * **Events** ([`event`]) — typed key/value telemetry records carrying
//!   both a reproducible *simulation* timestamp and an optional *host*
//!   timestamp. Sim-time fields are deterministic
//!   (two runs with the same seed emit identical sim-time streams); host
//!   times are measurement about the harness and never feed back into a
//!   simulation.
//! * **Metrics registry** ([`registry`]) — process-wide named counters,
//!   gauges and mergeable quantile sketches ([`sketch`]) with cheap
//!   relaxed-atomic updates on the hot path and a
//!   [`snapshot`](registry::MetricsRegistry::snapshot) API for reports.
//!   The sketch is the one distribution type: every registry sketch
//!   records thousandths of the unit its report prints (nanoseconds for
//!   µs latencies, thousandths of a frame per second for content rates),
//!   and sketch snapshots merge exactly and order-independently, the
//!   substrate for fleet-level percentiles.
//! * **Sinks** ([`sink`]) — where events go: an in-memory ring buffer
//!   for tests ([`sink::RingSink`]) or a JSON-lines writer
//!   ([`sink::JsonlSink`]; hand-rolled serializer, see [`json`]).
//!
//! Components hold an [`Obs`] handle. A disabled handle (the default)
//! holds no sink and reduces every emit to a branch on an `Option`, so
//! instrumented hot paths cost nothing when telemetry is off.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use ccdem_obs::{Obs, obs_event};
//! use ccdem_obs::sink::RingSink;
//! use ccdem_simkit::time::SimTime;
//!
//! let sink = Arc::new(RingSink::new(64));
//! let obs = Obs::to_sink(sink.clone());
//! obs_event!(obs, SimTime::from_millis(500), "governor.decision",
//!     trigger = "tick", rate_hz = 20u64);
//!
//! let events = sink.events();
//! assert_eq!(events.len(), 1);
//! assert_eq!(events[0].name, "governor.decision");
//! assert_eq!(events[0].sim_us, 500_000);
//! ```

pub mod event;
pub mod json;
pub mod progress;
pub mod registry;
pub mod sink;
pub mod sketch;

pub use event::{Event, Value};
pub use registry::{metrics, Counter, Gauge, MetricsRegistry, MetricsSnapshot};
pub use sink::{EventSink, JsonlSink, RingSink};
pub use sketch::{AtomicSketch, QuantileSketch};

use std::sync::{Arc, OnceLock};
use std::time::Instant;

use ccdem_simkit::time::SimTime;

/// Microseconds of host-monotonic time since the first telemetry emission
/// in this process. Host stamps order events across threads but are not
/// reproducible across runs; they never appear in simulation results.
pub fn host_micros() -> u64 {
    static START: OnceLock<Instant> = OnceLock::new();
    let start = *START.get_or_init(Instant::now);
    start.elapsed().as_micros() as u64
}

/// A cheap, cloneable handle to an event sink.
///
/// The default handle is *disabled*: [`emit`](Obs::emit) becomes a no-op
/// without constructing an event, so instrumented code can call it
/// unconditionally.
///
/// # Examples
///
/// ```
/// use ccdem_obs::Obs;
/// use ccdem_simkit::time::SimTime;
///
/// let obs = Obs::disabled();
/// // A disabled emit never runs the field closure.
/// obs.emit("meter.frame", SimTime::ZERO, |_| panic!("not reached"));
/// ```
#[derive(Clone, Default)]
pub struct Obs {
    sink: Option<Arc<dyn EventSink>>,
}

impl Obs {
    /// A handle that drops every event (the default).
    pub fn disabled() -> Obs {
        Obs { sink: None }
    }

    /// A handle delivering events to `sink`.
    pub fn to_sink(sink: Arc<dyn EventSink>) -> Obs {
        Obs { sink: Some(sink) }
    }

    /// Emits one event named `name` at simulation time `now`. The
    /// `fields` closure populates key/value fields and runs only when the
    /// handle is enabled, so argument formatting costs nothing otherwise.
    pub fn emit(&self, name: &'static str, now: SimTime, fields: impl FnOnce(&mut Event)) {
        if let Some(sink) = &self.sink {
            let mut event = Event::new(name, now);
            event.host_us = Some(host_micros());
            fields(&mut event);
            sink.emit(event);
        }
    }

    /// Flushes the underlying sink (a no-op for a disabled handle).
    pub fn flush(&self) {
        if let Some(sink) = &self.sink {
            sink.flush();
        }
    }
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Obs({})",
            if self.sink.is_some() {
                "enabled"
            } else {
                "disabled"
            }
        )
    }
}

/// Emits an event through an [`Obs`] handle with literal key/value fields.
///
/// Expands to [`Obs::emit`] with a closure setting one field per
/// `key = value` pair; nothing is evaluated when the handle is disabled.
///
/// # Examples
///
/// ```
/// use ccdem_obs::{obs_event, Obs};
/// use ccdem_simkit::time::SimTime;
///
/// let obs = Obs::disabled();
/// obs_event!(obs, SimTime::ZERO, "panel.refresh", new_content = true);
/// ```
#[macro_export]
macro_rules! obs_event {
    ($obs:expr, $now:expr, $name:literal $(, $key:ident = $value:expr)* $(,)?) => {
        $obs.emit($name, $now, |_event| {
            $( _event.field(stringify!($key), $value); )*
        })
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_skips_field_closure() {
        let obs = Obs::disabled();
        let mut ran = false;
        obs.emit("x", SimTime::ZERO, |_| ran = true);
        assert!(!ran);
    }

    #[test]
    fn enabled_handle_delivers_events_in_order() {
        let sink = Arc::new(RingSink::new(8));
        let obs = Obs::to_sink(sink.clone());
        obs_event!(obs, SimTime::from_millis(1), "a", n = 1u64);
        obs_event!(obs, SimTime::from_millis(2), "b", n = 2u64);
        let events = sink.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].name, "a");
        assert_eq!(events[1].name, "b");
        assert_eq!(events[1].get("n"), Some(&Value::U64(2)));
        assert!(events[0].host_us.is_some());
    }

    #[test]
    fn clones_share_the_sink() {
        let sink = Arc::new(RingSink::new(8));
        let obs = Obs::to_sink(sink.clone());
        let clone = obs.clone();
        obs_event!(clone, SimTime::ZERO, "from_clone");
        assert_eq!(sink.events().len(), 1);
    }

    #[test]
    fn host_clock_is_monotonic() {
        let a = host_micros();
        let b = host_micros();
        assert!(b >= a);
    }

    #[test]
    fn debug_shows_state() {
        assert_eq!(format!("{:?}", Obs::disabled()), "Obs(disabled)");
    }
}
