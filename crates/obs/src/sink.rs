//! Event sinks: where emitted telemetry goes.
//!
//! Two implementations cover the repo's needs: [`RingSink`] (bounded
//! in-memory buffer for tests) and [`JsonlSink`] (append one JSON line
//! per event to a writer). A disabled [`Obs`](crate::Obs) handle holds
//! no sink at all.
//!
//! All sinks are `Send + Sync`; a single sink may receive events from
//! several simulation worker threads at once. Sinks must never panic or
//! propagate I/O errors into the simulation — telemetry failures cannot
//! change a run's results — but they are not allowed to lose data
//! *silently* either: [`RingSink`] counts evictions and [`JsonlSink`]
//! counts I/O errors (both also feed the `obs.events_dropped` /
//! `obs.io_errors` registry counters, so `obs_summary` reports surface
//! them), and [`JsonlSink`] re-raises unreported I/O trouble as a stderr
//! warning when dropped.

use std::collections::VecDeque;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::event::Event;
use crate::registry::{metrics, Counter};

/// Destination for emitted [`Event`]s.
pub trait EventSink: Send + Sync {
    /// Accepts one event. Implementations must not panic.
    fn emit(&self, event: Event);

    /// Forces buffered output out (default: no-op).
    fn flush(&self) {}
}

/// Keeps the most recent `capacity` events in memory.
///
/// Intended for tests: run instrumented code, then inspect
/// [`events`](RingSink::events). When the ring is full the oldest event
/// is evicted; evictions are counted ([`dropped`](RingSink::dropped),
/// also the `obs.events_dropped` registry counter) so truncated traces
/// are detectable.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use ccdem_obs::{Obs, RingSink};
/// use ccdem_simkit::time::SimTime;
///
/// let sink = Arc::new(RingSink::new(2));
/// let obs = Obs::to_sink(sink.clone());
/// for i in 0..5u64 {
///     obs.emit("tick", SimTime::from_micros(i), |_| {});
/// }
/// let events = sink.events();
/// assert_eq!(events.len(), 2);
/// assert_eq!(events[0].sim_us, 3); // oldest events were evicted
/// assert_eq!(sink.dropped(), 3);
/// ```
pub struct RingSink {
    capacity: usize,
    buffer: Mutex<VecDeque<Event>>,
    dropped: AtomicU64,
    // Registry handle resolved once at construction — never on the emit
    // path, which may run inside simulation workers.
    dropped_metric: Arc<Counter>,
}

impl RingSink {
    /// A ring holding at most `capacity` events (minimum 1).
    pub fn new(capacity: usize) -> RingSink {
        RingSink {
            capacity: capacity.max(1),
            buffer: Mutex::new(VecDeque::new()),
            dropped: AtomicU64::new(0),
            dropped_metric: metrics().counter("obs.events_dropped"),
        }
    }

    /// The buffered events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.buffer.lock().map_or_else(
            |poisoned| poisoned.into_inner().iter().cloned().collect(),
            |buffer| buffer.iter().cloned().collect(),
        )
    }

    /// How many events are currently buffered.
    pub fn len(&self) -> usize {
        self.buffer.lock().map_or_else(
            |poisoned| poisoned.into_inner().len(),
            |buffer| buffer.len(),
        )
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// How many events this sink has evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        // ordering: relaxed — monotonic counter read for reporting.
        self.dropped.load(Ordering::Relaxed)
    }
}

impl EventSink for RingSink {
    fn emit(&self, event: Event) {
        if let Ok(mut buffer) = self.buffer.lock() {
            if buffer.len() == self.capacity {
                buffer.pop_front();
                // ordering: relaxed — monotonic counter; the mutex on
                // `buffer` already orders the eviction itself.
                self.dropped.fetch_add(1, Ordering::Relaxed);
                self.dropped_metric.inc();
            }
            buffer.push_back(event);
        }
    }
}

impl std::fmt::Debug for RingSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RingSink")
            .field("capacity", &self.capacity)
            .field("len", &self.len())
            .field("dropped", &self.dropped())
            .finish()
    }
}

/// Writes each event as one JSON line (see [`crate::json`]).
///
/// Output is buffered; call [`flush`](EventSink::flush) (or
/// [`Obs::flush`](crate::Obs::flush)) before reading the file, or
/// [`try_flush`](JsonlSink::try_flush) to observe the I/O result. Write
/// errors never reach the simulation, but they are **counted**
/// ([`io_errors`](JsonlSink::io_errors), plus the `obs.io_errors`
/// registry counter) with the last error text retained
/// ([`last_error`](JsonlSink::last_error)); a sink dropped with
/// unreported errors prints one stderr warning. `lines_written` counts
/// only successful writes, so callers can detect truncation.
pub struct JsonlSink {
    writer: Mutex<BufWriter<Box<dyn Write + Send>>>,
    lines: AtomicU64,
    io_errors: AtomicU64,
    last_error: Mutex<Option<String>>,
    io_errors_metric: Arc<Counter>,
}

impl JsonlSink {
    /// Creates (truncating) `path` and writes events to it, creating any
    /// missing parent directories first.
    ///
    /// # Errors
    ///
    /// Returns the underlying error if the directories or file cannot be
    /// created.
    pub fn create(path: impl AsRef<Path>) -> io::Result<JsonlSink> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        Ok(JsonlSink::to_writer(File::create(path)?))
    }

    /// Writes events to an arbitrary writer (e.g. a `Vec<u8>` in tests).
    pub fn to_writer(writer: impl Write + Send + 'static) -> JsonlSink {
        JsonlSink {
            writer: Mutex::new(BufWriter::new(Box::new(writer))),
            lines: AtomicU64::new(0),
            io_errors: AtomicU64::new(0),
            last_error: Mutex::new(None),
            io_errors_metric: metrics().counter("obs.io_errors"),
        }
    }

    /// Number of lines successfully written so far.
    pub fn lines_written(&self) -> u64 {
        // ordering: relaxed — monotonic counter read for reporting.
        self.lines.load(Ordering::Relaxed)
    }

    /// Number of failed writes/flushes so far.
    pub fn io_errors(&self) -> u64 {
        // ordering: relaxed — monotonic counter read for reporting.
        self.io_errors.load(Ordering::Relaxed)
    }

    /// The most recent I/O error's text, if any write or flush failed.
    pub fn last_error(&self) -> Option<String> {
        self.last_error.lock().map_or(None, |last| last.clone())
    }

    /// Flushes buffered output, surfacing the I/O result instead of
    /// swallowing it (unlike the [`EventSink::flush`] trait hook, which
    /// must stay infallible for use inside simulations).
    ///
    /// # Errors
    ///
    /// Returns the first flush error; the error is also counted in
    /// [`io_errors`](JsonlSink::io_errors).
    pub fn try_flush(&self) -> io::Result<()> {
        let result = match self.writer.lock() {
            Ok(mut writer) => writer.flush(),
            Err(poisoned) => poisoned.into_inner().flush(),
        };
        if let Err(error) = &result {
            self.note_error(error);
        }
        result
    }

    fn note_error(&self, error: &io::Error) {
        // ordering: relaxed — monotonic counter; `last_error`'s mutex
        // publishes the error text, the count needs no edge of its own.
        self.io_errors.fetch_add(1, Ordering::Relaxed);
        self.io_errors_metric.inc();
        if let Ok(mut last) = self.last_error.lock() {
            *last = Some(error.to_string());
        }
    }
}

impl EventSink for JsonlSink {
    fn emit(&self, event: Event) {
        let mut line = event.to_jsonl();
        line.push('\n');
        if let Ok(mut writer) = self.writer.lock() {
            match writer.write_all(line.as_bytes()) {
                Ok(()) => {
                    // ordering: relaxed — monotonic counter; the writer
                    // mutex already orders the write it counts.
                    self.lines.fetch_add(1, Ordering::Relaxed);
                }
                Err(error) => self.note_error(&error),
            }
        }
    }

    fn flush(&self) {
        let _ = self.try_flush();
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        // Surface trouble at the last possible moment: flush once more,
        // and if anything ever failed, say so on stderr (never panic —
        // the sink may drop during another panic's unwind).
        let _ = self.try_flush();
        let errors = self.io_errors();
        if errors > 0 {
            let detail = self
                .last_error()
                .unwrap_or_else(|| String::from("unknown error"));
            eprintln!(
                "warning: telemetry JSONL sink hit {errors} I/O error(s); \
                 output is incomplete (last: {detail})"
            );
        }
    }
}

impl std::fmt::Debug for JsonlSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonlSink")
            .field("lines", &self.lines_written())
            .field("io_errors", &self.io_errors())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccdem_simkit::time::SimTime;
    use std::sync::Arc;

    /// A writer handing bytes to a shared buffer, for inspecting sink output.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// A writer that fails every operation, for error-path tests.
    struct BrokenWriter;

    impl Write for BrokenWriter {
        fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
            Err(io::Error::other("disk on fire"))
        }
        fn flush(&mut self) -> io::Result<()> {
            Err(io::Error::other("disk on fire"))
        }
    }

    #[test]
    fn ring_keeps_only_the_newest_events() {
        let sink = RingSink::new(3);
        for i in 0..10u64 {
            sink.emit(Event::new("e", SimTime::from_micros(i)));
        }
        let events = sink.events();
        assert_eq!(events.len(), 3);
        assert_eq!(
            events.iter().map(|e| e.sim_us).collect::<Vec<_>>(),
            vec![7, 8, 9]
        );
        assert_eq!(sink.dropped(), 7);
    }

    #[test]
    fn ring_counts_no_drops_below_capacity() {
        let sink = RingSink::new(8);
        sink.emit(Event::new("a", SimTime::ZERO));
        assert_eq!(sink.dropped(), 0);
        let debug = format!("{sink:?}");
        assert!(debug.contains("dropped: 0"), "debug output: {debug}");
        assert!(debug.contains("len: 1"), "debug output: {debug}");
    }

    #[test]
    fn ring_capacity_is_clamped_to_one() {
        let sink = RingSink::new(0);
        sink.emit(Event::new("a", SimTime::ZERO));
        sink.emit(Event::new("b", SimTime::ZERO));
        assert_eq!(sink.len(), 1);
        assert_eq!(sink.events()[0].name, "b");
        assert_eq!(sink.dropped(), 1);
        assert!(format!("{sink:?}").contains("dropped: 1"));
    }

    #[test]
    fn ring_drops_feed_the_global_registry() {
        let counter = metrics().counter("obs.events_dropped");
        let before = counter.get();
        let sink = RingSink::new(1);
        sink.emit(Event::new("a", SimTime::ZERO));
        sink.emit(Event::new("b", SimTime::ZERO));
        assert!(counter.get() > before);
    }

    #[test]
    fn jsonl_sink_writes_one_parseable_line_per_event() {
        let buf = SharedBuf::default();
        let sink = JsonlSink::to_writer(buf.clone());
        let mut e = Event::new("run.start", SimTime::ZERO);
        e.field("app", "facebook");
        sink.emit(e);
        sink.emit(Event::new("run.end", SimTime::from_millis(5)));
        sink.flush();
        assert_eq!(sink.lines_written(), 2);
        assert_eq!(sink.io_errors(), 0);
        assert_eq!(sink.last_error(), None);

        let bytes = buf.0.lock().unwrap().clone();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            crate::json::parse(line).expect("sink output must be valid JSON");
        }
    }

    #[test]
    fn jsonl_sink_counts_and_reports_io_errors() {
        let counter = metrics().counter("obs.io_errors");
        let before = counter.get();
        let sink = JsonlSink::to_writer(BrokenWriter);
        // BufWriter defers the failure until its buffer spills or a flush.
        sink.emit(Event::new("x", SimTime::ZERO));
        assert!(sink.try_flush().is_err());
        assert!(sink.io_errors() >= 1);
        assert!(sink.last_error().unwrap().contains("disk on fire"));
        assert!(counter.get() > before);
        assert!(format!("{sink:?}").contains("io_errors"));
        drop(sink); // prints a warning, must not panic
    }

    #[test]
    fn jsonl_create_makes_missing_parent_directories() {
        let dir = std::env::temp_dir().join(format!(
            "ccdem-sink-test-{}-{}",
            std::process::id(),
            crate::host_micros(),
        ));
        let path = dir.join("a/b/trace.jsonl");
        let sink = JsonlSink::create(&path).expect("parents should be created");
        sink.emit(Event::new("x", SimTime::ZERO));
        assert!(sink.try_flush().is_ok());
        drop(sink);
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
