//! Trace-driven workloads: replay a recorded frame log.
//!
//! The synthetic catalog reproduces the paper's population statistics,
//! but a user evaluating the governor on *their* app wants to feed it
//! real behaviour. A [`FrameTrace`] is a recorded sequence of frame
//! submissions — timestamp plus whether the frame changed content — as
//! produced by any frame-log instrumentation (Android's `dumpsys
//! SurfaceFlinger --latency`, a compositor hook, or this crate's own
//! simulator via CSV export). [`TraceApp`] replays it through the
//! standard [`AppModel`] interface.
//!
//! The text format is one `microseconds,content` pair per line:
//!
//! ```text
//! # time_us,content(0|1)
//! 16667,1
//! 33334,0
//! 50000,1
//! ```

use std::fmt;
use std::str::FromStr;

use ccdem_pixelbuf::buffer::FrameBuffer;
use ccdem_pixelbuf::pixel::Pixel;
use ccdem_simkit::rng::SimRng;
use ccdem_simkit::time::{SimDuration, SimTime};

use crate::app::{AppClass, AppModel, ContentChange, FrameTick, InputContext};

/// One recorded frame submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEntry {
    /// Submission time.
    pub time: SimTime,
    /// Whether the frame changed content.
    pub content: bool,
}

/// Error parsing a frame-trace text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseTraceError {
    /// A line did not have exactly two comma-separated fields.
    BadLine {
        /// 1-based line number.
        line: usize,
    },
    /// A field failed to parse.
    BadField {
        /// 1-based line number.
        line: usize,
        /// The offending text.
        text: String,
    },
    /// Entries were not in non-decreasing time order.
    OutOfOrder {
        /// 1-based line number of the regressing entry.
        line: usize,
    },
    /// The trace contained no entries.
    Empty,
}

impl fmt::Display for ParseTraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseTraceError::BadLine { line } => {
                write!(f, "line {line}: expected `time_us,content`")
            }
            ParseTraceError::BadField { line, text } => {
                write!(f, "line {line}: cannot parse {text:?}")
            }
            ParseTraceError::OutOfOrder { line } => {
                write!(f, "line {line}: timestamps must be non-decreasing")
            }
            ParseTraceError::Empty => write!(f, "trace contains no entries"),
        }
    }
}

impl std::error::Error for ParseTraceError {}

/// A recorded, replayable frame log.
///
/// # Examples
///
/// ```
/// use ccdem_workloads::trace::FrameTrace;
///
/// let trace: FrameTrace = "16667,1\n33334,0\n50000,1\n".parse()?;
/// assert_eq!(trace.len(), 3);
/// assert_eq!(trace.content_frames(), 2);
/// # Ok::<(), ccdem_workloads::trace::ParseTraceError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameTrace {
    entries: Vec<TraceEntry>,
}

impl FrameTrace {
    /// Builds a trace from entries.
    ///
    /// # Errors
    ///
    /// Returns [`ParseTraceError::Empty`] for no entries and
    /// [`ParseTraceError::OutOfOrder`] if timestamps regress.
    pub fn new(entries: Vec<TraceEntry>) -> Result<FrameTrace, ParseTraceError> {
        if entries.is_empty() {
            return Err(ParseTraceError::Empty);
        }
        for (i, pair) in entries.windows(2).enumerate() {
            if let [a, b] = pair {
                if b.time < a.time {
                    return Err(ParseTraceError::OutOfOrder { line: i + 2 });
                }
            }
        }
        Ok(FrameTrace { entries })
    }

    /// The recorded entries, in time order.
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// Number of recorded submissions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Always `false`: traces are non-empty by construction.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Number of content-carrying submissions.
    pub fn content_frames(&self) -> usize {
        self.entries.iter().filter(|e| e.content).count()
    }

    /// The last entry's timestamp.
    pub fn duration(&self) -> SimTime {
        // Traces are non-empty by construction ([`FrameTrace::new`]).
        self.entries.last().map_or(SimTime::ZERO, |e| e.time)
    }
}

impl FromStr for FrameTrace {
    type Err = ParseTraceError;

    fn from_str(s: &str) -> Result<FrameTrace, ParseTraceError> {
        let mut entries = Vec::new();
        for (i, raw) in s.lines().enumerate() {
            let line = i + 1;
            let trimmed = raw.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            let mut fields = trimmed.split(',');
            let (Some(t), Some(c), None) = (fields.next(), fields.next(), fields.next()) else {
                return Err(ParseTraceError::BadLine { line });
            };
            let micros: u64 = t.trim().parse().map_err(|_| ParseTraceError::BadField {
                line,
                text: t.trim().to_string(),
            })?;
            let content = match c.trim() {
                "0" => false,
                "1" => true,
                other => {
                    return Err(ParseTraceError::BadField {
                        line,
                        text: other.to_string(),
                    })
                }
            };
            entries.push(TraceEntry {
                time: SimTime::from_micros(micros),
                content,
            });
        }
        FrameTrace::new(entries)
    }
}

/// Replays a [`FrameTrace`] through the [`AppModel`] interface, looping
/// back to the start when the trace runs out (so any run duration is
/// covered).
#[derive(Debug, Clone)]
pub struct TraceApp {
    trace: FrameTrace,
    cursor: usize,
    loop_offset: SimDuration,
    grey: u8,
}

impl TraceApp {
    /// Creates a replayer over `trace`.
    pub fn new(trace: FrameTrace) -> TraceApp {
        TraceApp {
            trace,
            cursor: 0,
            loop_offset: SimDuration::ZERO,
            grey: 0,
        }
    }

    /// The trace being replayed.
    pub fn trace(&self) -> &FrameTrace {
        &self.trace
    }
}

impl AppModel for TraceApp {
    fn name(&self) -> &str {
        "trace replay"
    }

    fn class(&self) -> AppClass {
        AppClass::General
    }

    fn tick(&mut self, now: SimTime, _input: &InputContext, _rng: &mut SimRng) -> FrameTick {
        let entries = self.trace.entries();
        // Traces are non-empty and the cursor wraps to zero before it can
        // pass the end, so the lookups below cannot miss; fall back to an
        // idle tick rather than panicking if that ever changes.
        let Some(&current) = entries.get(self.cursor) else {
            self.cursor = 0;
            return FrameTick {
                change: ContentChange::None,
                next_in: SimDuration::from_micros(100),
            };
        };
        // Advance the cursor; wrap by restarting the trace relative to
        // the wall clock.
        self.cursor += 1;
        let next_time = match entries.get(self.cursor) {
            Some(next) => next.time + self.loop_offset,
            None => {
                self.cursor = 0;
                // Restart one nominal gap after `now`.
                let gap = SimDuration::from_micros(
                    (self.trace.duration().as_micros() / entries.len() as u64).max(1),
                );
                let first = entries.first().map_or(SimTime::ZERO, |e| e.time);
                self.loop_offset = (now + gap) - first;
                first + self.loop_offset
            }
        };
        let delay = next_time.saturating_since(now);
        FrameTick {
            change: if current.content {
                ContentChange::FullRedraw
            } else {
                ContentChange::None
            },
            // Never stall: a zero delay would re-enter at the same time.
            next_in: delay.max(SimDuration::from_micros(100)),
        }
    }

    fn render(&mut self, change: ContentChange, buffer: &mut FrameBuffer, _rng: &mut SimRng) {
        if change.is_content() {
            self.grey = if self.grey >= 250 { 1 } else { self.grey + 1 };
            buffer.fill(Pixel::grey(self.grey));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_with_comments_and_blanks() {
        let text = "# header\n\n16667,1\n 33334 , 0 \n50000,1\n";
        let t: FrameTrace = text.parse().unwrap();
        assert_eq!(t.len(), 3);
        assert_eq!(t.content_frames(), 2);
        assert_eq!(t.duration(), SimTime::from_micros(50_000));
    }

    #[test]
    fn rejects_malformed_lines() {
        assert_eq!(
            "16667".parse::<FrameTrace>(),
            Err(ParseTraceError::BadLine { line: 1 })
        );
        assert_eq!(
            "16667,2".parse::<FrameTrace>(),
            Err(ParseTraceError::BadField {
                line: 1,
                text: "2".into()
            })
        );
        assert_eq!(
            "x,1".parse::<FrameTrace>(),
            Err(ParseTraceError::BadField {
                line: 1,
                text: "x".into()
            })
        );
    }

    #[test]
    fn rejects_out_of_order_and_empty() {
        assert_eq!(
            "100,1\n50,0".parse::<FrameTrace>(),
            Err(ParseTraceError::OutOfOrder { line: 2 })
        );
        assert_eq!(
            "# only comments".parse::<FrameTrace>(),
            Err(ParseTraceError::Empty)
        );
    }

    #[test]
    fn replay_preserves_cadence_and_content() {
        let t: FrameTrace = "0,1\n10000,0\n20000,1\n".parse().unwrap();
        let mut app = TraceApp::new(t);
        let mut rng = SimRng::seed_from_u64(1);
        let ctx = InputContext::default();

        let first = app.tick(SimTime::ZERO, &ctx, &mut rng);
        assert!(first.change.is_content());
        assert_eq!(first.next_in, SimDuration::from_micros(10_000));

        let second = app.tick(SimTime::from_micros(10_000), &ctx, &mut rng);
        assert!(!second.change.is_content());
        assert_eq!(second.next_in, SimDuration::from_micros(10_000));
    }

    #[test]
    fn replay_loops_forever() {
        let t: FrameTrace = "0,1\n10000,1\n".parse().unwrap();
        let mut app = TraceApp::new(t);
        let mut rng = SimRng::seed_from_u64(2);
        let ctx = InputContext::default();
        let mut now = SimTime::ZERO;
        let mut content = 0;
        for _ in 0..100 {
            let tick = app.tick(now, &ctx, &mut rng);
            if tick.change.is_content() {
                content += 1;
            }
            now += tick.next_in;
        }
        assert_eq!(content, 100, "every frame in this trace is content");
        assert!(
            now > SimTime::from_micros(500_000),
            "time advanced across loops"
        );
    }

    #[test]
    fn error_messages_are_descriptive() {
        let e = "100,1\n50,0".parse::<FrameTrace>().unwrap_err();
        assert!(e.to_string().contains("non-decreasing"));
    }
}
