//! Frame accounting.
//!
//! Four event streams capture everything the evaluation needs:
//!
//! * *submissions* — every frame an application handed to the compositor;
//! * *content submissions* — submissions whose pixels actually changed
//!   (the app's intended content stream; its per-second rate is the
//!   **actual content rate** of Fig. 10);
//! * *composed frames* — framebuffer updates performed on V-Sync edges
//!   (their per-second rate is the paper's **frame rate**);
//! * *content composed* — composed frames that carried changed content
//!   (their per-second rate is the **displayed content rate**; actual
//!   minus displayed is the dropped-frame rate of Fig. 10).

use ccdem_simkit::time::SimTime;
use ccdem_simkit::trace::EventCounter;

/// The compositor's frame-event streams.
#[derive(Debug, Clone, Default)]
pub struct FrameStats {
    submissions: EventCounter,
    content_submissions: EventCounter,
    composed: EventCounter,
    content_composed: EventCounter,
}

impl FrameStats {
    /// Creates empty counters.
    pub fn new() -> FrameStats {
        FrameStats::default()
    }

    /// Records an application frame submission.
    pub fn record_submission(&mut self, now: SimTime, content_changed: bool) {
        self.submissions.record(now);
        if content_changed {
            self.content_submissions.record(now);
        }
    }

    /// Records a composition (framebuffer update).
    pub fn record_compose(&mut self, now: SimTime, content_changed: bool) {
        self.composed.record(now);
        if content_changed {
            self.content_composed.record(now);
        }
    }

    /// All application submissions.
    pub fn submissions(&self) -> &EventCounter {
        &self.submissions
    }

    /// Submissions carrying changed content.
    pub fn content_submissions(&self) -> &EventCounter {
        &self.content_submissions
    }

    /// Framebuffer updates (the paper's frame rate).
    pub fn composed(&self) -> &EventCounter {
        &self.composed
    }

    /// Framebuffer updates that displayed new content.
    pub fn content_composed(&self) -> &EventCounter {
        &self.content_composed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_partition_correctly() {
        let mut s = FrameStats::new();
        s.record_submission(SimTime::from_millis(1), true);
        s.record_submission(SimTime::from_millis(2), false);
        s.record_submission(SimTime::from_millis(3), true);
        s.record_compose(SimTime::from_millis(4), true);
        assert_eq!(s.submissions().count(), 3);
        assert_eq!(s.content_submissions().count(), 2);
        assert_eq!(s.composed().count(), 1);
        assert_eq!(s.content_composed().count(), 1);
    }
}
