//! Mixed sessions: switching between applications.
//!
//! Real usage is not one app for three minutes — it is a feed, then a
//! game, then a chat. [`AppSwitcher`] wraps a list of models and rotates
//! through them on a fixed cadence, forcing a full-screen redraw at each
//! switch (the launch/resume transition). For the governor this is a
//! workload whose *regime* changes every segment: the control loop must
//! re-converge after every switch.

use ccdem_pixelbuf::buffer::FrameBuffer;
use ccdem_simkit::rng::SimRng;
use ccdem_simkit::time::{SimDuration, SimTime};

use crate::app::{AppClass, AppModel, ContentChange, FrameTick, InputContext};

/// Rotates through inner app models on a fixed segment length.
///
/// # Examples
///
/// ```
/// use ccdem_workloads::app::{AppModel, InputContext};
/// use ccdem_workloads::catalog;
/// use ccdem_workloads::switcher::AppSwitcher;
/// use ccdem_simkit::rng::SimRng;
/// use ccdem_simkit::time::{SimDuration, SimTime};
///
/// let mut session = AppSwitcher::new(
///     vec![
///         Box::new(catalog::facebook().instantiate()),
///         Box::new(catalog::jelly_splash().instantiate()),
///     ],
///     SimDuration::from_secs(30),
/// );
/// let mut rng = SimRng::seed_from_u64(1);
/// // Second 0: Facebook. Second 31: Jelly Splash.
/// session.tick(SimTime::ZERO, &InputContext::default(), &mut rng);
/// assert_eq!(session.active_index(SimTime::from_secs(31)), 1);
/// ```
pub struct AppSwitcher {
    apps: Vec<Box<dyn AppModel>>,
    segment: SimDuration,
    last_index: Option<usize>,
}

impl AppSwitcher {
    /// Creates a session rotating through `apps`, `segment` each.
    ///
    /// # Panics
    ///
    /// Panics if `apps` is empty or `segment` is zero.
    pub fn new(apps: Vec<Box<dyn AppModel>>, segment: SimDuration) -> AppSwitcher {
        assert!(!apps.is_empty(), "switcher needs at least one app");
        assert!(!segment.is_zero(), "segment must be non-zero");
        AppSwitcher {
            apps,
            segment,
            last_index: None,
        }
    }

    /// Which inner app is on screen at `now`.
    pub fn active_index(&self, now: SimTime) -> usize {
        ((now.as_micros() / self.segment.as_micros()) as usize) % self.apps.len()
    }

    /// Number of apps in the rotation.
    pub fn len(&self) -> usize {
        self.apps.len()
    }

    /// Always `false`: the rotation is non-empty by construction.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The segment length.
    pub fn segment(&self) -> SimDuration {
        self.segment
    }
}

impl std::fmt::Debug for AppSwitcher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AppSwitcher")
            .field(
                "apps",
                &self.apps.iter().map(|a| a.name()).collect::<Vec<_>>(),
            )
            .field("segment", &self.segment)
            .finish()
    }
}

impl AppModel for AppSwitcher {
    fn name(&self) -> &str {
        "mixed session"
    }

    fn class(&self) -> AppClass {
        AppClass::General
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "`active_index` is modulo `apps.len()`"
    )]
    fn tick(&mut self, now: SimTime, input: &InputContext, rng: &mut SimRng) -> FrameTick {
        let index = self.active_index(now);
        let switched = self.last_index != Some(index);
        self.last_index = Some(index);
        let mut tick = self.apps[index].tick(now, input, rng);
        if switched {
            // The launch/resume transition repaints the whole screen.
            tick.change = ContentChange::FullRedraw;
        }
        tick
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "`last_index` comes from `active_index`, modulo `apps.len()`; \
                  0 is valid (non-empty set)"
    )]
    fn render(&mut self, change: ContentChange, buffer: &mut FrameBuffer, rng: &mut SimRng) {
        let index = self.last_index.unwrap_or(0);
        self.apps[index].render(change, buffer, rng);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;

    fn session() -> AppSwitcher {
        AppSwitcher::new(
            vec![
                Box::new(catalog::facebook().instantiate()),
                Box::new(catalog::jelly_splash().instantiate()),
                Box::new(catalog::by_name("Weather").unwrap().instantiate()),
            ],
            SimDuration::from_secs(10),
        )
    }

    #[test]
    fn rotation_wraps_around() {
        let s = session();
        assert_eq!(s.active_index(SimTime::from_secs(5)), 0);
        assert_eq!(s.active_index(SimTime::from_secs(15)), 1);
        assert_eq!(s.active_index(SimTime::from_secs(25)), 2);
        assert_eq!(s.active_index(SimTime::from_secs(35)), 0);
    }

    #[test]
    fn switch_forces_a_full_redraw() {
        let mut s = session();
        let mut rng = SimRng::seed_from_u64(2);
        let ctx = InputContext::default();
        let first = s.tick(SimTime::ZERO, &ctx, &mut rng);
        assert_eq!(first.change, ContentChange::FullRedraw);
        // Crossing a segment boundary redraws again.
        s.tick(SimTime::from_secs(5), &ctx, &mut rng);
        let at_switch = s.tick(SimTime::from_secs(10), &ctx, &mut rng);
        assert_eq!(at_switch.change, ContentChange::FullRedraw);
    }

    #[test]
    fn cadence_follows_the_active_app() {
        let mut s = session();
        let mut rng = SimRng::seed_from_u64(3);
        let ctx = InputContext::default();
        // Segment 0 = Facebook (5 fps idle): long intervals.
        s.tick(SimTime::ZERO, &ctx, &mut rng);
        let fb = s.tick(SimTime::from_secs(2), &ctx, &mut rng);
        assert!(fb.next_in > SimDuration::from_millis(100));
        // Segment 1 = Jelly Splash (60 fps): short intervals.
        let js = s.tick(SimTime::from_secs(12), &ctx, &mut rng);
        assert!(js.next_in < SimDuration::from_millis(25));
    }

    #[test]
    #[should_panic(expected = "at least one app")]
    fn empty_rotation_rejected() {
        let _ = AppSwitcher::new(Vec::new(), SimDuration::from_secs(10));
    }

    #[test]
    fn debug_lists_app_names() {
        let s = session();
        let dbg = format!("{s:?}");
        assert!(dbg.contains("Facebook"));
        assert!(dbg.contains("Jelly Splash"));
    }
}
