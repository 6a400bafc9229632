//! The panel's refresh bookkeeping.
//!
//! The panel re-scans the framebuffer once per refresh period whether or
//! not its contents changed — this is precisely the energy waste the paper
//! attacks. [`Panel`] counts refreshes, and distinguishes refreshes that
//! scanned out *new* framebuffer content from self-refreshes of unchanged
//! content, using the framebuffer's write-generation counter.

use ccdem_obs::Obs;
use ccdem_simkit::time::SimTime;
use ccdem_simkit::trace::EventCounter;

use crate::device::DeviceProfile;

/// Scanout bookkeeping for one panel.
///
/// # Examples
///
/// ```
/// use ccdem_panel::device::DeviceProfile;
/// use ccdem_panel::panel::Panel;
/// use ccdem_simkit::time::SimTime;
///
/// let mut p = Panel::new(DeviceProfile::galaxy_s3());
/// p.refresh(SimTime::from_millis(16), 1); // new content (generation 1)
/// p.refresh(SimTime::from_millis(33), 1); // same generation: self-refresh
/// assert_eq!(p.refresh_count(), 2);
/// assert_eq!(p.content_scanout_count(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Panel {
    profile: DeviceProfile,
    displayed_generation: Option<u64>,
    refreshes: EventCounter,
    content_scanouts: EventCounter,
    obs: Obs,
}

impl Panel {
    /// Creates a panel for `profile` that has not yet displayed anything.
    pub fn new(profile: DeviceProfile) -> Panel {
        Panel {
            profile,
            displayed_generation: None,
            refreshes: EventCounter::new(),
            content_scanouts: EventCounter::new(),
            obs: Obs::disabled(),
        }
    }

    /// Routes per-refresh telemetry through `obs`. Scanout bookkeeping is
    /// unaffected; telemetry flows strictly outward.
    pub fn attach_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// The device profile.
    pub fn profile(&self) -> &DeviceProfile {
        &self.profile
    }

    /// Performs one hardware refresh at `now`, scanning out the
    /// framebuffer whose write-generation is `framebuffer_generation`.
    /// Returns `true` if this refresh displayed new content.
    pub fn refresh(&mut self, now: SimTime, framebuffer_generation: u64) -> bool {
        self.refreshes.record(now);
        let new_content = self.displayed_generation != Some(framebuffer_generation);
        if new_content {
            self.displayed_generation = Some(framebuffer_generation);
            self.content_scanouts.record(now);
        }
        self.obs.emit("panel.refresh", now, |event| {
            event
                .field("generation", framebuffer_generation)
                .field("new_content", new_content);
        });
        new_content
    }

    /// Generation of the framebuffer content currently on glass.
    pub fn displayed_generation(&self) -> Option<u64> {
        self.displayed_generation
    }

    /// Total hardware refreshes performed.
    pub fn refresh_count(&self) -> usize {
        self.refreshes.count()
    }

    /// Refreshes that displayed new framebuffer content.
    pub fn content_scanout_count(&self) -> usize {
        self.content_scanouts.count()
    }

    /// Refresh timestamps (for rate traces).
    pub fn refreshes(&self) -> &EventCounter {
        &self.refreshes
    }

    /// New-content scanout timestamps.
    pub fn content_scanouts(&self) -> &EventCounter {
        &self.content_scanouts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccdem_simkit::time::SimDuration;

    #[test]
    fn first_refresh_is_new_content() {
        let mut p = Panel::new(DeviceProfile::galaxy_s3());
        assert!(p.refresh(SimTime::ZERO, 0));
        assert_eq!(p.displayed_generation(), Some(0));
    }

    #[test]
    fn repeated_generation_is_self_refresh() {
        let mut p = Panel::new(DeviceProfile::galaxy_s3());
        assert!(p.refresh(SimTime::ZERO, 5));
        assert!(!p.refresh(SimTime::from_millis(16), 5));
        assert!(p.refresh(SimTime::from_millis(33), 6));
        assert_eq!(p.refresh_count(), 3);
        assert_eq!(p.content_scanout_count(), 2);
    }

    #[test]
    fn rates_observable_from_counters() {
        let mut p = Panel::new(DeviceProfile::galaxy_s3());
        for i in 0..60u64 {
            p.refresh(SimTime::from_micros(i * 16_667), i / 2);
        }
        let rate = p
            .refreshes()
            .rate_in(SimTime::ZERO, SimTime::ZERO + SimDuration::from_secs(1));
        assert!((rate - 60.0).abs() < 1.0);
        let content = p
            .content_scanouts()
            .rate_in(SimTime::ZERO, SimTime::ZERO + SimDuration::from_secs(1));
        assert!((content - 30.0).abs() < 1.0);
    }
}
