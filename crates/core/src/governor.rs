//! The display-energy governor: the paper's full system.
//!
//! The governor owns a [`ContentRateMeter`] fed from the compositor's
//! framebuffer writes, a [`SectionTable`] for rate selection, and a
//! [`TouchBooster`]. Once per control window it emits a refresh-rate
//! decision; the embedding (e.g. `ccdem-experiments`) forwards decisions
//! to the panel's [`RefreshController`](ccdem_panel::RefreshController).

use std::fmt;

use ccdem_obs::{Obs, QuantileSketch};
use ccdem_panel::refresh::{RefreshRate, RefreshRateSet};
use ccdem_pixelbuf::buffer::FrameBuffer;
use ccdem_pixelbuf::damage::DamageRegion;
use ccdem_pixelbuf::geometry::Resolution;
use ccdem_pixelbuf::grid::GridSampler;
use ccdem_pixelbuf::pool::PixelPool;
use ccdem_simkit::time::{SimDuration, SimTime};
use ccdem_simkit::trace::Trace;

use crate::boost::TouchBooster;
use crate::content_rate::ContentRate;
use crate::hysteresis::SwitchDamper;
use crate::meter::{ContentRateMeter, FrameClass};
use crate::section::{NaiveRateMapper, RateMapper, SectionTable};
use crate::smoothing::EwmaFilter;

/// Which control scheme the governor runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Policy {
    /// Stock Android: the maximum rate, always (the paper's baseline).
    FixedMax,
    /// The paper's rejected initial attempt: smallest rate ≥ content rate.
    /// Kept for ablations; gets stuck at low rates under V-Sync.
    NaiveMatch,
    /// Section-based control only (paper §3.2, Eq. 1).
    SectionOnly,
    /// Section-based control plus touch boosting — the full system.
    #[default]
    SectionWithBoost,
}

impl Policy {
    /// All policies, in evaluation order.
    pub const ALL: [Policy; 4] = [
        Policy::FixedMax,
        Policy::NaiveMatch,
        Policy::SectionOnly,
        Policy::SectionWithBoost,
    ];

    /// Whether this policy reacts to touch events.
    pub fn uses_touch_boost(self) -> bool {
        matches!(self, Policy::SectionWithBoost)
    }
}

impl fmt::Display for Policy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Policy::FixedMax => write!(f, "fixed 60 Hz baseline"),
            Policy::NaiveMatch => write!(f, "naive rate matching"),
            Policy::SectionOnly => write!(f, "section-based control"),
            Policy::SectionWithBoost => write!(f, "section-based control + touch boosting"),
        }
    }
}

/// Governor tuning knobs.
///
/// # Examples
///
/// ```
/// use ccdem_core::governor::{GovernorConfig, Policy};
/// use ccdem_simkit::time::SimDuration;
///
/// let cfg = GovernorConfig::new(Policy::SectionOnly)
///     .with_control_window(SimDuration::from_millis(250))
///     .with_grid_budget(36_864);
/// assert_eq!(cfg.grid_budget(), 36_864);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GovernorConfig {
    policy: Policy,
    control_window: SimDuration,
    grid_budget: usize,
    boost_hold: SimDuration,
    smoothing_alpha: f64,
    down_dwell: u32,
    naive_metering: bool,
}

impl GovernorConfig {
    /// The default control window. Short enough to track app phase
    /// changes within a second, long enough to average over V-Sync jitter.
    pub const DEFAULT_CONTROL_WINDOW: SimDuration = SimDuration::from_millis(500);

    /// The default grid budget: the paper's 9K-pixel configuration, which
    /// Fig. 6 shows is accurate at negligible cost.
    pub const DEFAULT_GRID_BUDGET: usize = 9_216;

    /// Creates a config for `policy` with the paper's defaults.
    pub fn new(policy: Policy) -> GovernorConfig {
        GovernorConfig {
            policy,
            control_window: Self::DEFAULT_CONTROL_WINDOW,
            grid_budget: Self::DEFAULT_GRID_BUDGET,
            boost_hold: TouchBooster::DEFAULT_HOLD,
            smoothing_alpha: 1.0,
            down_dwell: 1,
            naive_metering: false,
        }
    }

    /// Sets the content-rate measurement / decision window.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn with_control_window(mut self, window: SimDuration) -> GovernorConfig {
        assert!(!window.is_zero(), "control window must be non-zero");
        self.control_window = window;
        self
    }

    /// Sets the grid-comparison pixel budget.
    ///
    /// # Panics
    ///
    /// Panics if `budget` is zero.
    pub fn with_grid_budget(mut self, budget: usize) -> GovernorConfig {
        assert!(budget > 0, "grid budget must be non-zero");
        self.grid_budget = budget;
        self
    }

    /// Sets how long a touch boost is held after the last touch.
    pub fn with_boost_hold(mut self, hold: SimDuration) -> GovernorConfig {
        self.boost_hold = hold;
        self
    }

    /// Enables EWMA smoothing of the measured content rate before rate
    /// selection. `alpha` is the newest-sample weight; `1.0` (the
    /// default) reproduces the paper's unsmoothed behaviour. See
    /// [`crate::smoothing::EwmaFilter`].
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is not within `(0, 1]`.
    pub fn with_smoothing_alpha(mut self, alpha: f64) -> GovernorConfig {
        assert!(
            alpha > 0.0 && alpha <= 1.0,
            "smoothing alpha must be in (0, 1], got {alpha}"
        );
        self.smoothing_alpha = alpha;
        self
    }

    /// Requires `dwell` consecutive identical down-proposals before a
    /// refresh-rate decrease is applied (up-switches stay immediate).
    /// `1` (the default) reproduces the paper's undamped behaviour. See
    /// [`crate::hysteresis::SwitchDamper`].
    ///
    /// # Panics
    ///
    /// Panics if `dwell` is zero.
    pub fn with_down_dwell(mut self, dwell: u32) -> GovernorConfig {
        assert!(dwell > 0, "down dwell must be at least 1");
        self.down_dwell = dwell;
        self
    }

    /// The control policy.
    pub fn policy(&self) -> Policy {
        self.policy
    }

    /// The decision window.
    pub fn control_window(&self) -> SimDuration {
        self.control_window
    }

    /// The grid pixel budget.
    pub fn grid_budget(&self) -> usize {
        self.grid_budget
    }

    /// The boost hold period.
    pub fn boost_hold(&self) -> SimDuration {
        self.boost_hold
    }

    /// Runs the meter in naive mode: every frame is one scalar-oracle
    /// pass over the whole screen
    /// ([`GridSampler::reference_capture`](ccdem_pixelbuf::grid::GridSampler::reference_capture)),
    /// reading every grid point once and ignoring content generations,
    /// damage and tile signatures. Classifications and decisions are
    /// identical to the default fast paths; this exists for equivalence
    /// tests and benchmark baselines. See [`ContentRateMeter::set_naive`].
    pub fn with_naive_metering(mut self, naive: bool) -> GovernorConfig {
        self.naive_metering = naive;
        self
    }

    /// Whether the meter runs the naive reference path.
    pub fn naive_metering(&self) -> bool {
        self.naive_metering
    }

    /// The EWMA newest-sample weight (`1.0` = no smoothing).
    pub fn smoothing_alpha(&self) -> f64 {
        self.smoothing_alpha
    }

    /// Consecutive down-proposals required before a decrease applies.
    pub fn down_dwell(&self) -> u32 {
        self.down_dwell
    }
}

impl Default for GovernorConfig {
    fn default() -> Self {
        GovernorConfig::new(Policy::default())
    }
}

/// The content-centric display-energy governor.
///
/// # Examples
///
/// ```
/// use ccdem_core::governor::{Governor, GovernorConfig, Policy};
/// use ccdem_panel::refresh::{RefreshRate, RefreshRateSet};
/// use ccdem_pixelbuf::buffer::FrameBuffer;
/// use ccdem_pixelbuf::geometry::Resolution;
/// use ccdem_simkit::time::{SimDuration, SimTime};
///
/// let res = Resolution::new(72, 128);
/// let mut gov = Governor::new(
///     RefreshRateSet::galaxy_s3(),
///     res,
///     GovernorConfig::new(Policy::SectionOnly),
/// );
///
/// // A static screen: a few redundant frames, then a decision.
/// let fb = FrameBuffer::new(res);
/// for ms in [16u64, 33, 50] {
///     gov.on_framebuffer_update(&fb, SimTime::from_millis(ms));
/// }
/// let rate = gov.decide(SimTime::from_millis(500));
/// assert_eq!(rate, RefreshRate::HZ_20); // near-zero content rate → floor
/// ```
#[derive(Debug, Clone)]
pub struct Governor {
    config: GovernorConfig,
    rates: RefreshRateSet,
    table: SectionTable,
    naive: NaiveRateMapper,
    booster: TouchBooster,
    meter: ContentRateMeter,
    filter: EwmaFilter,
    damper: SwitchDamper,
    decisions: Trace,
    touch_boosts: u64,
    content_fps: QuantileSketch,
    obs: Obs,
}

impl Governor {
    /// Creates a governor for a panel with `rates`, metering a framebuffer
    /// of `resolution` under `config`.
    pub fn new(rates: RefreshRateSet, resolution: Resolution, config: GovernorConfig) -> Governor {
        Governor::with_scratch(rates, resolution, config, &mut PixelPool::new())
    }

    /// [`new`](Self::new), but seeding the meter's snapshot buffers from
    /// recycled `pool` storage. Behaviour is identical to a fresh
    /// governor (the snapshot is reset before first use); only the
    /// allocations are reused. Pair with [`recycle`](Self::recycle).
    pub fn with_scratch(
        rates: RefreshRateSet,
        resolution: Resolution,
        config: GovernorConfig,
        pool: &mut PixelPool,
    ) -> Governor {
        let sampler = GridSampler::for_pixel_budget(resolution, config.grid_budget());
        let table = SectionTable::new(rates.clone());
        let naive = NaiveRateMapper::new(rates.clone());
        Governor {
            config,
            rates,
            table,
            naive,
            booster: TouchBooster::new(config.boost_hold()),
            meter: {
                let mut meter = ContentRateMeter::with_scratch(sampler, pool);
                meter.set_naive(config.naive_metering());
                meter
            },
            filter: EwmaFilter::new(config.smoothing_alpha()),
            damper: SwitchDamper::new(config.down_dwell()),
            decisions: Trace::new(),
            touch_boosts: 0,
            content_fps: QuantileSketch::new(),
            obs: Obs::disabled(),
        }
    }

    /// Consumes the governor, handing the meter's snapshot storage back
    /// to `pool` for the next run.
    pub fn recycle(self, pool: &mut PixelPool) {
        self.meter.recycle(pool);
    }

    /// Routes decision telemetry through `obs` and propagates the handle
    /// to the content-rate meter. Decisions are unaffected: telemetry
    /// flows strictly outward.
    pub fn attach_obs(&mut self, obs: Obs) {
        self.meter.attach_obs(obs.clone());
        self.obs = obs;
    }

    /// The governor's configuration.
    pub fn config(&self) -> &GovernorConfig {
        &self.config
    }

    /// The content-rate meter (read access for traces and tests).
    pub fn meter(&self) -> &ContentRateMeter {
        &self.meter
    }

    /// Decision history (Hz over time).
    pub fn decisions(&self) -> &Trace {
        &self.decisions
    }

    /// Decisions made by a touch boost (see [`on_touch`](Self::on_touch)).
    pub fn touch_boosts(&self) -> u64 {
        self.touch_boosts
    }

    /// The content rate measured at each control tick, in thousandths
    /// of a frame per second.
    pub fn content_fps(&self) -> &QuantileSketch {
        &self.content_fps
    }

    /// Feeds one framebuffer update into the meter.
    ///
    /// Call this after every composition, with the composed framebuffer.
    pub fn on_framebuffer_update(&mut self, framebuffer: &FrameBuffer, now: SimTime) -> FrameClass {
        self.meter.observe(framebuffer, now)
    }

    /// Feeds one framebuffer update into the meter together with the
    /// [`DamageRegion`] this composition produced (the compositor hands
    /// it out per composed frame), letting the meter restrict its grid
    /// comparison to the pixels that could have changed. Classification
    /// is identical to
    /// [`on_framebuffer_update`](Self::on_framebuffer_update).
    pub fn on_framebuffer_update_damaged(
        &mut self,
        framebuffer: &FrameBuffer,
        damage: &DamageRegion,
        now: SimTime,
    ) -> FrameClass {
        self.meter.observe_damaged(framebuffer, damage, now)
    }

    /// Registers a touch event. Under [`Policy::SectionWithBoost`] this
    /// returns an immediate rate decision (the maximum rate) that the
    /// embedding should apply without waiting for the next control tick;
    /// other policies return `None`.
    pub fn on_touch(&mut self, now: SimTime) -> Option<RefreshRate> {
        self.booster.on_touch(now);
        if self.config.policy().uses_touch_boost() {
            let rate = self.damper.apply(self.rates.max());
            self.decisions.push(now, rate.hz_f64());
            self.touch_boosts += 1;
            self.obs.emit("governor.decision", now, |event| {
                event
                    .field("trigger", "touch")
                    .field("rate_hz", rate.hz())
                    .field("boost", true);
            });
            Some(rate)
        } else {
            None
        }
    }

    /// The content rate measured over the trailing control window.
    pub fn measured_content_rate(&self, now: SimTime) -> ContentRate {
        self.meter.content_rate(now, self.config.control_window())
    }

    /// One control tick: measures the content rate over the trailing
    /// window and returns the refresh rate to apply.
    pub fn decide(&mut self, now: SimTime) -> RefreshRate {
        let measured = self.measured_content_rate(now);
        let cr = self.filter.update(measured);
        let boost_active = self.config.policy().uses_touch_boost() && self.booster.is_active(now);
        let proposed = match self.config.policy() {
            Policy::FixedMax => self.rates.max(),
            Policy::NaiveMatch => self.naive.rate_for(cr),
            Policy::SectionOnly => self.table.rate_for(cr),
            Policy::SectionWithBoost => {
                if boost_active {
                    self.rates.max()
                } else {
                    self.table.rate_for(cr)
                }
            }
        };
        let rate = self.damper.apply(proposed);
        self.decisions.push(now, rate.hz_f64());
        // Sketches hold thousandths of the unit they print in (here
        // fps); the float-to-int cast saturates.
        self.content_fps
            .record((measured.fps() * 1000.0).round() as u64);
        self.obs.emit("governor.decision", now, |event| {
            event
                .field("trigger", "tick")
                .field("content_fps", measured.fps())
                .field("filtered_fps", cr.fps())
                .field("proposed_hz", proposed.hz())
                .field("rate_hz", rate.hz())
                .field("boost", boost_active);
        });
        rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccdem_pixelbuf::pixel::Pixel;

    const RES: Resolution = Resolution::new(72, 128);

    fn governor(policy: Policy) -> Governor {
        Governor::new(
            RefreshRateSet::galaxy_s3(),
            RES,
            GovernorConfig::new(policy),
        )
    }

    /// Feeds `fps` meaningful frames per second for one window.
    fn feed_content(gov: &mut Governor, fps: u64, start: SimTime) -> SimTime {
        let mut fb = FrameBuffer::new(RES);
        let window = gov.config().control_window();
        let frames = fps * window.as_micros() / 1_000_000;
        for i in 0..frames {
            fb.fill(Pixel::grey((i % 251) as u8 + 1));
            let t = start + (window / frames.max(1)) * i;
            gov.on_framebuffer_update(&fb, t);
        }
        start + window
    }

    #[test]
    fn fixed_policy_always_max() {
        let mut gov = governor(Policy::FixedMax);
        let end = feed_content(&mut gov, 4, SimTime::ZERO);
        assert_eq!(gov.decide(end), RefreshRate::HZ_60);
    }

    #[test]
    fn section_policy_tracks_content_rate() {
        let mut gov = governor(Policy::SectionOnly);
        let end = feed_content(&mut gov, 8, SimTime::ZERO);
        assert_eq!(gov.decide(end), RefreshRate::HZ_20);

        let mut gov = governor(Policy::SectionOnly);
        let end = feed_content(&mut gov, 33, SimTime::ZERO);
        assert_eq!(gov.decide(end), RefreshRate::HZ_40);
    }

    #[test]
    fn touch_boost_overrides_section() {
        let mut gov = governor(Policy::SectionWithBoost);
        let end = feed_content(&mut gov, 2, SimTime::ZERO);
        assert_eq!(gov.on_touch(end), Some(RefreshRate::HZ_60));
        // Still boosted at the next tick.
        assert_eq!(
            gov.decide(end + SimDuration::from_millis(100)),
            RefreshRate::HZ_60
        );
        // After the hold lapses, section control resumes.
        let later = end + SimDuration::from_secs(5);
        assert_eq!(gov.decide(later), RefreshRate::HZ_20);
    }

    #[test]
    fn touch_without_boost_policy_returns_none() {
        let mut gov = governor(Policy::SectionOnly);
        assert_eq!(gov.on_touch(SimTime::from_millis(10)), None);
    }

    #[test]
    fn decisions_are_recorded() {
        let mut gov = governor(Policy::SectionOnly);
        let end = feed_content(&mut gov, 8, SimTime::ZERO);
        gov.decide(end);
        assert_eq!(gov.decisions().len(), 1);
        assert_eq!(gov.decisions().value_at(end), Some(20.0));
    }

    #[test]
    fn decision_always_in_supported_set() {
        for policy in Policy::ALL {
            for fps in [0u64, 5, 18, 26, 40, 58] {
                let mut gov = governor(policy);
                let end = feed_content(&mut gov, fps, SimTime::ZERO);
                let rate = gov.decide(end);
                assert!(
                    RefreshRateSet::galaxy_s3().contains(rate),
                    "{policy:?} picked unsupported {rate} at {fps} fps"
                );
            }
        }
    }

    #[test]
    fn naive_policy_picks_ceiling() {
        let mut gov = governor(Policy::NaiveMatch);
        let end = feed_content(&mut gov, 18, SimTime::ZERO);
        assert_eq!(gov.decide(end), RefreshRate::HZ_20);
    }

    #[test]
    #[should_panic(expected = "control window must be non-zero")]
    fn zero_window_rejected() {
        let _ = GovernorConfig::default().with_control_window(SimDuration::ZERO);
    }

    #[test]
    fn down_dwell_delays_descent_but_not_ascent() {
        let cfg = GovernorConfig::new(Policy::SectionOnly).with_down_dwell(2);
        let mut gov = Governor::new(RefreshRateSet::galaxy_s3(), RES, cfg);
        // Window 1: high content → 60 Hz (first decision passes through).
        let t1 = feed_content(&mut gov, 40, SimTime::ZERO);
        assert_eq!(gov.decide(t1), RefreshRate::HZ_60);
        // Windows 2–3: idle; the first 20 Hz proposal is suppressed, the
        // second lands.
        assert_eq!(
            gov.decide(t1 + SimDuration::from_millis(500)),
            RefreshRate::HZ_60
        );
        assert_eq!(
            gov.decide(t1 + SimDuration::from_secs(1)),
            RefreshRate::HZ_20
        );
    }

    #[test]
    fn smoothing_slows_the_downswing() {
        let sharp = {
            let mut gov = governor(Policy::SectionOnly);
            let t = feed_content(&mut gov, 40, SimTime::ZERO);
            gov.decide(t);
            gov.decide(t + SimDuration::from_millis(500)) // idle window
        };
        let smoothed = {
            let cfg = GovernorConfig::new(Policy::SectionOnly).with_smoothing_alpha(0.3);
            let mut gov = Governor::new(RefreshRateSet::galaxy_s3(), RES, cfg);
            let t = feed_content(&mut gov, 40, SimTime::ZERO);
            gov.decide(t);
            gov.decide(t + SimDuration::from_millis(500))
        };
        // Unsmoothed drops straight to the floor; the EWMA remembers the
        // 40 fps window and holds a higher rate.
        assert_eq!(sharp, RefreshRate::HZ_20);
        assert!(smoothed > sharp, "smoothed picked {smoothed}");
    }

    #[test]
    #[should_panic(expected = "smoothing alpha must be in (0, 1]")]
    fn bad_alpha_rejected() {
        let _ = GovernorConfig::default().with_smoothing_alpha(0.0);
    }

    #[test]
    #[should_panic(expected = "down dwell must be at least 1")]
    fn zero_dwell_rejected() {
        let _ = GovernorConfig::default().with_down_dwell(0);
    }

    #[test]
    fn defaults_reproduce_paper_behaviour() {
        let cfg = GovernorConfig::default();
        assert_eq!(cfg.smoothing_alpha(), 1.0);
        assert_eq!(cfg.down_dwell(), 1);
    }

    #[test]
    fn policy_display_and_predicates() {
        assert!(Policy::SectionWithBoost.uses_touch_boost());
        assert!(!Policy::SectionOnly.uses_touch_boost());
        assert!(Policy::SectionWithBoost.to_string().contains("boost"));
    }
}
