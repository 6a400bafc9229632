//! A fling-scroll reader workload.
//!
//! Han et al.'s E3 (reference 16 in the paper) observed that scrolling
//! dominates display energy in reading apps: a fling starts near 60 fps
//! of real content and decays smoothly as the scroll slows. For the
//! section-based governor this is the most interesting trajectory — the
//! content rate glides *down through every section* of the table rather
//! than jumping, so the controller should be seen stepping
//! 60→40→30→24→20 Hz behind it.

use ccdem_pixelbuf::buffer::FrameBuffer;
use ccdem_pixelbuf::draw;
use ccdem_pixelbuf::pixel::Pixel;
use ccdem_simkit::rng::SimRng;
use ccdem_simkit::time::{SimDuration, SimTime};

use crate::app::{AppClass, AppModel, ContentChange, FrameTick, InputContext};

/// Configuration of a fling reader.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlingConfig {
    /// Scroll velocity right after a fling, pixels per second.
    pub initial_velocity: f64,
    /// Exponential decay time constant of the velocity, seconds.
    pub decay_tau_s: f64,
    /// Velocity below which the scroll is considered stopped. (px/s)
    pub stop_velocity: f64,
    /// Frame-request rate while scrolling.
    pub active_request_fps: f64,
    /// Frame-request rate while idle (cursor blink, ad rotator).
    pub idle_request_fps: f64,
}

impl FlingConfig {
    /// A typical reader fling: fast start, ~1 s of visible deceleration.
    pub fn reader() -> FlingConfig {
        FlingConfig {
            initial_velocity: 2_400.0,
            decay_tau_s: 0.8,
            stop_velocity: 30.0,
            active_request_fps: 60.0,
            idle_request_fps: 4.0,
        }
    }
}

impl Default for FlingConfig {
    fn default() -> Self {
        FlingConfig::reader()
    }
}

/// A reader app whose content rate is driven by fling physics.
///
/// # Examples
///
/// ```
/// use ccdem_workloads::app::{AppModel, InputContext};
/// use ccdem_workloads::scrolling::{FlingConfig, FlingReader};
/// use ccdem_simkit::rng::SimRng;
/// use ccdem_simkit::time::SimTime;
///
/// let mut reader = FlingReader::new(FlingConfig::reader());
/// let mut rng = SimRng::seed_from_u64(1);
/// // Idle: slow polling, no content.
/// let tick = reader.tick(SimTime::ZERO, &InputContext::default(), &mut rng);
/// assert!(!tick.change.is_content());
/// // Right after a fling: scrolling at full tilt.
/// let ctx = InputContext { last_touch: Some(SimTime::from_secs(1)) };
/// let tick = reader.tick(SimTime::from_secs(1), &ctx, &mut rng);
/// assert!(tick.change.is_content());
/// ```
#[derive(Debug, Clone)]
pub struct FlingReader {
    config: FlingConfig,
    last_fling: Option<SimTime>,
    initialized: bool,
    line_seq: u64,
}

impl FlingReader {
    /// Creates an idle reader.
    ///
    /// # Panics
    ///
    /// Panics if any configured rate or the decay constant is not
    /// positive.
    pub fn new(config: FlingConfig) -> FlingReader {
        assert!(
            config.initial_velocity > 0.0,
            "initial_velocity must be positive"
        );
        assert!(config.decay_tau_s > 0.0, "decay_tau_s must be positive");
        assert!(
            config.active_request_fps > 0.0,
            "active_request_fps must be positive"
        );
        assert!(
            config.idle_request_fps > 0.0,
            "idle_request_fps must be positive"
        );
        FlingReader {
            config,
            last_fling: None,
            initialized: false,
            line_seq: 0,
        }
    }

    /// The reader's configuration.
    pub fn config(&self) -> &FlingConfig {
        &self.config
    }

    /// The scroll velocity at `now`, in pixels per second.
    pub fn velocity_at(&self, now: SimTime) -> f64 {
        match self.last_fling {
            Some(fling) if now >= fling => {
                let dt = (now - fling).as_secs_f64();
                self.config.initial_velocity * (-dt / self.config.decay_tau_s).exp()
            }
            _ => 0.0,
        }
    }

    /// Whether the scroll is still visibly moving at `now`.
    pub fn is_scrolling(&self, now: SimTime) -> bool {
        self.velocity_at(now) >= self.config.stop_velocity
    }
}

impl AppModel for FlingReader {
    fn name(&self) -> &str {
        "fling reader"
    }

    fn class(&self) -> AppClass {
        AppClass::General
    }

    fn tick(&mut self, now: SimTime, input: &InputContext, _rng: &mut SimRng) -> FrameTick {
        // Any new touch restarts the fling.
        if let Some(touch) = input.last_touch {
            if touch <= now && self.last_fling.is_none_or(|f| touch > f) {
                self.last_fling = Some(touch);
            }
        }
        if self.is_scrolling(now) {
            let fps = self.config.active_request_fps;
            let dy = (self.velocity_at(now) / fps).round().max(1.0) as u32;
            FrameTick {
                change: ContentChange::Scroll { dy },
                next_in: SimDuration::from_secs_f64(1.0 / fps),
            }
        } else {
            FrameTick {
                change: ContentChange::None,
                next_in: SimDuration::from_secs_f64(1.0 / self.config.idle_request_fps),
            }
        }
    }

    fn render(&mut self, change: ContentChange, buffer: &mut FrameBuffer, _rng: &mut SimRng) {
        if !self.initialized {
            draw::draw_text_rows(buffer, buffer.resolution().bounds(), 24, 0);
            self.initialized = true;
        }
        if let ContentChange::Scroll { dy } = change {
            self.line_seq += 1;
            // New "text" scrolls in from the bottom.
            let grey = 160 + (self.line_seq % 80) as u8;
            buffer.scroll_up(dy, Pixel::grey(grey));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(touch: Option<SimTime>) -> InputContext {
        InputContext { last_touch: touch }
    }

    #[test]
    fn velocity_decays_exponentially() {
        let mut r = FlingReader::new(FlingConfig::reader());
        let mut rng = SimRng::seed_from_u64(1);
        let fling = SimTime::from_secs(1);
        r.tick(fling, &ctx(Some(fling)), &mut rng);
        let v0 = r.velocity_at(fling);
        let v_tau = r.velocity_at(fling + SimDuration::from_millis(800));
        assert!((v0 - 2_400.0).abs() < 1e-9);
        assert!((v_tau / v0 - (-1.0f64).exp()).abs() < 1e-6);
    }

    #[test]
    fn scroll_stops_once_velocity_low() {
        let mut r = FlingReader::new(FlingConfig::reader());
        let mut rng = SimRng::seed_from_u64(2);
        let fling = SimTime::from_secs(1);
        r.tick(fling, &ctx(Some(fling)), &mut rng);
        // 2400·e^(-t/0.8) < 30 ⇒ t > 0.8·ln(80) ≈ 3.5 s.
        assert!(r.is_scrolling(fling + SimDuration::from_secs(3)));
        assert!(!r.is_scrolling(fling + SimDuration::from_secs(4)));
        let tick = r.tick(
            fling + SimDuration::from_secs(4),
            &ctx(Some(fling)),
            &mut rng,
        );
        assert!(!tick.change.is_content());
    }

    #[test]
    fn scroll_distance_tracks_velocity() {
        let mut r = FlingReader::new(FlingConfig::reader());
        let mut rng = SimRng::seed_from_u64(3);
        let fling = SimTime::from_secs(1);
        let early = r.tick(fling, &ctx(Some(fling)), &mut rng);
        let late = r.tick(
            fling + SimDuration::from_secs(2),
            &ctx(Some(fling)),
            &mut rng,
        );
        let dy = |t: &FrameTick| match t.change {
            ContentChange::Scroll { dy } => dy,
            other => panic!("expected scroll, got {other:?}"),
        };
        assert!(
            dy(&early) > dy(&late) * 5,
            "{} vs {}",
            dy(&early),
            dy(&late)
        );
    }

    #[test]
    fn new_touch_restarts_the_fling() {
        let mut r = FlingReader::new(FlingConfig::reader());
        let mut rng = SimRng::seed_from_u64(4);
        let first = SimTime::from_secs(1);
        r.tick(first, &ctx(Some(first)), &mut rng);
        let second = SimTime::from_secs(10);
        r.tick(second, &ctx(Some(second)), &mut rng);
        assert!((r.velocity_at(second) - 2_400.0).abs() < 1e-9);
    }

    #[test]
    fn idle_reader_never_scrolls() {
        let mut r = FlingReader::new(FlingConfig::reader());
        let mut rng = SimRng::seed_from_u64(5);
        for s in 0..10 {
            let tick = r.tick(SimTime::from_secs(s), &ctx(None), &mut rng);
            assert!(!tick.change.is_content());
        }
        assert_eq!(r.velocity_at(SimTime::from_secs(10)), 0.0);
    }

    #[test]
    fn render_scroll_changes_pixels() {
        use ccdem_pixelbuf::geometry::Resolution;
        let mut r = FlingReader::new(FlingConfig::reader());
        let mut rng = SimRng::seed_from_u64(6);
        let mut fb = FrameBuffer::new(Resolution::QUARTER);
        r.render(ContentChange::None, &mut fb, &mut rng); // initialize
        let before: Vec<_> = fb.pixels().collect();
        r.render(ContentChange::Scroll { dy: 30 }, &mut fb, &mut rng);
        assert!(!fb.pixels().eq(before.iter().copied()));
    }

    #[test]
    #[should_panic(expected = "decay_tau_s must be positive")]
    fn zero_tau_rejected() {
        let _ = FlingReader::new(FlingConfig {
            decay_tau_s: 0.0,
            ..FlingConfig::reader()
        });
    }
}
