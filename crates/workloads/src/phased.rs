//! The phased application model.
//!
//! Almost every app in the paper's 30-app study (Fig. 3) is captured by a
//! two-phase behaviour:
//!
//! * an **idle** phase (no recent user input) with one frame-request rate
//!   and one meaningful-content rate, and
//! * an **active** phase (during/after touches) with higher rates —
//!   Fig. 2 shows Facebook's frame rate spiking exactly at user requests.
//!
//! The gap between the request rate and the content rate is the app's
//! redundant frame rate. Games request at ~60 fps regardless of content
//! (Jelly Splash in Fig. 2 holds 60 fps with unchanged content); general
//! apps mostly request little while idle, with a notable minority (Cash
//! Slide, Daum Maps, …) polling redundantly.

use ccdem_pixelbuf::buffer::FrameBuffer;
use ccdem_pixelbuf::draw;
use ccdem_pixelbuf::geometry::Rect;
use ccdem_simkit::rng::SimRng;
use ccdem_simkit::time::{SimDuration, SimTime};

use crate::app::{AppClass, AppModel, ContentChange, FrameTick, InputContext};

/// What kind of pixel change the app's meaningful frames make.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChangeKind {
    /// Full-screen redraw each meaningful frame (games, video).
    FullRedraw,
    /// Vertical scrolling (feeds, lists, webtoons).
    Scroll,
    /// Small-region updates (clocks, tickers, ad rotators).
    Widget,
}

impl ChangeKind {
    fn to_change(self, rng: &mut SimRng) -> ContentChange {
        match self {
            ChangeKind::FullRedraw => ContentChange::FullRedraw,
            ChangeKind::Scroll => ContentChange::Scroll {
                dy: rng.range_u64(16, 96) as u32,
            },
            ChangeKind::Widget => ContentChange::Widget,
        }
    }
}

/// One phase's frame behaviour.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseBehavior {
    /// Frames submitted per second (the paper's *frame rate* before
    /// V-Sync throttling).
    pub request_fps: f64,
    /// Meaningful (content-changing) frames per second; the rest of the
    /// submissions are redundant. Clamped to `request_fps`.
    pub content_fps: f64,
    /// Spatial shape of meaningful changes in this phase.
    pub change: ChangeKind,
}

impl PhaseBehavior {
    /// A phase submitting `request_fps` with `content_fps` meaningful.
    ///
    /// # Panics
    ///
    /// Panics if `request_fps` is not positive or `content_fps` negative.
    pub fn new(request_fps: f64, content_fps: f64, change: ChangeKind) -> PhaseBehavior {
        assert!(request_fps > 0.0, "request_fps must be positive");
        assert!(content_fps >= 0.0, "content_fps must be non-negative");
        PhaseBehavior {
            request_fps,
            content_fps: content_fps.min(request_fps),
            change,
        }
    }

    /// The redundant frame rate of this phase.
    pub fn redundant_fps(&self) -> f64 {
        self.request_fps - self.content_fps
    }
}

/// Static description of a phased app, instantiable into an [`AppModel`].
#[derive(Debug, Clone, PartialEq)]
pub struct AppSpec {
    /// Display name.
    pub name: String,
    /// Evaluation class.
    pub class: AppClass,
    /// Behaviour with no recent input.
    pub idle: PhaseBehavior,
    /// Behaviour during and shortly after input.
    pub active: PhaseBehavior,
    /// How long after the last touch the active phase lingers (scroll
    /// momentum, transition animations).
    pub touch_linger: SimDuration,
}

impl AppSpec {
    /// Creates a spec with a default 1 s touch linger.
    pub fn new(
        name: impl Into<String>,
        class: AppClass,
        idle: PhaseBehavior,
        active: PhaseBehavior,
    ) -> AppSpec {
        AppSpec {
            name: name.into(),
            class,
            idle,
            active,
            touch_linger: SimDuration::from_millis(1_000),
        }
    }

    /// Instantiates the runnable model.
    pub fn instantiate(&self) -> PhasedApp {
        PhasedApp::new(self.clone())
    }
}

/// A runnable two-phase application.
///
/// # Examples
///
/// ```
/// use ccdem_workloads::app::{AppClass, AppModel, InputContext};
/// use ccdem_workloads::phased::{AppSpec, ChangeKind, PhaseBehavior, PhasedApp};
/// use ccdem_simkit::rng::SimRng;
/// use ccdem_simkit::time::SimTime;
///
/// let spec = AppSpec::new(
///     "demo",
///     AppClass::General,
///     PhaseBehavior::new(10.0, 2.0, ChangeKind::Widget),
///     PhaseBehavior::new(40.0, 30.0, ChangeKind::Scroll),
/// );
/// let mut app = spec.instantiate();
/// let mut rng = SimRng::seed_from_u64(1);
/// let tick = app.tick(SimTime::ZERO, &InputContext::default(), &mut rng);
/// assert!(tick.next_in.as_micros() > 0);
/// ```
#[derive(Debug, Clone)]
pub struct PhasedApp {
    spec: AppSpec,
    frame_seq: u64,
    grey_seq: u8,
    content_credit: f64,
    initialized: bool,
}

impl PhasedApp {
    /// Creates the app from its spec.
    pub fn new(spec: AppSpec) -> PhasedApp {
        PhasedApp {
            spec,
            frame_seq: 0,
            grey_seq: 0,
            content_credit: 0.0,
            initialized: false,
        }
    }

    /// The spec this app was built from.
    pub fn spec(&self) -> &AppSpec {
        &self.spec
    }

    fn phase(&self, now: SimTime, input: &InputContext) -> &PhaseBehavior {
        if input.touched_within(now, self.spec.touch_linger) {
            &self.spec.active
        } else {
            &self.spec.idle
        }
    }

    fn next_grey(&mut self) -> u8 {
        // Cycle 1..=250, skipping 0 so the pattern never matches the
        // initial black framebuffer by accident.
        self.grey_seq = if self.grey_seq >= 250 {
            1
        } else {
            self.grey_seq + 1
        };
        self.grey_seq
    }
}

impl AppModel for PhasedApp {
    fn name(&self) -> &str {
        &self.spec.name
    }

    fn class(&self) -> AppClass {
        self.spec.class
    }

    fn tick(&mut self, now: SimTime, input: &InputContext, rng: &mut SimRng) -> FrameTick {
        let phase = *self.phase(now, input);
        self.frame_seq += 1;
        // Quasi-periodic content via error diffusion: a game animating at
        // 30 fps inside a 60 fps loop renders every other frame, not a
        // Bernoulli coin-flip per frame. Even spacing matters — it is why
        // a refresh rate above the content rate loses (almost) no content
        // to V-Sync coalescing, which the paper's quality numbers rely on.
        let content_fraction = if phase.request_fps > 0.0 {
            (phase.content_fps / phase.request_fps).min(1.0)
        } else {
            0.0
        };
        self.content_credit += content_fraction;
        let change = if self.content_credit >= 1.0 {
            self.content_credit -= 1.0;
            phase.change.to_change(rng)
        } else {
            ContentChange::None
        };
        // ±10% jitter keeps submissions from phase-locking with V-Sync.
        let base_interval = 1.0 / phase.request_fps;
        let jittered = base_interval * rng.range_f64(0.9, 1.1);
        FrameTick {
            change,
            next_in: SimDuration::from_secs_f64(jittered),
        }
    }

    fn render(&mut self, change: ContentChange, buffer: &mut FrameBuffer, rng: &mut SimRng) {
        if !self.initialized {
            // Give the surface non-uniform starting content so scrolls
            // produce detectable movement.
            draw::draw_text_rows(buffer, buffer.resolution().bounds(), 24, 0);
            self.initialized = true;
        }
        let grey = self.next_grey();
        match change {
            ContentChange::None => {}
            ContentChange::FullRedraw => {
                buffer.fill(ccdem_pixelbuf::pixel::Pixel::grey(grey));
                // A couple of moving sprites on top of the flat fill.
                let res = buffer.resolution();
                for _ in 0..3 {
                    let x = rng.range_u64(0, u64::from(res.width)) as u32;
                    let y = rng.range_u64(0, u64::from(res.height)) as u32;
                    draw::draw_dot(buffer, x, y, 4, ccdem_pixelbuf::pixel::Pixel::WHITE);
                }
            }
            ContentChange::Scroll { dy } => {
                buffer.scroll_up(dy, ccdem_pixelbuf::pixel::Pixel::grey(grey));
            }
            ContentChange::Widget => {
                let res = buffer.resolution();
                let w = (res.width / 8).max(1);
                let h = (res.height / 16).max(1);
                let x = rng.range_u64(0, u64::from(res.width - w + 1)) as u32;
                let y = rng.range_u64(0, u64::from(res.height - h + 1)) as u32;
                buffer.fill_rect(
                    Rect::new(x, y, w, h),
                    ccdem_pixelbuf::pixel::Pixel::grey(grey),
                );
            }
            ContentChange::Dots => {
                // Phased apps never emit Dots; render it as a widget-sized
                // poke to stay total.
                buffer.fill_rect(
                    Rect::new(0, 0, 8, 8),
                    ccdem_pixelbuf::pixel::Pixel::grey(grey),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccdem_pixelbuf::geometry::Resolution;

    fn spec() -> AppSpec {
        AppSpec::new(
            "test app",
            AppClass::General,
            PhaseBehavior::new(10.0, 2.0, ChangeKind::Widget),
            PhaseBehavior::new(40.0, 30.0, ChangeKind::Scroll),
        )
    }

    #[test]
    fn idle_rate_respected() {
        let mut app = spec().instantiate();
        let mut rng = SimRng::seed_from_u64(3);
        let ctx = InputContext::default();
        let mut total = SimDuration::ZERO;
        let mut content = 0;
        let n = 1000;
        for _ in 0..n {
            let tick = app.tick(SimTime::from_secs(5), &ctx, &mut rng);
            total += tick.next_in;
            if tick.change.is_content() {
                content += 1;
            }
        }
        let mean_interval = total.as_secs_f64() / n as f64;
        assert!(
            (mean_interval - 0.1).abs() < 0.01,
            "mean interval {mean_interval}"
        );
        let content_frac = content as f64 / n as f64;
        assert!(
            (content_frac - 0.2).abs() < 0.05,
            "content fraction {content_frac}"
        );
    }

    #[test]
    fn active_phase_kicks_in_after_touch() {
        let mut app = spec().instantiate();
        let mut rng = SimRng::seed_from_u64(4);
        let ctx = InputContext {
            last_touch: Some(SimTime::from_secs(10)),
        };
        let tick = app.tick(SimTime::from_secs(10), &ctx, &mut rng);
        // Active request rate 40 fps -> interval ~25 ms (±10%).
        assert!(tick.next_in < SimDuration::from_millis(30));
        // And lapses after the linger.
        let tick = app.tick(SimTime::from_secs(13), &ctx, &mut rng);
        assert!(tick.next_in > SimDuration::from_millis(80));
    }

    #[test]
    fn content_fps_clamped_to_request_fps() {
        let p = PhaseBehavior::new(10.0, 50.0, ChangeKind::FullRedraw);
        assert_eq!(p.content_fps, 10.0);
        assert_eq!(p.redundant_fps(), 0.0);
    }

    #[test]
    fn render_changes_pixels_for_content_frames() {
        let mut app = spec().instantiate();
        let mut rng = SimRng::seed_from_u64(5);
        let mut fb = FrameBuffer::new(Resolution::QUARTER);
        app.render(ContentChange::FullRedraw, &mut fb, &mut rng);
        let before: Vec<_> = fb.pixels().collect();
        app.render(ContentChange::FullRedraw, &mut fb, &mut rng);
        assert!(
            !fb.pixels().eq(before.iter().copied()),
            "consecutive redraws must differ"
        );
    }

    #[test]
    fn scroll_render_moves_content() {
        let mut app = spec().instantiate();
        let mut rng = SimRng::seed_from_u64(6);
        let mut fb = FrameBuffer::new(Resolution::QUARTER);
        app.render(ContentChange::Widget, &mut fb, &mut rng); // initialize
        let before: Vec<_> = fb.pixels().collect();
        app.render(ContentChange::Scroll { dy: 40 }, &mut fb, &mut rng);
        assert!(!fb.pixels().eq(before.iter().copied()));
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed: u64| {
            let mut app = spec().instantiate();
            let mut rng = SimRng::seed_from_u64(seed);
            let ctx = InputContext::default();
            (0..50)
                .map(|_| app.tick(SimTime::from_secs(1), &ctx, &mut rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    #[should_panic(expected = "request_fps must be positive")]
    fn zero_request_rate_rejected() {
        let _ = PhaseBehavior::new(0.0, 0.0, ChangeKind::Widget);
    }
}
