//! A video-player workload with decode-clock cadence and pause/resume.
//!
//! Video is the one mobile workload whose content rate is *exactly*
//! known: the stream's frame rate. A 24 fps film on a 60 Hz panel wastes
//! 36 refreshes per second; on the Galaxy S3 ladder the section table
//! puts it at 30 Hz (24 fps sits in the 22–27 section), and a paused
//! player collapses to the 20 Hz floor within one control window.
//! Unlike the [`PhasedApp`](crate::phased::PhasedApp), frames arrive on
//! a jitter-free decode clock, and a tap toggles pause/resume instead of
//! raising the rate.

use ccdem_pixelbuf::buffer::FrameBuffer;
use ccdem_pixelbuf::draw;
use ccdem_pixelbuf::geometry::Rect;
use ccdem_pixelbuf::pixel::Pixel;
use ccdem_simkit::rng::SimRng;
use ccdem_simkit::time::{SimDuration, SimTime};

use crate::app::{AppClass, AppModel, ContentChange, FrameTick, InputContext};

/// Configuration of a video-player workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VideoConfig {
    /// The stream's frame rate (24 for film, 30 for broadcast).
    pub video_fps: f64,
    /// Whether taps toggle pause/resume.
    pub tap_toggles_pause: bool,
    /// Submission rate while paused (the player's UI still polls).
    pub paused_request_fps: f64,
}

impl VideoConfig {
    /// A 24 fps film.
    pub fn film_24() -> VideoConfig {
        VideoConfig {
            video_fps: 24.0,
            tap_toggles_pause: true,
            paused_request_fps: 2.0,
        }
    }

    /// 30 fps broadcast-style content.
    pub fn broadcast_30() -> VideoConfig {
        VideoConfig {
            video_fps: 30.0,
            tap_toggles_pause: true,
            paused_request_fps: 2.0,
        }
    }
}

impl Default for VideoConfig {
    fn default() -> Self {
        VideoConfig::film_24()
    }
}

/// A video player on a jitter-free decode clock.
///
/// # Examples
///
/// ```
/// use ccdem_workloads::app::{AppModel, InputContext};
/// use ccdem_workloads::video::{VideoApp, VideoConfig};
/// use ccdem_simkit::rng::SimRng;
/// use ccdem_simkit::time::SimTime;
///
/// let mut player = VideoApp::new(VideoConfig::film_24());
/// let mut rng = SimRng::seed_from_u64(1);
/// let tick = player.tick(SimTime::ZERO, &InputContext::default(), &mut rng);
/// assert_eq!(tick.next_in.as_micros(), 41_667); // exactly 1/24 s
/// assert!(tick.change.is_content());
/// ```
#[derive(Debug, Clone)]
pub struct VideoApp {
    config: VideoConfig,
    paused: bool,
    handled_touch: Option<SimTime>,
    frame_seq: u64,
}

impl VideoApp {
    /// Creates a playing video player.
    ///
    /// # Panics
    ///
    /// Panics if either configured rate is not positive.
    pub fn new(config: VideoConfig) -> VideoApp {
        assert!(config.video_fps > 0.0, "video_fps must be positive");
        assert!(
            config.paused_request_fps > 0.0,
            "paused_request_fps must be positive"
        );
        VideoApp {
            config,
            paused: false,
            handled_touch: None,
            frame_seq: 0,
        }
    }

    /// The player's configuration.
    pub fn config(&self) -> &VideoConfig {
        &self.config
    }

    /// Whether playback is currently paused.
    pub fn is_paused(&self) -> bool {
        self.paused
    }

    fn handle_input(&mut self, input: &InputContext) {
        if !self.config.tap_toggles_pause {
            return;
        }
        if let Some(touch) = input.last_touch {
            if self.handled_touch != Some(touch) {
                self.handled_touch = Some(touch);
                self.paused = !self.paused;
            }
        }
    }
}

impl AppModel for VideoApp {
    fn name(&self) -> &str {
        "video player"
    }

    fn class(&self) -> AppClass {
        AppClass::General
    }

    fn tick(&mut self, _now: SimTime, input: &InputContext, _rng: &mut SimRng) -> FrameTick {
        self.handle_input(input);
        if self.paused {
            FrameTick {
                change: ContentChange::None,
                next_in: SimDuration::from_secs_f64(1.0 / self.config.paused_request_fps),
            }
        } else {
            self.frame_seq += 1;
            FrameTick {
                change: ContentChange::FullRedraw,
                next_in: SimDuration::from_secs_f64(1.0 / self.config.video_fps),
            }
        }
    }

    fn render(&mut self, change: ContentChange, buffer: &mut FrameBuffer, _rng: &mut SimRng) {
        if !change.is_content() {
            return;
        }
        // A cheap stand-in for a decoded frame: a gradient whose phase
        // advances each frame, plus a "subtitle" band that changes every
        // two seconds of content.
        // Step the phase by 3 levels per frame so every decoded frame
        // differs by a full quantization step at (almost) every row —
        // single-level gradient steps can vanish in u8 truncation.
        let phase = ((self.frame_seq * 3) % 200) as u8;
        draw::draw_gradient(buffer, phase, 255 - phase);
        let res = buffer.resolution();
        let band_h = (res.height / 12).max(1);
        let subtitle_generation = self.frame_seq / (2 * self.config.video_fps as u64).max(1);
        buffer.fill_rect(
            Rect::new(0, res.height - band_h, res.width, band_h),
            Pixel::grey(40 + (subtitle_generation % 8) as u8 * 10),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccdem_pixelbuf::geometry::Resolution;

    fn ctx(touch_ms: Option<u64>) -> InputContext {
        InputContext {
            last_touch: touch_ms.map(SimTime::from_millis),
        }
    }

    #[test]
    fn playing_cadence_is_exact() {
        let mut app = VideoApp::new(VideoConfig::broadcast_30());
        let mut rng = SimRng::seed_from_u64(1);
        for _ in 0..10 {
            let t = app.tick(SimTime::ZERO, &ctx(None), &mut rng);
            assert_eq!(t.next_in.as_micros(), 33_333);
            assert!(t.change.is_content());
        }
    }

    #[test]
    fn tap_pauses_and_second_tap_resumes() {
        let mut app = VideoApp::new(VideoConfig::film_24());
        let mut rng = SimRng::seed_from_u64(2);
        app.tick(SimTime::from_millis(0), &ctx(None), &mut rng);
        assert!(!app.is_paused());

        let t = app.tick(SimTime::from_millis(100), &ctx(Some(100)), &mut rng);
        assert!(app.is_paused());
        assert_eq!(t.change, ContentChange::None);
        assert_eq!(t.next_in, SimDuration::from_millis(500)); // 2 fps poll

        // Same touch re-observed: no toggle.
        app.tick(SimTime::from_millis(600), &ctx(Some(100)), &mut rng);
        assert!(app.is_paused());

        // A new touch resumes.
        let t = app.tick(SimTime::from_millis(900), &ctx(Some(900)), &mut rng);
        assert!(!app.is_paused());
        assert!(t.change.is_content());
    }

    #[test]
    fn paused_player_submits_redundant_frames_only() {
        let mut app = VideoApp::new(VideoConfig::film_24());
        let mut rng = SimRng::seed_from_u64(3);
        app.tick(SimTime::ZERO, &ctx(Some(0)), &mut rng); // pause
        for i in 1..20 {
            let t = app.tick(SimTime::from_millis(i * 500), &ctx(Some(0)), &mut rng);
            assert_eq!(t.change, ContentChange::None);
        }
    }

    #[test]
    fn consecutive_frames_differ_on_screen() {
        let mut app = VideoApp::new(VideoConfig::film_24());
        let mut rng = SimRng::seed_from_u64(4);
        let mut fb = FrameBuffer::new(Resolution::QUARTER);
        app.tick(SimTime::ZERO, &ctx(None), &mut rng);
        app.render(ContentChange::FullRedraw, &mut fb, &mut rng);
        let before: Vec<_> = fb.pixels().collect();
        app.tick(SimTime::from_millis(42), &ctx(None), &mut rng);
        app.render(ContentChange::FullRedraw, &mut fb, &mut rng);
        assert!(!fb.pixels().eq(before.iter().copied()));
    }

    #[test]
    fn disabled_tap_toggle_keeps_playing() {
        let mut app = VideoApp::new(VideoConfig {
            tap_toggles_pause: false,
            ..VideoConfig::film_24()
        });
        let mut rng = SimRng::seed_from_u64(5);
        app.tick(SimTime::from_millis(100), &ctx(Some(100)), &mut rng);
        assert!(!app.is_paused());
    }

    #[test]
    #[should_panic(expected = "video_fps must be positive")]
    fn zero_fps_rejected() {
        let _ = VideoApp::new(VideoConfig {
            video_fps: 0.0,
            ..VideoConfig::film_24()
        });
    }
}
