//! The device power model.
//!
//! The paper measures whole-device power with a Monsoon meter at 50%
//! brightness (§4). For the simulator we decompose device power into the
//! components the refresh-rate scheme can and cannot influence:
//!
//! ```text
//! P = P_base                     (SoC, RAM, radios idle — unaffected)
//!   + P_panel_static             (emission at 50% brightness — unaffected*)
//!   + k_refresh · f_refresh      (scanout: display controller, MIPI-DSI
//!                                 link, panel driver — ∝ refresh rate)
//!   + k_frame  · fps_composed    (GPU render + composition — ∝ composed
//!                                 frames, which V-Sync caps at f_refresh)
//!   + P_touch  [while touching]  (input path + CPU boost)
//! ```
//!
//! `*` the OLED extension makes `P_panel_static` scale with displayed
//! luminance ([`PowerCoefficients::with_oled_content_scaling`]).
//!
//! Coefficients are calibrated so a fixed-60 Hz Galaxy S3 running a
//! 60 fps game draws ~1.4 W and the refresh-dependent terms leave room
//! for the paper's reported savings (tens to hundreds of mW): the *shape*
//! of the evaluation (who saves, roughly how much, in what order) is the
//! reproduction target, not the absolute wattage of a 2012 handset.

use crate::units::Milliwatts;

/// Calibrated power coefficients for one device.
///
/// # Examples
///
/// ```
/// use ccdem_power::model::{DisplayActivity, PowerCoefficients};
///
/// let model = PowerCoefficients::galaxy_s3();
/// let idle = model.power(&DisplayActivity {
///     refresh_hz: 20.0, composed_fps: 1.0, touch_active: false,
///     mean_luminance: None, content_scanout_fps: None,
/// });
/// let busy = model.power(&DisplayActivity {
///     refresh_hz: 60.0, composed_fps: 60.0, touch_active: false,
///     mean_luminance: None, content_scanout_fps: None,
/// });
/// assert!(busy > idle);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerCoefficients {
    /// Non-display baseline: SoC idle, RAM, rails, radios. (mW)
    pub base_mw: f64,
    /// Panel emission at the experiment's 50% brightness. (mW)
    pub panel_static_mw: f64,
    /// Scanout cost per hertz of refresh. (mW/Hz)
    pub per_hz_mw: f64,
    /// Render + composition cost per composed frame per second. (mW/fps)
    pub per_frame_mw: f64,
    /// Extra draw while the user is actively touching. (mW)
    pub touch_mw: f64,
    /// If `true`, panel static power scales with mean displayed
    /// luminance (OLED behaviour); if `false` it is content-independent
    /// (LCD backlight behaviour).
    pub oled_content_scaling: bool,
    /// Panel self-refresh (PSR) discount in `[0, 1]`: the fraction of the
    /// per-Hz scanout cost avoided on refreshes whose content did not
    /// change (the panel re-emits from its local buffer instead of
    /// receiving a new frame over the link). `0` models the paper's 2012
    /// panel (no PSR); `1` models an ideal command-mode panel.
    pub psr_discount: f64,
}

/// A snapshot of display-stack activity, the model's input.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DisplayActivity {
    /// The panel's applied refresh rate in Hz.
    pub refresh_hz: f64,
    /// Composed frames per second over the recent window.
    pub composed_fps: f64,
    /// Whether the user is currently interacting.
    pub touch_active: bool,
    /// Mean displayed luminance in `[0, 1]`, if tracked. Only read when
    /// [`PowerCoefficients::reads_luminance`]; `None` assumes mid-grey
    /// content.
    pub mean_luminance: Option<f64>,
    /// Refreshes per second that scanned out *new* content, if tracked.
    /// Only read when [`PowerCoefficients::reads_content_scanouts`];
    /// `None` assumes every refresh carried new content (no self-refresh
    /// savings).
    pub content_scanout_fps: Option<f64>,
}

impl PowerCoefficients {
    /// Galaxy S3 LTE calibration (50% brightness).
    ///
    /// * `base` 350 mW — CPU/RAM/radio idle floor (Carroll & Heiser
    ///   report 250–450 mW idle floors for this device generation).
    /// * `panel_static` 380 mW — Super AMOLED emission at 50% brightness
    ///   on mixed content.
    /// * `per_hz` 3.2 mW/Hz — display controller + DSI link + panel
    ///   driver scanout. 60 Hz→20 Hz saves 128 mW, matching the paper's
    ///   ~120 mW average general-app saving (mostly idle apps save only
    ///   scanout).
    /// * `per_frame` 8.0 mW/fps — GPU render and SurfaceFlinger
    ///   composition. A 60 fps game throttled to 24 Hz renders 36 fewer
    ///   frames per second (~288 mW), which together with the scanout
    ///   delta reproduces the games' ~290 mW average and Jelly Splash's
    ///   several-hundred-mW saving.
    /// * `touch` 60 mW — touchscreen scan + input-path CPU.
    pub fn galaxy_s3() -> PowerCoefficients {
        PowerCoefficients {
            base_mw: 350.0,
            panel_static_mw: 380.0,
            per_hz_mw: 3.2,
            per_frame_mw: 8.0,
            touch_mw: 60.0,
            oled_content_scaling: false,
            psr_discount: 0.0,
        }
    }

    /// Enables OLED content scaling: panel static power varies with mean
    /// displayed luminance, `P_panel = panel_static · (0.25 + 1.5·L)`,
    /// normalized so mid-grey content (`L = 0.5`) matches the calibrated
    /// static figure.
    pub fn with_oled_content_scaling(mut self) -> PowerCoefficients {
        self.oled_content_scaling = true;
        self
    }

    /// Enables panel self-refresh: `discount` of the per-Hz scanout cost
    /// is avoided on refreshes whose content did not change. With PSR the
    /// fixed-60 Hz baseline already skips most link traffic for idle
    /// apps, which shrinks (but does not eliminate) the paper's savings —
    /// the PSR ablation (`paper_report ablations`) quantifies the
    /// interaction.
    ///
    /// # Panics
    ///
    /// Panics if `discount` is outside `[0, 1]`.
    pub fn with_psr_discount(mut self, discount: f64) -> PowerCoefficients {
        assert!(
            (0.0..=1.0).contains(&discount),
            "PSR discount must be in [0, 1], got {discount}"
        );
        self.psr_discount = discount;
        self
    }

    /// Whether [`power`](Self::power) reads
    /// [`DisplayActivity::mean_luminance`]: only with OLED content
    /// scaling on. While this is `false` the input can be left `None`
    /// (and need not be computed) without changing any result.
    pub fn reads_luminance(&self) -> bool {
        self.oled_content_scaling
    }

    /// Whether [`power`](Self::power) reads
    /// [`DisplayActivity::content_scanout_fps`]: only with a PSR discount
    /// above 0. While this is `false` the input can be left `None` (and
    /// need not be computed) without changing any result.
    pub fn reads_content_scanouts(&self) -> bool {
        self.psr_discount > 0.0
    }

    /// Instantaneous device power for the given activity.
    pub fn power(&self, activity: &DisplayActivity) -> Milliwatts {
        let panel_static = if self.reads_luminance() {
            let lum = activity.mean_luminance.unwrap_or(0.5).clamp(0.0, 1.0);
            self.panel_static_mw * (0.25 + 1.5 * lum)
        } else {
            self.panel_static_mw
        };
        let refresh = activity.refresh_hz.max(0.0);
        let scanout_hz = if self.reads_content_scanouts() {
            let content = activity
                .content_scanout_fps
                .unwrap_or(refresh)
                .clamp(0.0, refresh);
            // Self-refreshed cycles pay only (1 - discount) of the link
            // cost; content cycles pay full price.
            content + (refresh - content) * (1.0 - self.psr_discount)
        } else {
            refresh
        };
        let mut mw = self.base_mw
            + panel_static
            + self.per_hz_mw * scanout_hz
            + self.per_frame_mw * activity.composed_fps.max(0.0);
        if activity.touch_active {
            mw += self.touch_mw;
        }
        Milliwatts::new(mw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn activity(refresh: f64, fps: f64) -> DisplayActivity {
        DisplayActivity {
            refresh_hz: refresh,
            composed_fps: fps,
            touch_active: false,
            mean_luminance: None,
            content_scanout_fps: None,
        }
    }

    #[test]
    fn power_monotone_in_refresh_rate() {
        let m = PowerCoefficients::galaxy_s3();
        let mut prev = Milliwatts::ZERO;
        for hz in [20.0, 24.0, 30.0, 40.0, 60.0] {
            let p = m.power(&activity(hz, 10.0));
            assert!(p > prev);
            prev = p;
        }
    }

    #[test]
    fn sixty_to_twenty_saves_scanout_delta() {
        let m = PowerCoefficients::galaxy_s3();
        let hi = m.power(&activity(60.0, 5.0));
        let lo = m.power(&activity(20.0, 5.0));
        assert!(((hi - lo).value() - 40.0 * m.per_hz_mw).abs() < 1e-9);
    }

    #[test]
    fn game_baseline_in_plausible_range() {
        // A 60 fps game at fixed 60 Hz should land near 1.4 W.
        let m = PowerCoefficients::galaxy_s3();
        let p = m.power(&activity(60.0, 60.0)).value();
        assert!((1_300.0..1_600.0).contains(&p), "got {p} mW");
    }

    #[test]
    fn touch_adds_fixed_cost() {
        let m = PowerCoefficients::galaxy_s3();
        let base = m.power(&activity(60.0, 30.0));
        let touching = m.power(&DisplayActivity {
            touch_active: true,
            ..activity(60.0, 30.0)
        });
        assert_eq!((touching - base).value(), m.touch_mw);
    }

    #[test]
    fn oled_scaling_neutral_at_mid_grey() {
        let plain = PowerCoefficients::galaxy_s3();
        let oled = PowerCoefficients::galaxy_s3().with_oled_content_scaling();
        let a = DisplayActivity {
            mean_luminance: Some(0.5),
            ..activity(60.0, 10.0)
        };
        assert!((plain.power(&a) - oled.power(&a)).value().abs() < 1e-9);
    }

    #[test]
    fn oled_dark_content_cheaper_than_bright() {
        let m = PowerCoefficients::galaxy_s3().with_oled_content_scaling();
        let dark = m.power(&DisplayActivity {
            mean_luminance: Some(0.05),
            ..activity(60.0, 10.0)
        });
        let bright = m.power(&DisplayActivity {
            mean_luminance: Some(0.95),
            ..activity(60.0, 10.0)
        });
        assert!(dark < bright);
    }

    #[test]
    fn psr_discount_spares_self_refresh_cycles() {
        let plain = PowerCoefficients::galaxy_s3();
        let psr = PowerCoefficients::galaxy_s3().with_psr_discount(1.0);
        // 60 Hz panel, only 5 content scanouts/s: 55 cycles self-refresh.
        let a = DisplayActivity {
            content_scanout_fps: Some(5.0),
            ..activity(60.0, 5.0)
        };
        let saved = (plain.power(&a) - psr.power(&a)).value();
        assert!(
            (saved - 55.0 * plain.per_hz_mw).abs() < 1e-9,
            "saved {saved}"
        );
    }

    #[test]
    fn psr_without_tracking_assumes_all_content() {
        let psr = PowerCoefficients::galaxy_s3().with_psr_discount(1.0);
        let plain = PowerCoefficients::galaxy_s3();
        assert_eq!(
            psr.power(&activity(60.0, 10.0)),
            plain.power(&activity(60.0, 10.0))
        );
    }

    #[test]
    fn partial_psr_discount_interpolates() {
        let half = PowerCoefficients::galaxy_s3().with_psr_discount(0.5);
        let a = DisplayActivity {
            content_scanout_fps: Some(0.0),
            ..activity(40.0, 0.0)
        };
        let full_cost = PowerCoefficients::galaxy_s3().power(&a);
        let saved = (full_cost - half.power(&a)).value();
        assert!((saved - 0.5 * 40.0 * half.per_hz_mw).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "PSR discount must be in [0, 1]")]
    fn psr_discount_out_of_range_rejected() {
        let _ = PowerCoefficients::galaxy_s3().with_psr_discount(1.5);
    }

    #[test]
    fn negative_inputs_clamped() {
        let m = PowerCoefficients::galaxy_s3();
        let p = m.power(&activity(-5.0, -10.0));
        assert_eq!(p.value(), m.base_mw + m.panel_static_mw);
    }
}
