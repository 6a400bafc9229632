//! Figure 2 — frame-rate and refresh-rate traces under stock Android.
//!
//! The paper's motivating observation: on a fixed-60 Hz device, Facebook's
//! frame rate stays low except when the user interacts, while Jelly Splash
//! holds ~60 fps even when nothing on screen changes. Both therefore waste
//! refreshes — in opposite ways.

use std::fmt;

use ccdem_core::governor::Policy;
use ccdem_simkit::time::{SimDuration, SimTime};
use ccdem_workloads::catalog;

use crate::scenario::{Scenario, Workload};

/// Configuration for the Fig. 2 trace runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fig2Config {
    /// Trace length.
    pub duration: SimDuration,
    /// Root seed.
    pub seed: u64,
    /// Run at quarter resolution (fast) instead of full.
    pub quarter_resolution: bool,
}

impl Default for Fig2Config {
    fn default() -> Self {
        Fig2Config {
            duration: SimDuration::from_secs(60),
            seed: 2,
            quarter_resolution: true,
        }
    }
}

/// One traced application.
#[derive(Debug, Clone)]
pub struct AppTrace {
    /// Application name.
    pub app: String,
    /// Composed frames per second, one sample per second.
    pub frame_rate: Vec<f64>,
    /// Actual content frames per second.
    pub content_rate: Vec<f64>,
    /// Touch event times.
    pub touches: Vec<SimTime>,
}

impl AppTrace {
    /// Seconds that contain at least one touch event.
    pub fn touch_seconds(&self) -> Vec<u64> {
        let mut secs: Vec<u64> = self
            .touches
            .iter()
            .map(|t| t.as_micros() / 1_000_000)
            .collect();
        secs.dedup();
        secs
    }
}

/// The Fig. 2 data: one trace per example app.
#[derive(Debug, Clone)]
pub struct Fig2 {
    /// Facebook's trace (low idle frame rate, input-driven spikes).
    pub facebook: AppTrace,
    /// Jelly Splash's trace (~60 fps regardless of content).
    pub jelly_splash: AppTrace,
}

/// Runs the experiment.
pub fn run(config: &Fig2Config) -> Fig2 {
    let trace = |spec| {
        let mut s = Scenario::new(Workload::App(spec), Policy::FixedMax)
            .with_duration(config.duration)
            .with_seed(config.seed);
        if config.quarter_resolution {
            s = s.at_quarter_resolution();
        }
        let r = s.run();
        AppTrace {
            app: r.app_name.clone(),
            frame_rate: r.frame_rate_per_second.clone(),
            content_rate: r.actual_content_per_second.clone(),
            touches: r.touch_times,
        }
    };
    Fig2 {
        facebook: trace(catalog::facebook()),
        jelly_splash: trace(catalog::jelly_splash()),
    }
}

impl fmt::Display for Fig2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 2: frame rate traces at fixed 60 Hz (* marks seconds with touches)"
        )?;
        for trace in [&self.facebook, &self.jelly_splash] {
            writeln!(f, "\n{} — frame rate / content rate per second:", trace.app)?;
            let touch_secs = trace.touch_seconds();
            for (sec, (fr, cr)) in trace.frame_rate.iter().zip(&trace.content_rate).enumerate() {
                let mark = if touch_secs.contains(&(sec as u64)) {
                    "*"
                } else {
                    " "
                };
                let bar = "#".repeat((fr / 2.0).round() as usize);
                writeln!(
                    f,
                    "  t={sec:>3}s {mark} {fr:>5.1} fps (content {cr:>5.1})  {bar}"
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> Fig2 {
        run(&Fig2Config {
            duration: SimDuration::from_secs(20),
            seed: 7,
            quarter_resolution: true,
        })
    }

    #[test]
    fn jelly_splash_holds_high_frame_rate() {
        let fig = quick();
        let mean: f64 = fig.jelly_splash.frame_rate.iter().sum::<f64>()
            / fig.jelly_splash.frame_rate.len() as f64;
        assert!(mean > 50.0, "Jelly Splash mean frame rate {mean}");
    }

    #[test]
    fn facebook_mostly_quiet() {
        let fig = quick();
        let quiet = fig
            .facebook
            .frame_rate
            .iter()
            .filter(|&&fps| fps < 15.0)
            .count();
        assert!(
            quiet * 2 > fig.facebook.frame_rate.len(),
            "Facebook should be quiet most seconds ({quiet} quiet)"
        );
    }

    #[test]
    fn facebook_spikes_at_touches() {
        let fig = quick();
        let touch_secs = fig.facebook.touch_seconds();
        if touch_secs.is_empty() {
            return; // script produced no touches in this short window
        }
        let max_at_touch = touch_secs
            .iter()
            .filter_map(|&s| fig.facebook.frame_rate.get(s as usize))
            .fold(0.0f64, |a, &b| a.max(b));
        let idle: Vec<f64> = fig
            .facebook
            .frame_rate
            .iter()
            .enumerate()
            .filter(|(s, _)| !touch_secs.contains(&(*s as u64)))
            .map(|(_, &v)| v)
            .collect();
        let idle_mean = if idle.is_empty() {
            0.0
        } else {
            idle.iter().sum::<f64>() / idle.len() as f64
        };
        assert!(
            max_at_touch > idle_mean,
            "touch-second peak {max_at_touch} not above idle mean {idle_mean}"
        );
    }

    #[test]
    fn display_renders_both_apps() {
        let fig = quick();
        let s = fig.to_string();
        assert!(s.contains("Facebook"));
        assert!(s.contains("Jelly Splash"));
    }
}
