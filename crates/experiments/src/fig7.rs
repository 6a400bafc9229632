//! Figure 7 — content-rate and refresh-rate traces under control.
//!
//! Validates the two control techniques on the Fig. 2 example apps:
//! section-based control alone follows slow content-rate changes but lags
//! touch-driven spikes (frames drop while the rate ladder is climbed, one
//! control window per rung, because V-Sync clips the observable content
//! rate at the applied refresh rate); adding touch boosting jumps straight
//! to 60 Hz on input and removes almost all drops.

use std::fmt;

use ccdem_core::governor::Policy;
use ccdem_simkit::time::SimDuration;
use ccdem_workloads::catalog;
use ccdem_workloads::phased::AppSpec;

use crate::scenario::{RunResult, Scenario, Workload};

/// Configuration for the Fig. 7 trace runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fig7Config {
    /// Trace length.
    pub duration: SimDuration,
    /// Root seed.
    pub seed: u64,
    /// Run at quarter resolution (fast) instead of full.
    pub quarter_resolution: bool,
}

impl Default for Fig7Config {
    fn default() -> Self {
        Fig7Config {
            duration: SimDuration::from_secs(60),
            seed: 7,
            quarter_resolution: true,
        }
    }
}

/// One (app, policy) trace.
#[derive(Debug, Clone)]
pub struct ControlTrace {
    /// Application name.
    pub app: String,
    /// Policy that ran.
    pub policy: Policy,
    /// Meter-measured content rate per second.
    pub content_rate: Vec<f64>,
    /// Applied refresh rate per second (time-weighted Hz).
    pub refresh_rate: Vec<f64>,
    /// Highest instantaneous refresh rate applied during the run.
    pub peak_refresh: f64,
    /// Dropped content frames per second.
    pub dropped: Vec<f64>,
    /// Total dropped frames over the run.
    pub total_dropped: f64,
}

impl ControlTrace {
    fn from_run(r: &RunResult) -> ControlTrace {
        let dropped: Vec<f64> = r
            .actual_content_per_second
            .iter()
            .zip(&r.displayed_content_per_second)
            .map(|(&a, &d)| (a - d).max(0.0))
            .collect();
        ControlTrace {
            app: r.app_name.clone(),
            policy: r.policy,
            content_rate: r.measured_content_per_second.clone(),
            refresh_rate: r.refresh_trace.per_second(r.duration),
            peak_refresh: r.refresh_trace.iter().map(|(_, hz)| hz).fold(0.0, f64::max),
            total_dropped: dropped.iter().sum(),
            dropped,
        }
    }
}

/// The Fig. 7 data: (a)/(b) Facebook, (c)/(d) Jelly Splash, each under
/// section-only and section+boost.
#[derive(Debug, Clone)]
pub struct Fig7 {
    /// (a) Facebook, section-based control only.
    pub facebook_section: ControlTrace,
    /// (b) Facebook, section + touch boosting.
    pub facebook_boost: ControlTrace,
    /// (c) Jelly Splash, section-based control only.
    pub jelly_section: ControlTrace,
    /// (d) Jelly Splash, section + touch boosting.
    pub jelly_boost: ControlTrace,
}

/// Runs the experiment.
pub fn run(config: &Fig7Config) -> Fig7 {
    let trace = |spec: AppSpec, policy| {
        let mut s = Scenario::new(Workload::App(spec), policy)
            .with_duration(config.duration)
            .with_seed(config.seed);
        if config.quarter_resolution {
            s = s.at_quarter_resolution();
        }
        ControlTrace::from_run(&s.run())
    };
    Fig7 {
        facebook_section: trace(catalog::facebook(), Policy::SectionOnly),
        facebook_boost: trace(catalog::facebook(), Policy::SectionWithBoost),
        jelly_section: trace(catalog::jelly_splash(), Policy::SectionOnly),
        jelly_boost: trace(catalog::jelly_splash(), Policy::SectionWithBoost),
    }
}

impl Fig7 {
    /// All four traces in the paper's (a)–(d) order.
    pub fn traces(&self) -> [&ControlTrace; 4] {
        [
            &self.facebook_section,
            &self.facebook_boost,
            &self.jelly_section,
            &self.jelly_boost,
        ]
    }
}

impl fmt::Display for Fig7 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 7: content rate (CR) and refresh rate (RR) traces under control"
        )?;
        for t in self.traces() {
            writeln!(
                f,
                "\n{} — {} (total dropped: {:.0} frames):",
                t.app, t.policy, t.total_dropped
            )?;
            for (sec, ((cr, rr), dr)) in t
                .content_rate
                .iter()
                .zip(&t.refresh_rate)
                .zip(&t.dropped)
                .enumerate()
            {
                let drop_mark = if *dr >= 1.0 {
                    format!("  dropped {dr:.0}")
                } else {
                    String::new()
                };
                writeln!(
                    f,
                    "  t={sec:>3}s  CR {cr:>5.1} fps  RR {rr:>5.1} Hz{drop_mark}"
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> Fig7 {
        run(&Fig7Config {
            duration: SimDuration::from_secs(25),
            seed: 11,
            quarter_resolution: true,
        })
    }

    #[test]
    fn refresh_follows_content_rate() {
        let fig = quick();
        // Jelly Splash idles at CR ~15 fps → section 24 Hz; the section
        // trace should spend most seconds well below 60 Hz.
        let below_60 = fig
            .jelly_section
            .refresh_rate
            .iter()
            .filter(|&&hz| hz < 45.0)
            .count();
        assert!(
            below_60 * 2 > fig.jelly_section.refresh_rate.len(),
            "only {below_60} seconds below 45 Hz"
        );
    }

    #[test]
    fn boost_reduces_dropped_frames() {
        let fig = quick();
        // Fig. 7's headline: touch boosting cuts frame drops sharply.
        let section_drops = fig.facebook_section.total_dropped + fig.jelly_section.total_dropped;
        let boost_drops = fig.facebook_boost.total_dropped + fig.jelly_boost.total_dropped;
        assert!(
            boost_drops < section_drops,
            "boost drops {boost_drops} not below section drops {section_drops}"
        );
    }

    #[test]
    fn boost_raises_refresh_during_touches() {
        let fig = quick();
        // Every touch forces the applied rate to the 60 Hz ceiling. The
        // per-second trace time-averages the boost against the idle rate,
        // so assert on the instantaneous peak, which is seed-independent
        // as long as the script contains any touch at all.
        assert!(
            fig.facebook_boost.peak_refresh > 59.0,
            "boost never reached 60 Hz (peak {:.1} Hz)",
            fig.facebook_boost.peak_refresh
        );
        // And the boost must be visible in the per-second trace too: some
        // second averages well above the 20 Hz idle floor.
        let lifted = fig
            .facebook_boost
            .refresh_rate
            .iter()
            .filter(|&&hz| hz > 35.0)
            .count();
        assert!(lifted > 0, "boost never lifted a one-second average");
    }

    #[test]
    fn refresh_rates_within_panel_range() {
        let fig = quick();
        for t in fig.traces() {
            for &hz in &t.refresh_rate {
                assert!(
                    (0.0..=60.0 + 1e-9).contains(&hz),
                    "{} {:?}: {hz} Hz out of range",
                    t.app,
                    t.policy
                );
            }
        }
    }

    #[test]
    fn display_renders_four_panels() {
        let s = quick().to_string();
        assert_eq!(s.matches("Facebook —").count(), 2);
        assert_eq!(s.matches("Jelly Splash —").count(), 2);
    }
}
