//! Figure 8 — power saved over time for Facebook and Jelly Splash.
//!
//! Replays the same script with and without the proposed system and plots
//! the per-second difference (baseline minus governed). The paper reports
//! section-only savings of ~150 mW (Facebook) and ~500 mW (Jelly Splash),
//! slightly reduced when touch boosting is added.

use std::fmt;

use ccdem_core::governor::Policy;
use ccdem_simkit::stats::Summary;
use ccdem_simkit::time::SimDuration;
use ccdem_workloads::catalog;
use ccdem_workloads::phased::AppSpec;

use crate::scenario::{Scenario, Workload};

/// Configuration for the Fig. 8 runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fig8Config {
    /// Run length.
    pub duration: SimDuration,
    /// Root seed.
    pub seed: u64,
    /// Run at quarter resolution (fast) instead of full.
    pub quarter_resolution: bool,
}

impl Default for Fig8Config {
    fn default() -> Self {
        Fig8Config {
            duration: SimDuration::from_secs(60),
            seed: 8,
            quarter_resolution: true,
        }
    }
}

/// Saved power for one (app, policy) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct SavedPowerTrace {
    /// Application name.
    pub app: String,
    /// Policy that ran (vs the fixed-60 Hz baseline).
    pub policy: Policy,
    /// Per-second saved power (baseline − governed). (mW)
    pub saved_per_second: Vec<f64>,
    /// Mean ± std of the per-second savings. (mW)
    pub saved: Summary,
}

/// The Fig. 8 data: both example apps under both control variants.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig8 {
    /// (a) Facebook: section-only, then section+boost.
    pub facebook: [SavedPowerTrace; 2],
    /// (b) Jelly Splash: section-only, then section+boost.
    pub jelly_splash: [SavedPowerTrace; 2],
}

/// Runs the experiment.
pub fn run(config: &Fig8Config) -> Fig8 {
    let saved = |spec: AppSpec, policy| {
        let mut s = Scenario::new(Workload::App(spec), policy)
            .with_duration(config.duration)
            .with_seed(config.seed);
        if config.quarter_resolution {
            s = s.at_quarter_resolution();
        }
        let (governed, baseline) = s.run_with_baseline();
        let saved_per_second: Vec<f64> = baseline
            .power_per_second
            .iter()
            .zip(&governed.power_per_second)
            .map(|(b, g)| b - g)
            .collect();
        SavedPowerTrace {
            app: governed.app_name.clone(),
            policy,
            saved: Summary::of(&saved_per_second),
            saved_per_second,
        }
    };
    Fig8 {
        facebook: [
            saved(catalog::facebook(), Policy::SectionOnly),
            saved(catalog::facebook(), Policy::SectionWithBoost),
        ],
        jelly_splash: [
            saved(catalog::jelly_splash(), Policy::SectionOnly),
            saved(catalog::jelly_splash(), Policy::SectionWithBoost),
        ],
    }
}

impl fmt::Display for Fig8 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Figure 8: power saved vs fixed 60 Hz baseline")?;
        for traces in [&self.facebook, &self.jelly_splash] {
            for t in traces {
                writeln!(f, "\n{} — {}: mean saved {}", t.app, t.policy, t.saved)?;
                for (sec, mw) in t.saved_per_second.iter().enumerate() {
                    let bar = "#".repeat((mw / 25.0).max(0.0).round() as usize);
                    writeln!(f, "  t={sec:>3}s {mw:>7.1} mW  {bar}")?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> Fig8 {
        run(&Fig8Config {
            duration: SimDuration::from_secs(20),
            seed: 13,
            quarter_resolution: true,
        })
    }

    #[test]
    fn both_apps_save_power() {
        let fig = quick();
        for traces in [&fig.facebook, &fig.jelly_splash] {
            for t in traces {
                assert!(
                    t.saved.mean > 0.0,
                    "{} under {:?} saved {:.1} mW",
                    t.app,
                    t.policy,
                    t.saved.mean
                );
            }
        }
    }

    #[test]
    fn jelly_splash_saves_much_more_than_facebook() {
        // Fig. 8's headline: the redundant 60 fps game saves several
        // times what the mostly idle app saves.
        let fig = quick();
        let js = fig.jelly_splash[0].saved.mean;
        let fb = fig.facebook[0].saved.mean;
        assert!(
            js > fb * 1.5,
            "Jelly Splash {js:.0} mW vs Facebook {fb:.0} mW"
        );
    }

    #[test]
    fn boost_costs_a_little_power() {
        // §4.3: "The amount of saved power is slightly reduced by the
        // touch boosting scheme."
        let fig = quick();
        let section = fig.facebook[0].saved.mean;
        let boost = fig.facebook[1].saved.mean;
        assert!(
            boost <= section + 1.0,
            "boost saving {boost:.1} exceeds section saving {section:.1}"
        );
    }

    #[test]
    fn display_renders_all_four_traces() {
        let s = quick().to_string();
        assert_eq!(s.matches("mean saved").count(), 4);
    }
}
