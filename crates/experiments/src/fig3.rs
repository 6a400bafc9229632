//! Figure 3 — meaningful vs redundant frame rates for the 30 commercial
//! applications under stock (fixed 60 Hz) Android.
//!
//! Reproduces the paper's preliminary study (§2.2): each application runs
//! for a few minutes under a Monkey script; the meter splits its composed
//! frame rate into meaningful and redundant parts.

use std::fmt;

use ccdem_core::governor::Policy;
use ccdem_metrics::table::TextTable;
use ccdem_simkit::time::SimDuration;
use ccdem_workloads::app::AppClass;
use ccdem_workloads::catalog;

use crate::scenario::{Scenario, Workload};

/// Configuration for the Fig. 3 sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fig3Config {
    /// Per-app run length (the paper used ~3 minutes).
    pub duration: SimDuration,
    /// Root seed.
    pub seed: u64,
    /// Run at quarter resolution (fast) instead of full.
    pub quarter_resolution: bool,
}

impl Default for Fig3Config {
    fn default() -> Self {
        Fig3Config {
            duration: SimDuration::from_secs(60),
            seed: 3,
            quarter_resolution: true,
        }
    }
}

/// One application's measured rates.
#[derive(Debug, Clone, PartialEq)]
pub struct AppRates {
    /// Application name.
    pub app: String,
    /// Application class.
    pub class: AppClass,
    /// Meaningful (content) frames per second.
    pub meaningful_fps: f64,
    /// Redundant frames per second.
    pub redundant_fps: f64,
}

impl AppRates {
    /// Total composed frame rate.
    pub fn total_fps(&self) -> f64 {
        self.meaningful_fps + self.redundant_fps
    }
}

/// The Fig. 3 data set.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig3 {
    /// Per-app rates, general apps first.
    pub apps: Vec<AppRates>,
}

impl Fig3 {
    /// Rates for one class.
    pub fn class(&self, class: AppClass) -> Vec<&AppRates> {
        self.apps.iter().filter(|a| a.class == class).collect()
    }

    /// The fraction of a class whose redundant rate exceeds `fps`.
    pub fn fraction_redundant_above(&self, class: AppClass, fps: f64) -> f64 {
        let members = self.class(class);
        if members.is_empty() {
            return 0.0;
        }
        members.iter().filter(|a| a.redundant_fps > fps).count() as f64 / members.len() as f64
    }
}

/// Runs the experiment.
pub fn run(config: &Fig3Config) -> Fig3 {
    let apps = catalog::all_apps()
        .into_iter()
        .map(|spec| {
            let class = spec.class;
            let mut s = Scenario::new(Workload::App(spec), Policy::FixedMax)
                .with_duration(config.duration)
                .with_seed(config.seed);
            if config.quarter_resolution {
                s = s.at_quarter_resolution();
            }
            let r = s.run();
            AppRates {
                app: r.app_name.clone(),
                class,
                meaningful_fps: r.measured_content_fps,
                redundant_fps: (r.mean_frame_rate() - r.measured_content_fps).max(0.0),
            }
        })
        .collect();
    Fig3 { apps }
}

impl fmt::Display for Fig3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 3: meaningful vs redundant frame rate, fixed 60 Hz"
        )?;
        for class in [AppClass::General, AppClass::Game] {
            writeln!(f, "\n{class} applications:")?;
            let mut t = TextTable::new(["app", "meaningful (fps)", "redundant (fps)", "total"]);
            for a in self.class(class) {
                t.row([
                    a.app.clone(),
                    format!("{:.1}", a.meaningful_fps),
                    format!("{:.1}", a.redundant_fps),
                    format!("{:.1}", a.total_fps()),
                ]);
            }
            write!(f, "{t}")?;
            writeln!(
                f,
                "fraction with >20 redundant fps: {:.0}%",
                self.fraction_redundant_above(class, 20.0) * 100.0
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> Fig3 {
        run(&Fig3Config {
            duration: SimDuration::from_secs(15),
            seed: 5,
            quarter_resolution: true,
        })
    }

    #[test]
    fn thirty_apps_measured() {
        let fig = quick();
        assert_eq!(fig.apps.len(), 30);
        assert_eq!(fig.class(AppClass::General).len(), 15);
        assert_eq!(fig.class(AppClass::Game).len(), 15);
    }

    #[test]
    fn games_all_above_30_fps_total() {
        // Fig. 3(b): every game updates the display at ≥30 fps.
        let fig = quick();
        for g in fig.class(AppClass::Game) {
            assert!(
                g.total_fps() > 28.0,
                "{} at {:.1} fps",
                g.app,
                g.total_fps()
            );
        }
    }

    #[test]
    fn most_games_heavily_redundant() {
        // Fig. 3(d): ~80% of games above 20 redundant fps.
        let fig = quick();
        let frac = fig.fraction_redundant_above(AppClass::Game, 20.0);
        assert!(
            frac >= 0.7,
            "only {:.0}% of games above 20 redundant fps",
            frac * 100.0
        );
    }

    #[test]
    fn some_general_apps_heavily_redundant() {
        // Fig. 3(d): ~40% of general apps near 20 redundant fps.
        let fig = quick();
        let frac = fig.fraction_redundant_above(AppClass::General, 15.0);
        assert!(
            (0.2..=0.6).contains(&frac),
            "{:.0}% of general apps above 15 redundant fps",
            frac * 100.0
        );
    }

    #[test]
    fn display_lists_every_app() {
        let fig = quick();
        let s = fig.to_string();
        for a in &fig.apps {
            assert!(s.contains(&a.app), "{} missing from report", a.app);
        }
    }
}
