//! The 30-application sweep — Figures 9, 10, 11 and Table 1.
//!
//! Runs every catalog application under the fixed-60 Hz baseline,
//! section-based control, and section + touch boosting (the paper's §4.3
//! and §4.4 setup: same Monkey script, power compared against the
//! baseline), then slices the results four ways:
//!
//! * **Fig. 9** — power saved per app and policy;
//! * **Fig. 10** — estimated vs actual content rate (dropped frames);
//! * **Fig. 11** — display quality per app and policy;
//! * **Table 1** — mean ± std of saved power (%) and quality (%) by
//!   application class.

use std::fmt;
use std::sync::Mutex;
// ccdem-lint: allow(determinism) — wall-clock feeds TimingReport only,
// never a RunResult (asserted by the `obs_determinism` test).
use std::time::Instant;

use ccdem_core::governor::Policy;
use ccdem_metrics::summary::{AppRunSummary, ClassAggregate};
use ccdem_metrics::table::TextTable;
use ccdem_metrics::timing::{RunTiming, TimingReport};
use ccdem_obs::Obs;
use ccdem_simkit::parallel::{derive_seed, ParallelRunner};
use ccdem_simkit::stats::quantile;
use ccdem_simkit::time::SimDuration;
use ccdem_workloads::app::AppClass;
use ccdem_workloads::catalog;
use ccdem_workloads::phased::AppSpec;

use crate::campaign::{run_each, CampaignStats};
use crate::scenario::{RunResult, Scenario, Workload};

/// The two governed policies evaluated against the baseline.
pub const EVALUATED_POLICIES: [Policy; 2] = [Policy::SectionOnly, Policy::SectionWithBoost];

/// Configuration for the sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepConfig {
    /// Per-app run length (the paper used ~3 minutes).
    pub duration: SimDuration,
    /// Root seed. Each app's runs are seeded by
    /// [`derive_seed`]`(seed, app_index)`, so the same Monkey script is
    /// replayed across policies (the paper's paired-run methodology) while
    /// different apps draw from uncorrelated streams.
    pub seed: u64,
    /// Run at quarter resolution (fast) instead of full.
    pub quarter_resolution: bool,
    /// Worker threads; `0` = all available cores, `1` = the exact legacy
    /// serial path. Results are identical for every value.
    pub jobs: usize,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            duration: SimDuration::from_secs(60),
            seed: 9,
            quarter_resolution: true,
            jobs: 0,
        }
    }
}

/// One application's results across all policies.
#[derive(Debug, Clone)]
pub struct AppSweep {
    /// Application name.
    pub app: String,
    /// Application class.
    pub class: AppClass,
    /// The fixed-60 Hz baseline run.
    pub baseline: RunResult,
    /// The section-only run.
    pub section: RunResult,
    /// The section + touch-boost run.
    pub boost: RunResult,
}

impl AppSweep {
    /// The governed run for `policy`.
    ///
    /// # Panics
    ///
    /// Panics if `policy` was not part of the sweep.
    pub fn run_for(&self, policy: Policy) -> &RunResult {
        match policy {
            Policy::FixedMax => &self.baseline,
            Policy::SectionOnly => &self.section,
            Policy::SectionWithBoost => &self.boost,
            // ccdem-lint: allow(panic) — documented `# Panics` contract
            other => panic!("policy {other:?} not part of the sweep"),
        }
    }

    /// Power saved by `policy` versus the baseline. (mW)
    pub fn saved_mw(&self, policy: Policy) -> f64 {
        self.baseline.avg_power_mw - self.run_for(policy).avg_power_mw
    }

    /// The [`AppRunSummary`] for `policy`.
    pub fn summary(&self, policy: Policy) -> AppRunSummary {
        let run = self.run_for(policy);
        AppRunSummary {
            app: self.app.clone(),
            class: self.class.to_string(),
            policy: policy.to_string(),
            baseline_power_mw: self.baseline.avg_power_mw,
            power_mw: run.avg_power_mw,
            displayed_content_fps: run.displayed_content_fps,
            actual_content_fps: run.actual_content_fps,
            dropped_fps: run.dropped_fps(),
            quality_pct: run.quality_pct(),
        }
    }
}

/// The full sweep result.
#[derive(Debug, Clone)]
pub struct Sweep {
    /// One entry per catalog application.
    pub apps: Vec<AppSweep>,
}

/// All policies each app runs under, in result order.
const SWEEP_POLICIES: [Policy; 3] = [
    Policy::FixedMax,
    Policy::SectionOnly,
    Policy::SectionWithBoost,
];

/// Runs the sweep: 30 apps × 3 policies.
pub fn run(config: &SweepConfig) -> Sweep {
    run_timed(config).0
}

/// Runs the sweep and also reports how long each run took on the host.
///
/// The 90 `(app, policy)` scenarios are independent, so they are fanned
/// out over a [`ParallelRunner`] with `config.jobs` workers (see
/// [`run_each`]). Each run's seed is
/// [`derive_seed`]`(config.seed, app_index)` — a pure function of the
/// work item, never of worker identity or completion order — and
/// results come back in input order, so the returned [`Sweep`] is
/// identical for any worker count.
pub fn run_timed(config: &SweepConfig) -> (Sweep, TimingReport) {
    run_timed_with_obs(config, &Obs::disabled())
}

/// [`run_timed`], with every run's telemetry routed through `obs`.
///
/// Worker threads emit into the shared sink concurrently, so the
/// inter-run interleaving of exported events is nondeterministic — but
/// the simulations themselves never read from the sink, so the returned
/// [`Sweep`] stays byte-identical to an un-instrumented one (this is
/// asserted by the `obs_determinism` integration test).
pub fn run_timed_with_obs(config: &SweepConfig, obs: &Obs) -> (Sweep, TimingReport) {
    let (sweep, report, _) = run_timed_with_campaign(config, obs);
    (sweep, report)
}

/// [`run_timed_with_obs`], additionally folding every completed run into
/// a streaming [`CampaignStats`] as it finishes.
///
/// Each worker folds its run into the shared aggregate under one lock,
/// in run *completion* order — a `campaign.progress` event (running
/// count plus headline percentiles) goes out on `obs` after each run,
/// and a final deterministic `campaign.end` once every run has folded
/// in. Because sketch folding is order-independent, the returned
/// statistics are identical for any worker count even though the
/// progress lines are not.
pub fn run_timed_with_campaign(
    config: &SweepConfig,
    obs: &Obs,
) -> (Sweep, TimingReport, CampaignStats) {
    let specs = catalog::all_apps();
    let items: Vec<(usize, &AppSpec, Policy)> = specs
        .iter()
        .enumerate()
        .flat_map(|(app_index, spec)| SWEEP_POLICIES.map(|policy| (app_index, spec, policy)))
        .collect();

    let runner = ParallelRunner::new(config.jobs);
    let started = Instant::now(); // ccdem-lint: allow(determinism) — timing only
    obs.emit("sweep.start", ccdem_simkit::time::SimTime::ZERO, |event| {
        event
            .field("apps", items.len() / SWEEP_POLICIES.len())
            .field("runs", items.len())
            .field("jobs", runner.jobs());
    });
    let total = items.len();
    let campaign = Mutex::new(CampaignStats::new());
    let runs = run_each(&runner, &items, |scratch, &(app_index, spec, policy)| {
        let seed = derive_seed(config.seed, app_index as u64);
        let run_started = Instant::now(); // ccdem-lint: allow(determinism) — timing only
        let mut s = Scenario::new(Workload::App(spec.clone()), policy)
            .with_duration(config.duration)
            .with_seed(seed)
            .with_obs(obs.clone());
        if config.quarter_resolution {
            s = s.at_quarter_resolution();
        }
        let result = s.run_with_scratch(scratch);
        let timing = RunTiming::new(
            format!("{} / {}", result.app_name, policy),
            run_started.elapsed(),
        );
        // ccdem-lint: allow(panic) — poisoned lock means another worker
        // panicked; re-raising is correct
        let mut campaign = campaign.lock().expect("campaign poisoned");
        campaign.observe_run(&result);
        campaign.emit_progress(obs, total);
        (result, timing)
    });
    // ccdem-lint: allow(panic) — poisoned lock re-raises a worker panic
    let campaign = campaign.into_inner().expect("campaign poisoned");

    let mut report = TimingReport::new(runner.jobs());
    let mut apps = Vec::new();
    let mut runs = runs.into_iter();
    // Each app contributes exactly `SWEEP_POLICIES.len()` consecutive
    // runs (baseline, section, boost); a partial trailing group cannot
    // occur by construction and would be dropped rather than panic.
    while let (Some((baseline, t0)), Some((section, t1)), Some((boost, t2))) =
        (runs.next(), runs.next(), runs.next())
    {
        for t in [t0, t1, t2] {
            report.push(t);
        }
        apps.push(AppSweep {
            app: baseline.app_name.clone(),
            class: baseline.app_class,
            baseline,
            section,
            boost,
        });
    }
    let elapsed = started.elapsed();
    report.finish(elapsed);
    campaign.emit_end(obs);
    obs.emit("sweep", ccdem_simkit::time::SimTime::ZERO, |event| {
        event
            .field("runs", total)
            .field("host_dur_us", elapsed.as_secs_f64() * 1e6);
    });
    (Sweep { apps }, report, campaign)
}

impl Sweep {
    /// Apps of one class.
    pub fn class(&self, class: AppClass) -> Vec<&AppSweep> {
        self.apps.iter().filter(|a| a.class == class).collect()
    }

    /// All per-app summaries for the evaluated policies.
    pub fn summaries(&self) -> Vec<AppRunSummary> {
        self.apps
            .iter()
            .flat_map(|a| EVALUATED_POLICIES.map(|p| a.summary(p)))
            .collect()
    }

    /// Table 1: the four class × policy aggregates.
    pub fn table1(&self) -> Vec<ClassAggregate> {
        let summaries = self.summaries();
        let mut rows = Vec::new();
        for class in [AppClass::General, AppClass::Game] {
            for policy in EVALUATED_POLICIES {
                rows.push(ClassAggregate::of(
                    &summaries,
                    &class.to_string(),
                    &policy.to_string(),
                ));
            }
        }
        rows
    }

    /// The `q`-quantile of per-app `metric` values within a class/policy.
    pub fn quantile_of(
        &self,
        class: AppClass,
        policy: Policy,
        q: f64,
        metric: impl Fn(&AppRunSummary) -> f64,
    ) -> Option<f64> {
        let values: Vec<f64> = self
            .class(class)
            .iter()
            .map(|a| metric(&a.summary(policy)))
            .collect();
        quantile(&values, q)
    }

    /// Renders the Fig. 9 view (power saved per app).
    pub fn fig9(&self) -> String {
        let mut out = String::from("Figure 9: power saving per application (vs fixed 60 Hz)\n");
        for class in [AppClass::General, AppClass::Game] {
            out.push_str(&format!("\n{class} applications:\n"));
            let mut t = TextTable::new([
                "app",
                "baseline (mW)",
                "section saved (mW)",
                "+boost saved (mW)",
            ]);
            for a in self.class(class) {
                t.row([
                    a.app.clone(),
                    format!("{:.0}", a.baseline.avg_power_mw),
                    format!("{:.0}", a.saved_mw(Policy::SectionOnly)),
                    format!("{:.0}", a.saved_mw(Policy::SectionWithBoost)),
                ]);
            }
            out.push_str(&t.to_string());
        }
        out
    }

    /// Renders the Fig. 10 view (estimated vs actual content rate).
    pub fn fig10(&self) -> String {
        let mut out =
            String::from("Figure 10: displayed vs actual content rate (dropped frames)\n");
        for class in [AppClass::General, AppClass::Game] {
            out.push_str(&format!("\n{class} applications:\n"));
            let mut t = TextTable::new([
                "app",
                "actual (fps)",
                "section displayed",
                "section dropped",
                "+boost displayed",
                "+boost dropped",
            ]);
            for a in self.class(class) {
                let s = a.summary(Policy::SectionOnly);
                let b = a.summary(Policy::SectionWithBoost);
                t.row([
                    a.app.clone(),
                    format!("{:.1}", s.actual_content_fps),
                    format!("{:.1}", s.displayed_content_fps),
                    format!("{:.1}", s.dropped_fps),
                    format!("{:.1}", b.displayed_content_fps),
                    format!("{:.1}", b.dropped_fps),
                ]);
            }
            out.push_str(&t.to_string());
        }
        out
    }

    /// Renders the Fig. 11 view (display quality per app).
    pub fn fig11(&self) -> String {
        let mut out = String::from("Figure 11: display quality per application\n");
        for class in [AppClass::General, AppClass::Game] {
            out.push_str(&format!("\n{class} applications:\n"));
            let mut t = TextTable::new(["app", "section quality (%)", "+boost quality (%)"]);
            for a in self.class(class) {
                t.row([
                    a.app.clone(),
                    format!("{:.1}", a.summary(Policy::SectionOnly).quality_pct),
                    format!("{:.1}", a.summary(Policy::SectionWithBoost).quality_pct),
                ]);
            }
            out.push_str(&t.to_string());
        }
        out
    }

    /// Renders the Table 1 view (class aggregates).
    pub fn table1_text(&self) -> String {
        let mut out = String::from("Table 1: power-saving effect and display quality\n");
        let mut t = TextTable::new([
            "class",
            "method",
            "saved power (%)",
            "saved power (mW)",
            "display quality (%)",
        ]);
        for agg in self.table1() {
            t.row([
                agg.class.clone(),
                agg.policy.clone(),
                format!("{:.2} (±{:.2})", agg.saved_pct.mean, agg.saved_pct.std_dev),
                format!("{:.0} (±{:.0})", agg.saved_mw.mean, agg.saved_mw.std_dev),
                format!(
                    "{:.1} (±{:.1})",
                    agg.quality_pct.mean, agg.quality_pct.std_dev
                ),
            ]);
        }
        out.push_str(&t.to_string());
        out
    }
}

impl fmt::Display for Sweep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}\n{}\n{}\n{}",
            self.fig9(),
            self.fig10(),
            self.fig11(),
            self.table1_text()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The sweep is 90 full-stack runs; share one across all tests.
    fn quick() -> &'static Sweep {
        use std::sync::OnceLock;
        static SWEEP: OnceLock<Sweep> = OnceLock::new();
        SWEEP.get_or_init(|| {
            run(&SweepConfig {
                duration: SimDuration::from_secs(12),
                seed: 21,
                quarter_resolution: true,
                jobs: 0,
            })
        })
    }

    #[test]
    fn covers_all_thirty_apps() {
        let s = quick();
        assert_eq!(s.apps.len(), 30);
        assert_eq!(s.summaries().len(), 60);
    }

    #[test]
    fn games_save_more_than_general_apps() {
        // §4.3: games save ~290 mW on average vs ~120 mW for general apps.
        let s = quick();
        let mean = |class| {
            let members = s.class(class);
            members
                .iter()
                .map(|a| a.saved_mw(Policy::SectionOnly))
                .sum::<f64>()
                / members.len() as f64
        };
        let games = mean(AppClass::Game);
        let general = mean(AppClass::General);
        assert!(
            games > general,
            "games saved {games:.0} mW ≤ general {general:.0} mW"
        );
        assert!(general > 0.0, "general apps saved {general:.0} mW");
    }

    #[test]
    fn boost_restores_quality_above_95_pct_for_80_pct_of_apps() {
        // §4.4: with touch boosting, quality is ≥95% for 80% of both
        // classes.
        let s = quick();
        for class in [AppClass::General, AppClass::Game] {
            let q20 = s
                .quantile_of(class, Policy::SectionWithBoost, 0.2, |r| r.quality_pct)
                .unwrap();
            assert!(
                q20 > 90.0,
                "{class}: 20th-percentile boosted quality {q20:.1}%"
            );
        }
    }

    #[test]
    fn boost_beats_section_only_on_quality() {
        let s = quick();
        for a in &s.apps {
            let section = a.summary(Policy::SectionOnly).quality_pct;
            let boost = a.summary(Policy::SectionWithBoost).quality_pct;
            assert!(
                boost >= section - 3.0,
                "{}: boost {boost:.1}% well below section {section:.1}%",
                a.app
            );
        }
    }

    #[test]
    fn boost_drops_fewer_frames() {
        // §4.4: dropped frames fall from ≤2.9/3.8 fps (section) to
        // ≤0.7/1.3 fps (boost) at the 80th percentile.
        let s = quick();
        for class in [AppClass::General, AppClass::Game] {
            let sec = s
                .quantile_of(class, Policy::SectionOnly, 0.8, |r| r.dropped_fps)
                .unwrap();
            let boost = s
                .quantile_of(class, Policy::SectionWithBoost, 0.8, |r| r.dropped_fps)
                .unwrap();
            assert!(
                boost <= sec,
                "{class}: boost dropped {boost:.1} fps > section {sec:.1} fps"
            );
        }
    }

    #[test]
    fn table1_has_four_rows() {
        let rows = quick().table1();
        assert_eq!(rows.len(), 4);
        for row in &rows {
            assert_eq!(row.saved_pct.count, 15);
        }
    }

    #[test]
    fn reports_render() {
        let s = quick();
        assert!(s.fig9().contains("Jelly Splash"));
        assert!(s.fig10().contains("actual (fps)"));
        assert!(s.fig11().contains("quality"));
        assert!(s.table1_text().contains("Table 1"));
    }
}
