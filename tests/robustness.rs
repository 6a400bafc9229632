//! Seed robustness: the evaluation's qualitative conclusions must not
//! depend on one lucky seed.

use ccdem::core::governor::Policy;
use ccdem::experiments::{Scenario, Workload};
use ccdem::simkit::time::SimDuration;
use ccdem::workloads::app::AppClass;
use ccdem::workloads::catalog;

/// A small, class-balanced app sample.
fn sample() -> Vec<ccdem::workloads::phased::AppSpec> {
    [
        "Facebook",
        "Cash Slide",
        "MX Player",
        "Jelly Splash",
        "Everypong",
        "Watermargin",
    ]
    .iter()
    .map(|n| catalog::by_name(n).expect("catalog app"))
    .collect()
}

fn class_means(seed: u64, policy: Policy) -> (f64, f64, f64) {
    let mut general_saved = Vec::new();
    let mut game_saved = Vec::new();
    let mut qualities = Vec::new();
    for spec in sample() {
        let class = spec.class;
        let (governed, baseline) = Scenario::new(Workload::App(spec), policy)
            .at_quarter_resolution()
            .with_duration(SimDuration::from_secs(15))
            .with_seed(seed)
            .run_with_baseline();
        let saved = baseline.avg_power_mw - governed.avg_power_mw;
        match class {
            AppClass::General => general_saved.push(saved),
            AppClass::Game => game_saved.push(saved),
            AppClass::Wallpaper => {}
        }
        qualities.push(governed.quality_pct());
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    (mean(&general_saved), mean(&game_saved), mean(&qualities))
}

#[test]
fn conclusions_hold_across_seeds() {
    for seed in [101u64, 202, 303] {
        let (general, games, quality) = class_means(seed, Policy::SectionWithBoost);
        assert!(
            games > general,
            "seed {seed}: games saved {games:.0} mW ≤ general {general:.0} mW"
        );
        assert!(
            general > 0.0,
            "seed {seed}: general apps saved {general:.0} mW"
        );
        assert!(
            quality > 93.0,
            "seed {seed}: mean boosted quality {quality:.1}%"
        );
    }
}

#[test]
fn section_saves_more_than_boost_across_seeds() {
    for seed in [404u64, 505] {
        let (g_section, games_section, _) = class_means(seed, Policy::SectionOnly);
        let (g_boost, games_boost, _) = class_means(seed, Policy::SectionWithBoost);
        assert!(
            g_section + games_section >= g_boost + games_boost - 2.0,
            "seed {seed}: boost out-saved section ({:.0} vs {:.0})",
            g_boost + games_boost,
            g_section + games_section
        );
    }
}
