//! End-to-end checks of the paper's headline claims on the full stack.
//!
//! Each test pins one sentence from the paper's evaluation (§4) and
//! verifies the corresponding *shape* on the simulated stack. Absolute
//! milliwatt values depend on the power calibration; orderings, ratios
//! and quality bounds are what must hold.

use ccdem::core::governor::Policy;
use ccdem::experiments::{Scenario, Workload};
use ccdem::simkit::time::SimDuration;
use ccdem::workloads::catalog;
use ccdem::workloads::input::MonkeyConfig;

fn run(app: &str, policy: Policy, seed: u64) -> ccdem::experiments::RunResult {
    Scenario::new(
        Workload::App(catalog::by_name(app).expect("catalog app")),
        policy,
    )
    .at_quarter_resolution()
    .with_duration(SimDuration::from_secs(30))
    .with_seed(seed)
    .run()
}

#[test]
fn abstract_claim_power_drops_quality_holds() {
    // "our system effectively reduces the total power in commercial
    // smartphones, yet the display quality is satisfactorily maintained"
    for app in ["Facebook", "Jelly Splash", "Daum Maps", "Cookie Run"] {
        let base = run(app, Policy::FixedMax, 1);
        let gov = run(app, Policy::SectionWithBoost, 1);
        assert!(
            gov.avg_power_mw < base.avg_power_mw,
            "{app}: governed {:.0} mW ≥ baseline {:.0} mW",
            gov.avg_power_mw,
            base.avg_power_mw
        );
        assert!(
            gov.quality_pct() > 90.0,
            "{app}: quality {:.1}%",
            gov.quality_pct()
        );
    }
}

#[test]
fn section_4_3_jelly_splash_saves_several_times_facebook() {
    // "The amount of power saved with Jelly Splash is much larger than
    // that of Facebook, since Jelly Splash keeps a high frame rate of
    // almost 60 fps regardless of the content rate."
    let fb = run("Facebook", Policy::FixedMax, 2).avg_power_mw
        - run("Facebook", Policy::SectionOnly, 2).avg_power_mw;
    let js = run("Jelly Splash", Policy::FixedMax, 2).avg_power_mw
        - run("Jelly Splash", Policy::SectionOnly, 2).avg_power_mw;
    assert!(
        js > 1.5 * fb,
        "Jelly Splash saved {js:.0} mW vs Facebook {fb:.0} mW"
    );
}

#[test]
fn section_4_3_boost_reduces_savings_only_modestly() {
    // "The amount of saved power is slightly reduced by the touch
    // boosting scheme, but this process is required to maintain the
    // graphic quality."
    let base = run("Jelly Splash", Policy::FixedMax, 3).avg_power_mw;
    let section = base - run("Jelly Splash", Policy::SectionOnly, 3).avg_power_mw;
    let boost = base - run("Jelly Splash", Policy::SectionWithBoost, 3).avg_power_mw;
    assert!(boost > 0.0, "boost run must still save power");
    assert!(
        boost <= section,
        "boost saving {boost:.0} mW exceeds section saving {section:.0} mW"
    );
    assert!(
        boost > section * 0.5,
        "boost gives back too much: {boost:.0} of {section:.0} mW"
    );
}

#[test]
fn section_4_4_boost_preserves_quality_under_interaction() {
    // "the display quality with the touch boosting technique is
    // maintained in more than 95% for 80% of both general and game
    // applications" — spot-checked on interactive sessions.
    for app in ["Facebook", "Auction", "Jelly Splash", "Everypong"] {
        let gov = Scenario::new(
            Workload::App(catalog::by_name(app).expect("catalog app")),
            Policy::SectionWithBoost,
        )
        .at_quarter_resolution()
        .with_duration(SimDuration::from_secs(30))
        .with_monkey(MonkeyConfig::standard())
        .with_seed(4)
        .run();
        assert!(
            gov.quality_pct() >= 94.0,
            "{app}: boosted quality {:.1}%",
            gov.quality_pct()
        );
    }
}

#[test]
fn section_4_4_boost_beats_section_only_on_drops() {
    // Fig. 10: dropped frames fall sharply when boosting is enabled.
    let mut section_total = 0.0;
    let mut boost_total = 0.0;
    for (i, app) in ["Facebook", "Naver Webtoon", "Jelly Splash", "PokoPang"]
        .iter()
        .enumerate()
    {
        section_total += run(app, Policy::SectionOnly, 10 + i as u64).dropped_fps();
        boost_total += run(app, Policy::SectionWithBoost, 10 + i as u64).dropped_fps();
    }
    assert!(
        boost_total < section_total,
        "boost drops {boost_total:.2} fps ≥ section drops {section_total:.2} fps"
    );
}

#[test]
fn conclusion_average_power_reduction_meaningful() {
    // "the system makes about 23[0] mW of power reduction and 95% of
    // quality maintenance on average" — check a small mixed sample
    // lands in the hundreds-of-mW, ≥95% regime.
    let apps = ["Cash Slide", "CGV", "Jelly Splash", "Modoo Marble"];
    let mut saved = 0.0;
    let mut quality = 0.0;
    for (i, app) in apps.iter().enumerate() {
        let base = run(app, Policy::FixedMax, 20 + i as u64);
        let gov = run(app, Policy::SectionWithBoost, 20 + i as u64);
        saved += base.avg_power_mw - gov.avg_power_mw;
        quality += gov.quality_pct();
    }
    let saved = saved / apps.len() as f64;
    let quality = quality / apps.len() as f64;
    assert!(
        (50.0..500.0).contains(&saved),
        "average saving {saved:.0} mW out of range"
    );
    assert!(quality >= 95.0, "average quality {quality:.1}%");
}

#[test]
fn v_sync_invariant_holds_end_to_end() {
    // §2.1: frames outnumbering the refresh rate are redundant and never
    // reach the glass — composed fps may never exceed the applied rate.
    let r = run("Asphalt 8", Policy::SectionOnly, 5);
    for (sec, &fps) in r.frame_rate_per_second.iter().enumerate() {
        assert!(fps <= 61.0, "second {sec}: {fps} composed fps");
    }
    // And the panel refreshed at most 60 Hz × duration (+1 for edges).
    let max_refreshes = 61 * r.duration.as_micros() / 1_000_000;
    assert!(
        (r.panel_refreshes as u64) <= max_refreshes,
        "{} panel refreshes in {}",
        r.panel_refreshes,
        r.duration
    );
}

#[test]
fn meter_estimate_tracks_ground_truth_at_full_rate() {
    // §4.1: with enough grid pixels the meter is essentially exact on
    // app workloads.
    let r = run("MX Player", Policy::FixedMax, 6);
    let err = (r.measured_content_fps - r.displayed_content_fps).abs();
    assert!(
        err < 1.5,
        "meter {:.1} fps vs ground truth {:.1} fps",
        r.measured_content_fps,
        r.displayed_content_fps
    );
}
