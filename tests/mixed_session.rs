//! End-to-end mixed-session behaviour: the governor re-converges after
//! every app switch.

use ccdem::core::governor::Policy;
use ccdem::experiments::{Scenario, Workload};
use ccdem::simkit::time::SimDuration;
use ccdem::workloads::catalog;
use ccdem::workloads::input::MonkeyConfig;

fn mixed(policy: Policy) -> Scenario {
    Scenario::new(
        Workload::Mixed {
            apps: vec![
                catalog::by_name("Tiny Flashlight").expect("catalog app"),
                catalog::jelly_splash(),
            ],
            segment: SimDuration::from_secs(10),
        },
        policy,
    )
    .at_quarter_resolution()
    .with_duration(SimDuration::from_secs(40))
    .with_seed(23)
    .with_monkey(MonkeyConfig::none())
}

#[test]
fn governor_tracks_regime_changes() {
    let r = mixed(Policy::SectionOnly).run();
    let refresh = r.refresh_trace.per_second(r.duration);
    // Flashlight segments (0–10 s, 20–30 s) should sit at the floor;
    // Jelly Splash segments (10–20 s, 30–40 s) well above it. Skip the
    // first two seconds of each segment for convergence.
    let mean = |range: std::ops::Range<usize>| {
        let v: Vec<f64> = refresh[range].to_vec();
        v.iter().sum::<f64>() / v.len() as f64
    };
    let quiet = mean(4..10);
    let busy = mean(14..20);
    assert!(quiet < 24.0, "flashlight segment ran at {quiet:.1} Hz");
    assert!(
        busy > quiet + 3.0,
        "game segment at {busy:.1} Hz not above {quiet:.1}"
    );
    // And the second flashlight segment converges back down.
    let quiet_again = mean(24..30);
    assert!(
        quiet_again < 24.0,
        "governor failed to re-converge: {quiet_again:.1} Hz"
    );
}

#[test]
fn switch_transitions_display_new_content() {
    // Each of the 4 segment starts forces a full redraw that must land
    // on the glass.
    let r = mixed(Policy::SectionOnly).run();
    assert!(r.displayed_content_fps > 0.0, "no content displayed at all");
    // Seconds containing a switch (0, 10, 20, 30) carry at least one
    // displayed content frame.
    for boundary in [0usize, 10, 20, 30] {
        let displayed = r.displayed_content_per_second[boundary]
            + r.displayed_content_per_second
                .get(boundary + 1)
                .copied()
                .unwrap_or(0.0);
        assert!(
            displayed >= 1.0,
            "switch at t={boundary}s displayed nothing"
        );
    }
}

#[test]
fn mixed_session_saves_power() {
    let (gov, base) = mixed(Policy::SectionWithBoost).run_with_baseline();
    assert!(
        gov.avg_power_mw < base.avg_power_mw,
        "governed {:.0} ≥ baseline {:.0}",
        gov.avg_power_mw,
        base.avg_power_mw
    );
    assert!(
        gov.quality_pct() > 90.0,
        "quality {:.1}%",
        gov.quality_pct()
    );
}
