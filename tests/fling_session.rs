//! End-to-end fling-scroll behaviour: the content rate glides down
//! through every section of the table, and the governor follows.

use ccdem::core::governor::Policy;
use ccdem::experiments::{Scenario, Workload};
use ccdem::simkit::time::SimDuration;
use ccdem::workloads::input::MonkeyConfig;
use ccdem::workloads::scrolling::FlingConfig;

fn fling_scenario(policy: Policy) -> Scenario {
    // One isolated fling early in the run, then silence.
    let one_fling = MonkeyConfig {
        mean_think_time_s: 4.0,
        burst_min: 1,
        burst_max: 1,
        intra_burst_gap_ms: (100, 101),
        scroll_probability: 1.0,
    };
    Scenario::new(Workload::Fling(FlingConfig::reader()), policy)
        .at_quarter_resolution()
        .with_duration(SimDuration::from_secs(20))
        .with_seed(11)
        .with_monkey(one_fling)
}

#[test]
fn governor_walks_down_the_ladder_behind_the_fling() {
    let r = fling_scenario(Policy::SectionWithBoost).run();
    let refresh = r.refresh_trace.per_second(r.duration);
    // The run must visit both a high rate (during the fling) and the
    // floor (after it decays).
    let peak = refresh.iter().fold(0.0f64, |a, &b| a.max(b));
    let floor = refresh.iter().skip(2).fold(f64::INFINITY, |a, &b| a.min(b));
    assert!(peak > 45.0, "never reached a high rate: peak {peak:.1} Hz");
    assert!(
        floor < 25.0,
        "never decayed to the floor: min {floor:.1} Hz"
    );
    // And intermediate rungs are used, not just the extremes.
    let intermediate = refresh
        .iter()
        .filter(|&&hz| (22.0..45.0).contains(&hz))
        .count();
    assert!(
        intermediate > 0,
        "ladder jumped without intermediate rungs: {refresh:?}"
    );
}

#[test]
fn fling_quality_preserved_with_boost() {
    let r = fling_scenario(Policy::SectionWithBoost).run();
    assert!(
        r.quality_pct() > 92.0,
        "fling quality {:.1}%",
        r.quality_pct()
    );
}

#[test]
fn fling_saves_power_against_baseline() {
    let (governed, baseline) = fling_scenario(Policy::SectionWithBoost).run_with_baseline();
    assert!(
        governed.avg_power_mw < baseline.avg_power_mw - 30.0,
        "governed {:.0} mW vs baseline {:.0} mW",
        governed.avg_power_mw,
        baseline.avg_power_mw
    );
}

#[test]
fn workload_replays_identically_across_policies() {
    let a = fling_scenario(Policy::SectionOnly).run();
    let b = fling_scenario(Policy::FixedMax).run();
    assert_eq!(a.touch_times, b.touch_times);
    assert_eq!(a.actual_content_per_second, b.actual_content_per_second);
}
