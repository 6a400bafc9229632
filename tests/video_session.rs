//! End-to-end checks of the video workload: the one case where the
//! optimal refresh rate is known in closed form.

use ccdem::core::governor::Policy;
use ccdem::experiments::{Scenario, Workload};
use ccdem::simkit::time::SimDuration;
use ccdem::workloads::input::MonkeyConfig;
use ccdem::workloads::video::VideoConfig;

fn scenario(cfg: VideoConfig, policy: Policy, monkey: MonkeyConfig) -> Scenario {
    Scenario::new(Workload::Video(cfg), policy)
        .at_quarter_resolution()
        .with_duration(SimDuration::from_secs(20))
        .with_seed(42)
        .with_monkey(monkey)
}

#[test]
fn film_24_settles_at_30_hz() {
    // 24 fps content sits in Eq. 1's 22–27 section → 30 Hz.
    let r = scenario(
        VideoConfig::film_24(),
        Policy::SectionOnly,
        MonkeyConfig::none(),
    )
    .run();
    assert!(
        (29.0..33.0).contains(&r.avg_refresh_hz),
        "24 fps film ran at {:.1} Hz",
        r.avg_refresh_hz
    );
    assert!((23.0..25.0).contains(&r.actual_content_fps));
    assert!(r.quality_pct() > 95.0, "quality {:.1}%", r.quality_pct());
}

#[test]
fn broadcast_30_needs_40_hz() {
    // 30 fps content sits in the 27–35 section → 40 Hz.
    let r = scenario(
        VideoConfig::broadcast_30(),
        Policy::SectionOnly,
        MonkeyConfig::none(),
    )
    .run();
    assert!(
        (38.0..43.0).contains(&r.avg_refresh_hz),
        "30 fps video ran at {:.1} Hz",
        r.avg_refresh_hz
    );
}

#[test]
fn untouched_playback_saves_large_fraction() {
    let (governed, baseline) = scenario(
        VideoConfig::film_24(),
        Policy::SectionOnly,
        MonkeyConfig::none(),
    )
    .run_with_baseline();
    let saved_pct = (baseline.avg_power_mw - governed.avg_power_mw) / baseline.avg_power_mw * 100.0;
    assert!(saved_pct > 8.0, "saved only {saved_pct:.1}%");
}

#[test]
fn pause_drops_to_panel_floor() {
    // Single, well-separated taps so each pause lasts several seconds
    // (a burst of taps would toggle playback right back on). Paused
    // stretches produce near-zero content and the governor should visit
    // the 20 Hz floor.
    let single_taps = MonkeyConfig {
        mean_think_time_s: 6.0,
        burst_min: 1,
        burst_max: 1,
        ..MonkeyConfig::standard()
    };
    let r = scenario(
        VideoConfig::film_24(),
        Policy::SectionWithBoost,
        single_taps,
    )
    .run();
    let refresh = r.refresh_trace.per_second(r.duration);
    let at_floor = refresh.iter().filter(|&&hz| hz < 22.0).count();
    assert!(at_floor > 0, "never reached the 20 Hz floor: {refresh:?}");
}

#[test]
fn video_meter_estimate_is_exact() {
    // Full-screen changes on a decode clock: the grid meter must agree
    // with ground truth frame-for-frame.
    let r = scenario(
        VideoConfig::film_24(),
        Policy::FixedMax,
        MonkeyConfig::none(),
    )
    .run();
    assert!(
        (r.measured_content_fps - r.actual_content_fps).abs() < 0.5,
        "meter {:.1} vs actual {:.1}",
        r.measured_content_fps,
        r.actual_content_fps
    );
}
