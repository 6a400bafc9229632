//! End-to-end trace replay: a recorded frame log drives the full stack.

use ccdem::core::governor::Policy;
use ccdem::experiments::{Scenario, Workload};
use ccdem::panel::refresh::RefreshRate;
use ccdem::simkit::time::SimDuration;
use ccdem::workloads::input::MonkeyConfig;
use ccdem::workloads::trace::FrameTrace;

/// Builds a trace of `total` frames at `fps`, every `content_every`-th
/// carrying content.
fn synthetic_trace(fps: u64, total: u64, content_every: u64) -> FrameTrace {
    let period = 1_000_000 / fps;
    let text: String = (0..total)
        .map(|i| format!("{},{}\n", i * period, u8::from(i % content_every == 0)))
        .collect();
    text.parse().expect("synthetic trace is well-formed")
}

fn run_trace(trace: FrameTrace) -> ccdem::experiments::RunResult {
    Scenario::new(Workload::Trace(trace), Policy::SectionOnly)
        .at_quarter_resolution()
        .with_duration(SimDuration::from_secs(15))
        .with_seed(33)
        .with_monkey(MonkeyConfig::none())
        .run()
}

#[test]
fn redundant_heavy_trace_settles_at_floor() {
    // 30 fps submissions, content every 10th frame → CR ~3 fps → 20 Hz.
    let r = run_trace(synthetic_trace(30, 450, 10));
    assert_eq!(
        r.refresh_trace
            .value_at(ccdem::simkit::time::SimTime::from_secs(14)),
        Some(RefreshRate::HZ_20.hz_f64()),
        "refresh trace: {:?}",
        r.refresh_trace.per_second(r.duration)
    );
    // The replayed cadence is visible in the submission rate.
    let mean_submissions =
        r.submissions_per_second.iter().sum::<f64>() / r.submissions_per_second.len() as f64;
    assert!(
        (27.0..33.0).contains(&mean_submissions),
        "mean submissions {mean_submissions:.1} fps"
    );
}

#[test]
fn content_dense_trace_holds_a_high_rate() {
    // 60 fps submissions, every other frame content → CR ~30 → 40 Hz.
    let r = run_trace(synthetic_trace(60, 900, 2));
    let late = r.refresh_trace.time_weighted_mean(
        ccdem::simkit::time::SimTime::from_secs(5),
        ccdem::simkit::time::SimTime::from_secs(15),
    );
    assert!(
        (38.0..42.0).contains(&late),
        "steady-state refresh {late:.1} Hz"
    );
}

#[test]
fn trace_replay_is_deterministic() {
    let a = run_trace(synthetic_trace(30, 450, 3));
    let b = run_trace(synthetic_trace(30, 450, 3));
    assert_eq!(a.avg_power_mw, b.avg_power_mw);
    assert_eq!(a.measured_content_per_second, b.measured_content_per_second);
}
