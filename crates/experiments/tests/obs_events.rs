//! The event taxonomy a single traced run must produce.
//!
//! One 5-second Facebook run with a ring-buffer sink attached: the trace
//! must contain exactly one run lifecycle pair, one tick decision per
//! elapsed control window, and a steady stream of framebuffer, meter, and
//! panel events in between.

use std::sync::Arc;

use ccdem_core::governor::Policy;
use ccdem_experiments::scenario::{Scenario, Workload};
use ccdem_obs::{Event, Obs, RingSink, Value};
use ccdem_simkit::time::SimDuration;
use ccdem_workloads::catalog;

const DURATION_S: u64 = 5;

fn traced_run() -> (Vec<Event>, ccdem_experiments::scenario::RunResult) {
    let sink = Arc::new(RingSink::new(100_000));
    let obs = Obs::to_sink(sink.clone());
    let scenario = Scenario::new(Workload::App(catalog::facebook()), Policy::SectionWithBoost)
        .at_quarter_resolution()
        .with_duration(SimDuration::from_secs(DURATION_S))
        .with_seed(4242)
        .with_obs(obs);
    let result = scenario.run();
    (sink.events(), result)
}

fn count(events: &[Event], name: &str) -> usize {
    events.iter().filter(|e| e.name == name).count()
}

#[test]
fn trace_contains_one_decision_event_per_control_window() {
    let (events, _) = traced_run();
    let ticks = events
        .iter()
        .filter(|e| {
            e.name == "governor.decision" && e.get("trigger") == Some(&Value::Str("tick".into()))
        })
        .count();
    // Control ticks fire at k * window for k >= 1 while k * window is
    // still inside the run; the default window is 500 ms.
    let window_ms = 500;
    let expected = (DURATION_S as usize * 1000).div_ceil(window_ms) - 1;
    assert_eq!(
        ticks, expected,
        "expected one tick decision per elapsed control window"
    );
    // Every tick decision carries the full decision context.
    for e in events.iter().filter(|e| e.name == "governor.decision") {
        assert!(e.get("rate_hz").is_some(), "decision without rate_hz");
        assert!(e.get("boost").is_some(), "decision without boost flag");
    }
}

#[test]
fn trace_contains_exactly_one_run_lifecycle_pair() {
    let (events, result) = traced_run();
    assert_eq!(count(&events, "run.start"), 1);
    assert_eq!(count(&events, "run.end"), 1);

    let start = events.iter().find(|e| e.name == "run.start").unwrap();
    assert_eq!(start.sim_us, 0);
    assert_eq!(start.get("app"), Some(&Value::Str("Facebook".into())));
    assert_eq!(start.get("seed"), Some(&Value::U64(4242)));

    let end = events.iter().find(|e| e.name == "run.end").unwrap();
    assert_eq!(end.sim_us, DURATION_S * 1_000_000);
    match end.get("avg_power_mw") {
        Some(Value::F64(mw)) => assert!(
            (mw - result.avg_power_mw).abs() < 1e-9,
            "run.end power {mw} != result {}",
            result.avg_power_mw
        ),
        other => panic!("run.end without avg_power_mw: {other:?}"),
    }
}

#[test]
fn trace_streams_framebuffer_meter_and_panel_events() {
    let (events, result) = traced_run();
    assert!(count(&events, "framebuffer.update") > 0);
    assert!(count(&events, "panel.refresh") > 0);
    // The meter classifies every composited frame it observes.
    let frames = count(&events, "meter.frame");
    assert!(frames > 0, "no meter.frame events");
    let meaningful = events
        .iter()
        .filter(|e| {
            e.name == "meter.frame" && e.get("class") == Some(&Value::Str("meaningful".into()))
        })
        .count();
    let redundant = events
        .iter()
        .filter(|e| {
            e.name == "meter.frame" && e.get("class") == Some(&Value::Str("redundant".into()))
        })
        .count();
    assert_eq!(meaningful + redundant, frames, "unclassified meter frames");
    // Touches appear both as raw input events and as boost decisions.
    if count(&events, "input.touch") > 0 && result.refresh_switches > 0 {
        assert!(
            events.iter().any(|e| {
                e.name == "governor.decision"
                    && e.get("trigger") == Some(&Value::Str("touch".into()))
            }) || count(&events, "panel.rate_switch") > 0,
            "touches produced neither boost decisions nor rate switches"
        );
    }
    // Timestamps are monotonically non-decreasing: the engine emits in
    // simulation order.
    for pair in events.windows(2) {
        assert!(pair[0].sim_us <= pair[1].sim_us, "events out of order");
    }
}
