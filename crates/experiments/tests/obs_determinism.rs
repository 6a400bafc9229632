//! Telemetry must never perturb simulation results.
//!
//! The observability layer flows strictly outward: components emit events
//! and bump metrics but never read them back, so a sweep run with a live
//! JSONL sink — even a parallel one, where workers interleave their
//! emissions — must reproduce a plain serial sweep byte for byte.

use std::sync::Arc;

use ccdem_experiments::sweep::{self, SweepConfig};
use ccdem_obs::json::parse;
use ccdem_obs::{JsonlSink, Obs, RingSink};
use ccdem_simkit::time::SimDuration;

fn config(jobs: usize) -> SweepConfig {
    SweepConfig {
        duration: SimDuration::from_secs(5),
        seed: 20814,
        quarter_resolution: true,
        jobs,
        profile: false,
    }
}

#[test]
fn jsonl_telemetry_does_not_change_sweep_results() {
    let plain = sweep::run(&config(1));

    let path = std::env::temp_dir().join("ccdem_obs_determinism.jsonl");
    let sink = Arc::new(JsonlSink::create(&path).expect("create JSONL sink"));
    let obs = Obs::to_sink(sink.clone());
    // Hardest mode: four workers, a live sink, *and* the decision-path
    // profiler — still byte-identical to the silent serial sweep.
    let traced_config = SweepConfig {
        profile: true,
        ..config(4)
    };
    let (traced, _timing) = sweep::run_timed_with_obs(&traced_config, &obs);
    obs.flush();

    // Byte-identical result sets: four telemetry-emitting workers vs one
    // silent worker.
    assert_eq!(plain.apps.len(), traced.apps.len());
    assert_eq!(
        format!("{:?}", plain.apps),
        format!("{:?}", traced.apps),
        "telemetry or worker count leaked into simulation results"
    );

    // And the telemetry itself is well-formed JSONL: every line parses,
    // and the sink accounted for each one.
    let text = std::fs::read_to_string(&path).expect("read trace");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len() as u64, sink.lines_written());
    assert!(!lines.is_empty(), "sweep emitted no telemetry");
    for line in &lines {
        let value = parse(line).unwrap_or_else(|e| panic!("bad JSONL line {line:?}: {e}"));
        assert!(value.get("event").and_then(|v| v.as_str()).is_some());
        assert!(value.get("t_us").and_then(|v| v.as_f64()).is_some());
    }
    // One run lifecycle pair per (app, policy) run.
    let runs = traced.apps.len() * 3;
    let starts = lines.iter().filter(|l| l.contains("\"event\":\"run.start\"")).count();
    let ends = lines.iter().filter(|l| l.contains("\"event\":\"run.end\"")).count();
    assert_eq!(starts, runs, "expected one run.start per run");
    assert_eq!(ends, runs, "expected one run.end per run");
    // The streaming aggregator reported progress after every completed
    // run, and exactly one final deterministic summary.
    let progress = lines
        .iter()
        .filter(|l| l.contains("\"event\":\"campaign.progress\""))
        .count();
    let campaign_ends = lines
        .iter()
        .filter(|l| l.contains("\"event\":\"campaign.end\""))
        .count();
    assert_eq!(progress, runs, "expected one campaign.progress per run");
    assert_eq!(campaign_ends, 1, "expected exactly one campaign.end");

    let _ = std::fs::remove_file(&path);
}

#[test]
fn campaign_statistics_are_identical_for_any_worker_count() {
    // The observer folds runs in completion order, which differs between
    // worker counts — but sketch folding is order-independent, so the
    // final statistics must match exactly.
    let (_, _, serial) = sweep::run_timed_with_campaign(&config(1), &Obs::disabled());
    let (_, _, parallel) = sweep::run_timed_with_campaign(&config(4), &Obs::disabled());
    assert_eq!(serial.runs(), 90);
    assert_eq!(serial, parallel, "campaign stats depend on completion order");
    // Headline quantiles resolve to sane values in natural units.
    let p50 = serial.quantile("avg_power_mw", 0.5).expect("p50 power");
    assert!(p50 > 50.0 && p50 < 2_000.0, "implausible p50 power {p50} mW");
}

#[test]
fn ring_buffer_telemetry_does_not_change_sweep_results() {
    let plain = sweep::run(&config(2));
    let sink = Arc::new(RingSink::new(4096));
    let obs = Obs::to_sink(sink.clone());
    let (traced, _timing) = sweep::run_timed_with_obs(&config(2), &obs);
    assert_eq!(format!("{:?}", plain.apps), format!("{:?}", traced.apps));
    assert!(!sink.is_empty(), "ring sink captured nothing");
}
