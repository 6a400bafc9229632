//! The end-to-end runner's output checks, digest and result line.

use std::time::Duration;

use ccdem_benchmark::cli::{result_line, Args, Metric};
use ccdem_benchmark::{
    check_run, median, run_digest, throughput, Bench, Expect, Repetition, Tally,
};
use ccdem_core::governor::Policy;
use ccdem_experiments::{RunResult, Scenario, Workload};
use ccdem_simkit::time::SimDuration;
use ccdem_workloads::catalog;

fn quick(policy: Policy) -> (RunResult, Expect) {
    let scenario = Scenario::new(Workload::App(catalog::facebook()), policy)
        .at_quarter_resolution()
        .with_duration(SimDuration::from_secs(10))
        .with_seed(3);
    (scenario.run(), Expect::of(&scenario))
}

#[test]
fn real_runs_pass_every_check() {
    for policy in [
        Policy::FixedMax,
        Policy::SectionOnly,
        Policy::SectionWithBoost,
    ] {
        let (run, expect) = quick(policy);
        assert_eq!(check_run(&run, &expect), Ok(()), "{policy}");
    }
}

#[test]
fn each_check_rejects_its_violation() {
    let (run, expect) = quick(Policy::SectionWithBoost);
    type Corrupt = fn(&mut RunResult);
    let broken: [(&str, Corrupt); 4] = [
        ("wrong app", |r| r.app_name = "Daum".into()),
        ("displayed above actual", |r| {
            r.displayed_content_fps = r.actual_content_fps + 1.0
        }),
        ("refresh above the panel", |r| r.avg_refresh_hz = 61.0),
        ("refresh below the panel", |r| r.avg_refresh_hz = 1.0),
    ];
    for (what, corrupt) in broken {
        let mut bad = run.clone();
        corrupt(&mut bad);
        assert!(check_run(&bad, &expect).is_err(), "{what} accepted");
    }

    let (mut baseline, expect) = quick(Policy::FixedMax);
    baseline.refresh_switches = 1;
    assert!(
        check_run(&baseline, &expect).is_err(),
        "switching baseline accepted"
    );
}

#[test]
fn digest_sees_every_simulated_change() {
    let (run, _) = quick(Policy::SectionOnly);
    assert_eq!(run_digest(&run), run_digest(&run.clone()));
    let mut moved = run.clone();
    moved.power_per_second[0] += 1e-9;
    assert_ne!(run_digest(&run), run_digest(&moved));
}

#[test]
fn tally_leaves_baselines_out() {
    let (baseline, _) = quick(Policy::FixedMax);
    let (governed, _) = quick(Policy::SectionOnly);
    let mut tally = Tally::default();
    tally.observe(&baseline);
    tally.observe(&governed);
    assert_eq!(tally.runs(), 1);
    assert_eq!(tally.avg_power_mw(), governed.avg_power_mw);
    assert_eq!(tally.quality_pct(), governed.quality_pct());
    assert!((0.0..=100.0).contains(&tally.content_error_pct()));
}

#[test]
fn args_take_the_benchmark_form() {
    let args = |s: &str| Args::parse(s.split_whitespace().map(String::from));
    let parsed = args("--workload idle_day --seed 7 --seconds 30 --trace 1").expect("valid");
    assert_eq!(parsed.bench, Bench::IdleDay);
    assert_eq!((parsed.seed, parsed.seconds, parsed.trace), (7, 30.0, true));
    for bad in [
        "--workload nope --seed 1 --seconds 1",
        "--workload idle_day --seconds 1",
        "--workload idle_day --seed 1 --seconds 0",
        "--workload idle_day --seed 1 --seconds 1 --trace 2",
        "--workload idle_day --seed 1 --seconds",
    ] {
        assert!(args(bad).is_err(), "{bad} accepted");
    }
}

#[test]
fn result_line_keeps_every_digit() {
    let metrics = [
        Metric::new("sim_speed", 6123.456789012345, "sim_s/s"),
        Metric::new("setup_s", 4.5e-5, "s"),
    ];
    let line = result_line(true, 90, 0, &metrics);
    assert_eq!(
        line,
        "{\"correct\": true, \"attempted\": 90, \"failed\": 0, \"metrics\": {\
         \"sim_speed\": {\"value\": 6123.456789012345, \"unit\": \"sim_s/s\"}, \
         \"setup_s\": {\"value\": 4.5e-5, \"unit\": \"s\"}}}"
    );
    let nan = result_line(true, 1, 0, &[Metric::new("x", f64::NAN, "s")]);
    assert!(nan.starts_with("{\"correct\": false"), "{nan}");
}

#[test]
fn median_of_even_and_odd_counts() {
    assert_eq!(median(&[]), None);
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
}

#[test]
fn throughput_weighs_repetitions_by_their_time() {
    let rep = |sim_seconds: f64, wall_s: f64, stolen_s: f64| Repetition {
        runs: 1,
        failed: 0,
        failures: Vec::new(),
        digest: 0,
        tally: Tally::default(),
        sim_seconds,
        wall: Duration::from_secs_f64(wall_s),
        stolen_s,
        savings: Vec::new(),
    };
    // 200 simulated seconds in 4 host seconds, not the median of 100 and
    // 33.3 sim_s/s.
    let reps = [rep(100.0, 1.0, 0.0), rep(100.0, 3.0, 0.0)];
    assert_eq!(throughput(&reps, 1), 50.0);
    assert!(throughput(&[], 1).is_nan());
    // 2 CPU seconds stolen from 2 workers cost each 1 s of its 5.
    let stolen = [rep(100.0, 1.0, 0.0), rep(100.0, 4.0, 2.0)];
    assert_eq!(throughput(&stolen, 2), 50.0);
    assert_eq!(throughput(&stolen, 1), 200.0 / 3.0);
}
