//! Scratch-reuse runs must be byte-identical to fresh-allocation runs.
//!
//! `RunScratch` recycles framebuffers and meter snapshots between
//! scenario runs; `campaign::run_each`, the sweeps' dispatch on
//! `ParallelRunner::run_batches`, holds one scratch per worker. Neither
//! may leak any trace of a previous run into the next one's results —
//! these tests pin that contract across heterogeneous scenarios,
//! repeated reuse, and worker counts.

use ccdem_core::governor::Policy;
use ccdem_experiments::campaign::run_each;
use ccdem_experiments::scenario::{RunResult, RunScratch, Scenario, Workload};
use ccdem_simkit::parallel::ParallelRunner;
use ccdem_simkit::time::SimDuration;
use ccdem_workloads::catalog;

/// A deliberately heterogeneous batch: different apps, policies, seeds,
/// surface counts (status bar on/off) and metering modes, so consecutive
/// runs on one scratch never see the same buffer shapes or contents.
fn batch() -> Vec<Scenario> {
    let quick = |app, policy: Policy, seed: u64| {
        Scenario::new(Workload::App(app), policy)
            .at_quarter_resolution()
            .with_duration(SimDuration::from_secs(6))
            .with_seed(seed)
    };
    vec![
        quick(catalog::facebook(), Policy::SectionWithBoost, 11),
        quick(catalog::jelly_splash(), Policy::FixedMax, 22).with_status_bar(),
        quick(catalog::facebook(), Policy::SectionOnly, 33).with_naive_metering(true),
        quick(
            catalog::by_name("TempleRun").expect("catalog app"),
            Policy::NaiveMatch,
            44,
        ),
        quick(catalog::jelly_splash(), Policy::SectionWithBoost, 11).with_status_bar(),
    ]
}

fn fresh_results(scenarios: &[Scenario]) -> Vec<RunResult> {
    // `run()` builds a private fresh scratch per call — the
    // fresh-allocation serial reference.
    scenarios.iter().map(Scenario::run).collect()
}

#[test]
fn one_reused_scratch_matches_fresh_allocation_exactly() {
    let scenarios = batch();
    let fresh = fresh_results(&scenarios);

    let mut scratch = RunScratch::new();
    let reused: Vec<RunResult> = scenarios
        .iter()
        .map(|s| s.run_with_scratch(&mut scratch))
        .collect();

    assert_eq!(fresh, reused, "scratch reuse leaked state into a result");
    // Byte-identical, not merely PartialEq: the debug serialization
    // covers every field including full per-second traces.
    assert_eq!(format!("{fresh:?}"), format!("{reused:?}"));
    assert!(
        scratch.pooled_buffers() > 0,
        "finished runs must return buffers to the pool"
    );
}

#[test]
fn per_worker_scratch_sweep_matches_fresh_serial_sweep() {
    let scenarios = batch();
    let fresh = fresh_results(&scenarios);

    for jobs in [1, 4] {
        let swept: Vec<RunResult> = run_each(
            &ParallelRunner::new(jobs),
            &scenarios,
            |scratch, scenario| scenario.run_with_scratch(scratch),
        );
        assert_eq!(
            format!("{fresh:?}"),
            format!("{swept:?}"),
            "jobs={jobs}: scratch sweep diverged from fresh serial runs"
        );
    }
}

#[test]
fn baseline_twin_shares_the_scratch_without_cross_talk() {
    let scenario = Scenario::new(Workload::App(catalog::facebook()), Policy::SectionWithBoost)
        .at_quarter_resolution()
        .with_duration(SimDuration::from_secs(6))
        .with_seed(7);

    let (governed_fresh, baseline_fresh) = scenario.run_with_baseline();
    let mut scratch = RunScratch::new();
    // Twice on the same scratch: the second pair reuses buffers the
    // first pair (and its baseline twin) dirtied.
    let first = scenario.run_with_baseline_scratch(&mut scratch);
    let second = scenario.run_with_baseline_scratch(&mut scratch);

    assert_eq!((governed_fresh.clone(), baseline_fresh.clone()), first);
    assert_eq!((governed_fresh, baseline_fresh), second);
}

#[test]
fn pool_reaches_a_steady_state_under_repetition() {
    let scenario = Scenario::new(Workload::App(catalog::jelly_splash()), Policy::SectionOnly)
        .at_quarter_resolution()
        .with_duration(SimDuration::from_secs(4))
        .with_seed(3)
        .with_status_bar();

    let mut scratch = RunScratch::new();
    scenario.run_with_scratch(&mut scratch);
    let settled = scratch.pooled_buffers();
    assert!(settled > 0, "nothing was recycled");
    for _ in 0..4 {
        scenario.run_with_scratch(&mut scratch);
        assert_eq!(
            scratch.pooled_buffers(),
            settled,
            "steady-state reuse must not grow the pool"
        );
    }
}
