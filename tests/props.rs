//! Property-based tests over the full simulated stack: random workloads
//! and configurations must never violate the system invariants.

use ccdem::core::governor::{GovernorConfig, Policy};
use ccdem::experiments::{Scenario, Workload};
use ccdem::simkit::time::SimDuration;
use ccdem::workloads::app::AppClass;
use ccdem::workloads::phased::{AppSpec, ChangeKind, PhaseBehavior};
use proptest::prelude::*;

fn arb_spec() -> impl Strategy<Value = AppSpec> {
    (
        1.0f64..80.0,
        0.0f64..80.0,
        1.0f64..80.0,
        0.0f64..80.0,
        0usize..3,
    )
        .prop_map(|(idle_req, idle_cr, active_req, active_cr, kind)| {
            let kind = [
                ChangeKind::FullRedraw,
                ChangeKind::Scroll,
                ChangeKind::Widget,
            ][kind];
            AppSpec::new(
                "prop app",
                AppClass::General,
                PhaseBehavior::new(idle_req, idle_cr, kind),
                PhaseBehavior::new(active_req, active_cr.max(idle_cr), kind),
            )
        })
}

fn arb_policy() -> impl Strategy<Value = Policy> {
    prop_oneof![
        Just(Policy::FixedMax),
        Just(Policy::NaiveMatch),
        Just(Policy::SectionOnly),
        Just(Policy::SectionWithBoost),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Whatever the workload and policy, the stack never breaks physics:
    /// composed frames bounded by the max refresh, displayed ≤ actual
    /// content (up to binning), quality ≤ 100%, power within model
    /// bounds, and refresh decisions inside the supported ladder.
    #[test]
    fn full_stack_invariants(
        spec in arb_spec(),
        policy in arb_policy(),
        seed in 0u64..1_000,
        window_ms in 200u64..1_000,
    ) {
        let mut scenario = Scenario::new(Workload::App(spec), policy)
            .at_quarter_resolution()
            .with_duration(SimDuration::from_secs(6))
            .with_seed(seed);
        scenario.governor = GovernorConfig::new(policy)
            .with_control_window(SimDuration::from_millis(window_ms))
            .with_grid_budget(576);
        let r = scenario.run();

        // Physics: V-Sync caps composition.
        for (sec, &fps) in r.frame_rate_per_second.iter().enumerate() {
            prop_assert!(fps <= 61.0, "second {sec}: {fps} composed fps");
        }
        // Displayed content never exceeds produced content overall.
        prop_assert!(
            r.displayed_content_fps <= r.actual_content_fps + 0.5,
            "displayed {} > actual {}",
            r.displayed_content_fps,
            r.actual_content_fps
        );
        // Quality and drops are consistent.
        prop_assert!((0.0..=100.0).contains(&r.quality_pct()));
        prop_assert!(r.dropped_fps() >= 0.0);
        // Refresh stays inside the ladder.
        for (_, hz) in r.refresh_trace.iter() {
            prop_assert!(
                [20.0, 24.0, 30.0, 40.0, 60.0].contains(&hz),
                "applied {hz} Hz not in the ladder"
            );
        }
        // Power within model bounds (base+static .. everything maxed).
        prop_assert!(
            r.avg_power_mw > 600.0 && r.avg_power_mw < 1_800.0,
            "avg power {} mW out of range",
            r.avg_power_mw
        );
    }

    /// The fixed-max baseline never loses to an adaptive policy on
    /// quality, and never uses less power (same seed, same workload).
    #[test]
    fn baseline_dominates_quality_and_power(
        spec in arb_spec(),
        seed in 0u64..500,
    ) {
        let governed = Scenario::new(Workload::App(spec.clone()), Policy::SectionWithBoost)
            .at_quarter_resolution()
            .with_duration(SimDuration::from_secs(6))
            .with_seed(seed)
            .run();
        let baseline = Scenario::new(Workload::App(spec), Policy::FixedMax)
            .at_quarter_resolution()
            .with_duration(SimDuration::from_secs(6))
            .with_seed(seed)
            .run();
        prop_assert!(
            baseline.quality_pct() >= governed.quality_pct() - 3.0,
            "baseline quality {:.1}% well below governed {:.1}%",
            baseline.quality_pct(),
            governed.quality_pct()
        );
        prop_assert!(
            governed.avg_power_mw <= baseline.avg_power_mw + 1.0,
            "governed {:.0} mW above baseline {:.0} mW",
            governed.avg_power_mw,
            baseline.avg_power_mw
        );
    }
}
