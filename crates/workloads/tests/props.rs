//! Property-based tests for the workload models.

use ccdem_simkit::rng::SimRng;
use ccdem_simkit::time::{SimDuration, SimTime};
use ccdem_workloads::app::{AppModel, InputContext};
use ccdem_workloads::catalog;
use ccdem_workloads::input::{MonkeyConfig, MonkeyScript};
use ccdem_workloads::phased::{AppSpec, ChangeKind, PhaseBehavior};
use ccdem_workloads::scrolling::{FlingConfig, FlingReader};
use proptest::prelude::*;

fn arb_phase() -> impl Strategy<Value = PhaseBehavior> {
    (1.0f64..120.0, 0.0f64..120.0, 0usize..3).prop_map(|(req, content, kind)| {
        let kind = [
            ChangeKind::FullRedraw,
            ChangeKind::Scroll,
            ChangeKind::Widget,
        ][kind];
        PhaseBehavior::new(req, content, kind)
    })
}

proptest! {
    /// Over many ticks, a phased app's realized request interval and
    /// content fraction match its spec within tolerance.
    #[test]
    fn phased_app_honors_its_spec(idle in arb_phase(), seed in 0u64..1_000) {
        let spec = AppSpec::new(
            "prop app",
            ccdem_workloads::app::AppClass::General,
            idle,
            PhaseBehavior::new(60.0, 30.0, ChangeKind::FullRedraw),
        );
        let mut app = spec.instantiate();
        let mut rng = SimRng::seed_from_u64(seed);
        let ctx = InputContext::default();
        let n = 2_000;
        let mut total = SimDuration::ZERO;
        let mut content = 0usize;
        for _ in 0..n {
            let tick = app.tick(SimTime::from_secs(100), &ctx, &mut rng);
            total += tick.next_in;
            if tick.change.is_content() {
                content += 1;
            }
        }
        let mean_interval = total.as_secs_f64() / n as f64;
        let expect_interval = 1.0 / idle.request_fps;
        prop_assert!(
            (mean_interval - expect_interval).abs() < expect_interval * 0.05,
            "interval {mean_interval} vs {expect_interval}"
        );
        let expect_fraction = (idle.content_fps / idle.request_fps).min(1.0);
        let fraction = content as f64 / n as f64;
        // Error diffusion is deterministic: tolerance is one frame in n.
        prop_assert!(
            (fraction - expect_fraction).abs() < 0.01 + 1.0 / n as f64,
            "content fraction {fraction} vs {expect_fraction}"
        );
    }

    /// Monkey scripts are time-ordered, in-range, and reproducible.
    #[test]
    fn monkey_script_well_formed(seed in 0u64..10_000, secs in 1u64..300) {
        let dur = SimDuration::from_secs(secs);
        let cfg = MonkeyConfig::standard();
        let a = MonkeyScript::generate(&cfg, dur, &mut SimRng::seed_from_u64(seed));
        let b = MonkeyScript::generate(&cfg, dur, &mut SimRng::seed_from_u64(seed));
        prop_assert_eq!(a.events(), b.events());
        let end = SimTime::ZERO + dur;
        for pair in a.events().windows(2) {
            prop_assert!(pair[0].time <= pair[1].time);
        }
        prop_assert!(a.events().iter().all(|e| e.time < end));
    }

    /// The fling velocity is non-increasing after a single fling, and
    /// scroll distances are positive while scrolling.
    #[test]
    fn fling_velocity_monotone(probe_ms in proptest::collection::vec(0u64..10_000, 2..40)) {
        let mut reader = FlingReader::new(FlingConfig::reader());
        let mut rng = SimRng::seed_from_u64(1);
        let fling = SimTime::from_secs(1);
        let ctx = InputContext { last_touch: Some(fling) };
        reader.tick(fling, &ctx, &mut rng);
        let mut times: Vec<u64> = probe_ms;
        times.sort_unstable();
        let mut prev = f64::INFINITY;
        for &ms in &times {
            let t = fling + SimDuration::from_millis(ms);
            let v = reader.velocity_at(t);
            prop_assert!(v <= prev + 1e-9);
            prop_assert!(v >= 0.0);
            prev = v;
        }
    }

    /// Every catalog app ticks with positive intervals and its renders
    /// are deterministic per seed.
    #[test]
    fn catalog_apps_tick_sanely(index in 0usize..30, seed in 0u64..100) {
        let spec = catalog::all_apps().swap_remove(index);
        let mut app = spec.instantiate();
        let mut rng = SimRng::seed_from_u64(seed);
        let ctx = InputContext::default();
        for i in 0..100u64 {
            let tick = app.tick(SimTime::from_millis(i * 17), &ctx, &mut rng);
            prop_assert!(tick.next_in.as_micros() > 0, "{}: zero interval", spec.name);
            prop_assert!(
                tick.next_in < SimDuration::from_secs(2),
                "{}: interval {} too long",
                spec.name,
                tick.next_in
            );
        }
    }
}
