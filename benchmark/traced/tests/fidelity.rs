//! The traced engine must reproduce `Scenario::run_with_scratch` field for
//! field on every scenario shape the benchmark's workloads use.

use ccdem_benchmark::idle_day_scenario;
use ccdem_benchmark_traced::engine::run_traced;
use ccdem_benchmark_traced::tracer::{Layer, Tracer};
use ccdem_core::governor::Policy;
use ccdem_experiments::fleet::UsagePattern;
use ccdem_experiments::scenario::RunScratch;
use ccdem_experiments::{Scenario, Workload};
use ccdem_panel::device::DeviceProfile;
use ccdem_pixelbuf::pool::PixelPool;
use ccdem_simkit::time::SimDuration;
use ccdem_workloads::catalog;

/// Runs `scenario` untraced and twice traced (fresh, then recycled pool)
/// and returns the tracer.
fn assert_faithful(scenario: &Scenario) -> Tracer {
    let untraced = scenario.run_with_scratch(&mut RunScratch::new());
    let mut pool = PixelPool::new();
    let mut tracer = Tracer::new();
    for _ in 0..2 {
        let (traced, _) =
            run_traced(scenario, &mut pool, &mut tracer).expect("a workload the tracer drives");
        tracer.end_run();
        assert_eq!(
            traced, untraced,
            "traced run diverged on {}",
            untraced.app_name
        );
    }
    tracer
}

fn catalog_app_on(device: DeviceProfile, app: &str, policy: Policy) -> Scenario {
    let mut s = Scenario::new(
        Workload::App(catalog::by_name(app).expect("catalog app")),
        policy,
    )
    .with_duration(SimDuration::from_secs(20))
    .with_seed(41)
    .with_monkey(UsagePattern::Standard.monkey());
    s.device = device;
    s.at_quarter_resolution()
}

#[test]
fn catalog_app_on_galaxy_s3() {
    assert_faithful(&catalog_app_on(
        DeviceProfile::galaxy_s3(),
        "Facebook",
        Policy::SectionWithBoost,
    ));
}

#[test]
fn fixed_baseline_on_galaxy_s3() {
    assert_faithful(&catalog_app_on(
        DeviceProfile::galaxy_s3(),
        "Jelly Splash",
        Policy::FixedMax,
    ));
}

#[test]
fn catalog_app_on_ltpo() {
    assert_faithful(&catalog_app_on(
        DeviceProfile::ltpo_120(),
        "Cookie Run",
        Policy::SectionOnly,
    ));
}

#[test]
fn catalog_app_on_tablet() {
    assert_faithful(&catalog_app_on(
        DeviceProfile::tablet_90(),
        "KakaoTalk",
        Policy::SectionWithBoost,
    ));
}

#[test]
fn mixed_session_with_status_bar_and_sparse_input() {
    // Three five-minute segments: two app switches under the clock.
    let scenario = idle_day_scenario(5).with_duration(SimDuration::from_secs(15 * 60));
    let tracer = assert_faithful(&scenario);

    let totals = tracer.totals();
    let calls = |layer: Layer| totals[Layer::ALL.iter().position(|&l| l == layer).unwrap()].calls;
    assert_eq!(
        calls(Layer::ScenarioSetup),
        2,
        "one engine construction per run"
    );
    assert_eq!(calls(Layer::ScenarioFinish), 2, "one finish per run");
    for layer in [
        Layer::Workloads,
        Layer::Compositor,
        Layer::CoreMeter,
        Layer::CoreGovernor,
        Layer::Panel,
        Layer::Power,
        Layer::SimkitEvent,
    ] {
        assert!(calls(layer) > 0, "{} never called", layer.name());
    }
    assert_eq!(calls(Layer::FleetSample), 0);
    assert_eq!(calls(Layer::Campaign), 0);
}

#[test]
fn unsupported_workloads_are_refused() {
    let video = Workload::Video(ccdem_workloads::video::VideoConfig::default());
    let scenario = Scenario::new(video, Policy::SectionOnly).at_quarter_resolution();
    let mut pool = PixelPool::new();
    assert!(run_traced(&scenario, &mut pool, &mut Tracer::new()).is_none());
}
