//! Degenerate hardware: on a stock (single-rate) panel the governor must
//! be a harmless no-op — the paper's scheme requires the kernel
//! modification, and gracefully doing nothing without it is part of
//! being a usable library.

use ccdem::core::governor::Policy;
use ccdem::experiments::{Scenario, Workload};
use ccdem::panel::device::DeviceProfile;
use ccdem::pixelbuf::geometry::Resolution;
use ccdem::simkit::time::SimDuration;
use ccdem::workloads::catalog;

fn stock_scenario(policy: Policy) -> Scenario {
    let mut s = Scenario::new(Workload::App(catalog::jelly_splash()), policy)
        .with_duration(SimDuration::from_secs(12))
        .with_seed(61);
    s.device = DeviceProfile::galaxy_s3_stock().with_resolution(Resolution::QUARTER);
    s.governor = s.governor.with_grid_budget(576);
    s
}

#[test]
fn governor_is_noop_on_single_rate_panel() {
    let governed = stock_scenario(Policy::SectionWithBoost).run();
    let baseline = stock_scenario(Policy::FixedMax).run();
    assert_eq!(
        governed.refresh_switches, 0,
        "no other rate exists to switch to"
    );
    assert_eq!(governed.avg_refresh_hz, 60.0);
    // Identical workload, identical panel behaviour → identical power.
    assert!(
        (governed.avg_power_mw - baseline.avg_power_mw).abs() < 1e-6,
        "governed {} vs baseline {}",
        governed.avg_power_mw,
        baseline.avg_power_mw
    );
}

#[test]
fn quality_untouched_on_stock_panel() {
    let governed = stock_scenario(Policy::SectionOnly).run();
    assert!(
        governed.quality_pct() > 99.0,
        "quality {:.1}% on a panel the governor cannot touch",
        governed.quality_pct()
    );
}
