//! End-to-end checks of the OLED content-scaling power extension.
//!
//! The paper's related work (Chameleon, FOCUS) exploits OLED panels'
//! content-dependent power; our extension composes that behaviour with
//! refresh-rate control: the meter's grid samples double as a luminance
//! estimate feeding the power model.

use ccdem::core::governor::Policy;
use ccdem::experiments::{Scenario, Workload};
use ccdem::power::model::PowerCoefficients;
use ccdem::simkit::time::SimDuration;
use ccdem::workloads::input::MonkeyConfig;
use ccdem::workloads::video::VideoConfig;
use ccdem::workloads::wallpaper::DotsConfig;

fn run(workload: Workload, power: PowerCoefficients) -> f64 {
    let mut s = Scenario::new(workload, Policy::FixedMax)
        .at_quarter_resolution()
        .with_duration(SimDuration::from_secs(10))
        .with_seed(77)
        .with_monkey(MonkeyConfig::none());
    s.power = power;
    s.run().avg_power_mw
}

#[test]
fn dark_content_is_cheaper_on_oled() {
    // The dots wallpaper is near-black (luminance ≈ 0.05): the OLED
    // model should report substantially less power than the
    // content-independent model.
    let workload = Workload::Wallpaper(DotsConfig::nexus_revamped());
    let plain = run(workload.clone(), PowerCoefficients::galaxy_s3());
    let oled = run(
        workload,
        PowerCoefficients::galaxy_s3().with_oled_content_scaling(),
    );
    assert!(
        oled < plain - 100.0,
        "dark wallpaper: OLED {oled:.0} mW vs plain {plain:.0} mW"
    );
}

#[test]
fn mid_grey_content_is_power_neutral() {
    // The video gradient averages mid-grey (luminance ≈ 0.5), where the
    // OLED curve is normalized to match the plain model.
    let workload = Workload::Video(VideoConfig::film_24());
    let plain = run(workload.clone(), PowerCoefficients::galaxy_s3());
    let oled = run(
        workload,
        PowerCoefficients::galaxy_s3().with_oled_content_scaling(),
    );
    let diff = (oled - plain).abs();
    assert!(
        diff < 40.0,
        "mid-grey video: OLED {oled:.0} mW vs plain {plain:.0} mW (diff {diff:.0})"
    );
}

#[test]
fn refresh_governing_still_saves_on_oled() {
    // The two techniques compose: refresh-rate savings persist under the
    // content-dependent panel model.
    let mut governed = Scenario::new(Workload::Video(VideoConfig::film_24()), Policy::SectionOnly)
        .at_quarter_resolution()
        .with_duration(SimDuration::from_secs(10))
        .with_seed(78)
        .with_monkey(MonkeyConfig::none());
    governed.power = PowerCoefficients::galaxy_s3().with_oled_content_scaling();
    let (gov, base) = governed.run_with_baseline();
    assert!(
        gov.avg_power_mw < base.avg_power_mw - 80.0,
        "governed {:.0} mW vs baseline {:.0} mW",
        gov.avg_power_mw,
        base.avg_power_mw
    );
}
