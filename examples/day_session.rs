//! A day-in-the-life mixed session across several apps.
//!
//! ```text
//! cargo run --release --example day_session
//! ```
//!
//! Rotates through feed → game → chat → video-ish app, 20 s each, for
//! two simulated minutes. The interesting behaviour is at the seams:
//! each switch changes the content-rate regime and the governor must
//! re-converge within a few control windows.

use ccdem::core::governor::Policy;
use ccdem::experiments::{Scenario, Workload};
use ccdem::power::battery::Battery;
use ccdem::power::units::Milliwatts;
use ccdem::simkit::time::SimDuration;
use ccdem::workloads::catalog;

fn main() {
    let rotation = [
        "Facebook",
        "Jelly Splash",
        "KakaoTalk",
        "MX Player",
        "Cookie Run",
        "Naver",
    ]
    .iter()
    .map(|n| catalog::by_name(n).expect("catalog app"))
    .collect::<Vec<_>>();
    let segment = SimDuration::from_secs(20);

    let scenario = Scenario::new(
        Workload::Mixed {
            apps: rotation.clone(),
            segment,
        },
        Policy::SectionWithBoost,
    )
    .with_duration(SimDuration::from_secs(120));

    println!("Mixed session: {} apps × 20 s…\n", rotation.len());
    let (governed, baseline) = scenario.run_with_baseline();

    let refresh = governed.refresh_trace.per_second(governed.duration);
    for (sec, hz) in refresh.iter().enumerate() {
        let app = &rotation[(sec / 20) % rotation.len()].name;
        let boundary = if sec % 20 == 0 { ">" } else { " " };
        let bar = "#".repeat((hz / 3.0).round() as usize);
        println!("  t={sec:>3}s {boundary} {hz:>5.1} Hz  {bar}  [{app}]");
    }

    let saved = baseline.avg_power_mw - governed.avg_power_mw;
    let battery = Battery::galaxy_s3();
    let gained = battery.life_gained(
        Milliwatts::new(baseline.avg_power_mw),
        Milliwatts::new(governed.avg_power_mw),
    );
    println!(
        "\nsession: saved {saved:.0} mW ({:.1}%), quality {:.1}%, {} switches, \
         +{:.0} min battery",
        saved / baseline.avg_power_mw * 100.0,
        governed.quality_pct(),
        governed.refresh_switches,
        gained.as_secs_f64() / 60.0
    );
}
