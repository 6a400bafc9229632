//! A reading/browsing session: sparse interaction, mostly static screen.
//!
//! ```text
//! cargo run --release --example reading_session
//! ```
//!
//! Facebook-style usage is the other end of the workload spectrum from
//! games: the screen is static for seconds at a time, then a scroll burst
//! demands full responsiveness. This example prints a second-by-second
//! timeline showing the governor gliding to the 20 Hz floor between
//! interactions and snapping to 60 Hz on touch.

use ccdem::core::governor::Policy;
use ccdem::experiments::{Scenario, Workload};
use ccdem::simkit::stats::quantile;
use ccdem::simkit::time::SimDuration;
use ccdem::workloads::catalog;
use ccdem::workloads::input::MonkeyConfig;

fn main() {
    let scenario = Scenario::new(Workload::App(catalog::facebook()), Policy::SectionWithBoost)
        .with_duration(SimDuration::from_secs(45))
        .with_monkey(MonkeyConfig::sparse());

    let (governed, baseline) = scenario.run_with_baseline();

    let touch_secs: Vec<u64> = governed
        .touch_times
        .iter()
        .map(|t| t.as_micros() / 1_000_000)
        .collect();
    let refresh = governed.refresh_trace.per_second(governed.duration);

    println!("Facebook, sparse reading session (touch seconds marked *):\n");
    println!("  sec  refresh   content   power(governed)   power(fixed60)");
    for (sec, hz) in refresh.iter().enumerate() {
        let mark = if touch_secs.contains(&(sec as u64)) {
            "*"
        } else {
            " "
        };
        let cr = governed
            .measured_content_per_second
            .get(sec)
            .copied()
            .unwrap_or(0.0);
        let pg = governed.power_per_second.get(sec).copied().unwrap_or(0.0);
        let pb = baseline.power_per_second.get(sec).copied().unwrap_or(0.0);
        let bar = "#".repeat((hz / 3.0).round() as usize);
        println!("  {sec:>3}{mark} {hz:>5.1} Hz {cr:>6.1} fps {pg:>10.0} mW {pb:>13.0} mW   {bar}");
    }

    println!(
        "\nsession summary: saved {:.0} mW ({:.1}%), quality {:.1}%, {} rate switches",
        baseline.avg_power_mw - governed.avg_power_mw,
        (baseline.avg_power_mw - governed.avg_power_mw) / baseline.avg_power_mw * 100.0,
        governed.quality_pct(),
        governed.refresh_switches,
    );

    let saved: Vec<f64> = baseline
        .power_per_second
        .iter()
        .zip(&governed.power_per_second)
        .map(|(b, g)| b - g)
        .collect();
    let q = |q: f64| quantile(&saved, q).unwrap_or(0.0);
    println!(
        "\nper-second savings: p10 {:.0} mW, p50 {:.0} mW, p90 {:.0} mW",
        q(0.1),
        q(0.5),
        q(0.9),
    );
}
