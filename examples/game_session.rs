//! A gaming session across all four policies.
//!
//! ```text
//! cargo run --release --example game_session [app-name]
//! ```
//!
//! Runs one game (default: Cookie Run) under every policy — including the
//! paper's rejected naive rate-matching controller — and prints a
//! side-by-side comparison. The naive controller demonstrates the V-Sync
//! trap motivating the section table: once the refresh rate drops, the
//! measurable content rate is clipped at it, so a naive "match the
//! content rate" rule can never climb back and quality collapses.

use ccdem::core::governor::Policy;
use ccdem::experiments::{Scenario, Workload};
use ccdem::simkit::time::SimDuration;
use ccdem::workloads::catalog;

fn main() {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "Cookie Run".into());
    let Some(spec) = catalog::by_name(&name) else {
        eprintln!("unknown app {name:?}; try one of:");
        for a in catalog::all_apps() {
            eprintln!("  {}", a.name);
        }
        std::process::exit(1);
    };

    println!("60-second session of {name:?} under each policy:\n");
    println!(
        "{:<42} {:>10} {:>10} {:>9} {:>8}",
        "policy", "power", "refresh", "quality", "dropped"
    );
    println!("{}", "-".repeat(84));

    let mut baseline_power = None;
    for policy in Policy::ALL {
        let run = Scenario::new(Workload::App(spec.clone()), policy)
            .with_duration(SimDuration::from_secs(60))
            .run();
        if policy == Policy::FixedMax {
            baseline_power = Some(run.avg_power_mw);
        }
        let saved = baseline_power
            .map(|b| format!(" (saves {:>5.0} mW)", b - run.avg_power_mw))
            .unwrap_or_default();
        println!(
            "{:<42} {:>7.0} mW {:>7.1} Hz {:>8.1}% {:>4.1} fps{saved}",
            policy.to_string(),
            run.avg_power_mw,
            run.avg_refresh_hz,
            run.quality_pct(),
            run.dropped_fps(),
        );
    }

    println!(
        "\nNaive rate matching squeezes out the most power but drops the most\n\
         content: V-Sync clips the measured content rate at the applied\n\
         refresh rate, so once the naive rule latches onto a low rate it\n\
         cannot observe a content-rate rise and climb back. The section\n\
         table (Eq. 1) always keeps one section of headroom; touch boosting\n\
         covers the input spikes the table cannot see coming."
    );
}
