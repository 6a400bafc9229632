//! Regenerate the paper's figures and tables.
//!
//! ```text
//! cargo run --release --example paper_report -- <experiment> [--paper]
//! ```
//!
//! `<experiment>` is one of `fig2`, `fig3`, `fig6`, `fig7`, `fig8`,
//! `fig9`, `fig10`, `fig11`, `table1`, `generalize`, `ablations`,
//! `certificate`, or `all`. By default each
//! experiment runs a fast configuration (quarter resolution, ~1 minute
//! per app); `--paper` switches to paper-fidelity parameters (full
//! 720×1280 resolution, 3 minutes per app — slower).

use ccdem::experiments::{ablation, certificate, fig2, fig3, fig6, fig7, fig8, generalize, sweep};
use ccdem::simkit::time::SimDuration;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let paper = args.iter().any(|a| a == "--paper");
    let which = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "all".into());

    let per_app = if paper {
        SimDuration::from_secs(180)
    } else {
        SimDuration::from_secs(60)
    };
    let quarter = !paper;

    let wants = |name: &str| which == "all" || which == name;
    let mut ran = false;

    if wants("fig2") {
        ran = true;
        let cfg = fig2::Fig2Config {
            duration: per_app.min(SimDuration::from_secs(60)),
            quarter_resolution: quarter,
            ..Default::default()
        };
        println!("{}\n", fig2::run(&cfg));
    }
    if wants("fig3") {
        ran = true;
        let cfg = fig3::Fig3Config {
            duration: per_app,
            quarter_resolution: quarter,
            ..Default::default()
        };
        println!("{}\n", fig3::run(&cfg));
    }
    if wants("fig6") {
        ran = true;
        let cfg = if paper {
            fig6::Fig6Config {
                frames: 1_200,
                timing_iterations: 100,
                ..Default::default()
            }
        } else {
            fig6::Fig6Config::default()
        };
        println!("{}\n", fig6::run(&cfg));
    }
    if wants("fig7") {
        ran = true;
        let cfg = fig7::Fig7Config {
            duration: per_app.min(SimDuration::from_secs(60)),
            quarter_resolution: quarter,
            ..Default::default()
        };
        println!("{}\n", fig7::run(&cfg));
    }
    if wants("fig8") {
        ran = true;
        let cfg = fig8::Fig8Config {
            duration: per_app.min(SimDuration::from_secs(60)),
            quarter_resolution: quarter,
            ..Default::default()
        };
        println!("{}\n", fig8::run(&cfg));
    }
    if wants("fig9") || wants("fig10") || wants("fig11") || wants("table1") {
        ran = true;
        let cfg = sweep::SweepConfig {
            duration: per_app,
            quarter_resolution: quarter,
            ..Default::default()
        };
        eprintln!("running the 30-app sweep (3 policies × 30 apps)…");
        let s = sweep::run(&cfg);
        if wants("fig9") {
            println!("{}\n", s.fig9());
        }
        if wants("fig10") {
            println!("{}\n", s.fig10());
        }
        if wants("fig11") {
            println!("{}\n", s.fig11());
        }
        if wants("table1") {
            println!("{}\n", s.table1_text());
        }
    }

    if wants("generalize") {
        ran = true;
        let cfg = generalize::GeneralizeConfig {
            duration: per_app.min(SimDuration::from_secs(30)),
            ..Default::default()
        };
        println!("{}\n", generalize::run(&cfg));
    }
    if wants("ablations") {
        ran = true;
        let cfg = ablation::AblationConfig {
            duration: per_app.min(SimDuration::from_secs(30)),
            ..Default::default()
        };
        for a in ablation::run_all(&cfg) {
            println!("{a}\n");
        }
    }

    if wants("certificate") {
        ran = true;
        let cfg = certificate::CertificateConfig {
            duration: per_app.min(SimDuration::from_secs(20)),
            ..Default::default()
        };
        let cert = certificate::issue(&cfg);
        println!("{cert}");
        if !cert.passed() {
            std::process::exit(2);
        }
    }

    if !ran {
        eprintln!(
            "unknown experiment {which:?}; expected one of \
             fig2 fig3 fig6 fig7 fig8 fig9 fig10 fig11 table1 generalize ablations certificate all"
        );
        std::process::exit(1);
    }
}
