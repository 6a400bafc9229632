//! The standalone lint binary: `cargo run -p ccdem-lint [-- --json]`.
//!
//! Thin wrapper over [`ccdem_lint::run`]; the `ccdem lint` CLI verb is
//! the same engine behind the workspace binary. Exit codes: 0 clean,
//! 1 findings, 2 usage or configuration error.

use std::env;
use std::process::ExitCode;
use std::time::Instant;

use ccdem_lint::{find_workspace_root, run, LintOptions};

const USAGE: &str = "usage: ccdem-lint [--json] [--fix-baseline] [--stats]\n\
  --json          emit diagnostics as ccdem-obs JSON lines\n\
  --fix-baseline  rewrite lint.allow to the current findings\n\
  --stats         print per-family counts, call-graph size, and wall time";

fn main() -> ExitCode {
    let mut json = false;
    let mut fix_baseline = false;
    let mut stats = false;
    for arg in env::args().skip(1) {
        match arg.as_str() {
            "--json" => json = true,
            "--fix-baseline" => fix_baseline = true,
            "--stats" => stats = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("ccdem-lint: unknown argument {other:?}\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }

    let cwd = match env::current_dir() {
        Ok(cwd) => cwd,
        Err(err) => {
            eprintln!("ccdem-lint: cannot determine working directory: {err}");
            return ExitCode::from(2);
        }
    };
    let Some(root) = find_workspace_root(&cwd) else {
        eprintln!(
            "ccdem-lint: no workspace Cargo.toml above {}",
            cwd.display()
        );
        return ExitCode::from(2);
    };
    let mut options = LintOptions::new(root);
    options.fix_baseline = fix_baseline;

    let started = Instant::now();
    match run(&options) {
        Ok(report) => {
            let wall_ms = started.elapsed().as_secs_f64() * 1e3;
            for d in &report.reported {
                if json {
                    println!("{}", d.to_json());
                } else {
                    println!("{}", d.render());
                }
            }
            if stats {
                print_stats(&report, wall_ms);
            }
            eprintln!(
                "ccdem-lint: {} file(s) scanned, {} finding(s), {} baselined, {} suppressed{}",
                report.files_scanned,
                report.reported.len(),
                report.baselined.len(),
                report.suppressed,
                if report.baseline_rewritten {
                    " (lint.allow rewritten)"
                } else {
                    ""
                },
            );
            if report.clean() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(err) => {
            eprintln!("ccdem-lint: {err}");
            ExitCode::from(2)
        }
    }
}

/// The `--stats` block. `key value` lines on stdout so CI can gate on
/// them (`scripts/ci.sh` parses `wall_ms` and `baseline_total`).
fn print_stats(report: &ccdem_lint::Report, wall_ms: f64) {
    let s = &report.stats;
    println!("stats files_scanned {}", report.files_scanned);
    println!("stats functions {}", s.fn_count);
    println!("stats reachable_fns {}", s.reachable_fns);
    println!("stats baseline_total {}", s.baseline_total);
    println!("stats wall_ms {}", wall_ms.round() as u64);
    for (id, count) in &s.family_counts {
        println!("stats family {} {}", id, count);
    }
}
