//! The `ccdem` command-line tool.
//!
//! ```text
//! ccdem catalog
//! ccdem table    [--device s3|ltpo|tablet]
//! ccdem simulate --app <name> [--policy fixed|naive|section|boost]
//!                [--duration <secs>] [--seed <n>] [--full-res]
//!                [--csv <file>]
//! ccdem trace    --out <file.jsonl> [--app <name>] [--policy <p>]
//!                [--duration <secs>] [--seed <n>] [--full-res]
//! ccdem profile  [--app <name>] [--policy <p>] [--duration <secs>]
//!                [--seed <n>] [--full-res]
//! ccdem sweep    [--duration <secs>] [--seed <n>] [--jobs <n>]
//!                [--obs summary|none]
//! ccdem report   [--duration <secs>] [--seed <n>] [--jobs <n>]
//!                [--obs summary|none]
//! ccdem fleet    [--devices <n>] [--duration <secs>] [--seed <n>]
//!                [--jobs <n>] [--batch <n>] [--out <file.json>]
//!                [--checkpoint <file.json> [--checkpoint-every <batches>]
//!                 [--stop-after <checkpoints>]] [--resume <file.json>]
//!                [--trace <file.jsonl>] [--replay-device <k>]
//! ccdem lint     [--json] [--stats]
//! ```
//!
//! `simulate` runs one app under one policy against its fixed-60 Hz
//! baseline and prints the outcome; `--csv` additionally writes the
//! per-second time series for plotting. `trace` runs one governed app with
//! a live telemetry sink and writes every decision-path event — meter
//! classifications, governor decisions, panel refreshes and rate
//! switches — as JSON Lines. `profile` runs one app under the layer
//! profiler and prints host time per engine layer, its sum against the
//! run's wall time, and decision-tick percentiles. `sweep` runs the
//! 30-app × 3-policy sweep on a worker pool (`--jobs 1` forces the
//! serial path; the results are identical either way) and prints Table 1
//! plus host timing; `report` prints every sweep-derived view (Figs.
//! 9–11 and Table 1) plus the
//! telemetry-metrics summary. `fleet` simulates a sampled population of
//! devices on the work-stealing batch scheduler (DESIGN.md §14) — devices
//! are generated lazily from `(seed, index)`, so `--devices 1000000`
//! never materializes a million items; `--checkpoint`/`--resume` persist
//! and continue a campaign to byte-identical final statistics, and
//! `--replay-device K` re-runs any single device in isolation. `lint`
//! runs the zero-dependency workspace static-analysis pass (DESIGN.md
//! §10: the four bespoke families; clippy holds the panic and
//! determinism policies) and exits non-zero on findings.
//!
//! Every command accepts `--quiet`/`-q` to suppress progress chatter on
//! stderr; results on stdout are unaffected. Unknown flags are rejected.

use std::process::ExitCode;
use std::sync::Arc;

use ccdem::core::governor::Policy;
use ccdem::core::section::SectionTable;
use ccdem::experiments::export::write_timeseries_csv;
use ccdem::experiments::profile::Profiler;
use ccdem::experiments::scenario::RunScratch;
use ccdem::experiments::{sweep, RunResult, Scenario, Workload};
use ccdem::metrics::{obs_summary, profile_summary};
use ccdem::obs::{metrics, JsonlSink, Obs};
use ccdem::panel::device::DeviceProfile;
use ccdem::power::battery::Battery;
use ccdem::power::units::Milliwatts;
use ccdem::simkit::time::SimDuration;
use ccdem::workloads::catalog;
use ccdem_obs::progress;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        print_usage();
        return ExitCode::SUCCESS;
    };
    match command.as_str() {
        "catalog" => cmd_catalog(rest),
        "table" => cmd_table(rest),
        "simulate" => cmd_simulate(rest),
        "trace" => cmd_trace(rest),
        "profile" => cmd_profile(rest),
        "sweep" => cmd_sweep(rest, false),
        "report" => cmd_sweep(rest, true),
        "fleet" => cmd_fleet(rest),
        "lint" => cmd_lint(rest),
        "--help" | "-h" => {
            print_usage();
            ExitCode::SUCCESS
        }
        other => {
            eprintln!("unknown command {other:?}\n");
            print_usage();
            ExitCode::FAILURE
        }
    }
}

fn print_usage() {
    eprintln!(
        "ccdem — content-centric display energy management (DAC 2014 reproduction)\n\n\
         commands:\n  \
         catalog                       list the 30 modelled applications\n  \
         table [--device s3|ltpo|tablet]\n                                print the Eq. 1 section table\n  \
         simulate --app <name> [--policy fixed|naive|section|boost]\n           \
         [--duration <secs>] [--seed <n>] [--full-res] [--csv <file>]\n  \
         trace --out <file.jsonl> [--app <name>] [--policy <p>]\n        \
         [--duration <secs>] [--seed <n>] [--full-res]\n                                \
         run one governed app; export decision-path telemetry as JSONL\n  \
         profile [--app <name>] [--policy <p>] [--duration <secs>]\n          \
         [--seed <n>] [--full-res]\n                                \
         run one app under the layer profiler; print host time\n                                \
         per engine layer and decision-tick percentiles\n  \
         sweep [--duration <secs>] [--seed <n>] [--jobs <n>] [--obs summary|none]\n                                \
         run the 30-app sweep; print Table 1 + timing\n  \
         report [--duration <secs>] [--seed <n>] [--jobs <n>] [--obs summary|none]\n                                \
         print Figs. 9-11 and Table 1 from the sweep\n  \
         fleet [--devices <n>] [--duration <secs>] [--seed <n>] [--jobs <n>]\n        \
         [--batch <n>] [--out <file.json>] [--trace <file.jsonl>]\n        \
         [--checkpoint <file.json> [--checkpoint-every <batches>]\n        \
         [--stop-after <checkpoints>]] [--resume <file.json>]\n        \
         [--replay-device <k>]\n                                \
         simulate a sampled device population on the work-stealing\n                                \
         scheduler; checkpoint/resume to byte-identical statistics\n  \
         lint [--json] [--stats]\n                                \
         run the workspace static-analysis pass (DESIGN.md \u{a7}10:\n                                \
         alloc-hot-path, arith-cast, atomics-ordering, obs-taxonomy);\n                                \
         --json emits obs-envelope JSON lines, --stats prints\n                                \
         per-family counts, call-graph size and wall time\n\n\
         every command accepts --quiet/-q to silence progress output\n\n\
         see also: cargo run --release --example paper_report -- all"
    );
}

/// Parsed command-line flags: `--flag value` pairs and boolean switches.
struct Flags {
    values: Vec<(&'static str, String)>,
    switches: Vec<&'static str>,
}

impl Flags {
    fn value(&self, flag: &str) -> Option<&str> {
        self.values
            .iter()
            .rev() // last occurrence wins
            .find(|(name, _)| *name == flag)
            .map(|(_, value)| value.as_str())
    }

    fn switch(&self, flag: &str) -> bool {
        self.switches.contains(&flag)
    }
}

/// Strictly parses `args` against the declared flag sets. Any flag not in
/// `value_flags` or `switch_flags` — or a bare positional argument — is an
/// error; `--quiet`/`-q` is accepted everywhere and applied immediately.
fn parse_flags(
    args: &[String],
    value_flags: &'static [&'static str],
    switch_flags: &'static [&'static str],
) -> Result<Flags, String> {
    let mut flags = Flags {
        values: Vec::new(),
        switches: Vec::new(),
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if arg == "--quiet" || arg == "-q" {
            ccdem::obs::progress::set_quiet(true);
            continue;
        }
        if let Some(&name) = value_flags.iter().find(|&&f| f == arg) {
            match iter.next() {
                Some(value) => flags.values.push((name, value.clone())),
                None => return Err(format!("{arg} requires a value")),
            }
        } else if let Some(&name) = switch_flags.iter().find(|&&f| f == arg) {
            flags.switches.push(name);
        } else {
            return Err(format!("unknown flag {arg:?}"));
        }
    }
    Ok(flags)
}

/// Parses flags or prints the error plus usage and fails.
macro_rules! parse_or_fail {
    ($args:expr, $values:expr, $switches:expr) => {
        match parse_flags($args, $values, $switches) {
            Ok(flags) => flags,
            Err(message) => {
                eprintln!("{message}\n");
                print_usage();
                return ExitCode::FAILURE;
            }
        }
    };
}

fn parse_duration(flags: &Flags, default_secs: &str) -> Result<SimDuration, String> {
    // Seconds whose microseconds overflow `u64` are refused like 0.
    let secs = flags
        .value("--duration")
        .unwrap_or(default_secs)
        .parse::<u64>();
    match secs
        .ok()
        .filter(|&s| s > 0)
        .and_then(|s| s.checked_mul(1_000_000))
    {
        Some(micros) => Ok(SimDuration::from_micros(micros)),
        None => Err("--duration must be a positive number of seconds".into()),
    }
}

fn parse_seed(flags: &Flags, default: &str) -> Result<u64, String> {
    flags
        .value("--seed")
        .unwrap_or(default)
        .parse::<u64>()
        .map_err(|_| "--seed must be an unsigned integer".into())
}

fn parse_policy(flags: &Flags) -> Result<Policy, String> {
    match flags.value("--policy").unwrap_or("boost") {
        "fixed" => Ok(Policy::FixedMax),
        "naive" => Ok(Policy::NaiveMatch),
        "section" => Ok(Policy::SectionOnly),
        "boost" => Ok(Policy::SectionWithBoost),
        other => Err(format!(
            "unknown policy {other:?}; expected fixed, naive, section or boost"
        )),
    }
}

/// Builds the one-app scenario `simulate`, `trace` and `profile` run
/// from `--policy`, `--duration` (default `default_secs`), `--seed` and
/// `--full-res`. Prints every error and returns `None` on any.
fn single_run(flags: &Flags, app_name: &str, default_secs: &str) -> Option<Scenario> {
    let Some(spec) = catalog::by_name(app_name) else {
        eprintln!("unknown app {app_name:?}; run `ccdem catalog` for the list");
        return None;
    };
    let (policy, duration, seed) = match (
        parse_policy(flags),
        parse_duration(flags, default_secs),
        parse_seed(flags, "49374"),
    ) {
        (Ok(p), Ok(d), Ok(s)) => (p, d, s),
        (p, d, s) => {
            for e in [p.err(), d.err(), s.err()].into_iter().flatten() {
                eprintln!("{e}");
            }
            return None;
        }
    };
    let scenario = Scenario::new(Workload::App(spec), policy)
        .with_duration(duration)
        .with_seed(seed);
    Some(if flags.switch("--full-res") {
        scenario
    } else {
        scenario.at_quarter_resolution()
    })
}

/// The result lines `trace` and `profile` print.
fn print_run(result: &RunResult) {
    println!("app                 {}", result.app_name);
    println!("policy              {}", result.policy);
    println!("average power       {:.1} mW", result.avg_power_mw);
    println!(
        "average refresh     {:.1} Hz ({} switches)",
        result.avg_refresh_hz, result.refresh_switches
    );
    println!("display quality     {:.1}%", result.quality_pct());
}

fn cmd_catalog(args: &[String]) -> ExitCode {
    let _ = parse_or_fail!(args, &[], &[]);
    println!(
        "{:<16} {:<8} {:>12} {:>12} {:>13} {:>13}",
        "app", "class", "idle req", "idle content", "active req", "active content"
    );
    println!("{}", "-".repeat(80));
    for app in catalog::all_apps() {
        println!(
            "{:<16} {:<8} {:>8.0} fps {:>8.1} fps {:>9.0} fps {:>9.1} fps",
            app.name,
            app.class.to_string(),
            app.idle.request_fps,
            app.idle.content_fps,
            app.active.request_fps,
            app.active.content_fps,
        );
    }
    ExitCode::SUCCESS
}

#[expect(
    clippy::disallowed_types,
    reason = "the lint's wall time goes to the --stats block, never into a result"
)]
fn cmd_lint(args: &[String]) -> ExitCode {
    let flags = parse_or_fail!(args, &[], &["--json", "--stats"]);
    let cwd = match std::env::current_dir() {
        Ok(cwd) => cwd,
        Err(err) => {
            eprintln!("lint: cannot determine working directory: {err}");
            return ExitCode::from(2);
        }
    };
    let Some(root) = ccdem::lint::find_workspace_root(&cwd) else {
        eprintln!("lint: no workspace Cargo.toml above {}", cwd.display());
        return ExitCode::from(2);
    };
    let started = std::time::Instant::now();
    match ccdem::lint::run(&ccdem::lint::LintOptions::new(root)) {
        Ok(report) => {
            let wall_ms = started.elapsed().as_secs_f64() * 1e3;
            for d in &report.reported {
                if flags.switch("--json") {
                    println!("{}", d.to_json());
                } else {
                    println!("{}", d.render());
                }
            }
            if flags.switch("--stats") {
                let s = &report.stats;
                println!("stats files_scanned {}", report.files_scanned);
                println!("stats functions {}", s.fn_count);
                println!("stats reachable_fns {}", s.reachable_fns);
                println!("stats wall_ms {}", wall_ms.round() as u64);
                for (id, count) in &s.family_counts {
                    println!("stats family {} {}", id, count);
                }
            }
            progress!(
                "lint: {} file(s) scanned, {} finding(s), {} suppressed",
                report.files_scanned,
                report.reported.len(),
                report.suppressed,
            );
            if report.clean() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(err) => {
            eprintln!("lint: {err}");
            ExitCode::from(2)
        }
    }
}

fn cmd_table(args: &[String]) -> ExitCode {
    let flags = parse_or_fail!(args, &["--device"], &[]);
    let device = match flags.value("--device").unwrap_or("s3") {
        "s3" => DeviceProfile::galaxy_s3(),
        "ltpo" => DeviceProfile::ltpo_120(),
        "tablet" => DeviceProfile::tablet_90(),
        other => {
            eprintln!("unknown device {other:?}; expected s3, ltpo or tablet");
            return ExitCode::FAILURE;
        }
    };
    println!("{device}");
    println!("{}", SectionTable::new(device.rates().clone()));
    ExitCode::SUCCESS
}

fn cmd_sweep(args: &[String], full_report: bool) -> ExitCode {
    let flags = parse_or_fail!(args, &["--duration", "--seed", "--jobs", "--obs"], &[]);
    let duration = match parse_duration(&flags, "60") {
        Ok(d) => d,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let seed = match parse_seed(&flags, "9") {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    // 0 = all available cores; 1 = the exact legacy serial path.
    let jobs = match flags.value("--jobs").unwrap_or("0").parse::<usize>() {
        Ok(jobs) => jobs,
        Err(_) => {
            eprintln!("--jobs must be an unsigned integer (0 = all cores)");
            return ExitCode::FAILURE;
        }
    };
    // Reports include the telemetry-metrics summary by default; plain
    // sweeps stay terse.
    let with_obs =
        match flags
            .value("--obs")
            .unwrap_or(if full_report { "summary" } else { "none" })
        {
            "summary" => true,
            "none" => false,
            other => {
                eprintln!("unknown --obs mode {other:?}; expected summary or none");
                return ExitCode::FAILURE;
            }
        };

    let config = sweep::SweepConfig {
        duration,
        seed,
        quarter_resolution: true,
        jobs,
    };
    progress!(
        "running the 30-app sweep (3 policies × 30 apps, {} s per run)…",
        duration.as_secs_f64()
    );
    let (s, timing) = sweep::run_timed(&config);
    if full_report {
        println!("{}\n", s.fig9());
        println!("{}\n", s.fig10());
        println!("{}\n", s.fig11());
    }
    println!("{}", s.table1_text());
    if with_obs {
        let runs = s.apps.len() * 3;
        println!("\ntelemetry metrics ({runs} runs)");
        println!("{}", obs_summary(&metrics().snapshot(), Some(runs)));
    }
    progress!("\n{timing}");
    ExitCode::SUCCESS
}

#[expect(
    clippy::disallowed_types,
    reason = "host time feeds the stderr devices/sec line, never the statistics"
)]
fn cmd_fleet(args: &[String]) -> ExitCode {
    use ccdem::experiments::fleet;

    let flags = parse_or_fail!(
        args,
        &[
            "--devices",
            "--duration",
            "--seed",
            "--jobs",
            "--batch",
            "--out",
            "--trace",
            "--checkpoint",
            "--checkpoint-every",
            "--stop-after",
            "--resume",
            "--replay-device",
        ],
        &[]
    );

    let parse_u64 = |flag: &'static str, default: &str| -> Result<u64, String> {
        flags
            .value(flag)
            .unwrap_or(default)
            .parse::<u64>()
            .map_err(|_| format!("{flag} must be an unsigned integer"))
    };

    // Assemble the campaign configuration. When resuming, the campaign
    // identity (seed, devices, batch, duration) comes from the
    // checkpoint; explicit flags are still honoured so a mismatch is
    // rejected rather than silently ignored.
    let resumed = match flags.value("--resume") {
        Some(path) => match fleet::read_checkpoint(std::path::Path::new(path)) {
            Ok(checkpoint) => Some(checkpoint),
            Err(e) => {
                eprintln!("fleet: cannot resume: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };
    let mut config = match &resumed {
        Some(checkpoint) => checkpoint.config(),
        None => fleet::FleetConfig::default(),
    };

    let defaults = (
        config.devices.to_string(),
        config.seed.to_string(),
        config.batch.to_string(),
        config.duration.as_micros().div_ceil(1_000_000).to_string(),
    );
    let parsed = (|| -> Result<(), String> {
        config.devices = parse_u64("--devices", &defaults.0)?;
        config.seed = parse_u64("--seed", &defaults.1)?;
        config.batch = parse_u64("--batch", &defaults.2)?.max(1);
        config.jobs = flags
            .value("--jobs")
            .unwrap_or("0")
            .parse::<usize>()
            .map_err(|_| "--jobs must be an unsigned integer (0 = all cores)".to_string())?;
        if flags.value("--duration").is_some() || resumed.is_none() {
            config.duration = parse_duration(&flags, &defaults.3)?;
        }
        config.checkpoint_path = flags.value("--checkpoint").map(std::path::PathBuf::from);
        config.checkpoint_every = parse_u64("--checkpoint-every", "64")?;
        if config.checkpoint_path.is_some() && config.checkpoint_every == 0 {
            return Err("--checkpoint-every must be positive when --checkpoint is set".into());
        }
        config.stop_after_checkpoints = match flags.value("--stop-after") {
            Some(_) => Some(parse_u64("--stop-after", "1")?),
            None => None,
        };
        if config.stop_after_checkpoints.is_some() && config.checkpoint_path.is_none() {
            return Err("--stop-after requires --checkpoint <file.json>".into());
        }
        Ok(())
    })();
    if let Err(e) = parsed {
        eprintln!("{e}");
        return ExitCode::FAILURE;
    }

    // --replay-device K: re-run one device of the campaign in
    // isolation. Pure sampling guarantees the result is field-for-field
    // what the fleet scheduler produced for that index.
    if let Some(value) = flags.value("--replay-device") {
        let index = match value.parse::<u64>() {
            Ok(index) => index,
            Err(_) => {
                eprintln!("--replay-device must be an unsigned integer");
                return ExitCode::FAILURE;
            }
        };
        if index >= config.devices {
            eprintln!(
                "--replay-device {index} is outside the {}-device campaign",
                config.devices
            );
            return ExitCode::FAILURE;
        }
        let spec = fleet::DeviceSpec::sample(config.seed, index);
        progress!("replaying {spec}…");
        let result = fleet::replay_device(&config, index);
        println!("{spec}");
        println!("average power       {:.1} mW", result.avg_power_mw);
        println!(
            "average refresh     {:.1} Hz ({} switches)",
            result.avg_refresh_hz, result.refresh_switches
        );
        println!("display quality     {:.1}%", result.quality_pct());
        println!("dropped frames      {:.2} fps", result.dropped_fps());
        return ExitCode::SUCCESS;
    }

    // --trace streams fleet.* and campaign.progress events as JSONL.
    let sink = match flags.value("--trace") {
        Some(out) => match JsonlSink::create(out) {
            Ok(sink) => Some((Arc::new(sink), out)),
            Err(e) => {
                eprintln!("failed to create {out}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };
    let obs = match &sink {
        Some((sink, _)) => Obs::to_sink(sink.clone()),
        None => Obs::disabled(),
    };

    progress!(
        "{} {} devices ({} s each, batch {}, jobs {})…",
        if resumed.is_some() {
            "resuming"
        } else {
            "simulating"
        },
        config.devices,
        config.duration.as_secs_f64(),
        config.batch,
        config.jobs
    );
    let started = std::time::Instant::now();
    let outcome = match resumed {
        Some(checkpoint) => fleet::resume(&config, checkpoint, &obs),
        None => fleet::run(&config, &obs),
    };
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("fleet: {e}");
            return ExitCode::FAILURE;
        }
    };
    obs.flush();
    let elapsed = started.elapsed().as_secs_f64();

    println!(
        "fleet               {}/{} devices ({}), {} wave(s), {} checkpoint(s)",
        outcome.next_index,
        outcome.devices,
        if outcome.completed() {
            "complete"
        } else {
            "stopped at checkpoint"
        },
        outcome.waves,
        outcome.checkpoints_written
    );
    println!("{}", outcome.stats);
    // How many workers claimed work is up to the scheduler, so the
    // partials count goes to stderr with the host timing.
    if elapsed > 0.0 {
        progress!(
            "{} devices in {elapsed:.2} s host time — {:.0} devices/sec, {} partial(s) merged",
            outcome.devices_run,
            outcome.devices_run as f64 / elapsed,
            outcome.partials_merged
        );
    }

    if let Some(path) = flags.value("--out") {
        let document = outcome.stats.to_json().to_string() + "\n";
        if let Err(e) = std::fs::write(path, document) {
            eprintln!("failed to write {path}: {e}");
            return ExitCode::FAILURE;
        }
        progress!("wrote final campaign statistics to {path}");
    }
    match sink {
        Some((sink, out)) => jsonl_written(&sink, out),
        None => ExitCode::SUCCESS,
    }
}

/// Fails with a warning if any write to `out` through `sink` failed, and
/// otherwise notes how many events it holds.
fn jsonl_written(sink: &JsonlSink, out: &str) -> ExitCode {
    if sink.io_errors() > 0 {
        eprintln!(
            "warning: {} I/O errors writing {out}: {}",
            sink.io_errors(),
            sink.last_error().unwrap_or_default()
        );
        return ExitCode::FAILURE;
    }
    progress!("wrote {} JSONL events to {out}", sink.lines_written());
    ExitCode::SUCCESS
}

fn cmd_trace(args: &[String]) -> ExitCode {
    let flags = parse_or_fail!(
        args,
        &["--out", "--app", "--policy", "--duration", "--seed"],
        &["--full-res"]
    );
    let Some(out) = flags.value("--out") else {
        eprintln!("trace requires --out <file.jsonl>");
        return ExitCode::FAILURE;
    };
    let app_name = flags.value("--app").unwrap_or("facebook");
    let Some(scenario) = single_run(&flags, app_name, "30") else {
        return ExitCode::FAILURE;
    };
    let sink = match JsonlSink::create(out) {
        Ok(sink) => Arc::new(sink),
        Err(e) => {
            eprintln!("failed to create {out}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let obs = Obs::to_sink(sink.clone());
    let scenario = scenario.with_obs(obs.clone());

    progress!(
        "tracing {app_name:?} under {} for {} → {out}…",
        scenario.governor.policy(),
        scenario.duration
    );
    let result = scenario.run();
    obs.flush();

    print_run(&result);
    println!("\ntelemetry metrics (1 run)");
    println!("{}", obs_summary(&metrics().snapshot(), Some(1)));
    jsonl_written(&sink, out)
}

#[expect(
    clippy::disallowed_types,
    reason = "the run's host wall time is the profile's output, never a RunResult"
)]
fn cmd_profile(args: &[String]) -> ExitCode {
    let flags = parse_or_fail!(
        args,
        &["--app", "--policy", "--duration", "--seed"],
        &["--full-res"]
    );
    let app_name = flags.value("--app").unwrap_or("facebook");
    let Some(scenario) = single_run(&flags, app_name, "30") else {
        return ExitCode::FAILURE;
    };

    progress!(
        "profiling {app_name:?} under {} for {}…",
        scenario.governor.policy(),
        scenario.duration
    );
    let mut profiler = Profiler::start();
    let started = std::time::Instant::now();
    let result = scenario.run_probed(&mut RunScratch::new(), &mut profiler);
    let wall = started.elapsed();

    print_run(&result);
    println!();
    let layers = profiler
        .layers()
        .map(|(layer, sketch)| (layer.name(), sketch));
    println!(
        "{}",
        profile_summary(layers, profiler.decision_tick(), wall)
    );
    ExitCode::SUCCESS
}

fn cmd_simulate(args: &[String]) -> ExitCode {
    let flags = parse_or_fail!(
        args,
        &["--app", "--policy", "--duration", "--seed", "--csv"],
        &["--full-res"]
    );
    let Some(app_name) = flags.value("--app") else {
        eprintln!("simulate requires --app <name>; run `ccdem catalog` for the list");
        return ExitCode::FAILURE;
    };
    let Some(scenario) = single_run(&flags, app_name, "60") else {
        return ExitCode::FAILURE;
    };
    let policy = scenario.governor.policy();

    progress!(
        "simulating {app_name:?} under {policy} for {}…",
        scenario.duration
    );
    let (governed, baseline) = scenario.run_with_baseline();

    let saved = baseline.avg_power_mw - governed.avg_power_mw;
    let battery = Battery::galaxy_s3();
    let gained = battery.life_gained(
        Milliwatts::new(baseline.avg_power_mw),
        Milliwatts::new(governed.avg_power_mw),
    );
    println!("policy              {policy}");
    println!(
        "average power       {:.1} mW (baseline {:.1} mW)",
        governed.avg_power_mw, baseline.avg_power_mw
    );
    println!(
        "power saved         {saved:.1} mW ({:.1}%)",
        saved / baseline.avg_power_mw * 100.0
    );
    println!(
        "average refresh     {:.1} Hz ({} switches)",
        governed.avg_refresh_hz, governed.refresh_switches
    );
    println!(
        "content rate        {:.1} fps actual, {:.1} fps displayed",
        governed.actual_content_fps, governed.displayed_content_fps
    );
    println!("display quality     {:.1}%", governed.quality_pct());
    println!("dropped frames      {:.2} fps", governed.dropped_fps());
    let residency = governed.refresh_trace.residency(
        ccdem::simkit::time::SimTime::ZERO,
        ccdem::simkit::time::SimTime::ZERO + governed.duration,
    );
    let total: f64 = residency.iter().map(|&(_, s)| s).sum();
    if total > 0.0 {
        println!("rate residency:");
        for (hz, secs) in residency {
            println!(
                "  {hz:>5.0} Hz  {:>5.1}%  {secs:>6.1} s",
                secs / total * 100.0
            );
        }
    }
    println!(
        "battery life gained {:.0} min (on {battery})",
        gained.as_secs_f64() / 60.0
    );

    if let Some(path) = flags.value("--csv") {
        match std::fs::File::create(path) {
            Ok(file) => {
                if let Err(e) = write_timeseries_csv(&governed, file) {
                    eprintln!("failed to write {path}: {e}");
                    return ExitCode::FAILURE;
                }
                progress!("wrote per-second time series to {path}");
            }
            Err(e) => {
                eprintln!("failed to create {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
