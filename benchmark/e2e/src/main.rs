//! The end-to-end runner: one workload, tracing off, whole workloads
//! timed, every run checked. Prints the six end-to-end metrics by name and
//! unit, then the result line last.

use std::hint::black_box;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use ccdem_benchmark::cli::{print_metrics, result_line, Args, Metric};
use ccdem_benchmark::host::{peak_rss_mb, HostSample};
use ccdem_benchmark::{median, prepare, throughput, Bench, Prepared, Repetition};

/// Set-up samples taken, spread evenly over the run; `setup_s` is their
/// median.
const SETUP_SAMPLES: usize = 15;
/// Each set-up sample repeats the set-up until this much time has passed
/// and reports the mean, so microsecond set-ups are not lost in timer
/// noise.
const SETUP_SAMPLE_MIN: Duration = Duration::from_millis(20);

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) if !args.trace => args,
        Ok(_) => {
            eprintln!("ccdem-benchmark: the traced run is the ccdem-benchmark-traced package");
            return ExitCode::from(2);
        }
        Err(why) => {
            eprintln!("ccdem-benchmark: {why}");
            return ExitCode::from(2);
        }
    };

    let mut setup_s = Vec::new();
    let mut prepared = timed_setup(args.bench, args.seed, &mut setup_s);
    let budget = Duration::from_secs_f64(args.seconds);
    let before = HostSample::now();
    let started = Instant::now();
    // The first repetition warms caches, allocator and scratch: it is
    // checked like every other but left out of `sim_speed`.
    let mut reps: Vec<Repetition> = vec![prepared.run_once()];
    while reps.len() < 2 || started.elapsed() < budget {
        reps.push(prepared.run_once());
        // Set-up samples are taken between repetitions, evenly over the
        // run, and dropped: the workload keeps its first preparation.
        let due = budget.mul_f64(setup_s.len() as f64 / SETUP_SAMPLES as f64);
        if setup_s.len() < SETUP_SAMPLES && started.elapsed() >= due {
            drop(timed_setup(args.bench, args.seed, &mut setup_s));
        }
    }
    let noise = before.until(&HostSample::now());

    let first_digest = reps[0].digest;
    for (i, rep) in reps.iter_mut().enumerate() {
        if rep.digest != first_digest {
            let digest = rep.digest;
            rep.fail_all(format!(
                "repetition {i}: digest {digest:016x} differs from the first's {first_digest:016x}"
            ));
        }
    }
    let attempted: u64 = reps.iter().map(|r| r.runs).sum();
    let failed: u64 = reps.iter().map(|r| r.failed).sum();
    for why in reps.iter().flat_map(|r| &r.failures).take(10) {
        println!("FAILED: {why}");
    }

    let speeds: Vec<f64> = reps.iter().map(Repetition::sim_speed).collect();
    let tally = reps[0].tally;
    let metrics = vec![
        Metric::new(
            "sim_speed",
            throughput(&reps[1..], args.bench.workers()),
            "sim_s/s",
        ),
        Metric::new("setup_s", median(&setup_s).unwrap_or(f64::NAN), "s"),
        Metric::new("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN), "MB"),
        Metric::new("avg_power_mw", tally.avg_power_mw(), "mW"),
        Metric::new("quality_pct", tally.quality_pct(), "%"),
        Metric::new(
            "content_accuracy_pct",
            100.0 - tally.content_error_pct(),
            "%",
        ),
    ];

    println!(
        "{} seed {}: {} repetitions (1 warm-up), {} simulated runs each, digest {first_digest:016x}",
        args.bench.name(),
        args.seed,
        reps.len(),
        reps[0].runs
    );
    println!("{noise}");
    let timed = &reps[1..];
    let sim_seconds: f64 = timed.iter().map(|r| r.sim_seconds).sum();
    let wall: f64 = timed.iter().map(|r| r.wall.as_secs_f64()).sum();
    let stolen: f64 = timed.iter().map(|r| r.stolen_s).sum();
    println!(
        "timed calls: {wall:.3} s wall, {stolen:.2} CPU s stolen from {} worker(s); {:.1} sim_s/s before taking off steal",
        args.bench.workers(),
        sim_seconds / wall
    );
    let speeds_text: Vec<String> = speeds.iter().map(|s| format!("{s:.0}")).collect();
    println!(
        "sim_speed by repetition (warm-up first): {}; median of the timed ones {:.0}",
        speeds_text.join(" "),
        median(&speeds[1..]).unwrap_or(f64::NAN)
    );
    let setup_text: Vec<String> = setup_s.iter().map(|s| format!("{s:e}")).collect();
    println!("setup_s by sample: {}", setup_text.join(" "));
    if args.bench == Bench::PaperSweep {
        println!("Table 1 saved power against fixed 60 Hz (simulated vs paper):");
        for row in &reps[0].savings {
            println!(
                "  {:<8} {:<42} {:>7.1} mW vs ~{:.0} mW ({:+.1}%)",
                row.class,
                row.policy,
                row.saved_mw,
                row.paper_mw,
                row.error_pct()
            );
        }
    }
    print_metrics(&metrics);
    // The gate carries the meter's accuracy, which is never 0; its error
    // is printed here by name for reading.
    print_metrics(&[Metric::new(
        "content_error_pct",
        tally.content_error_pct(),
        "%",
    )]);
    println!("{}", result_line(failed == 0, attempted, failed, &metrics));
    ExitCode::SUCCESS
}

/// Prepares `bench`, repeating the set-up until [`SETUP_SAMPLE_MIN`] has
/// passed, and records the mean time of one set-up in `samples`.
fn timed_setup(bench: Bench, seed: u64, samples: &mut Vec<f64>) -> Prepared {
    let started = Instant::now();
    let mut prepared = black_box(prepare(bench, seed));
    let mut count = 1u32;
    while started.elapsed() < SETUP_SAMPLE_MIN {
        prepared = black_box(prepare(bench, seed));
        count += 1;
    }
    samples.push(started.elapsed().as_secs_f64() / f64::from(count));
    prepared
}
