//! The traced run: re-drives a workload's scenarios serially from each
//! layer's public functions with a span around every call, next to the
//! same scenarios run untraced, and prints the per-layer metrics. Every
//! traced `RunResult` must equal its untraced twin; on a mismatch the run
//! reports itself invalid instead of printing numbers.
//!
//! Each pass runs every scenario of the workload twice, untraced and
//! traced, alternating which goes first; a parallel pass then measures
//! dispatch idle time from outside. Passes repeat until `--seconds` has
//! passed.

use std::borrow::Cow;
use std::collections::HashMap;
use std::process::ExitCode;
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::{Duration, Instant};

use ccdem_benchmark::cli::{print_metrics, result_line, Args, Metric};
use ccdem_benchmark::host::HostSample;
use ccdem_benchmark::{
    fleet_config, idle_day_scenario, median, run_digest, sweep_config, sweep_scenarios, Bench,
    WORKERS,
};
use ccdem_benchmark_traced::alloc::CountingAlloc;
use ccdem_benchmark_traced::engine::{run_traced, RunCounts};
use ccdem_benchmark_traced::tracer::{quantile, Layer, Tracer};
use ccdem_experiments::campaign::CampaignStats;
use ccdem_experiments::fleet::{self, DeviceSpec, FleetConfig};
use ccdem_experiments::scenario::RunScratch;
use ccdem_experiments::sweep::{self, SweepConfig};
use ccdem_experiments::{RunResult, Scenario};
use ccdem_obs::Obs;
use ccdem_pixelbuf::pool::PixelPool;
use ccdem_workloads::catalog;
use ccdem_workloads::phased::AppSpec;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The scenarios of one workload, as its entry point builds them.
enum Plan {
    /// The sweep's 90 scenarios, folded into campaign statistics.
    Sweep(SweepConfig, Vec<Scenario>),
    /// Fleet devices, sampled per index and folded into one worker's
    /// statistics, merged at the end of the pass.
    Fleet(FleetConfig, Vec<AppSpec>),
    /// The one idle-day scenario.
    IdleDay(Box<Scenario>),
}

impl Plan {
    fn new(bench: Bench, seed: u64) -> Plan {
        match bench {
            Bench::PaperSweep => {
                let config = sweep_config(seed);
                let scenarios = sweep_scenarios(&config);
                Plan::Sweep(config, scenarios)
            }
            Bench::FleetCampaign => Plan::Fleet(fleet_config(seed), catalog::all_apps()),
            Bench::IdleDay => Plan::IdleDay(Box::new(idle_day_scenario(seed))),
        }
    }

    fn len(&self) -> u64 {
        match self {
            Plan::Sweep(_, scenarios) => scenarios.len() as u64,
            Plan::Fleet(config, _) => config.devices,
            Plan::IdleDay(_) => 1,
        }
    }

    fn sample(&self, index: u64) -> Cow<'_, Scenario> {
        match self {
            Plan::Sweep(_, scenarios) => Cow::Borrowed(&scenarios[index as usize]),
            Plan::Fleet(config, apps) => Cow::Owned(
                DeviceSpec::sample_from(apps, config.seed, index).scenario(config.duration),
            ),
            Plan::IdleDay(scenario) => Cow::Borrowed(scenario),
        }
    }

    fn folds_campaign(&self) -> bool {
        !matches!(self, Plan::IdleDay(_))
    }
}

/// One serial pass's timings, counts and fidelity.
#[derive(Default)]
struct Pass {
    untraced: Duration,
    traced: Duration,
    /// Comparisons made: one per run plus one for the campaign statistics.
    checked: u64,
    mismatched: u64,
    problems: Vec<String>,
    counts: RunCounts,
    digests: Vec<u64>,
    campaign: CampaignStats,
}

impl Pass {
    fn mismatch(&mut self, why: String) {
        self.mismatched += 1;
        if self.problems.len() < 5 {
            self.problems.push(why);
        }
    }
}

fn untraced_run(
    plan: &Plan,
    index: u64,
    scratch: &mut RunScratch,
    campaign: &mut CampaignStats,
) -> RunResult {
    let result = plan.sample(index).run_with_scratch(scratch);
    if plan.folds_campaign() {
        campaign.observe_run(&result);
    }
    result
}

fn traced_run(
    plan: &Plan,
    index: u64,
    pool: &mut PixelPool,
    campaign: &mut CampaignStats,
    tracer: &mut Tracer,
) -> Option<(RunResult, RunCounts)> {
    let open = tracer.start();
    let scenario = plan.sample(index);
    if matches!(plan, Plan::Fleet(..)) {
        tracer.end(open, Layer::FleetSample);
    }
    let (result, counts) = run_traced(&scenario, pool, tracer)?;
    if plan.folds_campaign() {
        let open = tracer.start();
        campaign.observe_run(&result);
        tracer.end(open, Layer::Campaign);
    }
    tracer.end_run();
    Some((result, counts))
}

/// Runs every scenario of `plan` untraced and traced, alternating which
/// goes first, and compares the two results.
fn serial_pass(plan: &Plan, tracer: &mut Tracer) -> Pass {
    let mut pass = Pass::default();
    let mut scratch = RunScratch::new();
    let mut pool = PixelPool::new();
    let mut traced_campaign = CampaignStats::new();
    for index in 0..plan.len() {
        let mut untraced = None;
        let mut traced = None;
        for traced_turn in [index % 2 == 1, index % 2 == 0] {
            let started = Instant::now();
            if traced_turn {
                traced = Some(traced_run(
                    plan,
                    index,
                    &mut pool,
                    &mut traced_campaign,
                    tracer,
                ));
                pass.traced += started.elapsed();
            } else {
                untraced = Some(untraced_run(plan, index, &mut scratch, &mut pass.campaign));
                pass.untraced += started.elapsed();
            }
        }
        let untraced = untraced.expect("both turns ran");
        pass.checked += 1;
        pass.digests.push(run_digest(&untraced));
        match traced.expect("both turns ran") {
            Some((result, counts)) if result == untraced => pass.counts.add(&counts),
            Some(_) => pass.mismatch(format!(
                "run {index} ({} / {}): traced RunResult differs from Scenario::run_with_scratch",
                untraced.app_name, untraced.policy
            )),
            None => pass.mismatch(format!(
                "run {index}: workload kind not driven by the tracer"
            )),
        }
    }
    if let Plan::Fleet(..) = plan {
        // The fleet merges each worker's partial at the end of a wave.
        let started = Instant::now();
        let mut merged = CampaignStats::new();
        merged.merge(&pass.campaign);
        pass.campaign = merged;
        pass.untraced += started.elapsed();
        let started = Instant::now();
        let open = tracer.start();
        let mut merged = CampaignStats::new();
        merged.merge(&traced_campaign);
        traced_campaign = merged;
        tracer.end(open, Layer::Campaign);
        tracer.end_run();
        pass.traced += started.elapsed();
    }
    pass.checked += 1;
    if traced_campaign != pass.campaign {
        pass.mismatch("traced campaign statistics differ from the untraced".into());
    }
    pass
}

/// Dispatch idle time of the parallel entry point on [`WORKERS`] workers,
/// measured from outside: the share of workers × wall not spent busy.
/// Also checks the parallel results against the serial pass.
fn parallel_idle_pct(plan: &Plan, serial: &Pass) -> (Option<f64>, Option<String>) {
    match plan {
        Plan::Sweep(config, _) => {
            let (sweep, report) = sweep::run_timed(config);
            let busy: f64 = report.runs.iter().map(|r| r.wall.as_secs_f64()).sum();
            let capacity = report.jobs as f64 * report.total_wall.as_secs_f64();
            let digests: Vec<u64> = sweep
                .apps
                .iter()
                .flat_map(|a| [&a.baseline, &a.section, &a.boost])
                .map(run_digest)
                .collect();
            let problem = (digests != serial.digests)
                .then(|| "parallel sweep results differ from the serial runs".to_string());
            (Some(100.0 * (1.0 - busy / capacity)), problem)
        }
        Plan::Fleet(config, _) => {
            let last: Mutex<HashMap<ThreadId, Instant>> = Mutex::new(HashMap::new());
            let started = Instant::now();
            let outcome = fleet::run_observed(config, &Obs::disabled(), |_, _| {
                let now = Instant::now();
                last.lock()
                    .expect("a tap panicked")
                    .insert(std::thread::current().id(), now);
            });
            let wall = started.elapsed().as_secs_f64();
            let busy: f64 = last
                .into_inner()
                .expect("a tap panicked")
                .values()
                .map(|t| t.duration_since(started).as_secs_f64())
                .sum();
            let problem = match outcome {
                Ok(outcome) if outcome.stats == serial.campaign => None,
                Ok(_) => Some("parallel fleet statistics differ from the serial runs".into()),
                Err(why) => Some(why),
            };
            (
                Some(100.0 * (1.0 - busy / (WORKERS as f64 * wall))),
                problem,
            )
        }
        Plan::IdleDay(_) => (None, None),
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("ccdem-benchmark-traced: {why}");
            return ExitCode::from(2);
        }
    };
    let plan = Plan::new(args.bench, args.seed);
    let budget = Duration::from_secs_f64(args.seconds);

    let before = HostSample::now();
    let started = Instant::now();
    let mut tracer = Tracer::new();
    let mut passes = 0u64;
    let (mut untraced, mut traced) = (Duration::ZERO, Duration::ZERO);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut counts = RunCounts::default();
    let mut idle = Vec::new();
    let mut problems = Vec::new();
    while passes == 0 || started.elapsed() < budget {
        let pass = serial_pass(&plan, &mut tracer);
        let (idle_pct, problem) = parallel_idle_pct(&plan, &pass);
        passes += 1;
        untraced += pass.untraced;
        traced += pass.traced;
        attempted += pass.checked + u64::from(idle_pct.is_some());
        failed += pass.mismatched;
        counts.add(&pass.counts);
        problems.extend(pass.problems);
        if let Some(why) = problem {
            failed += 1;
            problems.push(why);
        }
        idle.extend(idle_pct);
    }
    let noise = before.until(&HostSample::now());

    println!(
        "{} seed {} traced: {passes} passes of {} runs",
        args.bench.name(),
        args.seed,
        plan.len()
    );
    println!("{noise}");
    if failed > 0 {
        for why in problems.iter().take(10) {
            println!("INVALID: {why}");
        }
        println!("{}", result_line(false, attempted.max(1), failed, &[]));
        return ExitCode::FAILURE;
    }

    let metrics = layer_metrics(
        &mut tracer,
        passes,
        traced,
        untraced,
        &counts,
        median(&idle),
    );
    print_metrics(&metrics);
    println!("{}", result_line(true, attempted, 0, &metrics));
    ExitCode::SUCCESS
}

/// The per-layer metrics over every pass. Counts are per pass (every
/// pass is identical); times are summed over passes.
fn layer_metrics(
    tracer: &mut Tracer,
    passes: u64,
    traced: Duration,
    untraced: Duration,
    counts: &RunCounts,
    idle_pct: Option<f64>,
) -> Vec<Metric> {
    let wall_ns = traced.as_nanos() as f64;
    let per_pass = |n: u64| n as f64 / passes as f64;
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let totals = tracer.totals();
    let mut metrics = Vec::new();
    for (layer, t) in Layer::ALL.iter().zip(&totals) {
        let name = layer.name();
        metrics.push(Metric::new(
            format!("{name}.share_pct"),
            100.0 * t.ns as f64 / wall_ns,
            "%",
        ));
        metrics.push(Metric::new(
            format!("{name}.ns_per_call"),
            ratio(t.ns, t.calls),
            "ns",
        ));
        metrics.push(Metric::new(
            format!("{name}.calls"),
            per_pass(t.calls),
            "count",
        ));
        metrics.push(Metric::new(
            format!("{name}.allocs"),
            per_pass(t.allocs),
            "count",
        ));
    }
    let attributed: u64 = totals.iter().map(|t| t.ns).sum();
    let percentile = |values: &mut Vec<u64>, q| quantile(values, q) as f64;
    metrics.extend([
        Metric::new(
            "core.meter.p50_ns",
            percentile(&mut tracer.meter_ns, 0.50),
            "ns",
        ),
        Metric::new(
            "core.meter.p99_ns",
            percentile(&mut tracer.meter_ns, 0.99),
            "ns",
        ),
        Metric::new(
            "core.governor.p50_ns",
            percentile(&mut tracer.governor_ns, 0.50),
            "ns",
        ),
        Metric::new(
            "core.governor.p99_ns",
            percentile(&mut tracer.governor_ns, 0.99),
            "ns",
        ),
        Metric::new(
            "core.meter.fast_path_pct",
            100.0 * ratio(counts.fast_path_frames, counts.meter_frames),
            "%",
        ),
        Metric::new(
            "core.meter.points_read",
            per_pass(counts.points_read),
            "count",
        ),
        Metric::new(
            "core.meter.points_compared",
            per_pass(counts.points_compared),
            "count",
        ),
        Metric::new(
            "core.meter.tiles_descended_pct",
            100.0 * ratio(counts.tiles_descended, counts.tiles_checked),
            "%",
        ),
        Metric::new(
            "compositor.damage_pct",
            100.0 * ratio(counts.damage_px, counts.screen_px),
            "%",
        ),
        Metric::new(
            "compositor.rects_per_frame",
            ratio(counts.damage_rects, counts.composes),
            "rects/frame",
        ),
        Metric::new("panel.switches", per_pass(counts.switches), "count"),
        Metric::new("simkit.event.events", per_pass(counts.events), "count"),
        Metric::new(
            "simkit.retained_timestamps",
            counts.retained as f64,
            "count",
        ),
        // One worker has no dispatch to wait on.
        Metric::new("simkit.parallel.idle_pct", idle_pct.unwrap_or(0.0), "%"),
        Metric::new(
            "trace.overhead_pct",
            100.0 * (traced.as_secs_f64() / untraced.as_secs_f64() - 1.0),
            "%",
        ),
        Metric::new(
            "trace.unattributed_pct",
            100.0 * (wall_ns - attributed as f64) / wall_ns,
            "%",
        ),
    ]);
    metrics
}
