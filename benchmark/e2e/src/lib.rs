//! Outside-in benchmark workloads for ccdem.
//!
//! Every workload is built and driven only through the `experiments`
//! crate's public entry points (`sweep::run`, `fleet::run_observed`,
//! `Scenario::run_with_scratch`), with every configuration written as
//! `..Default::default()` over the fields the workload sets. A workload is
//! prepared once (the set-up the benchmark times separately) and then
//! repeated as a closed loop: the next repetition starts when the previous
//! one ends. Each repetition times the entry-point call alone and is then
//! checked run by run; see `README.md` beside this package for the metric
//! definitions.

use std::collections::hash_map::DefaultHasher;
use std::hash::Hasher;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use ccdem_core::governor::Policy;
use ccdem_experiments::fleet::{self, DeviceSpec, FleetConfig};
use ccdem_experiments::scenario::RunScratch;
use ccdem_experiments::sweep::{self, SweepConfig};
use ccdem_experiments::{RunResult, Scenario, Workload};
use ccdem_obs::Obs;
use ccdem_simkit::parallel::derive_seed;
use ccdem_simkit::time::SimDuration;
use ccdem_workloads::app::AppClass;
use ccdem_workloads::catalog;
use ccdem_workloads::input::MonkeyConfig;

pub mod cli;
pub mod host;

/// Worker threads of the sweep and the fleet.
pub const WORKERS: usize = 2;
/// Fleet size: eight default batches, so each worker claims several.
pub const FLEET_DEVICES: u64 = 8 * fleet::DEFAULT_BATCH;
/// Simulated length of the idle-day session.
pub const IDLE_DAY_DURATION: SimDuration = SimDuration::from_secs(2 * 3600);
/// How long each app of the idle-day rotation stays on screen.
pub const IDLE_DAY_SEGMENT: SimDuration = SimDuration::from_secs(5 * 60);
/// The idle-day rotation: the catalog's low-content apps.
pub const IDLE_DAY_APPS: [&str; 6] = [
    "Tiny Flashlight",
    "KakaoTalk",
    "Weather",
    "Naver Webtoon",
    "Facebook",
    "Daum",
];
/// The paper's Table 1 savings (§4.3): ~120 mW for general apps and
/// ~290 mW for games, against fixed 60 Hz.
pub const PAPER_SAVED_MW: [(AppClass, f64); 2] =
    [(AppClass::General, 120.0), (AppClass::Game, 290.0)];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bench {
    /// The paper's 30-app × 3-policy sweep at the CLI defaults.
    PaperSweep,
    /// A fleet campaign at the CLI defaults.
    FleetCampaign,
    /// One governed multi-hour session of low-content apps.
    IdleDay,
}

impl Bench {
    /// Every workload, in documentation order.
    pub const ALL: [Bench; 3] = [Bench::PaperSweep, Bench::FleetCampaign, Bench::IdleDay];

    /// The workload called `name` on the command line.
    pub fn parse(name: &str) -> Option<Bench> {
        Bench::ALL.into_iter().find(|b| b.name() == name)
    }

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Bench::PaperSweep => "paper_sweep",
            Bench::FleetCampaign => "fleet_campaign",
            Bench::IdleDay => "idle_day",
        }
    }

    /// Worker threads the workload runs on.
    pub fn workers(self) -> usize {
        match self {
            Bench::PaperSweep | Bench::FleetCampaign => WORKERS,
            Bench::IdleDay => 1,
        }
    }
}

/// The sweep configuration: the CLI defaults on [`WORKERS`] workers.
pub fn sweep_config(seed: u64) -> SweepConfig {
    SweepConfig {
        seed,
        jobs: WORKERS,
        ..Default::default()
    }
}

/// The sweep's 90 scenarios, built exactly as `sweep::run` builds them,
/// in its result order (catalog order; baseline, section, boost).
pub fn sweep_scenarios(config: &SweepConfig) -> Vec<Scenario> {
    let policies = [
        Policy::FixedMax,
        Policy::SectionOnly,
        Policy::SectionWithBoost,
    ];
    let mut scenarios = Vec::new();
    for (app_index, spec) in catalog::all_apps().into_iter().enumerate() {
        for policy in policies {
            let s = Scenario::new(Workload::App(spec.clone()), policy)
                .with_duration(config.duration)
                .with_seed(derive_seed(config.seed, app_index as u64));
            scenarios.push(if config.quarter_resolution {
                s.at_quarter_resolution()
            } else {
                s
            });
        }
    }
    scenarios
}

/// The fleet configuration: the CLI defaults (2 s devices, default
/// batch, no checkpoints) with [`FLEET_DEVICES`] devices on [`WORKERS`]
/// workers.
pub fn fleet_config(seed: u64) -> FleetConfig {
    FleetConfig {
        devices: FLEET_DEVICES,
        seed,
        jobs: WORKERS,
        ..Default::default()
    }
}

/// The idle-day scenario: section + boost at quarter resolution, the
/// [`IDLE_DAY_APPS`] rotation, status-bar clock on, sparse input.
pub fn idle_day_scenario(seed: u64) -> Scenario {
    let apps = IDLE_DAY_APPS
        .iter()
        .map(|name| catalog::by_name(name).expect("idle-day app is in the catalog"))
        .collect();
    Scenario::new(
        Workload::Mixed {
            apps,
            segment: IDLE_DAY_SEGMENT,
        },
        Policy::SectionWithBoost,
    )
    .at_quarter_resolution()
    .with_duration(IDLE_DAY_DURATION)
    .with_seed(seed)
    .with_monkey(MonkeyConfig::sparse())
    .with_status_bar()
}

/// What one simulated run must look like: its workload, its policy and
/// its panel's refresh-rate range.
#[derive(Debug, Clone, PartialEq)]
pub struct Expect {
    /// The workload's display name.
    pub app: String,
    /// The policy that should have run.
    pub policy: Policy,
    /// The panel's lowest rate. (Hz)
    pub min_hz: f64,
    /// The panel's highest rate. (Hz)
    pub max_hz: f64,
}

impl Expect {
    /// The expectation for `scenario`.
    pub fn of(scenario: &Scenario) -> Expect {
        let rates = scenario.device.rates();
        Expect {
            app: scenario.workload.name().to_string(),
            policy: scenario.governor.policy(),
            min_hz: rates.min().hz_f64(),
            max_hz: rates.max().hz_f64(),
        }
    }
}

/// The output checks every simulated run must pass.
///
/// # Errors
///
/// Names the first check `result` fails.
pub fn check_run(result: &RunResult, expect: &Expect) -> Result<(), String> {
    let quality = result.quality_pct();
    if result.app_name != expect.app || result.policy != expect.policy {
        return Err(format!(
            "ran {} / {}, expected {} / {}",
            result.app_name, result.policy, expect.app, expect.policy
        ));
    }
    if !(0.0..=100.0).contains(&quality) {
        return Err(format!(
            "{}: quality {quality}% outside [0, 100]",
            expect.app
        ));
    }
    if result.displayed_content_fps > result.actual_content_fps {
        return Err(format!(
            "{}: displayed {} fps > actual {} fps",
            expect.app, result.displayed_content_fps, result.actual_content_fps
        ));
    }
    // A time-weighted mean of panel rates; allow its rounding error.
    let slack = 1e-9 * expect.max_hz;
    if !(expect.min_hz - slack..=expect.max_hz + slack).contains(&result.avg_refresh_hz) {
        return Err(format!(
            "{}: average refresh {} Hz outside the panel's {}..={} Hz",
            expect.app, result.avg_refresh_hz, expect.min_hz, expect.max_hz
        ));
    }
    if expect.policy == Policy::FixedMax && result.refresh_switches != 0 {
        return Err(format!(
            "{}: fixed baseline switched rate {} times",
            expect.app, result.refresh_switches
        ));
    }
    Ok(())
}

/// Hashes every simulated field of `result`.
pub fn digest_run(h: &mut impl Hasher, result: &RunResult) {
    let floats = |h: &mut dyn Hasher, values: &[f64]| {
        h.write_usize(values.len());
        for v in values {
            h.write_u64(v.to_bits());
        }
    };
    h.write(result.app_name.as_bytes());
    h.write(result.policy.to_string().as_bytes());
    h.write_u64(result.duration.as_micros());
    h.write_u64(result.avg_power_mw.to_bits());
    floats(h, &result.power_per_second);
    for (t, v) in result.refresh_trace.iter() {
        h.write_u64(t.as_micros());
        h.write_u64(v.to_bits());
    }
    h.write_u64(result.refresh_switches);
    h.write_u64(result.avg_refresh_hz.to_bits());
    floats(h, &result.submissions_per_second);
    floats(h, &result.frame_rate_per_second);
    floats(h, &result.actual_content_per_second);
    floats(h, &result.displayed_content_per_second);
    floats(h, &result.measured_content_per_second);
    for t in &result.touch_times {
        h.write_u64(t.as_micros());
    }
    for d in &result.touch_latencies {
        h.write_u64(d.as_micros());
    }
    h.write_u64(result.actual_content_fps.to_bits());
    h.write_u64(result.displayed_content_fps.to_bits());
    h.write_u64(result.measured_content_fps.to_bits());
    h.write_usize(result.panel_refreshes);
}

/// The digest of one run alone.
pub fn run_digest(result: &RunResult) -> u64 {
    let mut h = DefaultHasher::new();
    digest_run(&mut h, result);
    h.finish()
}

/// Simulated outcomes summed over governed runs (fixed-60 Hz baselines
/// are left out).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Tally {
    runs: u64,
    power_mw: f64,
    quality_pct: f64,
    error_frames: f64,
    displayed_frames: f64,
}

impl Tally {
    /// Adds `result` if it is governed.
    pub fn observe(&mut self, result: &RunResult) {
        if result.policy == Policy::FixedMax {
            return;
        }
        let secs = result.duration.as_secs_f64();
        // The fps fields are frame counts over the run length; round back
        // to whole frames.
        let measured = (result.measured_content_fps * secs).round();
        let displayed = (result.displayed_content_fps * secs).round();
        self.runs += 1;
        self.power_mw += result.avg_power_mw;
        self.quality_pct += result.quality_pct();
        self.error_frames += (measured - displayed).abs();
        self.displayed_frames += displayed;
    }

    /// Adds another tally's runs.
    pub fn add(&mut self, other: &Tally) {
        self.runs += other.runs;
        self.power_mw += other.power_mw;
        self.quality_pct += other.quality_pct;
        self.error_frames += other.error_frames;
        self.displayed_frames += other.displayed_frames;
    }

    /// Governed runs observed.
    pub fn runs(&self) -> u64 {
        self.runs
    }

    /// Mean simulated device power. (mW)
    pub fn avg_power_mw(&self) -> f64 {
        self.power_mw / self.runs as f64
    }

    /// Mean display quality. (%)
    pub fn quality_pct(&self) -> f64 {
        self.quality_pct / self.runs as f64
    }

    /// Σ|measured − displayed| ÷ Σ displayed content frames. (%)
    pub fn content_error_pct(&self) -> f64 {
        100.0 * self.error_frames / self.displayed_frames
    }
}

/// One Table 1 row: the simulated mean saving of a class next to the
/// paper's.
#[derive(Debug, Clone, PartialEq)]
pub struct SavingRow {
    /// Application class.
    pub class: String,
    /// Governed policy.
    pub policy: String,
    /// Simulated mean saving against fixed 60 Hz. (mW)
    pub saved_mw: f64,
    /// The paper's figure. (mW)
    pub paper_mw: f64,
}

impl SavingRow {
    /// The simulator's error against the paper. (%)
    pub fn error_pct(&self) -> f64 {
        100.0 * (self.saved_mw - self.paper_mw) / self.paper_mw
    }
}

/// One closed-loop repetition: what ran, what failed, and how long the
/// entry-point call took.
#[derive(Debug, Clone)]
pub struct Repetition {
    /// Simulated runs (scenarios or devices) completed.
    pub runs: u64,
    /// Runs that failed a check.
    pub failed: u64,
    /// The first few failure descriptions.
    pub failures: Vec<String>,
    /// Digest of every simulated result, in input order.
    pub digest: u64,
    /// Governed outcomes.
    pub tally: Tally,
    /// Simulated seconds completed.
    pub sim_seconds: f64,
    /// Host time of the entry-point call.
    pub wall: Duration,
    /// CPU time the hypervisor stole from the machine's CPUs during the
    /// call, summed over them; 0 where the host does not report it. (s)
    pub stolen_s: f64,
    /// Table 1 savings (sweep only).
    pub savings: Vec<SavingRow>,
}

impl Repetition {
    fn new(runs: u64, sim_seconds: f64, (wall, stolen_s): (Duration, f64)) -> Repetition {
        Repetition {
            runs,
            failed: 0,
            failures: Vec::new(),
            digest: 0,
            tally: Tally::default(),
            sim_seconds,
            wall,
            stolen_s,
            savings: Vec::new(),
        }
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(why);
        }
    }

    /// Fails every run of the repetition: a whole-workload check failed.
    pub fn fail_all(&mut self, why: String) {
        self.failed = self.runs.max(1);
        self.failures.push(why);
    }

    /// Simulated seconds per host second.
    pub fn sim_speed(&self) -> f64 {
        self.sim_seconds / self.wall.as_secs_f64()
    }
}

/// Runs `call`, returning its result beside its wall time and the CPU time
/// the hypervisor stole from the machine meanwhile. (s)
fn timed<T>(call: impl FnOnce() -> T) -> (T, (Duration, f64)) {
    let stolen_before = host::stolen_s();
    let started = Instant::now();
    let out = call();
    let wall = started.elapsed();
    let stolen = stolen_before
        .zip(host::stolen_s())
        .map_or(0.0, |(before, after)| after - before);
    (out, (wall, stolen))
}

/// A workload prepared for its timed section.
#[derive(Debug)]
pub enum Prepared {
    /// The sweep's configuration and its expected runs, in result order.
    PaperSweep {
        /// The configuration handed to `sweep::run`.
        config: SweepConfig,
        /// Expected runs.
        expect: Vec<Expect>,
    },
    /// The fleet's configuration and its expected devices, by index.
    FleetCampaign {
        /// The configuration handed to `fleet::run_observed`.
        config: FleetConfig,
        /// Expected devices.
        expect: Vec<Expect>,
    },
    /// The idle-day scenario and the scratch its runs recycle.
    IdleDay {
        /// The scenario.
        scenario: Box<Scenario>,
        /// Expected run.
        expect: Expect,
        /// Buffer storage recycled across repetitions.
        scratch: RunScratch,
    },
}

/// Builds everything `bench` needs before its timed section: the
/// catalog, the scenario list or configuration, and the scratch.
pub fn prepare(bench: Bench, seed: u64) -> Prepared {
    match bench {
        Bench::PaperSweep => {
            let config = sweep_config(seed);
            let expect = sweep_scenarios(&config).iter().map(Expect::of).collect();
            Prepared::PaperSweep { config, expect }
        }
        Bench::FleetCampaign => {
            let config = fleet_config(seed);
            let apps = catalog::all_apps();
            let expect = (0..config.devices)
                .map(|index| {
                    let spec = DeviceSpec::sample_from(&apps, config.seed, index);
                    Expect::of(&spec.scenario(config.duration))
                })
                .collect();
            Prepared::FleetCampaign { config, expect }
        }
        Bench::IdleDay => {
            let scenario = idle_day_scenario(seed);
            let expect = Expect::of(&scenario);
            Prepared::IdleDay {
                scenario: Box::new(scenario),
                expect,
                scratch: RunScratch::new(),
            }
        }
    }
}

/// What the fleet tap keeps per device: its check, digest and tally.
type DeviceRecord = (Result<(), String>, u64, Tally);

impl Prepared {
    /// Runs the workload once, timing only the entry-point call, then
    /// checks every run.
    pub fn run_once(&mut self) -> Repetition {
        match self {
            Prepared::PaperSweep { config, expect } => {
                let (result, host_time) = timed(|| sweep::run(config));
                let runs: Vec<&RunResult> = result
                    .apps
                    .iter()
                    .flat_map(|a| [&a.baseline, &a.section, &a.boost])
                    .collect();
                let sim_seconds = runs.iter().map(|r| r.duration.as_secs_f64()).sum();
                let mut rep = Repetition::new(runs.len() as u64, sim_seconds, host_time);
                let mut h = DefaultHasher::new();
                for (run, want) in runs.iter().zip(expect.iter()) {
                    if let Err(why) = check_run(run, want) {
                        rep.fail(why);
                    }
                    rep.tally.observe(run);
                    digest_run(&mut h, run);
                }
                rep.digest = h.finish();
                if runs.len() != expect.len() {
                    rep.fail_all(format!("{} runs, requested {}", runs.len(), expect.len()));
                }
                rep.savings = result
                    .table1()
                    .into_iter()
                    .map(|agg| SavingRow {
                        paper_mw: PAPER_SAVED_MW
                            .iter()
                            .find(|(class, _)| class.to_string() == agg.class)
                            .map_or(f64::NAN, |&(_, mw)| mw),
                        saved_mw: agg.saved_mw.mean,
                        class: agg.class,
                        policy: agg.policy,
                    })
                    .collect();
                rep
            }
            Prepared::FleetCampaign { config, expect } => {
                let records: Mutex<Vec<Option<DeviceRecord>>> =
                    Mutex::new(vec![None; expect.len()]);
                let (outcome, host_time) = timed(|| {
                    fleet::run_observed(config, &Obs::disabled(), |index, run| {
                        let mut tally = Tally::default();
                        tally.observe(run);
                        let check = match expect.get(index as usize) {
                            Some(want) => check_run(run, want),
                            None => Err(format!("device {index} was never requested")),
                        };
                        let record = (check, run_digest(run), tally);
                        let mut slots = records.lock().expect("a tap panicked");
                        if let Some(slot) = slots.get_mut(index as usize) {
                            *slot = Some(record);
                        }
                    })
                });
                let sim_seconds = expect.len() as f64 * config.duration.as_secs_f64();
                let mut rep = Repetition::new(expect.len() as u64, sim_seconds, host_time);
                let outcome = match outcome {
                    Ok(outcome) => outcome,
                    Err(why) => {
                        rep.fail_all(why);
                        return rep;
                    }
                };
                let mut h = DefaultHasher::new();
                let mut missing = 0;
                for record in records.into_inner().expect("a tap panicked") {
                    match record {
                        Some((check, digest, tally)) => {
                            if let Err(why) = check {
                                rep.fail(why);
                            }
                            h.write_u64(digest);
                            rep.tally.add(&tally);
                        }
                        None => missing += 1,
                    }
                }
                h.write(format!("{:?}", outcome.stats).as_bytes());
                rep.digest = h.finish();
                if missing > 0
                    || !outcome.completed()
                    || outcome.devices_run != config.devices
                    || outcome.stats.runs() != config.devices
                {
                    rep.fail_all(format!(
                        "{} of {} devices ran ({} never reported)",
                        outcome.devices_run, config.devices, missing
                    ));
                }
                rep
            }
            Prepared::IdleDay {
                scenario,
                expect,
                scratch,
            } => {
                let (run, host_time) = timed(|| scenario.run_with_scratch(scratch));
                let mut rep = Repetition::new(1, run.duration.as_secs_f64(), host_time);
                if let Err(why) = check_run(&run, expect) {
                    rep.fail(why);
                }
                rep.tally.observe(&run);
                rep.digest = run_digest(&run);
                rep
            }
        }
    }
}

/// Simulated seconds per host second over `reps` together, for a workload
/// on `workers` threads: their simulated seconds ÷ the host time of their
/// entry-point calls (NaN when empty).
///
/// A shared host that is slower for part of a run weighs in by the time it
/// took, where a median of repetitions would jump to whichever speed held
/// for most of them. Time the hypervisor stole from the machine's CPUs is
/// time the workers were ready to run and could not; each worker's share
/// of it is taken off the host time. An idle CPU accrues no steal, so
/// workers waiting for work still count.
pub fn throughput(reps: &[Repetition], workers: usize) -> f64 {
    let sim_seconds: f64 = reps.iter().map(|r| r.sim_seconds).sum();
    let host_s: f64 = reps
        .iter()
        .map(|r| r.wall.as_secs_f64() - r.stolen_s / workers as f64)
        .sum();
    sim_seconds / host_s
}

/// The median of `values` (the mean of the middle pair for an even
/// count), or `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}
