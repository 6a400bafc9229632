//! The metering micro-benchmark behind the committed `BENCH_PR3.json`,
//! `BENCH_PR5.json`, `BENCH_PR6.json` and `BENCH_PR7.json` reports.
//!
//! Benchmarks the per-frame metering cost at the paper's five pixel
//! budgets (Fig. 6's x-axis) across the frame shapes the fast path
//! distinguishes:
//!
//! * **redundant** — the compositor re-composed identical content
//!   (`touch`-only); the fused meter classifies in O(1) without reading
//!   a single pixel;
//! * **small_damage** — a status-bar-sized rectangle changed; the meter
//!   gathers only grid points inside the damage region whose tile
//!   signatures force a descent;
//! * **full_change** — every pixel changed via `fill`; the tile
//!   signatures resolve every tile to a known solid colour, so the
//!   gather compares against constants and refreshes the snapshot
//!   without reading the framebuffer at all;
//! * **naive_redundant** — the pre-fast-path reference on the redundant
//!   frame: a full compare pass plus a full capture pass.
//!
//! Timings use the host clock and vary run to run; the
//! `points_read_per_frame` figures are exact and deterministic, so the
//! headline claim — a ≥2× reduction in pixels read per redundant frame —
//! is checked from the counters, not the clock. [`validate`] re-parses a
//! written report and enforces that claim, which is how CI keeps the
//! committed reports honest.
//!
//! Since the streaming-telemetry generation the report additionally
//! carries a **decision-tick latency budget**: the benchmark runs a
//! short profiled [`Scenario`], collects the `profile.decision_tick`
//! sketch from the global registry, and embeds the full serialized
//! sketch (plus headline percentiles) in the document. [`validate`]
//! recomputes p99 from the embedded sketch and fails any report whose
//! decision tick exceeds [`DECISION_TICK_BUDGET_US`] — the paper's
//! feasibility claim (§3.4, "negligible overhead per control window")
//! made checkable from a committed artifact.
//!
//! The fleet-scheduler generation adds a **devices/sec throughput**
//! measurement: one sampled device population dispatched through the
//! work-stealing fleet scheduler ([`crate::fleet::run`]), recorded as
//! its wall-clock time. [`validate`] checks the member's shape. The
//! committed `BENCH_PR8.json` also carries a `materialized` sample, from
//! a naive dispatch path it was once raced against; that path is gone
//! and the sample is read as history only.

use std::fmt;
use std::time::Instant;

use ccdem_core::governor::Policy;
use ccdem_core::meter::{ContentRateMeter, FrameClass};
use ccdem_metrics::table::TextTable;
use ccdem_obs::json::{self, Json};
use ccdem_obs::{metrics, QuantileSketch};
use ccdem_pixelbuf::buffer::FrameBuffer;
use ccdem_pixelbuf::geometry::{Rect, Resolution};
use ccdem_pixelbuf::grid::GridSampler;
use ccdem_pixelbuf::pixel::Pixel;
use ccdem_simkit::time::{SimDuration, SimTime};
use ccdem_workloads::catalog;

use crate::fig6::PAPER_BUDGETS;
use crate::scenario::{Scenario, Workload};
use crate::sweep::{self, SweepConfig};

/// The benchmark's frame shapes, in report order.
pub const CASES: [&str; 4] = ["redundant", "small_damage", "full_change", "naive_redundant"];

/// The `"bench"` marker newly generated reports carry (the fleet
/// scheduler generation: same metering engine and decision-tick budget
/// as PR 7, plus the devices/sec fleet-throughput measurement).
pub const MARKER: &str = "ccdem-pr8-fleet-scheduler";

/// The marker of the committed PR 7 streaming-telemetry baseline report
/// (decision-tick budget, pre fleet).
pub const MARKER_PR7: &str = "ccdem-pr7-streaming-telemetry";

/// The marker of the committed PR 6 tile-signature baseline report.
pub const MARKER_PR6: &str = "ccdem-pr6-tile-signature-metering";

/// The marker of the committed PR 5 baseline report (row-run metering,
/// pre tile gating).
pub const MARKER_PR5: &str = "ccdem-pr5-row-run-metering";

/// The marker of the committed PR 3 baseline report. [`validate`]
/// accepts all generations so the committed baselines stay checkable.
pub const MARKER_PR3: &str = "ccdem-pr3-metering-fast-path";

/// Configuration for the PR 3 benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PerfConfig {
    /// Frames timed per (budget, case).
    pub frames: u32,
    /// Simulated seconds of end-to-end sweep to wall-clock; `0` skips
    /// the sweep entirely (CI smoke mode).
    pub sweep_secs: u64,
    /// Simulated seconds of the profiled scenario that measures
    /// decision-tick latency; `0` skips the measurement (the report
    /// then carries `"decision_tick": null`, which only pre-PR 7
    /// markers may).
    pub tick_secs: u64,
    /// Devices in the fleet-throughput measurement; `0` skips it (the
    /// report then carries `"fleet": null`, which only pre-PR 8 markers
    /// may).
    pub fleet_devices: u64,
    /// Simulated milliseconds per device in the fleet-throughput
    /// measurement. Deliberately short, so that per-device dispatch
    /// costs (sampling, scratch reuse, the campaign fold) stay visible
    /// against the per-device simulation.
    pub fleet_sim_ms: u64,
    /// Root seed for the sweep portion.
    pub seed: u64,
}

impl Default for PerfConfig {
    fn default() -> Self {
        PerfConfig {
            frames: 200,
            sweep_secs: 30,
            tick_secs: 30,
            fleet_devices: 32_768,
            fleet_sim_ms: 31,
            seed: 9,
        }
    }
}

impl PerfConfig {
    /// A configuration small enough for a CI smoke step: few frames, no
    /// sweep, a short decision-tick scenario, a small fleet. The
    /// points-read columns are identical to a full run; only the timing
    /// columns get noisier.
    pub fn quick() -> PerfConfig {
        PerfConfig {
            frames: 10,
            sweep_secs: 0,
            tick_secs: 6,
            fleet_devices: 256,
            fleet_sim_ms: 31,
            seed: 9,
        }
    }
}

/// One (budget, case) measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CaseResult {
    /// Mean metering cost per frame. (ns)
    pub ns_per_frame: f64,
    /// Exact grid points gathered per frame (deterministic).
    pub points_read_per_frame: f64,
}

/// One pixel budget's measurements across all cases.
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetResult {
    /// Sampled pixels per full comparison.
    pub pixels: usize,
    /// Grid dimensions used.
    pub grid: (u32, u32),
    /// Results in [`CASES`] order.
    pub cases: [CaseResult; 4],
}

impl BudgetResult {
    /// The result for a named case.
    pub fn case(&self, name: &str) -> Option<&CaseResult> {
        CASES
            .iter()
            .position(|&c| c == name)
            .map(|i| &self.cases[i])
    }
}

/// Hard ceiling on decision-tick p99, in microseconds. The control
/// window is 500 ms; a tick that stays under 200 µs costs less than
/// 0.04 % of its window, which is the quantitative form of the paper's
/// "negligible overhead" feasibility claim. Release-build ticks measure
/// in the single-digit microseconds, so the budget leaves two orders of
/// magnitude of headroom for slow CI hosts without ever tolerating an
/// accidental O(pixels) regression in the decision path.
pub const DECISION_TICK_BUDGET_US: f64 = 200.0;

/// The decision-tick latency measurement embedded in a report: the full
/// `profile.decision_tick` sketch (nanoseconds per control tick) from a
/// profiled scenario run. Percentiles are derived from the sketch on
/// demand, so the serialized document and the in-memory report can never
/// disagree.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionTick {
    /// The recorded tick-latency sketch (values in nanoseconds).
    pub sketch: QuantileSketch,
}

impl DecisionTick {
    /// Wraps an already-recorded tick sketch.
    pub fn from_sketch(sketch: QuantileSketch) -> DecisionTick {
        DecisionTick { sketch }
    }

    /// Number of control ticks measured.
    pub fn ticks(&self) -> u64 {
        self.sketch.count()
    }

    /// The `q`-quantile tick latency in microseconds (0 when empty).
    pub fn quantile_us(&self, q: f64) -> f64 {
        self.sketch.quantile(q).unwrap_or(0) as f64 / 1e3
    }

    /// The slowest observed tick in microseconds (0 when empty).
    pub fn max_us(&self) -> f64 {
        self.sketch.max().unwrap_or(0) as f64 / 1e3
    }

    /// Serializes the measurement: headline percentiles for human
    /// readers, the budget the report claims to meet, and the sparse
    /// sketch [`validate`] recomputes the percentiles from.
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("ticks".into(), Json::Num(self.ticks() as f64)),
            ("p50_us".into(), Json::Num(self.quantile_us(0.5))),
            ("p90_us".into(), Json::Num(self.quantile_us(0.9))),
            ("p99_us".into(), Json::Num(self.quantile_us(0.99))),
            ("max_us".into(), Json::Num(self.max_us())),
            ("budget_us".into(), Json::Num(DECISION_TICK_BUDGET_US)),
            ("sketch".into(), self.sketch.to_json()),
        ])
    }
}

/// The devices/sec throughput measurement embedded in a fleet-generation
/// report: one sampled device population dispatched through the
/// work-stealing fleet scheduler. The rate is derived on demand from the
/// stored wall-clock sample, so the serialized document and the
/// in-memory report can never disagree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetThroughput {
    /// Devices simulated.
    pub devices: u64,
    /// Simulated milliseconds per device.
    pub sim_ms_per_device: u64,
    /// Wall-clock seconds of the fleet scheduler.
    pub streaming_wall_secs: f64,
}

impl FleetThroughput {
    /// Fleet-scheduler throughput in devices per second.
    pub fn streaming_devices_per_sec(&self) -> f64 {
        self.devices as f64 / self.streaming_wall_secs.max(f64::MIN_POSITIVE)
    }

    /// Serializes the measurement: the wall-clock sample is the source
    /// of truth; the rate is display sugar [`validate`] recomputes.
    fn to_json(self) -> Json {
        Json::Obj(vec![
            ("devices".into(), Json::Num(self.devices as f64)),
            (
                "sim_ms_per_device".into(),
                Json::Num(self.sim_ms_per_device as f64),
            ),
            (
                "streaming".into(),
                Json::Obj(vec![
                    ("wall_secs".into(), Json::Num(self.streaming_wall_secs)),
                    (
                        "devices_per_sec".into(),
                        Json::Num(self.streaming_devices_per_sec()),
                    ),
                ]),
            ),
        ])
    }
}

/// The full benchmark report, serializable as `BENCH_PR8.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfReport {
    /// Frames timed per case.
    pub frames: u32,
    /// One entry per paper budget, ascending.
    pub budgets: Vec<BudgetResult>,
    /// Wall-clock seconds of the end-to-end sweep, if one ran, paired
    /// with its simulated duration in seconds.
    pub sweep: Option<(u64, f64)>,
    /// Decision-tick latency from a profiled scenario, if measured.
    pub decision_tick: Option<DecisionTick>,
    /// Fleet devices/sec throughput comparison, if measured.
    pub fleet: Option<FleetThroughput>,
}

/// Runs the benchmark at full Galaxy S3 resolution.
pub fn run(config: &PerfConfig) -> PerfReport {
    let resolution = Resolution::GALAXY_S3;
    let budgets = PAPER_BUDGETS
        .iter()
        .map(|&budget| run_budget(config, resolution, budget))
        .collect();
    let sweep = (config.sweep_secs > 0).then(|| {
        let started = Instant::now();
        sweep::run(&SweepConfig {
            duration: SimDuration::from_secs(config.sweep_secs),
            seed: config.seed,
            quarter_resolution: true,
            jobs: 0,
            naive_metering: false,
            profile: false,
        });
        (config.sweep_secs, started.elapsed().as_secs_f64())
    });
    let decision_tick =
        (config.tick_secs > 0).then(|| measure_decision_tick(config.tick_secs, config.seed));
    let fleet = (config.fleet_devices > 0 && config.fleet_sim_ms > 0)
        .then(|| measure_fleet(config.fleet_devices, config.fleet_sim_ms, config.seed));
    PerfReport {
        frames: config.frames,
        budgets,
        sweep,
        decision_tick,
        fleet,
    }
}

/// Times one sampled device population through the fleet scheduler:
/// one untimed warmup run so no sample pays first-touch costs, then the
/// median of five timed runs, each of which must reproduce the warmup's
/// statistics exactly.
fn measure_fleet(devices: u64, sim_ms: u64, seed: u64) -> FleetThroughput {
    use crate::fleet::{self, FleetConfig};

    let config = FleetConfig {
        devices,
        seed,
        duration: SimDuration::from_millis(sim_ms),
        ..FleetConfig::default()
    };
    let timed = || {
        let started = Instant::now();
        // ccdem-lint: allow(panic) — no checkpoint path configured, so
        // the scheduler performs no I/O and cannot fail
        let outcome = fleet::run(&config, &ccdem_obs::Obs::disabled()).expect("no checkpoint I/O");
        (started.elapsed().as_secs_f64(), outcome.stats)
    };

    let (_, warm) = timed();
    let mut walls: Vec<f64> = (0..5)
        .map(|_| {
            let (wall, stats) = timed();
            assert_eq!(stats, warm, "fleet dispatch is not reproducible");
            wall
        })
        .collect();
    walls.sort_by(f64::total_cmp);
    FleetThroughput {
        devices,
        sim_ms_per_device: sim_ms,
        // ccdem-lint: allow(panic) — five samples were just collected
        streaming_wall_secs: walls[walls.len() / 2],
    }
}

/// Runs a short profiled scenario and returns the decision-tick latency
/// sketch its engine recorded into the global registry. The delta
/// between snapshots isolates this run's samples from anything recorded
/// earlier in the process.
fn measure_decision_tick(tick_secs: u64, seed: u64) -> DecisionTick {
    let before = metrics().snapshot();
    Scenario::new(Workload::App(catalog::facebook()), Policy::SectionWithBoost)
        .at_quarter_resolution()
        .with_duration(SimDuration::from_secs(tick_secs))
        .with_seed(seed)
        .with_profiling()
        .run();
    let delta = metrics().snapshot().delta_since(&before);
    let sketch = delta
        .sketches
        .get("profile.decision_tick")
        .cloned()
        .unwrap_or_default();
    DecisionTick::from_sketch(sketch)
}

fn run_budget(config: &PerfConfig, resolution: Resolution, budget: usize) -> BudgetResult {
    let sampler = GridSampler::for_pixel_budget(resolution, budget);
    let grid = (sampler.cols(), sampler.rows());
    let pixels = sampler.sample_count();
    let frames = config.frames.max(1);

    // A small change the size of a status-bar clock, placed mid-screen
    // so it always covers at least one grid point.
    let patch = Rect::new(
        resolution.width / 2,
        resolution.height / 2,
        (resolution.width / 8).max(1),
        (resolution.height / 32).max(1),
    );

    let redundant = bench_case(&sampler, resolution, frames, false, |fb, _| {
        fb.touch();
        FrameClass::Redundant
    });
    let small_damage = bench_case(&sampler, resolution, frames, false, |fb, i| {
        fb.fill_rect(patch, Pixel::grey((i % 200) as u8));
        FrameClass::Meaningful
    });
    let full_change = bench_case(&sampler, resolution, frames, false, |fb, i| {
        fb.fill(Pixel::grey((i % 200) as u8));
        FrameClass::Meaningful
    });
    let naive_redundant = bench_case(&sampler, resolution, frames, true, |fb, _| {
        fb.touch();
        FrameClass::Redundant
    });

    BudgetResult {
        pixels,
        grid,
        cases: [redundant, small_damage, full_change, naive_redundant],
    }
}

/// Times `frames` metering steps. Each frame: `mutate` the framebuffer
/// (untimed — app rendering is not metering cost), then observe through
/// the damage-aware path (or the naive double-gather when `naive`).
/// Returns mean ns/frame and the meter's own exact points-read count.
fn bench_case(
    sampler: &GridSampler,
    resolution: Resolution,
    frames: u32,
    naive: bool,
    mut mutate: impl FnMut(&mut FrameBuffer, u32) -> FrameClass,
) -> CaseResult {
    let mut fb = FrameBuffer::new(resolution);
    let mut meter = ContentRateMeter::new(sampler.clone());
    meter.set_naive(naive);
    // Prime outside the timed region so the first-frame full capture
    // does not pollute the steady-state numbers.
    fb.fill(Pixel::grey(10));
    fb.take_damage();
    meter.observe(&fb, SimTime::ZERO);

    let read_before = meter.points_read();
    let mut elapsed_ns = 0u128;
    for i in 0..frames {
        let expected = mutate(&mut fb, i);
        let damage = fb.take_damage();
        let now = SimTime::from_micros(u64::from(i + 1) * 16_667);
        let started = Instant::now();
        let class = if naive {
            meter.observe(&fb, now)
        } else {
            meter.observe_damaged(&fb, &damage, now)
        };
        elapsed_ns += started.elapsed().as_nanos();
        assert_eq!(class, expected, "benchmark frame misclassified");
    }
    CaseResult {
        ns_per_frame: elapsed_ns as f64 / f64::from(frames),
        points_read_per_frame: (meter.points_read() - read_before) as f64 / f64::from(frames),
    }
}

impl PerfReport {
    /// Serializes the report as the `BENCH_PR8.json` document.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(2048);
        out.push_str(&format!("{{\n  \"bench\": \"{MARKER}\",\n"));
        out.push_str(&format!("  \"frames_per_case\": {},\n", self.frames));
        out.push_str("  \"budgets\": [\n");
        for (bi, b) in self.budgets.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"pixels\": {}, \"grid\": \"{}x{}\", \"cases\": {{",
                b.pixels, b.grid.0, b.grid.1
            ));
            for (ci, name) in CASES.iter().enumerate() {
                let c = &b.cases[ci];
                out.push_str(&format!(
                    "{}\"{}\": {{\"ns_per_frame\": {:.1}, \"points_read_per_frame\": {:.1}}}",
                    if ci > 0 { ", " } else { "" },
                    name,
                    c.ns_per_frame,
                    c.points_read_per_frame
                ));
            }
            out.push_str("}}");
            out.push_str(if bi + 1 < self.budgets.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ],\n");
        match self.sweep {
            Some((sim_secs, wall_secs)) => out.push_str(&format!(
                "  \"sweep\": {{\"sim_secs\": {sim_secs}, \"wall_secs\": {wall_secs:.2}}},\n"
            )),
            None => out.push_str("  \"sweep\": null,\n"),
        }
        match &self.fleet {
            Some(fleet) => {
                out.push_str("  \"fleet\": ");
                json::write_json(&mut out, &fleet.to_json());
                out.push_str(",\n");
            }
            None => out.push_str("  \"fleet\": null,\n"),
        }
        match &self.decision_tick {
            Some(tick) => {
                out.push_str("  \"decision_tick\": ");
                json::write_json(&mut out, &tick.to_json());
                out.push('\n');
            }
            None => out.push_str("  \"decision_tick\": null\n"),
        }
        out.push('}');
        out
    }
}

impl fmt::Display for PerfReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Metering cost per frame by shape ({} frames per case)",
            self.frames
        )?;
        let mut t = TextTable::new([
            "pixels",
            "redundant (ns / px)",
            "small damage (ns / px)",
            "full change (ns / px)",
            "naive redundant (ns / px)",
        ]);
        for b in &self.budgets {
            let cell = |c: &CaseResult| {
                format!("{:.0} / {:.0}", c.ns_per_frame, c.points_read_per_frame)
            };
            t.row([
                format!("{}", b.pixels),
                cell(&b.cases[0]),
                cell(&b.cases[1]),
                cell(&b.cases[2]),
                cell(&b.cases[3]),
            ]);
        }
        write!(f, "{t}")?;
        if let Some((sim, wall)) = self.sweep {
            write!(f, "\n30-app sweep ({sim} s simulated): {wall:.2} s wall clock")?;
        }
        if let Some(tick) = &self.decision_tick {
            write!(
                f,
                "\ndecision tick: {} ticks, p50 {:.1} µs, p99 {:.1} µs, max {:.1} µs \
                 (budget {DECISION_TICK_BUDGET_US} µs)",
                tick.ticks(),
                tick.quantile_us(0.5),
                tick.quantile_us(0.99),
                tick.max_us(),
            )?;
        }
        if let Some(fleet) = &self.fleet {
            write!(
                f,
                "\nfleet throughput ({} devices, {} ms each): {:.0} devices/sec",
                fleet.devices,
                fleet.sim_ms_per_device,
                fleet.streaming_devices_per_sec(),
            )?;
        }
        Ok(())
    }
}

/// Validates a benchmark report document (any committed `BENCH_PR*.json`
/// generation; all [`MARKER`] generations are accepted): well-formed
/// JSON, all five paper budgets present with every case measured, and
/// the PR 3 headline criterion — each budget's fast redundant path reads
/// at most half the pixels of the naive redundant path. Reports carrying
/// the streaming-telemetry marker must additionally embed a
/// `decision_tick` sketch whose **recomputed** p99 stays within
/// [`DECISION_TICK_BUDGET_US`] — the stored percentile members are
/// display sugar; the sketch is the source of truth. The *timing*
/// criterion (no regression against a baseline report) lives in
/// [`crate::perfcmp::check`], which compares two reports.
///
/// # Errors
///
/// Returns a description of the first violation.
pub fn validate(document: &str) -> Result<(), String> {
    let doc = json::parse(document)?;
    let marker = doc.get("bench").and_then(Json::as_str);
    let known = [MARKER, MARKER_PR7, MARKER_PR6, MARKER_PR5, MARKER_PR3];
    if !marker.is_some_and(|m| known.contains(&m)) {
        return Err("missing or wrong \"bench\" marker".into());
    }
    let Some(Json::Arr(budgets)) = doc.get("budgets") else {
        return Err("missing \"budgets\" array".into());
    };
    if budgets.len() != PAPER_BUDGETS.len() {
        return Err(format!(
            "expected {} budgets, found {}",
            PAPER_BUDGETS.len(),
            budgets.len()
        ));
    }
    for (b, &expected_px) in budgets.iter().zip(PAPER_BUDGETS.iter()) {
        let pixels = b
            .get("pixels")
            .and_then(Json::as_f64)
            .ok_or("budget entry missing \"pixels\"")?;
        let cases = b.get("cases").ok_or("budget entry missing \"cases\"")?;
        let mut read = [0.0f64; 4];
        for (i, name) in CASES.iter().enumerate() {
            let case = cases
                .get(name)
                .ok_or_else(|| format!("budget {pixels}: missing case {name:?}"))?;
            let ns = case.get("ns_per_frame").and_then(Json::as_f64);
            let px = case.get("points_read_per_frame").and_then(Json::as_f64);
            match (ns, px) {
                (Some(ns), Some(px)) if ns >= 0.0 && px >= 0.0 => read[i] = px,
                _ => {
                    return Err(format!(
                        "budget {pixels}: case {name:?} has malformed measurements"
                    ))
                }
            }
        }
        let (fast, naive) = (read[0], read[3]);
        if naive <= 0.0 {
            return Err(format!(
                "budget {pixels}: naive redundant path reads no pixels — measurement broken"
            ));
        }
        if fast * 2.0 > naive {
            return Err(format!(
                "budget {pixels}: redundant frame reads {fast} pixels vs naive {naive} — \
                 less than the required 2x reduction"
            ));
        }
        // The budget column itself must be the paper's (full comparison
        // uses the grid actually constructible at that budget, so allow
        // the sampler's rounding below the nominal figure).
        if pixels > expected_px as f64 {
            return Err(format!(
                "budget {pixels} exceeds the paper budget {expected_px}"
            ));
        }
    }
    match doc.get("sweep") {
        Some(Json::Null) => {}
        Some(sweep) => {
            let wall = sweep.get("wall_secs").and_then(Json::as_f64);
            match wall {
                Some(w) if w > 0.0 => {}
                _ => return Err("\"sweep\" present but \"wall_secs\" malformed".into()),
            }
        }
        None => return Err("missing \"sweep\" member (use null when skipped)".into()),
    }
    let streaming_generation = marker == Some(MARKER) || marker == Some(MARKER_PR7);
    validate_decision_tick(&doc, streaming_generation)?;
    validate_fleet(&doc, marker == Some(MARKER))
}

/// Checks the `fleet` member: required for fleet-generation reports,
/// absent (or null) in every earlier committed baseline. Shape and
/// sanity only; no timing gate applies to it.
fn validate_fleet(doc: &Json, required: bool) -> Result<(), String> {
    match doc.get("fleet") {
        None | Some(Json::Null) if required => {
            Err("fleet-generation reports must carry a \"fleet\" throughput measurement".into())
        }
        None | Some(Json::Null) => Ok(()),
        Some(fleet) => parse_fleet(fleet).map(|_| ()),
    }
}

/// Parses and sanity-checks a serialized `fleet` member; the rate is
/// reconstructed from the wall-clock sample, never trusted from the
/// `devices_per_sec` display member. A `materialized` member (the
/// committed `BENCH_PR8.json` has one) is history and is not read.
///
/// # Errors
///
/// Describes the first missing or non-positive member.
pub fn parse_fleet(fleet: &Json) -> Result<FleetThroughput, String> {
    let unsigned = |key: &str| -> Result<u64, String> {
        let v = fleet
            .get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("\"fleet\" missing {key:?}"))?;
        if v < 1.0 || v.fract() != 0.0 {
            return Err(format!("\"fleet\" member {key:?} is not a positive integer"));
        }
        Ok(v as u64)
    };
    let secs = fleet
        .get("streaming")
        .and_then(|engine| engine.get("wall_secs"))
        .and_then(Json::as_f64)
        .ok_or("\"fleet\" missing \"streaming\" wall_secs")?;
    if secs <= 0.0 || !secs.is_finite() {
        return Err("\"fleet\" \"streaming\" wall_secs is not a positive time".into());
    }
    Ok(FleetThroughput {
        devices: unsigned("devices")?,
        sim_ms_per_device: unsigned("sim_ms_per_device")?,
        streaming_wall_secs: secs,
    })
}

/// Checks the `decision_tick` member: required (with a budget-passing
/// sketch) for streaming-telemetry reports, optional for the committed
/// pre-PR 7 baselines, which predate the member entirely.
fn validate_decision_tick(doc: &Json, required: bool) -> Result<(), String> {
    let tick = match doc.get("decision_tick") {
        None | Some(Json::Null) => {
            return if required {
                Err("streaming-telemetry reports must carry a \"decision_tick\" measurement".into())
            } else {
                Ok(())
            };
        }
        Some(tick) => tick,
    };
    let sketch = tick
        .get("sketch")
        .and_then(QuantileSketch::from_json)
        .ok_or("\"decision_tick\" sketch missing or malformed")?;
    let ticks = tick
        .get("ticks")
        .and_then(Json::as_f64)
        .ok_or("\"decision_tick\" missing \"ticks\"")? as u64;
    if ticks == 0 || sketch.count() != ticks {
        return Err(format!(
            "\"decision_tick\" claims {ticks} ticks but its sketch holds {}",
            sketch.count()
        ));
    }
    let budget = tick
        .get("budget_us")
        .and_then(Json::as_f64)
        .ok_or("\"decision_tick\" missing \"budget_us\"")?;
    if budget > DECISION_TICK_BUDGET_US {
        return Err(format!(
            "\"decision_tick\" budget {budget} µs exceeds the allowed {DECISION_TICK_BUDGET_US} µs"
        ));
    }
    let p99_us = sketch.quantile(0.99).unwrap_or(0) as f64 / 1e3;
    if p99_us > budget {
        return Err(format!(
            "decision-tick p99 {p99_us:.1} µs exceeds the {budget} µs budget"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> PerfReport {
        run(&PerfConfig::quick())
    }

    #[test]
    fn covers_all_budgets_and_cases() {
        let r = quick();
        assert_eq!(r.budgets.len(), 5);
        assert_eq!(r.budgets[0].pixels, 2_304);
        assert_eq!(r.budgets[4].pixels, 921_600);
        assert!(r.sweep.is_none());
        // The quick config still measures decision ticks: a 6 s profiled
        // scenario at a 500 ms control window yields 11 of them (other
        // tests may profile concurrently, so at-least rather than exact).
        let tick = r.decision_tick.expect("quick config measures ticks");
        assert!(tick.ticks() >= 11, "only {} ticks recorded", tick.ticks());
        assert!(tick.quantile_us(0.5) > 0.0);
        assert!(tick.quantile_us(0.99) <= tick.max_us() * (1.0 + 0.04));
        // The quick config also measures fleet throughput.
        let fleet = r.fleet.expect("quick config measures fleet throughput");
        assert_eq!(fleet.devices, 256);
        assert_eq!(fleet.sim_ms_per_device, 31);
        assert!(fleet.streaming_wall_secs > 0.0);
        assert!(fleet.streaming_devices_per_sec() > 0.0);
    }

    #[test]
    fn redundant_frames_read_zero_pixels() {
        for b in &quick().budgets {
            assert_eq!(b.case("redundant").unwrap().points_read_per_frame, 0.0);
            // Naive reference pays a compare pass plus a capture pass.
            assert_eq!(
                b.case("naive_redundant").unwrap().points_read_per_frame,
                2.0 * b.pixels as f64
            );
        }
    }

    #[test]
    fn tile_signatures_bound_framebuffer_reads() {
        for b in &quick().budgets {
            let damaged = b.case("small_damage").unwrap().points_read_per_frame;
            let full = b.case("full_change").unwrap().points_read_per_frame;
            assert!(damaged >= 1.0, "patch must cover at least one grid point");
            // The patch straddles tile boundaries, so the damaged path
            // still descends — but into far fewer points than the grid.
            assert!(
                damaged < b.pixels as f64,
                "budget {}: damaged path read {damaged} of {} points",
                b.pixels,
                b.pixels
            );
            // A full-screen fill leaves every tile provably solid: the
            // gather compares against the known colour and refreshes the
            // snapshot without touching the framebuffer.
            assert_eq!(
                full, 0.0,
                "budget {}: solid tiles must satisfy a full fill read-free",
                b.pixels
            );
        }
    }

    #[test]
    fn own_json_round_trips_and_validates() {
        let r = quick();
        let doc = r.to_json();
        validate(&doc).expect("self-produced report must validate");
        // And the numbers actually survive the round trip.
        let parsed = json::parse(&doc).unwrap();
        let budgets = match parsed.get("budgets") {
            Some(Json::Arr(b)) => b,
            other => panic!("bad budgets: {other:?}"),
        };
        assert_eq!(
            budgets[2].get("pixels").and_then(Json::as_f64),
            Some(9_216.0)
        );
    }

    #[test]
    fn validation_rejects_tampering() {
        let good = quick().to_json();
        assert!(validate("{not json").is_err());
        assert!(validate("{}").is_err());
        // Claim the fast path reads as much as the naive path: must fail
        // the 2x criterion.
        let bad = good.replace(
            "\"redundant\": {\"ns_per_frame\"",
            "\"redundant\": {\"points_read_per_frame\": 99999999, \"ns_per_frame\"",
        );
        assert!(validate(&bad).is_err(), "inflated fast-path reads accepted");
        let truncated = good.replace("\"sweep\": null", "\"swoop\": null");
        assert!(validate(&truncated).is_err(), "missing sweep accepted");
        let wrong_marker = good.replace(MARKER, "ccdem-pr9-imaginary");
        assert!(validate(&wrong_marker).is_err(), "unknown marker accepted");
    }

    #[test]
    fn decision_tick_is_required_and_tamper_proof() {
        let report = quick();
        let good = report.to_json();
        validate(&good).expect("fresh quick report must validate");

        // A streaming-telemetry report may not drop the measurement…
        let stripped = PerfReport {
            decision_tick: None,
            ..report.clone()
        }
        .to_json();
        let err = validate(&stripped).unwrap_err();
        assert!(err.contains("decision_tick"), "wrong violation: {err}");
        // …though the committed pre-PR 7 baselines predate it.
        validate(&stripped.replace(MARKER, MARKER_PR6)).expect("PR 6 reports have no tick budget");

        // Inflating the claimed budget cannot launder a slow tick: the
        // stated budget is itself capped.
        let lax = good.replace(
            &format!("\"budget_us\":{DECISION_TICK_BUDGET_US}"),
            "\"budget_us\":999999",
        );
        assert_ne!(lax, good, "budget member not found in document");
        let err = validate(&lax).unwrap_err();
        assert!(err.contains("exceeds the allowed"), "wrong violation: {err}");

        // The tick count must agree with the embedded sketch — editing
        // the headline number without the buckets is caught.
        let ticks = report.decision_tick.as_ref().unwrap().ticks();
        let forged = good.replace(
            &format!("\"ticks\":{ticks}"),
            &format!("\"ticks\":{}", ticks + 1),
        );
        assert_ne!(forged, good, "ticks member not found in document");
        let err = validate(&forged).unwrap_err();
        assert!(err.contains("sketch holds"), "wrong violation: {err}");
    }

    #[test]
    fn all_marker_generations_validate() {
        let good = quick().to_json();
        assert!(good.contains(MARKER));
        for (name, marker) in [
            ("PR 7", MARKER_PR7),
            ("PR 6", MARKER_PR6),
            ("PR 5", MARKER_PR5),
            ("PR 3", MARKER_PR3),
        ] {
            let doc = good.replace(MARKER, marker);
            validate(&doc)
                .unwrap_or_else(|e| panic!("the {name} baseline marker must stay accepted: {e}"));
        }
    }

    #[test]
    fn fleet_member_is_required_and_tamper_proof() {
        let report = quick();
        let good = report.to_json();
        validate(&good).expect("fresh quick report must validate");

        // A fleet-generation report may not drop the measurement…
        let stripped = PerfReport {
            fleet: None,
            ..report.clone()
        }
        .to_json();
        let err = validate(&stripped).unwrap_err();
        assert!(err.contains("fleet"), "wrong violation: {err}");
        // …though the committed PR 7 baseline predates it.
        validate(&stripped.replace(MARKER, MARKER_PR7))
            .expect("PR 7 reports have no fleet member");

        // Zeroed wall-clock samples cannot sneak through: the rates are
        // recomputed, not read from the display members.
        let fleet = report.fleet.expect("quick config measures fleet throughput");
        let forged = good.replace(
            &format!("\"wall_secs\":{}", Json::Num(fleet.streaming_wall_secs)),
            "\"wall_secs\":0",
        );
        assert_ne!(forged, good, "streaming wall_secs not found in document");
        let err = validate(&forged).unwrap_err();
        assert!(err.contains("positive time"), "wrong violation: {err}");

        // The committed PR 8 report still validates: its `materialized`
        // sample is history and is not read, while its streaming sample
        // is checked exactly like a new report's.
        let committed = include_str!("../../../BENCH_PR8.json");
        validate(committed).expect("the committed BENCH_PR8.json must stay valid");
        let parsed = json::parse(committed).expect("committed report parses");
        let fleet = parse_fleet(parsed.get("fleet").expect("committed fleet member"))
            .expect("committed fleet member parses");
        assert_eq!(fleet.devices, 32_768);
        let forged = committed.replace(
            &format!(
                "\"streaming\":{{\"wall_secs\":{}",
                Json::Num(fleet.streaming_wall_secs)
            ),
            "\"streaming\":{\"wall_secs\":0",
        );
        assert_ne!(forged, committed, "committed streaming wall_secs not found");
        let err = validate(&forged).unwrap_err();
        assert!(err.contains("positive time"), "wrong violation: {err}");
    }

    #[test]
    fn hostile_committed_reports_are_rejected_not_panicked_on() {
        let committed = include_str!("../../../BENCH_PR8.json");
        // Swapped extremes would make the recomputed p99's clamp panic.
        let swapped = committed.replace("\"min\":358,\"max\":3741", "\"min\":3741,\"max\":358");
        assert_ne!(swapped, committed, "decision-tick extremes not found");
        let err = validate(&swapped).unwrap_err();
        assert!(
            err.contains("sketch missing or malformed"),
            "wrong violation: {err}"
        );
        // Nesting deep enough to overflow a recursive parser's stack.
        let nested = "[".repeat(200_000);
        assert!(validate(&nested).unwrap_err().contains("nesting"));
    }

    #[test]
    fn display_renders_table() {
        let s = quick().to_string();
        assert!(s.contains("921600"));
        assert!(s.contains("naive redundant"));
    }
}
