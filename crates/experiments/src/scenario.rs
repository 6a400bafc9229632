//! The full-stack scenario runner.
//!
//! One scenario wires the whole simulated Android display stack together:
//!
//! ```text
//! MonkeyScript ──touches──▶ Governor ──rate requests──▶ RefreshController
//!      │                       ▲                              │
//!      ▼                       │ framebuffer updates          ▼
//!  AppModel ──submissions──▶ SurfaceFlinger ──compose on──▶ VsyncScheduler
//!                                │                 edges       │
//!                                ▼                             ▼
//!                           FrameBuffer ────scanout────────▶ Panel
//!                                                              │
//!                                          PowerMeter ◀── PowerModel
//! ```
//!
//! and replays the identical workload (same seed, same touch script, same
//! app randomness) under different policies, exactly like the paper's
//! methodology of repeating one Monkey script with and without the
//! proposed system (§4).

use crate::profile::{Layer, NoProbe, Probe};
use ccdem_compositor::flinger::{ComposeOutcome, SurfaceFlinger};
use ccdem_core::governor::{Governor, GovernorConfig, Policy};
use ccdem_obs::Obs;
use ccdem_panel::controller::RefreshController;
use ccdem_panel::device::DeviceProfile;
use ccdem_panel::panel::Panel;
use ccdem_panel::vsync::VsyncScheduler;
use ccdem_pixelbuf::geometry::Resolution;
use ccdem_pixelbuf::pool::PixelPool;
use ccdem_power::meter::PowerMeter;
use ccdem_power::model::{DisplayActivity, PowerCoefficients};
use ccdem_simkit::event::EventQueue;
use ccdem_simkit::rng::SimRng;
use ccdem_simkit::time::{SimDuration, SimTime};
use ccdem_simkit::trace::Trace;
use ccdem_workloads::app::{AppModel, InputContext};
use ccdem_workloads::input::{MonkeyConfig, MonkeyScript};
use ccdem_workloads::phased::AppSpec;
use ccdem_workloads::scrolling::{FlingConfig, FlingReader};
use ccdem_workloads::switcher::AppSwitcher;
use ccdem_workloads::trace::{FrameTrace, TraceApp};
use ccdem_workloads::video::{VideoApp, VideoConfig};
use ccdem_workloads::wallpaper::{DotsConfig, DotsWallpaper};

/// The workload a scenario drives.
#[derive(Debug, Clone, PartialEq)]
pub enum Workload {
    /// A catalog-style two-phase application.
    App(AppSpec),
    /// A dots live wallpaper (Fig. 6's stress case).
    Wallpaper(DotsConfig),
    /// A decode-clock video player.
    Video(VideoConfig),
    /// A fling-scroll reader with momentum decay.
    Fling(FlingConfig),
    /// A mixed session rotating through catalog apps with the given
    /// per-app segment length.
    Mixed {
        /// The rotation, in order.
        apps: Vec<AppSpec>,
        /// How long each app stays on screen.
        segment: SimDuration,
    },
    /// Replay of a recorded frame log.
    Trace(FrameTrace),
}

impl Workload {
    fn instantiate(&self, resolution: Resolution, rng: &mut SimRng) -> Box<dyn AppModel> {
        match self {
            Workload::App(spec) => Box::new(spec.instantiate()),
            Workload::Wallpaper(cfg) => Box::new(DotsWallpaper::new(*cfg, resolution, rng)),
            Workload::Video(cfg) => Box::new(VideoApp::new(*cfg)),
            Workload::Fling(cfg) => Box::new(FlingReader::new(*cfg)),
            Workload::Mixed { apps, segment } => Box::new(AppSwitcher::new(
                apps.iter()
                    .map(|a| Box::new(a.instantiate()) as Box<dyn AppModel>)
                    .collect(),
                *segment,
            )),
            Workload::Trace(trace) => Box::new(TraceApp::new(trace.clone())),
        }
    }

    /// The workload's display name.
    pub fn name(&self) -> &str {
        match self {
            Workload::App(spec) => &spec.name,
            Workload::Wallpaper(_) => "dots wallpaper",
            Workload::Video(_) => "video player",
            Workload::Fling(_) => "fling reader",
            Workload::Mixed { .. } => "mixed session",
            Workload::Trace(_) => "trace replay",
        }
    }
}

/// Scales a grid pixel budget defined at Galaxy S3 resolution (921 600
/// pixels) to another resolution, preserving the grid pitch. Never
/// returns less than 64.
///
/// # Examples
///
/// ```
/// use ccdem_experiments::scenario::scaled_budget;
/// use ccdem_pixelbuf::geometry::Resolution;
///
/// assert_eq!(scaled_budget(Resolution::GALAXY_S3, 9216), 9216);
/// assert_eq!(scaled_budget(Resolution::QUARTER, 9216), 576);
/// ```
pub fn scaled_budget(resolution: Resolution, full_budget: usize) -> usize {
    let scale = resolution.pixel_count() as f64 / Resolution::GALAXY_S3.pixel_count() as f64;
    ((full_budget as f64 * scale).round() as usize).max(64)
}

/// Everything needed to run one (app, policy) combination.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The device under test.
    pub device: DeviceProfile,
    /// The application or wallpaper on screen.
    pub workload: Workload,
    /// Governor configuration (includes the policy).
    pub governor: GovernorConfig,
    /// Input script density.
    pub monkey: MonkeyConfig,
    /// Power model coefficients.
    pub power: PowerCoefficients,
    /// Power-meter measurement noise (mW std dev); 0 = noiseless.
    pub meter_noise_mw: f64,
    /// Run length.
    pub duration: SimDuration,
    /// Root seed; all randomness (app, script, meter noise) derives from
    /// it, so two runs differing only in policy see identical workloads.
    pub seed: u64,
    /// Whether a status-bar overlay (clock updating once per second)
    /// composes above the app, adding a steady ~1 fps of small content
    /// changes system-wide.
    pub status_bar: bool,
    /// Telemetry handle; disabled by default. When enabled, the engine
    /// and every instrumented component (governor, meter, controller,
    /// panel) emit structured events through it. Telemetry never feeds
    /// back into the simulation, so results are identical either way.
    pub obs: Obs,
}

impl Scenario {
    /// A scenario with the paper's defaults: Galaxy S3, standard Monkey
    /// density, noiseless meter, 60 s run.
    pub fn new(workload: Workload, policy: Policy) -> Scenario {
        Scenario {
            device: DeviceProfile::galaxy_s3(),
            workload,
            governor: GovernorConfig::new(policy),
            monkey: MonkeyConfig::standard(),
            power: PowerCoefficients::galaxy_s3(),
            meter_noise_mw: 0.0,
            duration: SimDuration::from_secs(60),
            seed: 0xC0DE,
            status_bar: false,
            obs: Obs::disabled(),
        }
    }

    /// Switches to a quarter-resolution panel with a proportionally
    /// scaled grid budget. Temporal behaviour (rates, decisions, power)
    /// is unchanged; per-frame pixel work drops 16×. Used by the long
    /// 30-app sweeps and the test suite.
    pub fn at_quarter_resolution(mut self) -> Scenario {
        let budget = scaled_budget(Resolution::QUARTER, self.governor.grid_budget());
        self.device = self.device.with_resolution(Resolution::QUARTER);
        self.governor = self.governor.with_grid_budget(budget);
        self
    }

    /// Replaces the run duration.
    pub fn with_duration(mut self, duration: SimDuration) -> Scenario {
        self.duration = duration;
        self
    }

    /// Replaces the root seed.
    pub fn with_seed(mut self, seed: u64) -> Scenario {
        self.seed = seed;
        self
    }

    /// Replaces the input density.
    pub fn with_monkey(mut self, monkey: MonkeyConfig) -> Scenario {
        self.monkey = monkey;
        self
    }

    /// Adds a status-bar overlay that updates its clock once per second.
    pub fn with_status_bar(mut self) -> Scenario {
        self.status_bar = true;
        self
    }

    /// Routes run telemetry through `obs` (see the `obs` field).
    pub fn with_obs(mut self, obs: Obs) -> Scenario {
        self.obs = obs;
        self
    }

    /// Disables (or re-enables) every damage-aware fast path: the
    /// compositor recomposes the full screen each frame and the meter
    /// runs one scalar-oracle pass over the full grid per observed frame
    /// ([`ContentRateMeter::set_naive`](ccdem_core::meter::ContentRateMeter::set_naive)).
    /// Results are bit-identical either way; this exists so equivalence
    /// tests and benchmarks can compare the two implementations.
    pub fn with_naive_metering(mut self, naive: bool) -> Scenario {
        self.governor = self.governor.with_naive_metering(naive);
        self
    }

    /// Runs the scenario to completion.
    ///
    /// Allocates fresh buffers for the run. Callers executing many runs
    /// back to back (sweeps, ablations) should hold a [`RunScratch`] and
    /// call [`run_with_scratch`](Self::run_with_scratch) instead.
    pub fn run(&self) -> RunResult {
        self.run_with_scratch(&mut RunScratch::new())
    }

    /// [`run`](Self::run), recycling buffer storage through `scratch`.
    ///
    /// Every framebuffer and meter snapshot is taken from the scratch
    /// pool at engine start and returned to it at engine end, so a loop
    /// of runs over one scratch reaches a steady state with near-zero
    /// per-run allocation. Recycled buffers are reset before first use
    /// ([`PixelPool::take_framebuffer`]), so the result is
    /// byte-identical to [`run`](Self::run) — the `scratch_determinism`
    /// integration test pins this.
    pub fn run_with_scratch(&self, scratch: &mut RunScratch) -> RunResult {
        self.run_probed(scratch, &mut NoProbe)
    }

    /// [`run_with_scratch`](Self::run_with_scratch), calling `probe`'s
    /// hooks around every layer call and control tick (see
    /// [`Probe`]). A probe only observes, so the result equals the
    /// unprobed run's.
    pub fn run_probed<P: Probe>(&self, scratch: &mut RunScratch, probe: &mut P) -> RunResult {
        Engine::new(self, scratch, probe).run(scratch)
    }

    /// Runs this scenario and its fixed-60 Hz baseline twin (identical
    /// seed and workload), returning `(governed, baseline)`.
    pub fn run_with_baseline(&self) -> (RunResult, RunResult) {
        self.run_with_baseline_scratch(&mut RunScratch::new())
    }

    /// [`run_with_baseline`](Self::run_with_baseline) recycling buffer
    /// storage through `scratch`; both twins share the same pool.
    pub fn run_with_baseline_scratch(&self, scratch: &mut RunScratch) -> (RunResult, RunResult) {
        let governed = self.run_with_scratch(scratch);
        let mut baseline = self.clone();
        baseline.governor = GovernorConfig::new(Policy::FixedMax)
            .with_control_window(self.governor.control_window())
            .with_grid_budget(self.governor.grid_budget())
            .with_boost_hold(self.governor.boost_hold())
            .with_naive_metering(self.governor.naive_metering());
        (governed, baseline.run_with_scratch(scratch))
    }
}

/// Reusable buffer storage shared across scenario runs.
///
/// One run at Galaxy S3 resolution allocates several megabytes of
/// framebuffers (compositor framebuffer, one per surface) and meter
/// snapshots. A sweep that holds one `RunScratch` per worker and calls
/// [`Scenario::run_with_scratch`] pays those allocations once: each
/// engine drains the pool at start and refills it at finish, and every
/// recycled buffer is reset before use, so results are byte-identical
/// to fresh-allocation runs regardless of what ran on the scratch
/// before.
#[derive(Debug, Clone, Default)]
pub struct RunScratch {
    pool: PixelPool,
}

impl RunScratch {
    /// An empty scratch; buffers accumulate as runs complete.
    pub fn new() -> RunScratch {
        RunScratch::default()
    }

    /// Number of pooled buffers currently held (diagnostics/tests).
    pub fn pooled_buffers(&self) -> usize {
        self.pool.len()
    }
}

/// Simulation events, processed in (time, scheduling-order) order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    AppFrame,
    Vsync,
    ControlTick,
    Touch,
    PowerSample,
    StatusBarTick,
}

const POWER_SAMPLE_INTERVAL: SimDuration = SimDuration::from_millis(100);
const ACTIVITY_WINDOW: SimDuration = SimDuration::from_secs(1);
const TOUCH_ACTIVE_WINDOW: SimDuration = SimDuration::from_millis(300);

/// The event loop. Every call into a layer of the stack sits inside that
/// layer's [`Probe`] hooks, attributed call for call as
/// [`Layer`]'s variants list; with [`NoProbe`] the hooks compile away.
struct Engine<'a, P: Probe> {
    scenario: &'a Scenario,
    end: SimTime,
    queue: EventQueue<Event>,
    app: Box<dyn AppModel>,
    app_rng: SimRng,
    meter_rng: SimRng,
    flinger: SurfaceFlinger,
    surface: ccdem_compositor::surface::SurfaceId,
    status_bar: Option<ccdem_compositor::surface::SurfaceId>,
    status_ticks: u64,
    governor: Governor,
    controller: RefreshController,
    vsync: VsyncScheduler,
    panel: Panel,
    power_meter: PowerMeter,
    input: InputContext,
    script: MonkeyScript,
    obs: Obs,
    probe: &'a mut P,
}

impl<'a, P: Probe> Engine<'a, P> {
    fn new(scenario: &'a Scenario, scratch: &mut RunScratch, probe: &'a mut P) -> Engine<'a, P> {
        probe.enter(Layer::ScenarioSetup);
        let device = &scenario.device;
        let resolution = device.resolution();
        let root = SimRng::seed_from_u64(scenario.seed);
        let mut app_rng = root.fork(1);
        let mut script_rng = root.fork(2);
        let meter_rng = root.fork(3);

        // Drain the scratch pool: the governor's meter snapshots come out
        // first (by reference), then the compositor owns the pool for the
        // run so surface creation recycles too. `finish` refills it.
        let mut pool = std::mem::take(&mut scratch.pool);
        let mut governor = Governor::with_scratch(
            device.rates().clone(),
            resolution,
            scenario.governor,
            &mut pool,
        );
        let mut flinger = SurfaceFlinger::with_pool(resolution, pool);
        flinger.set_naive_compose(scenario.governor.naive_metering());
        let app = scenario.workload.instantiate(resolution, &mut app_rng);
        let surface = flinger.create_surface(app.name().to_string());
        let status_bar = scenario.status_bar.then(|| {
            let id = flinger.create_surface("status bar");
            let bar = flinger.surface_mut(id).expect("just created");
            bar.set_z_order(1);
            bar.set_bounds(ccdem_pixelbuf::geometry::Rect::new(
                0,
                0,
                resolution.width,
                (resolution.height / 40).max(1),
            ));
            id
        });

        governor.attach_obs(scenario.obs.clone());
        let mut controller = RefreshController::new(
            device.rates().clone(),
            device.rates().max(),
            device.rate_switch_latency(),
        );
        controller.attach_obs(scenario.obs.clone());
        let vsync = VsyncScheduler::new(controller.current(), SimTime::ZERO);
        let mut panel = Panel::new(device.clone());
        panel.attach_obs(scenario.obs.clone());
        let power_meter = PowerMeter::new(POWER_SAMPLE_INTERVAL, scenario.meter_noise_mw.max(0.0));
        let script = MonkeyScript::generate(&scenario.monkey, scenario.duration, &mut script_rng);

        let mut queue = EventQueue::new();
        queue.schedule(SimTime::ZERO, Event::AppFrame);
        queue.schedule(vsync.next_edge(), Event::Vsync);
        queue.schedule(
            SimTime::ZERO + scenario.governor.control_window(),
            Event::ControlTick,
        );
        queue.schedule(SimTime::ZERO, Event::PowerSample);
        if status_bar.is_some() {
            queue.schedule(SimTime::from_secs(1), Event::StatusBarTick);
        }
        for t in script.times() {
            queue.schedule(t, Event::Touch);
        }
        probe.exit(Layer::ScenarioSetup);

        Engine {
            scenario,
            end: SimTime::ZERO + scenario.duration,
            queue,
            app,
            app_rng,
            meter_rng,
            flinger,
            surface,
            status_bar,
            status_ticks: 0,
            governor,
            controller,
            vsync,
            panel,
            power_meter,
            input: InputContext::default(),
            script,
            obs: scenario.obs.clone(),
            probe,
        }
    }

    /// Runs `call` inside `layer`'s probe hooks.
    #[inline(always)]
    fn within<R>(&mut self, layer: Layer, call: impl FnOnce(&mut Self) -> R) -> R {
        self.probe.enter(layer);
        let out = call(self);
        self.probe.exit(layer);
        out
    }

    fn schedule(&mut self, at: SimTime, event: Event) {
        self.within(Layer::SimkitEvent, |e| e.queue.schedule(at, event));
    }

    fn run(mut self, scratch: &mut RunScratch) -> RunResult {
        let app_name = self.app.name().to_string();
        self.obs.emit("run.start", SimTime::ZERO, |event| {
            event
                .field("app", app_name.clone())
                .field("policy", format!("{:?}", self.scenario.governor.policy()))
                .field("seed", self.scenario.seed)
                .field("duration_s", self.scenario.duration.as_secs_f64());
        });
        while let Some((now, event)) = self.within(Layer::SimkitEvent, |e| e.queue.pop()) {
            if now >= self.end {
                break;
            }
            match event {
                Event::AppFrame => self.on_app_frame(now),
                Event::Vsync => self.on_vsync(),
                Event::ControlTick => self.on_control_tick(now),
                Event::Touch => self.on_touch(now),
                Event::PowerSample => self.on_power_sample(now),
                Event::StatusBarTick => self.on_status_bar_tick(now),
            }
        }
        self.finish(scratch)
    }

    fn on_app_frame(&mut self, now: SimTime) {
        let tick = self.within(Layer::Workloads, |e| {
            let tick = e.app.tick(now, &e.input, &mut e.app_rng);
            if tick.change.is_content() {
                let surface = e
                    .flinger
                    .surface_mut(e.surface)
                    .expect("engine-created surface");
                e.app
                    .render(tick.change, surface.buffer_mut(), &mut e.app_rng);
            }
            tick
        });
        self.within(Layer::Compositor, |e| {
            e.flinger
                .submit(e.surface, now, tick.change.is_content())
                .expect("engine-created surface")
        });
        self.schedule(now + tick.next_in, Event::AppFrame);
    }

    fn on_vsync(&mut self) {
        let edge = self.within(Layer::Panel, |e| {
            let edge = e.vsync.advance();
            // Rate switches land on frame boundaries.
            if let Some(rate) = e.controller.poll(edge) {
                e.vsync.set_rate(rate);
            }
            edge
        });
        let outcome = self.within(Layer::Compositor, |e| e.flinger.compose(edge));
        if let ComposeOutcome::Composed { damage, .. } = outcome {
            let generation = self.flinger.framebuffer().generation();
            self.obs.emit("framebuffer.update", edge, |event| {
                event.field("generation", generation);
            });
            self.within(Layer::CoreMeter, |e| {
                e.governor
                    .on_framebuffer_update_damaged(e.flinger.framebuffer(), &damage, edge)
            });
        }
        let next = self.within(Layer::Panel, |e| {
            e.panel.refresh(edge, e.flinger.framebuffer().generation());
            e.vsync.next_edge()
        });
        self.schedule(next, Event::Vsync);
    }

    fn on_control_tick(&mut self, now: SimTime) {
        self.probe.tick_start();
        let rate = self.within(Layer::CoreGovernor, |e| e.governor.decide(now));
        self.within(Layer::Panel, |e| {
            e.controller
                .request(rate, now)
                .expect("governor only emits supported rates")
        });
        self.schedule(
            now + self.scenario.governor.control_window(),
            Event::ControlTick,
        );
        self.probe.tick_end();
    }

    fn on_touch(&mut self, now: SimTime) {
        self.obs.emit("input.touch", now, |_| {});
        self.input.last_touch = Some(now);
        if let Some(rate) = self.within(Layer::CoreGovernor, |e| e.governor.on_touch(now)) {
            self.within(Layer::Panel, |e| {
                e.controller
                    .request(rate, now)
                    .expect("governor only emits supported rates")
            });
        }
    }

    fn on_status_bar_tick(&mut self, now: SimTime) {
        let Some(id) = self.status_bar else { return };
        self.within(Layer::Workloads, |e| {
            e.status_ticks += 1;
            let tick = e.status_ticks;
            let bar = e.flinger.surface_mut(id).expect("engine-created surface");
            let bounds = bar.bounds();
            // The "clock digits": a small block whose shade advances each
            // second, inside the bar region of the surface buffer.
            let digits = ccdem_pixelbuf::geometry::Rect::new(
                bounds.width / 8,
                bounds.y,
                (bounds.width / 6).max(1),
                bounds.height,
            );
            bar.buffer_mut().fill_rect(
                digits,
                ccdem_pixelbuf::pixel::Pixel::grey(100 + (tick % 100) as u8),
            );
        });
        self.within(Layer::Compositor, |e| {
            e.flinger
                .submit(id, now, true)
                .expect("engine-created surface")
        });
        self.schedule(now + SimDuration::from_secs(1), Event::StatusBarTick);
    }

    fn on_power_sample(&mut self, now: SimTime) {
        self.within(Layer::Power, |e| {
            let window_start = if now.as_micros() >= ACTIVITY_WINDOW.as_micros() {
                now - ACTIVITY_WINDOW
            } else {
                SimTime::ZERO
            };
            let composed_fps = e.flinger.stats().composed().rate_in(window_start, now);
            // The optional inputs are computed only for a model that reads
            // them; left `None`, they cannot change the power of one that
            // does not.
            let model = &e.scenario.power;
            let activity = DisplayActivity {
                refresh_hz: e.controller.current().hz_f64(),
                composed_fps,
                touch_active: e.input.touched_within(now, TOUCH_ACTIVE_WINDOW),
                mean_luminance: model
                    .reads_luminance()
                    .then(|| e.governor.meter().mean_sampled_luminance())
                    .flatten(),
                content_scanout_fps: model
                    .reads_content_scanouts()
                    .then(|| e.panel.content_scanouts().rate_in(window_start, now)),
            };
            let power = model.power(&activity);
            e.power_meter.sample(now, power, &mut e.meter_rng);
        });
        self.schedule(now + POWER_SAMPLE_INTERVAL, Event::PowerSample);
    }

    fn finish(self, scratch: &mut RunScratch) -> RunResult {
        self.probe.enter(Layer::ScenarioFinish);
        let duration = self.scenario.duration;
        let end = self.end;
        let stats = self.flinger.stats();
        let secs = duration.as_secs_f64();

        let actual_fps = stats.content_submissions().count() as f64 / secs;
        let displayed_fps = stats.content_composed().count() as f64 / secs;
        let measured_fps = self.governor.meter().meaningful_frames().count() as f64 / secs;

        let touch_times: Vec<SimTime> = self.script.times().collect();
        let scanouts: Vec<SimTime> = self.panel.content_scanouts().iter().collect();
        let touch_latencies = ccdem_metrics::latency::input_to_photon(&touch_times, &scanouts);

        let avg_power_mw = self.power_meter.average_power(SimTime::ZERO, end).value();
        let avg_refresh_hz = self
            .controller
            .history()
            .time_weighted_mean(SimTime::ZERO, end);
        let refresh_switches = self.controller.switches();
        let quality_pct = ccdem_metrics::quality::display_quality_pct(displayed_fps, actual_fps);
        self.obs.emit("run.end", end, |event| {
            event
                .field("avg_power_mw", avg_power_mw)
                .field("avg_refresh_hz", avg_refresh_hz)
                .field("refresh_switches", refresh_switches)
                .field("quality_pct", quality_pct);
        });

        let result = RunResult {
            app_name: self.app.name().to_string(),
            app_class: self.app.class(),
            policy: self.scenario.governor.policy(),
            duration,
            avg_power_mw,
            power_per_second: self.power_meter.per_second(duration),
            refresh_trace: self.controller.history().clone(),
            refresh_switches,
            avg_refresh_hz,
            submissions_per_second: stats.submissions().per_second(duration),
            frame_rate_per_second: stats.composed().per_second(duration),
            actual_content_per_second: stats.content_submissions().per_second(duration),
            displayed_content_per_second: stats.content_composed().per_second(duration),
            measured_content_per_second: self
                .governor
                .meter()
                .meaningful_frames()
                .per_second(duration),
            touch_times,
            touch_latencies,
            actual_content_fps: actual_fps,
            displayed_content_fps: displayed_fps,
            measured_content_fps: measured_fps,
            panel_refreshes: self.panel.refresh_count(),
        };

        // Return every buffer to the scratch pool for the next run: the
        // compositor gives back the framebuffer and all surface buffers,
        // the governor its meter snapshots.
        let mut pool = self.flinger.into_pool();
        self.governor.recycle(&mut pool);
        scratch.pool = pool;
        self.probe.exit(Layer::ScenarioFinish);
        result
    }
}

/// Everything recorded from one scenario run.
///
/// Derives `PartialEq` so determinism tests can assert that a parallel
/// sweep reproduces a serial sweep field-for-field.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Workload name.
    pub app_name: String,
    /// Workload class.
    pub app_class: ccdem_workloads::app::AppClass,
    /// The policy that ran.
    pub policy: Policy,
    /// Run length.
    pub duration: SimDuration,
    /// Time-weighted average measured device power. (mW)
    pub avg_power_mw: f64,
    /// Per-second average power readings. (mW)
    pub power_per_second: Vec<f64>,
    /// Applied refresh rate over time. (Hz)
    pub refresh_trace: Trace,
    /// Number of refresh-rate switches applied.
    pub refresh_switches: u64,
    /// Time-weighted mean applied refresh rate. (Hz)
    pub avg_refresh_hz: f64,
    /// App submissions per second (pre-V-Sync frame requests).
    pub submissions_per_second: Vec<f64>,
    /// Composed frames per second (the paper's frame rate).
    pub frame_rate_per_second: Vec<f64>,
    /// Content frames the app produced, per second (actual content rate).
    pub actual_content_per_second: Vec<f64>,
    /// Content frames that reached the framebuffer, per second.
    pub displayed_content_per_second: Vec<f64>,
    /// Content frames the grid-based meter counted, per second.
    pub measured_content_per_second: Vec<f64>,
    /// Touch event times from the replayed script.
    pub touch_times: Vec<SimTime>,
    /// Input-to-photon latency per touch (delay from each touch to the
    /// first content-carrying scanout after it).
    pub touch_latencies: Vec<ccdem_simkit::time::SimDuration>,
    /// Mean actual content rate over the run. (fps)
    pub actual_content_fps: f64,
    /// Mean displayed content rate over the run. (fps)
    pub displayed_content_fps: f64,
    /// Mean meter-estimated content rate over the run. (fps)
    pub measured_content_fps: f64,
    /// Total hardware panel refreshes.
    pub panel_refreshes: usize,
}

impl RunResult {
    /// Mean dropped content frames per second (actual − displayed).
    pub fn dropped_fps(&self) -> f64 {
        ccdem_metrics::quality::dropped_fps(self.displayed_content_fps, self.actual_content_fps)
    }

    /// Display quality in percent (displayed / actual).
    pub fn quality_pct(&self) -> f64 {
        ccdem_metrics::quality::display_quality_pct(
            self.displayed_content_fps,
            self.actual_content_fps,
        )
    }

    /// Summary of the per-touch input-to-photon latencies.
    pub fn latency_summary(&self) -> ccdem_metrics::latency::LatencySummary {
        ccdem_metrics::latency::LatencySummary::of(&self.touch_latencies)
    }

    /// Mean composed frame rate over the run. (fps)
    pub fn mean_frame_rate(&self) -> f64 {
        if self.frame_rate_per_second.is_empty() {
            0.0
        } else {
            self.frame_rate_per_second.iter().sum::<f64>() / self.frame_rate_per_second.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccdem_workloads::catalog;

    fn quick(policy: Policy, seed: u64) -> RunResult {
        Scenario::new(Workload::App(catalog::facebook()), policy)
            .at_quarter_resolution()
            .with_duration(SimDuration::from_secs(10))
            .with_seed(seed)
            .run()
    }

    #[test]
    fn fixed_policy_never_switches() {
        let r = quick(Policy::FixedMax, 1);
        assert_eq!(r.refresh_switches, 0);
        assert!((r.avg_refresh_hz - 60.0).abs() < 1e-9);
    }

    #[test]
    fn section_policy_lowers_average_refresh() {
        let fixed = quick(Policy::FixedMax, 1);
        let section = quick(Policy::SectionOnly, 1);
        assert!(
            section.avg_refresh_hz < fixed.avg_refresh_hz - 10.0,
            "governed {} vs fixed {}",
            section.avg_refresh_hz,
            fixed.avg_refresh_hz
        );
        assert!(section.refresh_switches > 0);
    }

    #[test]
    fn governed_run_saves_power() {
        let fixed = quick(Policy::FixedMax, 2);
        let governed = quick(Policy::SectionWithBoost, 2);
        assert!(
            governed.avg_power_mw < fixed.avg_power_mw,
            "governed {} vs fixed {}",
            governed.avg_power_mw,
            fixed.avg_power_mw
        );
    }

    #[test]
    fn workload_identical_across_policies() {
        // The methodological cornerstone: same seed ⇒ same touch script
        // and same app content stream, regardless of policy.
        let a = quick(Policy::FixedMax, 3);
        let b = quick(Policy::SectionOnly, 3);
        assert_eq!(a.touch_times, b.touch_times);
        assert_eq!(a.actual_content_per_second, b.actual_content_per_second);
    }

    #[test]
    fn frame_rate_capped_by_refresh_rate() {
        let r = quick(Policy::SectionOnly, 4);
        for (sec, &fps) in r.frame_rate_per_second.iter().enumerate() {
            // Even a 60 fps burst cannot out-compose the highest rate.
            assert!(
                fps <= 61.0,
                "second {sec}: composed {fps} fps exceeds max refresh"
            );
        }
    }

    #[test]
    fn quality_at_fixed_rate_near_perfect() {
        let r = quick(Policy::FixedMax, 5);
        assert!(r.quality_pct() > 97.0, "quality {}", r.quality_pct());
    }

    #[test]
    fn runs_are_deterministic() {
        let a = quick(Policy::SectionWithBoost, 6);
        let b = quick(Policy::SectionWithBoost, 6);
        assert_eq!(a.avg_power_mw, b.avg_power_mw);
        assert_eq!(a.refresh_switches, b.refresh_switches);
        assert_eq!(a.measured_content_per_second, b.measured_content_per_second);
    }

    #[test]
    fn run_with_baseline_pairs_results() {
        let scenario = Scenario::new(Workload::App(catalog::jelly_splash()), Policy::SectionOnly)
            .at_quarter_resolution()
            .with_duration(SimDuration::from_secs(8));
        let (governed, baseline) = scenario.run_with_baseline();
        assert_eq!(governed.policy, Policy::SectionOnly);
        assert_eq!(baseline.policy, Policy::FixedMax);
        assert!(governed.avg_power_mw < baseline.avg_power_mw);
    }

    #[test]
    fn scaled_budget_floors_at_64() {
        assert_eq!(scaled_budget(Resolution::new(10, 10), 9216), 64);
    }

    #[test]
    fn status_bar_keeps_minimum_content_flowing() {
        // With the overlay, even a nearly static app produces ~1 content
        // frame per second (the clock), so the governor never sees a
        // fully dead screen.
        let quiet = Workload::App(catalog::by_name("Tiny Flashlight").expect("catalog app"));
        let without = Scenario::new(quiet.clone(), Policy::SectionOnly)
            .at_quarter_resolution()
            .with_duration(SimDuration::from_secs(10))
            .with_seed(8)
            .run();
        let with = Scenario::new(quiet, Policy::SectionOnly)
            .at_quarter_resolution()
            .with_duration(SimDuration::from_secs(10))
            .with_seed(8)
            .with_status_bar()
            .run();
        assert!(
            with.actual_content_fps > without.actual_content_fps + 0.5,
            "status bar should add ~1 content fps: {} vs {}",
            with.actual_content_fps,
            without.actual_content_fps
        );
        // And the clock pixels actually land on the glass.
        assert!(with.displayed_content_fps > without.displayed_content_fps + 0.5);
    }
}
