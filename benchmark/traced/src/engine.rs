//! `Scenario::run_with_scratch`, re-driven from each layer's public
//! functions with a span around every call.
//!
//! The event loop below follows the experiments crate's engine step for
//! step: the same random-stream forks, the same initial schedule order (the
//! event queue breaks time ties by scheduling order), the same handlers.
//! Telemetry and profiling stay off, as in every benchmark scenario. The
//! result must equal the untraced run's field for field; the traced runner
//! checks that on every run and the fidelity test pins it per workload
//! shape.

use ccdem_compositor::flinger::{ComposeOutcome, SurfaceFlinger};
use ccdem_compositor::surface::SurfaceId;
use ccdem_core::governor::Governor;
use ccdem_experiments::{RunResult, Scenario, Workload};
use ccdem_panel::controller::RefreshController;
use ccdem_panel::panel::Panel;
use ccdem_panel::vsync::VsyncScheduler;
use ccdem_pixelbuf::geometry::Rect;
use ccdem_pixelbuf::pixel::Pixel;
use ccdem_pixelbuf::pool::PixelPool;
use ccdem_power::meter::PowerMeter;
use ccdem_power::model::DisplayActivity;
use ccdem_simkit::event::EventQueue;
use ccdem_simkit::rng::SimRng;
use ccdem_simkit::time::{SimDuration, SimTime};
use ccdem_workloads::app::{AppModel, InputContext};
use ccdem_workloads::input::MonkeyScript;
use ccdem_workloads::switcher::AppSwitcher;

use crate::tracer::{Layer, Tracer};

const POWER_SAMPLE_INTERVAL: SimDuration = SimDuration::from_millis(100);
const ACTIVITY_WINDOW: SimDuration = SimDuration::from_secs(1);
const TOUCH_ACTIVE_WINDOW: SimDuration = SimDuration::from_millis(300);

#[derive(Debug, Clone, Copy)]
enum Event {
    AppFrame,
    Vsync,
    ControlTick,
    Touch,
    PowerSample,
    StatusBarTick,
}

/// Work counts of one run, read from the layers' public counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunCounts {
    /// Frames the meter observed.
    pub meter_frames: u64,
    /// Of those, frames resolved by the O(1) generation check.
    pub fast_path_frames: u64,
    /// Framebuffer pixels the meter read.
    pub points_read: u64,
    /// Grid points the meter compared.
    pub points_compared: u64,
    /// Tile signatures the meter checked.
    pub tiles_checked: u64,
    /// Checked tiles it descended into.
    pub tiles_descended: u64,
    /// Compositions that wrote the framebuffer.
    pub composes: u64,
    /// Σ damage area over those compositions. (pixels)
    pub damage_px: u64,
    /// Σ screen area over those compositions. (pixels)
    pub screen_px: u64,
    /// Σ damage rectangles over those compositions.
    pub damage_rects: u64,
    /// Refresh-rate switches the controller applied.
    pub switches: u64,
    /// Events the loop processed.
    pub events: u64,
    /// Timestamps and trace samples the layers hold at run end.
    pub retained: u64,
}

impl RunCounts {
    /// Adds `other` into `self`; `retained` keeps the larger.
    pub fn add(&mut self, other: &RunCounts) {
        self.meter_frames += other.meter_frames;
        self.fast_path_frames += other.fast_path_frames;
        self.points_read += other.points_read;
        self.points_compared += other.points_compared;
        self.tiles_checked += other.tiles_checked;
        self.tiles_descended += other.tiles_descended;
        self.composes += other.composes;
        self.damage_px += other.damage_px;
        self.screen_px += other.screen_px;
        self.damage_rects += other.damage_rects;
        self.switches += other.switches;
        self.events += other.events;
        self.retained = self.retained.max(other.retained);
    }
}

/// Runs `scenario` as `Scenario::run_with_scratch` does, drawing buffers
/// from `pool` and returning them to it, with every layer call traced.
/// `None` for workload kinds the benchmark does not drive (only
/// `Workload::App` and `Workload::Mixed` are supported).
pub fn run_traced(
    scenario: &Scenario,
    pool: &mut PixelPool,
    tracer: &mut Tracer,
) -> Option<(RunResult, RunCounts)> {
    let open = tracer.start();
    let engine = Engine::new(scenario, pool);
    tracer.end(open, Layer::ScenarioSetup);
    Some(engine?.run(pool, tracer))
}

fn instantiate(workload: &Workload) -> Option<Box<dyn AppModel>> {
    match workload {
        Workload::App(spec) => Some(Box::new(spec.instantiate())),
        Workload::Mixed { apps, segment } => Some(Box::new(AppSwitcher::new(
            apps.iter()
                .map(|a| Box::new(a.instantiate()) as Box<dyn AppModel>)
                .collect(),
            *segment,
        ))),
        _ => None,
    }
}

struct Engine<'a> {
    scenario: &'a Scenario,
    end: SimTime,
    queue: EventQueue<Event>,
    app: Box<dyn AppModel>,
    app_rng: SimRng,
    meter_rng: SimRng,
    flinger: SurfaceFlinger,
    surface: SurfaceId,
    status_bar: Option<SurfaceId>,
    status_ticks: u64,
    governor: Governor,
    controller: RefreshController,
    vsync: VsyncScheduler,
    panel: Panel,
    power_meter: PowerMeter,
    input: InputContext,
    script: MonkeyScript,
    counts: RunCounts,
}

impl<'a> Engine<'a> {
    fn new(scenario: &'a Scenario, pool: &mut PixelPool) -> Option<Engine<'a>> {
        let device = &scenario.device;
        let resolution = device.resolution();
        let root = SimRng::seed_from_u64(scenario.seed);
        let app_rng = root.fork(1);
        let mut script_rng = root.fork(2);
        let meter_rng = root.fork(3);

        if !matches!(scenario.workload, Workload::App(_) | Workload::Mixed { .. }) {
            return None;
        }
        let mut pool = std::mem::take(pool);
        let mut governor = Governor::with_scratch(
            device.rates().clone(),
            resolution,
            scenario.governor,
            &mut pool,
        );
        let mut flinger = SurfaceFlinger::with_pool(resolution, pool);
        flinger.set_naive_compose(scenario.governor.naive_metering());
        let app = instantiate(&scenario.workload)?;
        let surface = flinger.create_surface(app.name().to_string());
        let status_bar = scenario.status_bar.then(|| {
            let id = flinger.create_surface("status bar");
            let bar = flinger.surface_mut(id).expect("just created");
            bar.set_z_order(1);
            bar.set_bounds(Rect::new(
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

        Some(Engine {
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
            counts: RunCounts::default(),
        })
    }

    fn run(mut self, pool: &mut PixelPool, t: &mut Tracer) -> (RunResult, RunCounts) {
        loop {
            let open = t.start();
            let next = self.queue.pop();
            t.end(open, Layer::SimkitEvent);
            let Some((now, event)) = next else { break };
            if now >= self.end {
                break;
            }
            self.counts.events += 1;
            match event {
                Event::AppFrame => self.on_app_frame(now, t),
                Event::Vsync => self.on_vsync(t),
                Event::ControlTick => self.on_control_tick(now, t),
                Event::Touch => self.on_touch(now, t),
                Event::PowerSample => self.on_power_sample(now, t),
                Event::StatusBarTick => self.on_status_bar_tick(now, t),
            }
        }
        self.count_at_end();
        let open = t.start();
        let done = self.finish(pool);
        t.end(open, Layer::ScenarioFinish);
        done
    }

    fn schedule(&mut self, at: SimTime, event: Event, t: &mut Tracer) {
        let open = t.start();
        self.queue.schedule(at, event);
        t.end(open, Layer::SimkitEvent);
    }

    fn on_app_frame(&mut self, now: SimTime, t: &mut Tracer) {
        let open = t.start();
        let tick = self.app.tick(now, &self.input, &mut self.app_rng);
        if tick.change.is_content() {
            let surface = self
                .flinger
                .surface_mut(self.surface)
                .expect("engine-created surface");
            self.app
                .render(tick.change, surface.buffer_mut(), &mut self.app_rng);
        }
        t.end(open, Layer::Workloads);
        let open = t.start();
        self.flinger
            .submit(self.surface, now, tick.change.is_content())
            .expect("engine-created surface");
        t.end(open, Layer::Compositor);
        self.schedule(now + tick.next_in, Event::AppFrame, t);
    }

    fn on_vsync(&mut self, t: &mut Tracer) {
        let open = t.start();
        let edge = self.vsync.advance();
        if let Some(rate) = self.controller.poll(edge) {
            self.vsync.set_rate(rate);
        }
        t.end(open, Layer::Panel);
        let open = t.start();
        let outcome = self.flinger.compose(edge);
        t.end(open, Layer::Compositor);
        if let ComposeOutcome::Composed { damage, .. } = outcome {
            self.counts.composes += 1;
            self.counts.damage_px += damage.area();
            self.counts.screen_px += self.flinger.resolution().pixel_count() as u64;
            self.counts.damage_rects += damage.rects().len() as u64;
            let open = t.start();
            self.governor
                .on_framebuffer_update_damaged(self.flinger.framebuffer(), &damage, edge);
            t.end(open, Layer::CoreMeter);
        }
        let open = t.start();
        self.panel
            .refresh(edge, self.flinger.framebuffer().generation());
        let next = self.vsync.next_edge();
        t.end(open, Layer::Panel);
        self.schedule(next, Event::Vsync, t);
    }

    fn on_control_tick(&mut self, now: SimTime, t: &mut Tracer) {
        let open = t.start();
        let rate = self.governor.decide(now);
        t.end(open, Layer::CoreGovernor);
        let open = t.start();
        self.controller
            .request(rate, now)
            .expect("governor only emits supported rates");
        t.end(open, Layer::Panel);
        self.schedule(
            now + self.scenario.governor.control_window(),
            Event::ControlTick,
            t,
        );
    }

    fn on_touch(&mut self, now: SimTime, t: &mut Tracer) {
        self.input.last_touch = Some(now);
        let open = t.start();
        let boost = self.governor.on_touch(now);
        t.end(open, Layer::CoreGovernor);
        if let Some(rate) = boost {
            let open = t.start();
            self.controller
                .request(rate, now)
                .expect("governor only emits supported rates");
            t.end(open, Layer::Panel);
        }
    }

    fn on_status_bar_tick(&mut self, now: SimTime, t: &mut Tracer) {
        let Some(id) = self.status_bar else { return };
        let open = t.start();
        self.status_ticks += 1;
        let tick = self.status_ticks;
        let bar = self
            .flinger
            .surface_mut(id)
            .expect("engine-created surface");
        let bounds = bar.bounds();
        let digits = Rect::new(
            bounds.width / 8,
            bounds.y,
            (bounds.width / 6).max(1),
            bounds.height,
        );
        bar.buffer_mut()
            .fill_rect(digits, Pixel::grey(100 + (tick % 100) as u8));
        t.end(open, Layer::Workloads);
        let open = t.start();
        self.flinger
            .submit(id, now, true)
            .expect("engine-created surface");
        t.end(open, Layer::Compositor);
        self.schedule(now + SimDuration::from_secs(1), Event::StatusBarTick, t);
    }

    fn on_power_sample(&mut self, now: SimTime, t: &mut Tracer) {
        let open = t.start();
        let window_start = if now.as_micros() >= ACTIVITY_WINDOW.as_micros() {
            now - ACTIVITY_WINDOW
        } else {
            SimTime::ZERO
        };
        let composed_fps = self.flinger.stats().composed().rate_in(window_start, now);
        let activity = DisplayActivity {
            refresh_hz: self.controller.current().hz_f64(),
            composed_fps,
            touch_active: self.input.touched_within(now, TOUCH_ACTIVE_WINDOW),
            mean_luminance: self.governor.meter().mean_sampled_luminance(),
            content_scanout_fps: Some(self.panel.content_scanouts().rate_in(window_start, now)),
        };
        let power = self.scenario.power.power(&activity);
        self.power_meter.sample(now, power, &mut self.meter_rng);
        t.end(open, Layer::Power);
        self.schedule(now + POWER_SAMPLE_INTERVAL, Event::PowerSample, t);
    }

    /// Reads the layers' work counters and retained state before `finish`
    /// consumes them.
    fn count_at_end(&mut self) {
        let meter = self.governor.meter();
        let stats = self.flinger.stats();
        let c = &mut self.counts;
        c.meter_frames = meter.frames().count() as u64;
        c.fast_path_frames = meter.fast_path_frames();
        c.points_read = meter.points_read();
        c.points_compared = meter.points_compared();
        c.tiles_checked = meter.tiles_checked();
        c.tiles_descended = meter.tiles_descended();
        c.switches = self.controller.switches();
        let counters = [
            stats.submissions(),
            stats.content_submissions(),
            stats.composed(),
            stats.content_composed(),
            meter.frames(),
            meter.meaningful_frames(),
            self.panel.refreshes(),
            self.panel.content_scanouts(),
        ];
        let traces = [
            self.controller.history(),
            self.power_meter.trace(),
            self.governor.decisions(),
        ];
        c.retained = counters
            .iter()
            .map(|e| e.retained_len() as u64)
            .sum::<u64>()
            + traces.iter().map(|tr| tr.len() as u64).sum::<u64>();
    }

    fn finish(self, pool: &mut PixelPool) -> (RunResult, RunCounts) {
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
        let result = RunResult {
            app_name: self.app.name().to_string(),
            app_class: self.app.class(),
            policy: self.scenario.governor.policy(),
            duration,
            avg_power_mw,
            power_per_second: self.power_meter.per_second(duration),
            refresh_trace: self.controller.history().clone(),
            refresh_switches: self.controller.switches(),
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

        let mut recycled = self.flinger.into_pool();
        self.governor.recycle(&mut recycled);
        *pool = recycled;
        (result, self.counts)
    }
}
