//! The scenario engine's probe hooks, and the layer profiler behind
//! `ccdem profile`.
//!
//! The engine calls a [`Probe`] around every call into a layer of the
//! stack, tagged with its [`Layer`], and around every control tick.
//! [`Scenario::run_with_scratch`](crate::scenario::Scenario::run_with_scratch)
//! runs with [`NoProbe`], whose empty hooks compile away;
//! [`Scenario::run_probed`](crate::scenario::Scenario::run_probed) runs
//! with any other. A probe sees no engine state, so a probed run returns
//! the unprobed run's result.
//!
//! [`Profiler`] records each layer call's host nanoseconds into the
//! registry sketch `profile.<layer>`, and each control tick's into
//! `profile.decision_tick`: the paper's claim that the decision path is
//! cheap enough for every tick (§3.4), which the `profile_jsonl` test
//! holds to 200 µs at p99. Layers never nest, so a layer's time is its
//! self time.

use std::sync::Arc;
// ccdem-lint: allow(determinism) — host time feeds the profile.* sketches only, never a RunResult
use std::time::Instant;

use ccdem_obs::{metrics, AtomicSketch};

/// The layer of the display stack an engine call belongs to, in the
/// order `ccdem profile` prints them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Engine construction, through the initial schedule.
    ScenarioSetup,
    /// `AppModel::tick`/`render` and the status-bar fill.
    Workloads,
    /// `SurfaceFlinger::submit`/`compose`.
    Compositor,
    /// `Governor::on_framebuffer_update_damaged`: the content-rate meter.
    CoreMeter,
    /// `Governor::decide`/`on_touch`.
    CoreGovernor,
    /// `VsyncScheduler`, `RefreshController::poll`/`request`, `Panel::refresh`.
    Panel,
    /// One power sample: activity rates, power model, `PowerMeter::sample`.
    Power,
    /// `EventQueue::schedule`/`pop`.
    SimkitEvent,
    /// `RunResult` assembly and the buffer-pool recycle.
    ScenarioFinish,
}

impl Layer {
    /// Every layer, in print order.
    pub const ALL: [Layer; 9] = [
        Layer::ScenarioSetup,
        Layer::Workloads,
        Layer::Compositor,
        Layer::CoreMeter,
        Layer::CoreGovernor,
        Layer::Panel,
        Layer::Power,
        Layer::SimkitEvent,
        Layer::ScenarioFinish,
    ];

    /// The layer's name; [`Profiler`] records it as `profile.<name>`.
    pub fn name(self) -> &'static str {
        match self {
            Layer::ScenarioSetup => "scenario.setup",
            Layer::Workloads => "workloads",
            Layer::Compositor => "compositor",
            Layer::CoreMeter => "core.meter",
            Layer::CoreGovernor => "core.governor",
            Layer::Panel => "panel",
            Layer::Power => "power",
            Layer::SimkitEvent => "simkit.event",
            Layer::ScenarioFinish => "scenario.finish",
        }
    }
}

/// Hooks the scenario engine calls: [`enter`](Probe::enter) and
/// [`exit`](Probe::exit) around every call into a layer (layers never
/// nest), and [`tick_start`](Probe::tick_start) and
/// [`tick_end`](Probe::tick_end) around every control tick, whose layer
/// calls fall inside.
pub trait Probe {
    /// A call into `layer` starts.
    fn enter(&mut self, layer: Layer);
    /// The call into `layer` returns.
    fn exit(&mut self, layer: Layer);
    /// A control tick starts.
    fn tick_start(&mut self);
    /// The control tick ends.
    fn tick_end(&mut self);
}

/// The probe that does nothing: an unprobed run.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoProbe;

impl Probe for NoProbe {
    #[inline(always)]
    fn enter(&mut self, _: Layer) {}
    #[inline(always)]
    fn exit(&mut self, _: Layer) {}
    #[inline(always)]
    fn tick_start(&mut self) {}
    #[inline(always)]
    fn tick_end(&mut self) {}
}

/// Records host nanoseconds per layer call and per control tick into
/// the global registry's `profile.*` sketches.
#[derive(Debug)]
pub struct Profiler {
    /// One sketch per layer, in [`Layer::ALL`] order.
    layers: [Arc<AtomicSketch>; 9],
    decision_tick: Arc<AtomicSketch>,
    origin: Instant, // ccdem-lint: allow(determinism) — profile timing only
    /// Nanoseconds from `origin` to the open layer call and tick.
    entered_ns: u64,
    tick_started_ns: u64,
}

impl Profiler {
    /// Resolves (registering on first use) the ten sketches in the
    /// global registry, once, off the hot path.
    pub fn from_global_registry() -> Profiler {
        let registry = metrics();
        Profiler {
            layers: [
                registry.sketch("profile.scenario.setup"),
                registry.sketch("profile.workloads"),
                registry.sketch("profile.compositor"),
                registry.sketch("profile.core.meter"),
                registry.sketch("profile.core.governor"),
                registry.sketch("profile.panel"),
                registry.sketch("profile.power"),
                registry.sketch("profile.simkit.event"),
                registry.sketch("profile.scenario.finish"),
            ],
            decision_tick: registry.sketch("profile.decision_tick"),
            origin: Instant::now(), // ccdem-lint: allow(determinism) — profile timing only
            entered_ns: 0,
            tick_started_ns: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

impl Probe for Profiler {
    fn enter(&mut self, _: Layer) {
        self.entered_ns = self.now_ns();
    }

    fn exit(&mut self, layer: Layer) {
        let took = self.now_ns().saturating_sub(self.entered_ns);
        if let Some(sketch) = self.layers.get(layer as usize) {
            sketch.record(took);
        }
    }

    fn tick_start(&mut self) {
        self.tick_started_ns = self.now_ns();
    }

    fn tick_end(&mut self) {
        let took = self.now_ns().saturating_sub(self.tick_started_ns);
        self.decision_tick.record(took);
    }
}
