//! The engine's layer attribution, checked with a counting probe: hooks
//! balance and never nest, each layer's call count matches what the run
//! reports, and `NoProbe`, `Profiler` and the counting probe return
//! equal `RunResult`s, the profiler with one sample per call in its own
//! sketch of the layer.

use ccdem_core::governor::Policy;
use ccdem_experiments::profile::{Layer, Probe, Profiler};
use ccdem_experiments::scenario::{RunScratch, Scenario, Workload};
use ccdem_simkit::time::SimDuration;
use ccdem_workloads::catalog;

/// Counts hook calls; panics on an unbalanced or nested hook.
#[derive(Debug, Default)]
struct Counting {
    calls: [u64; 9],
    ticks: u64,
    open: Option<Layer>,
    in_tick: bool,
}

impl Probe for Counting {
    fn enter(&mut self, layer: Layer) {
        assert_eq!(self.open, None, "{layer:?} entered inside another layer");
        self.open = Some(layer);
    }

    fn exit(&mut self, layer: Layer) {
        assert_eq!(self.open.take(), Some(layer), "unbalanced exit");
        self.calls[layer as usize] += 1;
    }

    fn tick_start(&mut self) {
        assert!(!self.in_tick && self.open.is_none(), "tick opened inside");
        self.in_tick = true;
    }

    fn tick_end(&mut self) {
        assert!(self.in_tick && self.open.is_none(), "tick closed unopened");
        self.in_tick = false;
        self.ticks += 1;
    }
}

#[test]
fn every_layer_call_is_attributed_once_and_probes_change_no_result() {
    // Touches that boost, content frames, rate switches, and the status
    // bar's own tick.
    let scenario = Scenario::new(Workload::App(catalog::facebook()), Policy::SectionWithBoost)
        .at_quarter_resolution()
        .with_duration(SimDuration::from_secs(6))
        .with_seed(7)
        .with_status_bar();
    let unprobed = scenario.run_with_scratch(&mut RunScratch::new());
    let mut counting = Counting::default();
    let counted = scenario.run_probed(&mut RunScratch::new(), &mut counting);
    let mut profiler = Profiler::start();
    let profiled = scenario.run_probed(&mut RunScratch::new(), &mut profiler);
    assert_eq!(counted, unprobed, "the counting probe changed the result");
    assert_eq!(profiled, unprobed, "the profiler changed the result");
    assert!(counting.open.is_none() && !counting.in_tick);

    let c = |layer| counting.calls[layer as usize];
    let ticks = counting.ticks;
    // 6 s at the default 500 ms control window: ticks at 0.5 .. 5.5 s.
    assert_eq!(ticks, 11, "control ticks");
    let touches = unprobed.touch_times.len() as u64;
    let composed: f64 = unprobed.frame_rate_per_second.iter().sum();
    let vsyncs = unprobed.panel_refreshes as u64;
    // Each app frame and status-bar tick renders and submits once, and
    // each vsync composes once. Every event is popped once, plus the pop
    // that finds the end; every event but a touch schedules its successor.
    let submits = c(Layer::Workloads);
    let pops = submits + vsyncs + ticks + touches + c(Layer::Power) + 1;
    let schedules = pops - touches - 1;
    let want = [
        (Layer::ScenarioSetup, 1, "run"),
        (Layer::ScenarioFinish, 1, "run"),
        (Layer::CoreGovernor, ticks + touches, "tick or touch"),
        (Layer::CoreMeter, composed as u64, "composed frame"),
        (Layer::Compositor, submits + vsyncs, "submit or vsync"),
        (Layer::Power, 60, "100 ms"),
        (Layer::SimkitEvent, pops + schedules, "pop or schedule"),
    ];
    for (layer, calls, per) in want {
        assert_eq!(c(layer), calls, "{layer:?}: one call per {per}");
    }

    for (layer, sketch) in profiler.layers() {
        assert!(c(layer) > 0, "{layer:?} never called");
        let name = format!("profile.{}", layer.name());
        assert_eq!(sketch.count(), c(layer), "{name} samples");
    }
    assert_eq!(profiler.decision_tick().count(), ticks);
}
