//! Spans around calls into each layer, aggregated in memory per run and
//! layer.
//!
//! A span carries its layer, start, end and run id. The tracer folds each
//! closed span into the open run's per-layer totals (host time, calls,
//! heap allocations) and writes the run's totals out when the run ends.
//! Spans never nest, so per-layer times are self times and their sum plus
//! the unattributed rest is the traced wall time.

use std::time::Instant;

use crate::alloc;

/// The layers spans are attributed to, named after their crate and
/// module.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Engine construction.
    ScenarioSetup,
    /// App tick and render, status-bar fill.
    Workloads,
    /// Compositor submit and compose.
    Compositor,
    /// Content-rate metering of each composed frame.
    CoreMeter,
    /// Governor decisions and touch boosts.
    CoreGovernor,
    /// V-Sync, refresh controller and panel scanout.
    Panel,
    /// Power model evaluation and sampling.
    Power,
    /// Event-queue schedule and pop.
    SimkitEvent,
    /// `RunResult` assembly and buffer recycling.
    ScenarioFinish,
    /// Fleet device sampling.
    FleetSample,
    /// Campaign statistics folding.
    Campaign,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 11] = [
        Layer::ScenarioSetup,
        Layer::Workloads,
        Layer::Compositor,
        Layer::CoreMeter,
        Layer::CoreGovernor,
        Layer::Panel,
        Layer::Power,
        Layer::SimkitEvent,
        Layer::ScenarioFinish,
        Layer::FleetSample,
        Layer::Campaign,
    ];

    /// The layer's metric-name prefix.
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
            Layer::FleetSample => "fleet.sample",
            Layer::Campaign => "campaign",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Host time, calls and allocations of one layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTotals {
    /// Host time inside the layer's spans. (ns)
    pub ns: u64,
    /// Spans closed.
    pub calls: u64,
    /// Heap allocations made inside the spans.
    pub allocs: u64,
}

impl LayerTotals {
    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &LayerTotals) {
        self.ns += other.ns;
        self.calls += other.calls;
        self.allocs += other.allocs;
    }
}

/// A span's opening: its start and the allocation count then.
#[derive(Debug, Clone, Copy)]
pub struct Open {
    start: Instant,
    allocs: u64,
}

/// One closed span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The layer called.
    pub layer: Layer,
    /// When the call began.
    pub start: Instant,
    /// When it returned.
    pub end: Instant,
    /// The run it belongs to.
    pub run: u64,
    /// Heap allocations it made.
    pub allocs: u64,
}

/// Per-layer totals of one finished run.
#[derive(Debug, Clone)]
pub struct RunTrace {
    /// The run id.
    pub run: u64,
    /// Totals by [`Layer::ALL`] position.
    pub layers: [LayerTotals; Layer::ALL.len()],
}

/// The in-memory span aggregator.
#[derive(Debug, Default)]
pub struct Tracer {
    run: u64,
    open_run: [LayerTotals; Layer::ALL.len()],
    /// Per-run totals, written when each run ends.
    pub runs: Vec<RunTrace>,
    /// Duration of every metering call. (ns)
    pub meter_ns: Vec<u64>,
    /// Duration of every governor call. (ns)
    pub governor_ns: Vec<u64>,
}

impl Tracer {
    /// An empty tracer.
    pub fn new() -> Tracer {
        Tracer::default()
    }

    /// Opens a span.
    #[inline]
    pub fn start(&self) -> Open {
        Open {
            allocs: alloc::allocations(),
            start: Instant::now(),
        }
    }

    /// Closes the span `open` as a call into `layer`.
    #[inline]
    pub fn end(&mut self, open: Open, layer: Layer) {
        let end = Instant::now();
        let span = Span {
            layer,
            start: open.start,
            end,
            run: self.run,
            allocs: alloc::allocations() - open.allocs,
        };
        self.record(&span);
    }

    fn record(&mut self, span: &Span) {
        let ns = span.end.duration_since(span.start).as_nanos() as u64;
        match span.layer {
            Layer::CoreMeter => self.meter_ns.push(ns),
            Layer::CoreGovernor => self.governor_ns.push(ns),
            _ => {}
        }
        let totals = &mut self.open_run[span.layer.index()];
        totals.ns += ns;
        totals.calls += 1;
        totals.allocs += span.allocs;
    }

    /// Ends the open run, writing out its totals, and opens the next.
    pub fn end_run(&mut self) {
        self.runs.push(RunTrace {
            run: self.run,
            layers: std::mem::take(&mut self.open_run),
        });
        self.run += 1;
    }

    /// Totals over every finished run, by [`Layer::ALL`] position.
    pub fn totals(&self) -> [LayerTotals; Layer::ALL.len()] {
        let mut sum = [LayerTotals::default(); Layer::ALL.len()];
        for run in &self.runs {
            for (total, layer) in sum.iter_mut().zip(&run.layers) {
                total.add(layer);
            }
        }
        sum
    }
}

/// The `q`-quantile (nearest rank) of `values`, sorting them; 0 when
/// empty.
pub fn quantile(values: &mut [u64], q: f64) -> u64 {
    if values.is_empty() {
        return 0;
    }
    values.sort_unstable();
    let rank = (q * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}
