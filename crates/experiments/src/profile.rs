//! Decision-path profiler for the scenario engine.
//!
//! The governor's value proposition is that its decision path is cheap
//! enough to run on every control tick of a phone's display pipeline
//! (§3.3 of the paper argues the metering overhead is negligible). This
//! module makes that claim measurable: a [`Profiler`] holds one
//! [`AtomicSketch`] per engine phase, the engine wraps each phase in a
//! [`Span`](ccdem_obs::Span) that records into the matching sketch, and
//! the resulting latency distributions are mergeable across workers and
//! runs because the sketches use fixed deterministic bucketing.
//!
//! Phase sketches record **self time** (the phase's cost minus nested
//! phases), while `profile.decision_tick` records the **total** latency
//! of one control tick — the number the paper's feasibility argument
//! rests on, and the one the `profile_jsonl` test holds to 200 µs at p99.
//!
//! Profiling is opt-in per scenario
//! ([`Scenario::with_profiling`](crate::scenario::Scenario::with_profiling))
//! and strictly outward: sketches live in the global metrics registry,
//! never in [`RunResult`](crate::scenario::RunResult), so profiled runs
//! stay byte-identical to silent ones.

use std::sync::Arc;

use ccdem_obs::{metrics, AtomicSketch};

/// Sketch names the profiler records into, in decision-path order.
/// `profile.decision_tick` holds totals; the rest hold self times.
pub const PHASES: [&str; 5] = [
    "profile.compose",
    "profile.meter_gather",
    "profile.governor_decide",
    "profile.panel_switch",
    "profile.decision_tick",
];

/// Handles to the per-phase latency sketches in the global metrics
/// registry. Cloned cheaply (all `Arc`s); resolving names happens once
/// at construction, never on the hot path.
#[derive(Debug, Clone)]
pub struct Profiler {
    /// Self time of `SurfaceFlinger::compose` per vsync edge (ns).
    pub compose: Arc<AtomicSketch>,
    /// Self time of the governor's frame metering per composed frame (ns).
    pub meter_gather: Arc<AtomicSketch>,
    /// Self time of `Governor::decide` per control tick (ns).
    pub governor_decide: Arc<AtomicSketch>,
    /// Self time of the refresh-rate request per control tick (ns).
    pub panel_switch: Arc<AtomicSketch>,
    /// Total latency of one control tick (ns): decide + request + spill.
    pub decision_tick: Arc<AtomicSketch>,
}

impl Profiler {
    /// Resolves (registering on first use) the five phase sketches in
    /// the global registry. The literal names here are the single source
    /// of truth; [`PHASES`] mirrors them for reporting code.
    pub fn from_global_registry() -> Profiler {
        let registry = metrics();
        Profiler {
            compose: registry.sketch("profile.compose"),
            meter_gather: registry.sketch("profile.meter_gather"),
            governor_decide: registry.sketch("profile.governor_decide"),
            panel_switch: registry.sketch("profile.panel_switch"),
            decision_tick: registry.sketch("profile.decision_tick"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_names_match_the_registry_handles() {
        let profiler = Profiler::from_global_registry();
        // Re-resolving by the documented names must return the same
        // underlying sketches (Arc identity), so reports reading the
        // registry by PHASES see exactly what the engine recorded.
        let registry = metrics();
        for (name, handle) in PHASES.into_iter().zip([
            &profiler.compose,
            &profiler.meter_gather,
            &profiler.governor_decide,
            &profiler.panel_switch,
            &profiler.decision_tick,
        ]) {
            assert!(
                Arc::ptr_eq(handle, &registry.sketch(name)),
                "{name} resolved to a different sketch"
            );
        }
    }
}
