//! Rendering of telemetry-metrics snapshots for experiment reports.
//!
//! Turns a [`MetricsSnapshot`] — typically the delta between snapshots
//! taken before and after a sweep — into the same plain-text table style
//! as the rest of the reports, followed by ASCII renderings of any
//! non-empty histograms.

use ccdem_obs::{MetricsSnapshot, QuantileSketch};

use crate::table::TextTable;

/// Renders `snapshot` as a text table of counters and gauges followed by
/// histogram plots.
///
/// `runs`, when given, adds a per-run column dividing each counter by the
/// number of simulation runs the snapshot covers — the natural reading
/// for counters accumulated across a sweep.
///
/// # Examples
///
/// ```
/// use ccdem_metrics::obs_report::obs_summary;
/// use ccdem_obs::MetricsRegistry;
///
/// let registry = MetricsRegistry::new();
/// registry.counter("meter.frames").add(120);
/// registry.gauge("meter.grid_px").set(9216.0);
/// let text = obs_summary(&registry.snapshot(), Some(2));
/// assert!(text.contains("meter.frames"));
/// assert!(text.contains("60")); // 120 frames over 2 runs
/// ```
pub fn obs_summary(snapshot: &MetricsSnapshot, runs: Option<usize>) -> String {
    if snapshot.counters.is_empty()
        && snapshot.gauges.is_empty()
        && snapshot.histograms.is_empty()
        && snapshot.sketches.is_empty()
    {
        return String::from("no telemetry metrics recorded\n");
    }

    let mut table = match runs {
        Some(_) => TextTable::new(["metric", "kind", "value", "per-run"]),
        None => TextTable::new(["metric", "kind", "value"]),
    };
    for (name, &value) in &snapshot.counters {
        let mut cells = vec![name.clone(), "counter".into(), value.to_string()];
        if let Some(runs) = runs {
            cells.push(format!("{:.1}", value as f64 / runs.max(1) as f64));
        }
        table.row(cells);
    }
    for (name, &value) in &snapshot.gauges {
        let mut cells = vec![name.clone(), "gauge".into(), format!("{value:.1}")];
        if runs.is_some() {
            cells.push(String::from("-"));
        }
        table.row(cells);
    }

    let mut out = table.to_string();
    for (name, histogram) in &snapshot.histograms {
        if histogram.total() == 0 {
            continue;
        }
        out.push('\n');
        out.push_str(&format!("{name} ({} samples)\n", histogram.total()));
        out.push_str(&histogram.to_string());
    }
    let live_sketches: Vec<_> = snapshot
        .sketches
        .iter()
        .filter(|(_, s)| !s.is_empty())
        .collect();
    if !live_sketches.is_empty() {
        out.push('\n');
        out.push_str("latency sketches (µs):\n");
        let mut t = TextTable::new(["sketch", "samples", "p50", "p90", "p99", "max"]);
        for (name, sketch) in live_sketches {
            t.row(sketch_row(name, sketch));
        }
        out.push_str(&t.to_string());
    }
    out
}

/// Converts a nanosecond tick count to a microsecond display value.
fn ns_to_us(ticks: u64) -> f64 {
    ticks as f64 / 1e3
}

fn sketch_row(name: &str, sketch: &QuantileSketch) -> [String; 6] {
    let q = |q: f64| format!("{:.1}", ns_to_us(sketch.quantile(q).unwrap_or(0)));
    [
        name.to_string(),
        sketch.count().to_string(),
        q(0.5),
        q(0.9),
        q(0.99),
        format!("{:.1}", ns_to_us(sketch.max().unwrap_or(0))),
    ]
}

/// Renders the decision-path profile carried by `snapshot` — the
/// `profile.*` latency sketches the engine records when a scenario runs
/// with profiling on (spans record **nanoseconds**; this report displays
/// **microseconds**).
///
/// The output is one self-time table ("profile self-time by phase") —
/// per-phase sample counts, p50/p90/p99/max self time, and the total
/// milliseconds spent in the phase — followed by one summary line of
/// decision-tick latency percentiles (the end-to-end cost of a control
/// tick, the paper's feasibility headline). Returns a placeholder when
/// the snapshot holds no profile samples.
pub fn profile_summary(snapshot: &MetricsSnapshot) -> String {
    let phases: Vec<_> = snapshot
        .sketches
        .iter()
        .filter(|(name, sketch)| {
            name.starts_with("profile.") && name.as_str() != TICK_SKETCH && !sketch.is_empty()
        })
        .collect();
    let tick = snapshot.sketches.get(TICK_SKETCH).filter(|s| !s.is_empty());
    if phases.is_empty() && tick.is_none() {
        return String::from("no profile samples recorded (run with profiling enabled)\n");
    }

    let mut out = String::from("profile self-time by phase (µs):\n");
    let mut t = TextTable::new(["phase", "samples", "p50", "p90", "p99", "max", "total (ms)"]);
    for (name, sketch) in phases {
        let mut row = sketch_row(name, sketch).to_vec();
        row.push(format!("{:.2}", sketch.sum() as f64 / 1e6));
        t.row(row);
    }
    out.push_str(&t.to_string());
    if let Some(tick) = tick {
        let q = |q: f64| ns_to_us(tick.quantile(q).unwrap_or(0));
        out.push_str(&format!(
            "decision tick: {} ticks, p50 {:.1} µs, p90 {:.1} µs, p99 {:.1} µs, max {:.1} µs\n",
            tick.count(),
            q(0.5),
            q(0.9),
            q(0.99),
            ns_to_us(tick.max().unwrap_or(0)),
        ));
    }
    out
}

/// The sketch holding whole-tick latencies, reported separately from the
/// per-phase self times.
const TICK_SKETCH: &str = "profile.decision_tick";

#[cfg(test)]
mod tests {
    use super::*;
    use ccdem_obs::MetricsRegistry;

    #[test]
    fn empty_snapshot_renders_placeholder() {
        let registry = MetricsRegistry::new();
        let text = obs_summary(&registry.snapshot(), None);
        assert!(text.contains("no telemetry metrics"));
    }

    #[test]
    fn counters_gauges_and_histograms_all_render() {
        let registry = MetricsRegistry::new();
        registry.counter("governor.decisions").add(33);
        registry.gauge("meter.grid_px").set(2304.0);
        let h = registry.histogram("governor.content_fps", 0.0, 60.0, 6);
        h.record(5.0);
        h.record(25.0);
        let text = obs_summary(&registry.snapshot(), Some(3));
        assert!(text.contains("governor.decisions"));
        assert!(text.contains("11.0"), "per-run column missing:\n{text}");
        assert!(text.contains("meter.grid_px"));
        assert!(text.contains("2304.0"));
        assert!(text.contains("governor.content_fps (2 samples)"));
        assert!(text.contains('#'), "histogram bars missing:\n{text}");
    }

    #[test]
    fn sketches_render_in_microseconds() {
        let registry = MetricsRegistry::new();
        registry.counter("governor.decisions").inc();
        let sketch = registry.sketch("meter.diff_ns");
        sketch.record(2_000); // 2 µs
        sketch.record(10_000); // 10 µs
        let text = obs_summary(&registry.snapshot(), None);
        assert!(text.contains("latency sketches"));
        assert!(text.contains("meter.diff_ns"));
        // Max column: 10 000 ns → 10.0 µs (exact; max is tracked exactly).
        assert!(text.contains("10.0"), "µs conversion missing:\n{text}");
    }

    #[test]
    fn profile_summary_renders_phases_and_tick_line() {
        let registry = MetricsRegistry::new();
        registry.sketch("profile.governor_decide").record(4_000);
        registry.sketch("profile.governor_decide").record(6_000);
        registry.sketch("profile.decision_tick").record(12_000);
        let text = profile_summary(&registry.snapshot());
        assert!(text.contains("profile self-time by phase"));
        assert!(text.contains("profile.governor_decide"));
        // The tick sketch goes to the summary line, not the table.
        assert!(!text.contains("profile.decision_tick"));
        assert!(text.contains("decision tick: 1 ticks"));
        assert!(text.contains("max 12.0 µs"));
    }

    #[test]
    fn profile_summary_placeholder_without_samples() {
        let registry = MetricsRegistry::new();
        registry.counter("unrelated").inc();
        let text = profile_summary(&registry.snapshot());
        assert!(text.contains("no profile samples"));
    }

    #[test]
    fn empty_histograms_are_omitted() {
        let registry = MetricsRegistry::new();
        registry.counter("c").inc();
        let _ = registry.histogram("h", 0.0, 1.0, 2);
        let text = obs_summary(&registry.snapshot(), None);
        assert!(!text.contains("h ("));
    }
}
