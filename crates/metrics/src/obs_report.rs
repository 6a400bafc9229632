//! Rendering of telemetry for experiment reports, in the same
//! plain-text table style as the rest of the reports.
//!
//! [`obs_summary`] renders a [`MetricsSnapshot`] of the process-wide
//! registry, which holds the totals every run published when it finished.
//! [`profile_summary`] renders the layer profiler's own sketches. Every
//! sketch records thousandths of the unit it is printed in, so one ÷1000
//! turns any sketch's ticks into display values.

use std::time::Duration;

use ccdem_obs::{MetricsSnapshot, QuantileSketch};

use crate::table::TextTable;

/// Renders `snapshot` as a text table of counters and gauges followed by
/// one table of the non-empty sketches, each row in its own unit.
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
/// registry.add("meter.frames", 120);
/// registry.set("meter.grid_px", 9216.0);
/// let text = obs_summary(&registry.snapshot(), Some(2));
/// assert!(text.contains("meter.frames"));
/// assert!(text.contains("60")); // 120 frames over 2 runs
/// ```
pub fn obs_summary(snapshot: &MetricsSnapshot, runs: Option<usize>) -> String {
    if snapshot.counters.is_empty() && snapshot.gauges.is_empty() && snapshot.sketches.is_empty() {
        return String::from("no telemetry metrics recorded\n");
    }

    let mut table = match runs {
        Some(_) => TextTable::new(["metric", "kind", "value", "per-run"]),
        None => TextTable::new(["metric", "kind", "value"]),
    };
    for (name, &value) in &snapshot.counters {
        let mut cells = vec![name.to_string(), "counter".into(), value.to_string()];
        if let Some(runs) = runs {
            cells.push(format!("{:.1}", value as f64 / runs.max(1) as f64));
        }
        table.row(cells);
    }
    for (name, &value) in &snapshot.gauges {
        let mut cells = vec![name.to_string(), "gauge".into(), format!("{value:.1}")];
        if runs.is_some() {
            cells.push(String::from("-"));
        }
        table.row(cells);
    }

    let mut out = table.to_string();
    let live_sketches: Vec<_> = snapshot
        .sketches
        .iter()
        .filter(|(_, s)| !s.is_empty())
        .collect();
    if !live_sketches.is_empty() {
        out.push('\n');
        out.push_str("sketches:\n");
        let mut t = TextTable::new(["sketch", "unit", "samples", "p50", "p90", "p99", "max"]);
        for (name, sketch) in live_sketches {
            let mut row = sketch_row(name, sketch).to_vec();
            row.insert(1, sketch_unit(name).to_string());
            t.row(row);
        }
        out.push_str(&t.to_string());
    }
    out
}

/// The unit a sketch is printed in: frames per second for the `*_fps`
/// rates, microseconds for latencies (which record nanoseconds).
fn sketch_unit(name: &str) -> &'static str {
    if name.ends_with("_fps") {
        "fps"
    } else {
        "µs"
    }
}

/// Converts a sketch tick (a thousandth of the printed unit) to its
/// display value.
fn from_thousandths(ticks: u64) -> f64 {
    ticks as f64 / 1e3
}

fn sketch_row(name: &str, sketch: &QuantileSketch) -> [String; 6] {
    let q = |q: f64| format!("{:.1}", from_thousandths(sketch.quantile(q).unwrap_or(0)));
    [
        name.to_string(),
        sketch.count().to_string(),
        q(0.5),
        q(0.9),
        q(0.99),
        format!("{:.1}", from_thousandths(sketch.max().unwrap_or(0))),
    ]
}

/// Renders the layer profiler's sketches (nanoseconds, printed in µs):
/// one table row per `(layer, sketch)` of `layers`, in that order, with
/// calls, p50/p90/p99/max per call, total milliseconds and share of
/// `run`, the run's host wall time; a line comparing the layers' sum with
/// `run`; and, when `decision_tick` holds ticks, its percentiles (the
/// end-to-end cost of a control tick, the paper's feasibility headline).
pub fn profile_summary<'a>(
    layers: impl IntoIterator<Item = (&'a str, &'a QuantileSketch)>,
    decision_tick: &QuantileSketch,
    run: Duration,
) -> String {
    let run_ms = run.as_secs_f64() * 1e3;
    let share = |ms: f64| format!("{:.1}", ms / run_ms * 100.0);
    let mut t = TextTable::new([
        "layer",
        "calls",
        "p50",
        "p90",
        "p99",
        "max",
        "total (ms)",
        "% of run",
    ]);
    let mut sum_ms = 0.0;
    for (layer, sketch) in layers {
        let total_ms = sketch.sum() as f64 / 1e6;
        sum_ms += total_ms;
        let mut row = sketch_row(layer, sketch).to_vec();
        row.push(format!("{total_ms:.3}"));
        row.push(share(total_ms));
        t.row(row);
    }
    let mut out = format!("profile by layer (µs per call):\n{t}");
    out.push_str(&format!(
        "Σ layers: {sum_ms:.3} ms of the run's {run_ms:.3} ms wall time ({} %)\n",
        share(sum_ms)
    ));
    if !decision_tick.is_empty() {
        let q = |q: f64| from_thousandths(decision_tick.quantile(q).unwrap_or(0));
        out.push_str(&format!(
            "decision tick: {} ticks, p50 {:.1} µs, p90 {:.1} µs, p99 {:.1} µs, max {:.1} µs\n",
            decision_tick.count(),
            q(0.5),
            q(0.9),
            q(0.99),
            from_thousandths(decision_tick.max().unwrap_or(0)),
        ));
    }
    out
}

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

    /// The whitespace-separated cells of the table row named `name`.
    fn row<'a>(text: &'a str, name: &str) -> Vec<&'a str> {
        let line = text
            .lines()
            .find(|l| l.split_whitespace().next() == Some(name))
            .unwrap_or_else(|| panic!("no {name} row:\n{text}"));
        line.split_whitespace().collect()
    }

    #[test]
    fn counters_gauges_and_sketches_all_render() {
        let registry = MetricsRegistry::new();
        registry.add("governor.decisions", 33);
        registry.set("meter.grid_px", 2304.0);
        let mut fps = QuantileSketch::new();
        fps.record(5_000); // 5 fps
        fps.record(25_000); // 25 fps
        registry.merge("governor.content_fps", &fps);
        let mut latency = QuantileSketch::new();
        latency.record(10_000); // 10 µs
        registry.merge("test.latency", &latency);
        let text = obs_summary(&registry.snapshot(), Some(3));
        assert_eq!(
            row(&text, "governor.decisions"),
            ["governor.decisions", "counter", "33", "11.0"]
        );
        assert_eq!(
            row(&text, "meter.grid_px"),
            ["meter.grid_px", "gauge", "2304.0", "-"]
        );
        // One sketch table, one ÷1000, each row in its own unit; the max
        // column is exact (sketches track max exactly).
        assert_eq!(
            text.matches("sketch ").count(),
            1,
            "one sketch table:\n{text}"
        );
        let content = row(&text, "governor.content_fps");
        assert_eq!(content[1..3], ["fps", "2"]);
        assert_eq!(content.last(), Some(&"25.0"));
        let latency = row(&text, "test.latency");
        assert_eq!(latency[1..3], ["µs", "1"]);
        assert_eq!(latency.last(), Some(&"10.0"));
    }

    #[test]
    fn profile_summary_prints_layers_in_order_their_sum_and_the_tick_line() {
        let sketch = |samples: &[u64]| {
            let mut sketch = QuantileSketch::new();
            samples.iter().for_each(|&v| sketch.record(v));
            sketch
        };
        let workloads = sketch(&[4_000_000]); // 4 ms
        let compositor = sketch(&[1_000, 1_000_000]); // 1 µs, 1 ms
        let panel = sketch(&[]);
        let layers = [
            ("workloads", &workloads),
            ("compositor", &compositor),
            ("panel", &panel),
        ];
        let names = layers.map(|(name, _)| name);
        let text = profile_summary(layers, &sketch(&[12_000]), Duration::from_millis(10));
        // Layer order, not name order; a layer without calls still prints.
        let rows: Vec<&str> = text
            .lines()
            .filter_map(|l| l.split_whitespace().next())
            .filter(|cell| names.contains(cell))
            .collect();
        assert_eq!(rows, names, "{text}");
        assert_eq!(
            row(&text, "compositor").join(" "),
            "compositor 2 1.0 1000.0 1000.0 1000.0 1.001 10.0"
        );
        assert_eq!(row(&text, "panel")[1..2], ["0"]);
        assert!(
            text.contains("Σ layers: 5.001 ms of the run's 10.000 ms wall time (50.0 %)"),
            "{text}"
        );
        assert!(text.contains("decision tick: 1 ticks"), "{text}");
        assert!(text.contains("max 12.0 µs"));
        // No ticks, no tick line.
        let idle = profile_summary(layers, &panel, Duration::from_millis(10));
        assert!(!idle.contains("decision tick"), "{idle}");
    }

    #[test]
    fn empty_sketches_are_omitted() {
        let registry = MetricsRegistry::new();
        registry.add("c", 1);
        registry.merge("governor.content_fps", &QuantileSketch::new());
        let text = obs_summary(&registry.snapshot(), None);
        assert!(!text.contains("governor.content_fps"), "{text}");
        assert!(!text.contains("sketch"), "table without rows:\n{text}");
    }
}
