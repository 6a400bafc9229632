//! End-to-end tests of the `ccdem profile` CLI verb (which no longer
//! writes JSONL; `trace_jsonl` checks the envelope). Its stdout holds one
//! table of the nine engine layers in order, each called, whose sum stays
//! within the run's wall time, and the decision-tick percentile line; a
//! ten-minute run holds the tick's p99 to its 200 µs budget.

use std::process::Command;

use ccdem::experiments::profile::Layer;

#[test]
fn profile_verb_prints_one_layer_table_that_adds_up_to_the_run() {
    let output = Command::new(env!("CARGO_BIN_EXE_ccdem"))
        .args(["profile", "--duration", "6", "--seed", "7", "-q"])
        .output()
        .expect("run ccdem profile");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "ccdem profile failed: {stderr}");
    assert!(stderr.is_empty(), "quiet mode leaked progress output");
    assert_eq!(stdout.matches("profile by layer").count(), 1, "{stdout}");

    // The nine layers in layer order, each called.
    let layers = Layer::ALL.map(Layer::name);
    let rows: Vec<Vec<&str>> = stdout
        .lines()
        .map(|l| l.split_whitespace().collect::<Vec<_>>())
        .filter(|cells| cells.first().is_some_and(|c| layers.contains(c)))
        .collect();
    let names: Vec<&str> = rows.iter().map(|cells| cells[0]).collect();
    assert_eq!(names, layers, "layer rows out of order:\n{stdout}");
    for cells in &rows {
        assert_ne!(cells[1], "0", "{} never called:\n{stdout}", cells[0]);
    }

    // "Σ layers: 1.536 ms of the run's 1.920 ms wall time (80.0 %)"
    let sum_line = stdout
        .lines()
        .find_map(|l| l.strip_prefix("Σ layers: "))
        .unwrap_or_else(|| panic!("no Σ layers line:\n{stdout}"));
    let ms: Vec<f64> = sum_line
        .split_whitespace()
        .filter_map(|w| w.parse().ok())
        .collect();
    assert!(0.0 < ms[0] && ms[0] <= ms[1], "{sum_line}");

    // One tick decision per elapsed 500 ms control window of a 6 s run.
    assert_eq!(stdout.matches("decision tick:").count(), 1, "{stdout}");
    assert!(stdout.contains("decision tick: 11 ticks,"), "{stdout}");
}

/// The decision-tick budget, checked on the current build: a 10-minute
/// run makes ~1200 control ticks, enough that p99 is not the maximum.
#[test]
fn ten_minute_profile_keeps_decision_tick_p99_within_budget() {
    const TICK_BUDGET_US: f64 = 200.0;
    let output = Command::new(env!("CARGO_BIN_EXE_ccdem"))
        .args(["profile", "--duration", "600", "--seed", "7", "-q"])
        .output()
        .expect("run ccdem profile");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "ccdem profile failed: {stderr}");
    // "decision tick: 1199 ticks, p50 0.7 µs, p90 0.9 µs, p99 1.6 µs, max 8.7 µs"
    let line = stdout
        .lines()
        .find_map(|l| l.strip_prefix("decision tick: "))
        .unwrap_or_else(|| panic!("no tick summary line:\n{stdout}"));
    let field = |prefix: &str, suffix: &str| -> f64 {
        line.split(", ")
            .find_map(|f| f.strip_prefix(prefix)?.strip_suffix(suffix)?.parse().ok())
            .unwrap_or_else(|| panic!("no {prefix:?}..{suffix:?} field in {line:?}"))
    };
    let (ticks, p99) = (field("", " ticks"), field("p99 ", " µs"));
    assert!(ticks >= 1000.0, "only {ticks} ticks in a 600 s run: {line}");
    assert!(
        p99 <= TICK_BUDGET_US,
        "p99 {p99} µs over the {TICK_BUDGET_US} µs budget: {line}"
    );
}
