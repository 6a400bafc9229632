//! End-to-end tests of the `ccdem profile` CLI verb.
//!
//! Runs the real binary with `--out`, then parses the emitted JSON Lines
//! file with the crate's own parser: every line must be a valid object
//! with the standard envelope, the span stream must carry self-time
//! accounting for every decision-path phase, and stdout must render
//! exactly one self-time table plus the decision-tick percentile line.
//! A second run of ten simulated minutes holds the decision tick's p99
//! to its 200 µs budget on the build under test.

use std::process::Command;

use ccdem::obs::json::{parse, Json};

#[test]
fn profile_verb_emits_valid_spans_and_one_self_time_table() {
    let out = std::env::temp_dir().join("ccdem_profile_verb_test.jsonl");
    let _ = std::fs::remove_file(&out);

    let output = Command::new(env!("CARGO_BIN_EXE_ccdem"))
        .args([
            "profile",
            "--duration",
            "6",
            "--seed",
            "7",
            "--out",
            out.to_str().unwrap(),
            "-q",
        ])
        .output()
        .expect("run ccdem profile");
    assert!(
        output.status.success(),
        "ccdem profile failed: {}\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(
        output.stderr.is_empty(),
        "quiet mode leaked progress output"
    );

    // Exactly one self-time table and one decision-tick summary line.
    let stdout = String::from_utf8_lossy(&output.stdout);
    let tables = stdout.matches("profile self-time by phase").count();
    assert_eq!(tables, 1, "expected one self-time table:\n{stdout}");
    let tick_lines = stdout
        .lines()
        .filter(|l| l.starts_with("decision tick:"))
        .count();
    assert_eq!(tick_lines, 1, "expected one tick summary line:\n{stdout}");
    // One tick decision per elapsed 500 ms control window of a 6 s run.
    assert!(stdout.contains("11 ticks"), "wrong tick count:\n{stdout}");
    for phase in ["compose", "meter_gather", "governor_decide", "panel_switch"] {
        assert!(
            stdout.contains(&format!("profile.{phase}")),
            "phase {phase} missing from the table:\n{stdout}"
        );
    }

    // Every trace line parses with the in-repo parser and carries the
    // standard envelope.
    let text = std::fs::read_to_string(&out).expect("read profile trace");
    let lines: Vec<&str> = text.lines().collect();
    assert!(!lines.is_empty(), "profile wrote no events");
    let mut profile_spans = 0usize;
    let mut tick_spans = 0usize;
    for line in &lines {
        let value = parse(line).unwrap_or_else(|e| panic!("bad JSONL line {line:?}: {e}"));
        let name = value
            .get("event")
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("line without event name: {line}"));
        assert!(
            value.get("t_us").and_then(Json::as_f64).is_some(),
            "line without t_us: {line}"
        );
        if name.starts_with("profile.") {
            profile_spans += 1;
            if name == "profile.decision_tick" {
                tick_spans += 1;
            }
            // Self-time accounting rides on every profile span.
            let fields = value.get("fields").expect("profile span without fields");
            assert!(
                fields.get("host_self_us").and_then(Json::as_f64).is_some(),
                "profile span without host_self_us: {line}"
            );
            assert!(
                fields.get("host_dur_us").and_then(Json::as_f64).is_some(),
                "profile span without host_dur_us: {line}"
            );
        }
    }
    assert!(profile_spans > 0, "no profile spans in the trace");
    assert_eq!(tick_spans, 11, "one decision-tick span per control window");

    let _ = std::fs::remove_file(&out);
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
