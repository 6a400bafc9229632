//! End-to-end test of the `ccdem trace` CLI verb.
//!
//! Runs the real binary, then parses the emitted JSON Lines file with the
//! crate's own parser: every line must be a valid object with the standard
//! envelope, and the event stream must contain exactly one tick decision
//! per elapsed control window plus the run lifecycle pair.

use std::process::Command;

use ccdem::obs::json::{parse, Json};

#[test]
fn trace_verb_emits_valid_decision_path_jsonl() {
    let out = std::env::temp_dir().join("ccdem_trace_verb_test.jsonl");
    let _ = std::fs::remove_file(&out);

    let output = Command::new(env!("CARGO_BIN_EXE_ccdem"))
        .args([
            "trace",
            "--duration",
            "6",
            "--seed",
            "5",
            "--out",
            out.to_str().unwrap(),
            "-q",
        ])
        .output()
        .expect("run ccdem trace");
    assert!(
        output.status.success(),
        "ccdem trace failed: {}\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    // --quiet: no progress chatter on stderr, but the result summary —
    // including the telemetry-metrics table — still lands on stdout.
    assert!(
        output.stderr.is_empty(),
        "quiet mode leaked progress output"
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("telemetry metrics"), "missing obs summary");
    assert!(stdout.contains("governor.decisions"), "missing counters");

    let text = std::fs::read_to_string(&out).expect("read trace output");
    let lines: Vec<&str> = text.lines().collect();
    assert!(!lines.is_empty(), "trace wrote no events");

    let mut events = Vec::new();
    for line in &lines {
        let value = parse(line).unwrap_or_else(|e| panic!("bad JSONL line {line:?}: {e}"));
        let name = value
            .get("event")
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("line without event name: {line}"))
            .to_string();
        let t_us = value
            .get("t_us")
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("line without t_us: {line}"));
        assert!(value.get("fields").is_some(), "line without fields: {line}");
        events.push((name, t_us, value));
    }

    // One tick decision per elapsed 500 ms control window of a 6 s run:
    // ticks at k * 500 ms for k = 1..=11 (the tick at 6 s is past the end).
    let tick_fps: Vec<f64> = events
        .iter()
        .filter_map(|(name, _, value)| {
            let fields = value.get("fields")?;
            let trigger = fields.get("trigger").and_then(Json::as_str);
            if name != "governor.decision" || trigger != Some("tick") {
                return None;
            }
            // A tick without its rate falls out of the count below.
            fields.get("content_fps").and_then(Json::as_f64)
        })
        .collect();
    assert_eq!(
        tick_fps.len(),
        11,
        "expected one tick decision per control window"
    );

    // The stdout sketch row holds exactly those tick rates: one sample
    // per tick, and the exact max (in fps) of their content rates.
    let row: Vec<&str> = stdout
        .lines()
        .find(|l| l.split_whitespace().next() == Some("governor.content_fps"))
        .unwrap_or_else(|| panic!("no governor.content_fps row:\n{stdout}"))
        .split_whitespace()
        .collect();
    let max_fps = tick_fps.iter().copied().fold(0.0, f64::max);
    assert_eq!(row[1..3], ["fps", "11"], "row {row:?}");
    assert_eq!(row.last().copied(), Some(format!("{max_fps:.1}").as_str()));

    // Exactly one run lifecycle pair, bracketing the stream in sim time.
    let count = |name: &str| events.iter().filter(|(n, _, _)| n == name).count();
    assert_eq!(count("run.start"), 1);
    assert_eq!(count("run.end"), 1);
    assert_eq!(
        events.first().map(|(n, _, _)| n.as_str()),
        Some("run.start")
    );
    assert_eq!(events.last().map(|(n, _, _)| n.as_str()), Some("run.end"));

    // The full decision path is represented.
    assert!(count("framebuffer.update") > 0, "no framebuffer events");
    assert!(count("meter.frame") > 0, "no meter events");
    assert!(count("panel.refresh") > 0, "no panel events");

    // Simulation timestamps never go backwards.
    for pair in events.windows(2) {
        assert!(pair[0].1 <= pair[1].1, "events out of simulation order");
    }

    let _ = std::fs::remove_file(&out);
}
