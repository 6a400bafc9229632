//! End-to-end tests of the `ccdem fleet` CLI verb.
//!
//! Drives the real binary through the acceptance scenarios: worker
//! count must not change the emitted statistics document, a campaign
//! killed at a checkpoint and resumed must finish byte-identical to an
//! uninterrupted one, `--replay-device` must reproduce a single device
//! in isolation, `--trace` must stream well-formed fleet.* events, and
//! a hostile `--resume` file must fail with a message, never a crash.

use std::path::PathBuf;
use std::process::Command;

use ccdem::obs::json::{parse, Json};

fn temp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ccdem_fleet_e2e_{name}"))
}

fn fleet(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_ccdem"))
        .arg("fleet")
        .args(args)
        .arg("-q")
        .output()
        .expect("run ccdem fleet")
}

fn assert_clean(output: &std::process::Output) {
    assert!(
        output.status.success(),
        "ccdem fleet failed: {}\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(
        output.stderr.is_empty(),
        "quiet mode leaked progress output: {}",
        String::from_utf8_lossy(&output.stderr)
    );
}

#[test]
fn fleet_statistics_are_byte_identical_across_worker_counts() {
    let serial_out = temp("serial.json");
    let parallel_out = temp("parallel.json");
    for path in [&serial_out, &parallel_out] {
        let _ = std::fs::remove_file(path);
    }

    let base = [
        "--devices",
        "24",
        "--duration",
        "1",
        "--seed",
        "11",
        "--batch",
        "4",
    ];
    let serial = fleet(
        &[
            &base[..],
            &["--jobs", "1", "--out", serial_out.to_str().unwrap()],
        ]
        .concat(),
    );
    assert_clean(&serial);
    let parallel = fleet(
        &[
            &base[..],
            &["--jobs", "4", "--out", parallel_out.to_str().unwrap()],
        ]
        .concat(),
    );
    assert_clean(&parallel);

    let stdout = String::from_utf8_lossy(&serial.stdout);
    assert!(
        stdout.contains("24/24 devices (complete)"),
        "missing completion line:\n{stdout}"
    );
    assert!(
        stdout.contains("campaign percentiles over 24 runs:"),
        "missing statistics table:\n{stdout}"
    );
    // The work-stealing partition differs; stdout must not.
    assert_eq!(
        String::from_utf8_lossy(&serial.stdout),
        String::from_utf8_lossy(&parallel.stdout),
        "stdout diverged across worker counts"
    );
    let serial_doc = std::fs::read(&serial_out).expect("serial --out written");
    let parallel_doc = std::fs::read(&parallel_out).expect("parallel --out written");
    assert!(!serial_doc.is_empty());
    assert_eq!(
        serial_doc, parallel_doc,
        "--out diverged across worker counts"
    );

    for path in [&serial_out, &parallel_out] {
        let _ = std::fs::remove_file(path);
    }
}

#[test]
fn killed_at_checkpoint_then_resumed_matches_uninterrupted_run() {
    let full_out = temp("full.json");
    let resumed_out = temp("resumed.json");
    let checkpoint = temp("ckpt.json");
    for path in [&full_out, &resumed_out, &checkpoint] {
        let _ = std::fs::remove_file(path);
    }

    let base = [
        "--devices",
        "20",
        "--duration",
        "1",
        "--seed",
        "3",
        "--batch",
        "2",
    ];
    let uninterrupted = fleet(
        &[
            &base[..],
            &["--jobs", "2", "--out", full_out.to_str().unwrap()],
        ]
        .concat(),
    );
    assert_clean(&uninterrupted);

    // Die after the first checkpoint — the stand-in for a mid-campaign
    // crash with a durable checkpoint on disk.
    let interrupted = fleet(
        &[
            &base[..],
            &[
                "--jobs",
                "2",
                "--checkpoint",
                checkpoint.to_str().unwrap(),
                "--checkpoint-every",
                "3",
                "--stop-after",
                "1",
            ],
        ]
        .concat(),
    );
    assert_clean(&interrupted);
    let stdout = String::from_utf8_lossy(&interrupted.stdout);
    assert!(
        stdout.contains("6/20 devices (stopped at checkpoint)"),
        "wrong interruption point:\n{stdout}"
    );
    let saved = std::fs::read_to_string(&checkpoint).expect("checkpoint written");
    let value = parse(&saved).expect("checkpoint is valid JSON");
    assert_eq!(
        value.get("checkpoint").and_then(Json::as_str),
        Some("ccdem-fleet-checkpoint-v2")
    );

    // Resume under a different worker count; only flags consistent with
    // the checkpoint are needed — campaign shape comes from the file.
    let resumed = fleet(&[
        "--resume",
        checkpoint.to_str().unwrap(),
        "--jobs",
        "3",
        "--out",
        resumed_out.to_str().unwrap(),
    ]);
    assert_clean(&resumed);
    let stdout = String::from_utf8_lossy(&resumed.stdout);
    assert!(
        stdout.contains("20/20 devices (complete)"),
        "resume did not finish the campaign:\n{stdout}"
    );

    let full_doc = std::fs::read(&full_out).expect("uninterrupted --out written");
    let resumed_doc = std::fs::read(&resumed_out).expect("resumed --out written");
    assert_eq!(
        full_doc, resumed_doc,
        "kill + resume produced different statistics than an uninterrupted run"
    );

    // A resume whose explicit flags contradict the checkpoint is an
    // error, not a silently different campaign.
    let mismatched = fleet(&["--resume", checkpoint.to_str().unwrap(), "--devices", "40"]);
    assert!(
        !mismatched.status.success(),
        "mismatched --devices on resume must fail"
    );

    for path in [&full_out, &resumed_out, &checkpoint] {
        let _ = std::fs::remove_file(path);
    }
}

#[test]
fn resume_above_two_pow_53_continues_the_same_campaign() {
    // 2^53 + 1: the first seed an f64 cannot hold. A checkpoint that
    // rounded it would resume the campaign of seed 2^53 instead.
    let seed = "9007199254740993";
    let full_out = temp("big_seed_full.json");
    let resumed_out = temp("big_seed_resumed.json");
    let checkpoint = temp("big_seed_ckpt.json");
    for path in [&full_out, &resumed_out, &checkpoint] {
        let _ = std::fs::remove_file(path);
    }

    let base = [
        "--devices",
        "12",
        "--duration",
        "1",
        "--seed",
        seed,
        "--batch",
        "2",
    ];
    let uninterrupted = fleet(
        &[
            &base[..],
            &["--jobs", "2", "--out", full_out.to_str().unwrap()],
        ]
        .concat(),
    );
    assert_clean(&uninterrupted);
    let interrupted = fleet(
        &[
            &base[..],
            &[
                "--jobs",
                "2",
                "--checkpoint",
                checkpoint.to_str().unwrap(),
                "--checkpoint-every",
                "2",
                "--stop-after",
                "1",
            ],
        ]
        .concat(),
    );
    assert_clean(&interrupted);
    let saved = std::fs::read_to_string(&checkpoint).expect("checkpoint written");
    assert!(
        saved.contains(&format!("\"campaign_seed\":\"{seed}\"")),
        "seed not saved exactly:\n{saved}"
    );

    let resumed = fleet(&[
        "--resume",
        checkpoint.to_str().unwrap(),
        "--jobs",
        "3",
        "--out",
        resumed_out.to_str().unwrap(),
    ]);
    assert_clean(&resumed);
    let full_doc = std::fs::read(&full_out).expect("uninterrupted --out written");
    let resumed_doc = std::fs::read(&resumed_out).expect("resumed --out written");
    assert_eq!(
        full_doc, resumed_doc,
        "resuming at seed {seed} ran a different campaign"
    );

    for path in [&full_out, &resumed_out, &checkpoint] {
        let _ = std::fs::remove_file(path);
    }
}

#[test]
fn hostile_resume_files_exit_1_with_a_message() {
    let checkpoint = temp("hostile_ckpt.json");
    let _ = std::fs::remove_file(&checkpoint);
    let interrupted = fleet(&[
        "--devices",
        "4",
        "--duration",
        "1",
        "--batch",
        "2",
        "--checkpoint",
        checkpoint.to_str().unwrap(),
        "--checkpoint-every",
        "1",
        "--stop-after",
        "1",
    ]);
    assert_clean(&interrupted);
    let saved = std::fs::read_to_string(&checkpoint).expect("checkpoint written");
    let _ = std::fs::remove_file(&checkpoint);

    // Where `metric`'s sketch sits in the checkpoint. A sketch object
    // holds no nested object, so its first `}` closes it.
    let sketch_span = |metric: &str| {
        let key = format!("\"{metric}\":{{");
        let at = saved.find(&key).expect("checkpoint has the metric") + key.len() - 1;
        at..at + saved[at..].find('}').expect("the sketch closes") + 1
    };
    // Each hostile sketch replaces the `avg_power_mw` sketch, a metric
    // the campaign records, so the sketch is the only thing wrong.
    let with_sketch = |sketch: &str| {
        let span = sketch_span("avg_power_mw");
        format!("{}{sketch}{}", &saved[..span.start], &saved[span.end..])
    };
    // The splice itself is sound: the checkpoint's own `avg_refresh_hz`
    // sketch in that place resumes.
    let control = temp("hostile_control.json");
    let valid = with_sketch(&saved[sketch_span("avg_refresh_hz")]);
    assert_ne!(valid, saved, "the control splice changed nothing");
    std::fs::write(&control, valid).expect("write control checkpoint");
    assert_clean(&fleet(&["--resume", control.to_str().unwrap()]));
    let _ = std::fs::remove_file(&control);
    // Each hostile sum replaces the real `avg_power_mw` sum. Read as
    // given, -5 drops the saved devices' power, 1e14 makes a mean of
    // 12.5 TW, and 1e300 saturates the u128 sum, which the resume's merge
    // then overflows.
    let with_sum = |sum: &str| {
        let sketch = &saved[sketch_span("avg_power_mw")];
        let at = sketch.find("\"sum\":").expect("the sketch has a sum") + "\"sum\":".len();
        let end = at + sketch[at..].find(',').expect("the sum is followed by min");
        with_sketch(&format!("{}{sum}{}", &sketch[..at], &sketch[end..]))
    };
    // Each hostile run count replaces the real one. JSON numbers are
    // f64s: 1e30 saturated to u64::MAX (and a resume wrapped it), and
    // 2^53 is the first count an f64 may have rounded.
    let with_runs = |runs: &str| {
        let key = "\"stats\":{\"runs\":";
        let at = saved.find(key).expect("checkpoint has a run count") + key.len();
        let end = at
            + saved[at..]
                .find(',')
                .expect("run count is followed by metrics");
        format!("{}{runs}{}", &saved[..at], &saved[end..])
    };
    // Each hostile document, and the fragment of the refusal that names
    // what is wrong with it.
    let power = r#"checkpoint "stats": "avg_power_mw": "#;
    let refusal = |what: &str| format!("{power}{what}");
    let hostile = [
        (
            "min_above_max",
            with_sketch(r#"{"precision":5,"count":1,"sum":7,"min":10,"max":5,"buckets":[[7,1]]}"#),
            refusal(r#""min" 10 is above "max" 5"#),
        ),
        (
            "count_overflow",
            with_sketch(
                r#"{"precision":5,"count":0,"sum":0,"buckets":[[1,9223372036854775808],[2,9223372036854775808]]}"#,
            ),
            refusal(r#""buckets" entry 0: count is not an integer below 2^53"#),
        ),
        (
            "negative_index",
            with_sketch(r#"{"precision":5,"count":1,"sum":0,"min":0,"max":0,"buckets":[[-1,1]]}"#),
            refusal(r#""buckets" entry 0: index is not a bucket"#),
        ),
        (
            "fractional_index",
            with_sketch(r#"{"precision":5,"count":1,"sum":0,"min":0,"max":0,"buckets":[[0.5,1]]}"#),
            refusal(r#""buckets" entry 0: index is not a bucket"#),
        ),
        (
            "sum_negative",
            with_sum("-5"),
            refusal(r#""sum" -5.0 is not an integer in count·min ..= count·max"#),
        ),
        (
            "sum_1e14",
            with_sum("1e14"),
            refusal(r#""sum" 100000000000000.0 is not an integer"#),
        ),
        (
            "sum_1e300",
            with_sum("1e300"),
            refusal(r#""sum" 1e300 is not an integer"#),
        ),
        (
            "zero_duration",
            saved.replacen("\"duration_us\":\"1000000\"", "\"duration_us\":\"0\"", 1),
            r#"checkpoint "duration_us" must be positive"#.to_string(),
        ),
        (
            "runs_1e30",
            with_runs("1e30"),
            r#"checkpoint "stats": "runs" is missing or not an integer below 2^53"#.to_string(),
        ),
        (
            "runs_2_pow_53",
            with_runs("9007199254740992"),
            r#"checkpoint "stats": "runs" is missing or not an integer below 2^53"#.to_string(),
        ),
        (
            "deep_nesting",
            "[".repeat(200_000),
            "nesting deeper than".to_string(),
        ),
        (
            "truncated",
            saved[..saved.len() / 2].to_string(),
            "unexpected input at byte".to_string(),
        ),
        // Well-formed statistics that disagree with the cursor (stopped
        // at 2 of 4 devices) parse, and are refused after the parse.
        (
            "one_sample_sketch",
            with_sketch(
                r#"{"precision":5,"count":1,"sum":900000,"min":900000,"max":900000,"buckets":[[502,1]]}"#,
            ),
            r#"checkpoint "stats" hold 1 "avg_power_mw" samples over 2 runs"#.to_string(),
        ),
        (
            "cursor_behind",
            saved.replacen("\"next_index\":\"2\"", "\"next_index\":\"1\"", 1),
            r#"checkpoint "stats" hold 2 runs but the cursor is at device 1"#.to_string(),
        ),
    ];
    for (name, document, why) in hostile {
        assert_ne!(document, saved, "{name}: the hostile edit changed nothing");
        let path = temp(&format!("hostile_{name}.json"));
        std::fs::write(&path, document).expect("write hostile checkpoint");
        let resumed = fleet(&["--resume", path.to_str().unwrap()]);
        let _ = std::fs::remove_file(&path);
        let stderr = String::from_utf8_lossy(&resumed.stderr);
        // 101 is a Rust panic; a stack overflow aborts (134, or no code).
        assert_eq!(
            resumed.status.code(),
            Some(1),
            "{name}: want exit 1, got {}\n{stderr}",
            resumed.status
        );
        assert!(
            stderr.contains(&format!("cannot resume: {why}")),
            "{name}: want {why:?} on stderr: {stderr}"
        );
    }
}

#[test]
fn replay_device_prints_the_sampled_spec_and_its_metrics() {
    let output = fleet(&[
        "--devices",
        "32",
        "--duration",
        "1",
        "--seed",
        "11",
        "--replay-device",
        "7",
    ]);
    assert_clean(&output);
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        stdout.contains("device 7:"),
        "missing device spec line:\n{stdout}"
    );
    for line in [
        "average power",
        "average refresh",
        "display quality",
        "dropped frames",
    ] {
        assert!(stdout.contains(line), "missing {line:?} line:\n{stdout}");
    }

    // Out-of-range replay indices are rejected up front.
    let out_of_range = fleet(&["--devices", "8", "--replay-device", "8"]);
    assert!(!out_of_range.status.success());
}

#[test]
fn trace_streams_well_formed_fleet_events() {
    let trace = temp("trace.jsonl");
    let _ = std::fs::remove_file(&trace);

    let output = fleet(&[
        "--devices",
        "8",
        "--duration",
        "1",
        "--seed",
        "2",
        "--batch",
        "2",
        "--jobs",
        "2",
        "--trace",
        trace.to_str().unwrap(),
    ]);
    assert_clean(&output);

    let text = std::fs::read_to_string(&trace).expect("trace written");
    let mut names = Vec::new();
    for line in text.lines() {
        let value = parse(line).unwrap_or_else(|e| panic!("bad JSONL line {line:?}: {e}"));
        let name = value
            .get("event")
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("line without event name: {line}"))
            .to_string();
        names.push(name);
    }
    assert_eq!(names.first().map(String::as_str), Some("fleet.start"));
    assert_eq!(names.last().map(String::as_str), Some("fleet.end"));
    assert!(
        names.iter().any(|n| n == "campaign.progress"),
        "no campaign.progress events in the trace: {names:?}"
    );

    let _ = std::fs::remove_file(&trace);
}
