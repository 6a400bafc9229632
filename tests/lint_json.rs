//! End-to-end test of the `ccdem lint --json` CLI verb.
//!
//! Runs the real binary and parses its diagnostic stream with the
//! crate's own `ccdem_obs::json` parser (mirroring `trace_jsonl.rs`):
//! every line must be a `lint.diagnostic` event in the standard
//! telemetry envelope.

use std::fs;
use std::path::PathBuf;
use std::process::Command;

use ccdem::obs::json::{parse, Json};

fn lint_json_in(dir: &std::path::Path) -> (i32, String, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_ccdem"))
        .args(["lint", "--json"])
        .current_dir(dir)
        .output()
        .expect("run ccdem lint --json");
    (
        output.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&output.stdout).into_owned(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

#[test]
fn lint_json_on_the_repo_is_clean_and_silent_on_stdout() {
    let (code, stdout, stderr) = lint_json_in(std::path::Path::new(env!("CARGO_MANIFEST_DIR")));
    assert_eq!(code, 0, "repo must lint clean:\n{stdout}\n{stderr}");
    assert!(
        stdout.is_empty(),
        "a clean run must emit no diagnostic lines:\n{stdout}"
    );
    assert!(
        stderr.contains("file(s) scanned"),
        "summary missing from stderr:\n{stderr}"
    );
}

#[test]
fn lint_json_diagnostics_parse_with_the_obs_json_parser() {
    // A miniature workspace seeded with one panic violation; the lint's
    // JSON output must round-trip through the in-repo parser.
    let root: PathBuf =
        std::env::temp_dir().join(format!("ccdem-lint-json-test-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    let write = |rel: &str, contents: &str| {
        let path = root.join(rel);
        fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
        fs::write(&path, contents).expect("write");
    };
    write("Cargo.toml", "[workspace]\nmembers = []\n");
    write(
        "DESIGN.md",
        "## 8. Observability\n\n### Event taxonomy\n\n\
         | name | purpose |\n|---|---|\n| `app.tick` | tick |\n\n\
         ### Metric taxonomy\n\n| name | kind |\n|---|---|\n",
    );
    write(
        "crates/core/src/lib.rs",
        "pub fn run(obs: &Obs, now: SimTime) -> u32 {\n    \
         obs.emit(\"app.tick\", now, |_| {});\n    \
         let v = [1u32, 2];\n    v[0]\n}\n",
    );
    write(
        "crates/panel/src/refresh.rs",
        "pub fn galaxy_s3() -> (u32, u32) {\n    let _ = (HZ_20, HZ_60);\n    (20, 60)\n}\n",
    );
    write(
        "crates/core/src/section.rs",
        "//! | 0 \u{2013} 10 | 20 Hz |\n//! | 10 \u{2013} 60 | 60 Hz |\n\
         pub fn new(a: f64, b: f64) -> f64 {\n    (a + b) / 2.0\n}\n",
    );

    let (code, stdout, _stderr) = lint_json_in(&root);
    let _ = fs::remove_dir_all(&root);

    assert_eq!(code, 1, "seeded violation must fail:\n{stdout}");
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(!lines.is_empty(), "no diagnostics emitted");
    let mut saw_panic = false;
    for line in &lines {
        let value = parse(line).unwrap_or_else(|e| panic!("bad JSON line {line:?}: {e}"));
        assert_eq!(
            value.get("event").and_then(Json::as_str),
            Some("lint.diagnostic"),
            "wrong envelope: {line}"
        );
        assert_eq!(value.get("t_us").and_then(Json::as_f64), Some(0.0));
        let fields = value
            .get("fields")
            .unwrap_or_else(|| panic!("no fields: {line}"));
        let id = fields.get("id").and_then(Json::as_str).expect("fields.id");
        assert!(fields.get("file").and_then(Json::as_str).is_some());
        assert!(fields.get("line").and_then(Json::as_f64).is_some());
        assert!(fields.get("message").and_then(Json::as_str).is_some());
        if id == "panic"
            && fields.get("file").and_then(Json::as_str) == Some("crates/core/src/lib.rs")
            && fields.get("line").and_then(Json::as_f64) == Some(4.0)
        {
            saw_panic = true;
        }
    }
    assert!(
        saw_panic,
        "expected the seeded v[0] panic diagnostic:\n{stdout}"
    );
}
