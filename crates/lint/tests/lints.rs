//! Fixture-corpus tests: every lint family against known-good and
//! known-bad inputs, asserting exact diagnostic IDs and line numbers,
//! plus end-to-end runs of the `ccdem-lint` binary against miniature
//! workspaces seeded with one violation per family.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

use ccdem_lint::diag::{Diagnostic, LintId};
use ccdem_lint::lexer::lex;
use ccdem_lint::lints::{determinism, panic as panic_lint, taxonomy};
use ccdem_lint::source::SourceFile;

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Lexes a fixture under a crate name and applies the same line-level
/// suppression filtering the driver does.
fn check_fixture(
    name: &str,
    crate_name: &str,
    run: impl Fn(&SourceFile, &mut Vec<Diagnostic>),
) -> Vec<(LintId, u32)> {
    let lexed = lex(&fixture(name)).expect("fixture lexes");
    let file = SourceFile::new(name.to_string(), crate_name.to_string(), lexed);
    let mut out = Vec::new();
    run(&file, &mut out);
    out.retain(|d| !file.is_allowed(d.id, d.line));
    let mut pairs: Vec<(LintId, u32)> = out.iter().map(|d| (d.id, d.line)).collect();
    pairs.sort();
    pairs
}

#[test]
fn panic_fixture_flags_exact_lines() {
    let pairs = check_fixture("panic_violations.rs", "core", panic_lint::check);
    assert_eq!(
        pairs,
        vec![
            (LintId::Panic, 11), // v[0]
            (LintId::Panic, 12), // .unwrap()
            (LintId::Panic, 13), // .expect(…)
            (LintId::Panic, 15), // panic!
        ],
        "strings containing unwrap(), the RangeFull slice, the allow-\
         suppressed index, and the #[cfg(test)] module must not be flagged"
    );
}

#[test]
fn panic_fixture_is_exempt_in_the_proptest_shim() {
    let pairs = check_fixture("panic_violations.rs", "proptest", panic_lint::check);
    assert!(
        pairs.is_empty(),
        "the proptest shim is panic-exempt: {pairs:?}"
    );
}

#[test]
fn determinism_fixture_flags_exact_lines() {
    let pairs = check_fixture("determinism_violations.rs", "core", determinism::check);
    assert_eq!(
        pairs,
        vec![
            (LintId::Determinism, 10), // use HashMap
            (LintId::Determinism, 11), // use Instant
            (LintId::Determinism, 14), // Instant::now
            (LintId::Determinism, 15), // thread::spawn
            (LintId::Determinism, 16), // HashMap type + constructor
            (LintId::Determinism, 16),
        ],
        "the allow-suppressed telemetry block and the test-module HashSet \
         must not be flagged"
    );
}

#[test]
fn determinism_skips_non_result_affecting_crates() {
    let pairs = check_fixture("determinism_violations.rs", "obs", determinism::check);
    assert!(pairs.is_empty(), "obs is not result-affecting: {pairs:?}");
}

#[test]
fn determinism_skips_whitelisted_files() {
    let lexed = lex(&fixture("determinism_violations.rs")).expect("fixture lexes");
    let file = SourceFile::new(
        "crates/simkit/src/parallel.rs".to_string(),
        "simkit".to_string(),
        lexed,
    );
    let mut out = Vec::new();
    determinism::check(&file, &mut out);
    assert!(out.is_empty(), "whitelisted host-timing file: {out:?}");
}

#[test]
fn determinism_whitelist_covers_every_timing_harness() {
    // Each whitelist entry must silence the lint for exactly that path,
    // while the same tokens in any sibling file still flag.
    for path in determinism::WHITELIST_FILES {
        let lexed = lex(&fixture("determinism_violations.rs")).expect("fixture lexes");
        let file = SourceFile::new(path.to_string(), "experiments".to_string(), lexed);
        let mut out = Vec::new();
        determinism::check(&file, &mut out);
        assert!(out.is_empty(), "{path} is whitelisted: {out:?}");
    }
    let lexed = lex(&fixture("determinism_violations.rs")).expect("fixture lexes");
    let sibling = SourceFile::new(
        "crates/experiments/src/sweep.rs".to_string(),
        "experiments".to_string(),
        lexed,
    );
    let mut out = Vec::new();
    determinism::check(&sibling, &mut out);
    assert!(!out.is_empty(), "non-whitelisted sibling must still flag");
}

#[test]
fn clean_fixture_passes_every_family() {
    assert!(check_fixture("clean.rs", "core", panic_lint::check).is_empty());
    assert!(check_fixture("clean.rs", "core", determinism::check).is_empty());
    let lexed = lex(&fixture("clean.rs")).expect("fixture lexes");
    let file = SourceFile::new("clean.rs".into(), "core".into(), lexed);
    let mut emissions = Vec::new();
    taxonomy::collect(&file, &mut emissions);
    assert!(emissions.is_empty());
}

const MINI_DESIGN: &str = "\
# Design

## 8. Observability

### Event taxonomy

| name | purpose |
|---|---|
| `run.start` | run started |
| `panel.stale` | documented but never emitted |

### Metric taxonomy

| name | kind |
|---|---|
| `meter.frames` | counter |
";

#[test]
fn taxonomy_fixture_flags_both_directions() {
    let lexed = lex(&fixture("taxonomy_mismatch.rs")).expect("fixture lexes");
    let file = SourceFile::new("taxonomy_mismatch.rs".into(), "core".into(), lexed);
    let mut emissions = Vec::new();
    taxonomy::collect(&file, &mut emissions);
    let mut out = Vec::new();
    taxonomy::check(MINI_DESIGN, "DESIGN.md", &emissions, &mut out);

    let mut pairs: Vec<(String, u32)> = out.iter().map(|d| (d.file.clone(), d.line)).collect();
    pairs.sort();
    let stale_row = MINI_DESIGN
        .lines()
        .position(|l| l.contains("panel.stale"))
        .expect("row present") as u32
        + 1;
    assert_eq!(
        pairs,
        vec![
            ("DESIGN.md".to_string(), stale_row), // documented, never emitted
            ("taxonomy_mismatch.rs".to_string(), 6), // governor.mystery
            ("taxonomy_mismatch.rs".to_string(), 7), // panel.ghost
            ("taxonomy_mismatch.rs".to_string(), 9), // meter.phantom_px
            ("taxonomy_mismatch.rs".to_string(), 10), // input.mystery
        ],
        "test-module emissions must not count; documented names must all \
         be emitted: {out:?}"
    );
    assert!(out.iter().all(|d| d.id == LintId::ObsTaxonomy));
}

#[test]
fn taxonomy_lint_is_blind_to_its_own_crate() {
    let lexed = lex(&fixture("taxonomy_mismatch.rs")).expect("fixture lexes");
    let file = SourceFile::new("x.rs".into(), "lint".into(), lexed);
    let mut emissions = Vec::new();
    taxonomy::collect(&file, &mut emissions);
    assert!(emissions.is_empty());
}

// --- acceptance: the real workspace, with and without tampering ---

fn repo_root() -> PathBuf {
    ccdem_lint::find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root above the lint crate")
}

#[test]
fn real_workspace_is_clean() {
    let report = ccdem_lint::run(&ccdem_lint::LintOptions::new(repo_root())).expect("lint runs");
    assert!(
        report.clean(),
        "the committed workspace must lint clean:\n{}",
        report
            .reported
            .iter()
            .map(|d| d.render())
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(report.files_scanned > 50, "scan looks truncated");
}

#[test]
fn removing_a_documented_event_fails_the_lint() {
    let root = repo_root();
    let design = fs::read_to_string(root.join("DESIGN.md")).expect("DESIGN.md");
    let names = taxonomy::documented_names(&design);
    // Pick a name documented exactly once, so deleting its row really
    // undocuments it (event and metric namespaces are checked jointly).
    let victim = names
        .iter()
        .find(|d| names.iter().filter(|o| o.name == d.name).count() == 1)
        .expect("a uniquely documented name");
    let pruned: String = design
        .lines()
        .enumerate()
        .filter(|(i, _)| (i + 1) as u32 != victim.line)
        .map(|(_, l)| format!("{l}\n"))
        .collect();

    let mut options = ccdem_lint::LintOptions::new(root);
    options.design_text = Some(pruned);
    let report = ccdem_lint::run(&options).expect("lint runs");
    assert!(
        report
            .reported
            .iter()
            .any(|d| d.id == LintId::ObsTaxonomy && d.message.contains(&victim.name)),
        "deleting the `{}` row from DESIGN.md must fail the taxonomy lint; got {:?}",
        victim.name,
        report.reported
    );
}

// --- end-to-end: the ccdem-lint binary against seeded mini-workspaces ---

/// A minimal valid workspace the lint accepts end to end.
struct MiniWorkspace {
    root: PathBuf,
}

impl MiniWorkspace {
    fn new(tag: &str) -> MiniWorkspace {
        let root =
            std::env::temp_dir().join(format!("ccdem-lint-e2e-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        let w = MiniWorkspace { root };
        w.write("Cargo.toml", "[workspace]\nmembers = []\n");
        w.write(
            "DESIGN.md",
            "# Mini\n\n## 8. Observability\n\n### Event taxonomy\n\n\
             | name | purpose |\n|---|---|\n| `app.tick` | tick |\n\n\
             ### Metric taxonomy\n\n| name | kind |\n|---|---|\n\
             | `app.ticks` | counter |\n",
        );
        w.write(
            "crates/core/src/lib.rs",
            "pub fn run(obs: &Obs, reg: &Registry, now: SimTime) {\n    \
             obs.emit(\"app.tick\", now, |_| {});\n    \
             let _c = reg.counter(\"app.ticks\");\n}\n",
        );
        w
    }

    fn write(&self, rel: &str, contents: &str) {
        let path = self.root.join(rel);
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent).expect("mkdir");
        }
        fs::write(&path, contents).expect("write");
    }

    fn lint(&self) -> (i32, String) {
        self.lint_args(&[])
    }

    fn lint_args(&self, args: &[&str]) -> (i32, String) {
        let output = Command::new(env!("CARGO_BIN_EXE_ccdem-lint"))
            .args(args)
            .current_dir(&self.root)
            .output()
            .expect("run ccdem-lint");
        (
            output.status.code().unwrap_or(-1),
            String::from_utf8_lossy(&output.stdout).into_owned(),
        )
    }

    fn read(&self, rel: &str) -> String {
        fs::read_to_string(self.root.join(rel)).expect("read")
    }
}

impl Drop for MiniWorkspace {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}

#[test]
fn e2e_clean_workspace_exits_zero() {
    let w = MiniWorkspace::new("clean");
    let (code, stdout) = w.lint();
    assert_eq!(code, 0, "expected clean, got:\n{stdout}");
}

#[test]
fn e2e_seeded_panic_violation_fails() {
    let w = MiniWorkspace::new("panic");
    let w_file = "crates/core/src/bad.rs";
    w.write(w_file, "pub fn first(v: &[u32]) -> u32 {\n    v[0]\n}\n");
    let (code, stdout) = w.lint();
    assert_eq!(code, 1, "stdout:\n{stdout}");
    assert!(
        stdout.contains("[panic]") && stdout.contains("bad.rs:2"),
        "{stdout}"
    );
}

#[test]
fn e2e_seeded_determinism_violation_fails() {
    let w = MiniWorkspace::new("det");
    w.write(
        "crates/core/src/bad.rs",
        "use std::collections::HashMap;\npub type Cache = HashMap<u32, u32>;\n",
    );
    let (code, stdout) = w.lint();
    assert_eq!(code, 1, "stdout:\n{stdout}");
    assert!(stdout.contains("[determinism]"), "{stdout}");
}

#[test]
fn e2e_seeded_taxonomy_violation_fails() {
    let w = MiniWorkspace::new("tax");
    w.write(
        "crates/core/src/bad.rs",
        "pub fn leak(obs: &Obs, now: SimTime) {\n    \
         obs.emit(\"ghost.event\", now, |_| {});\n}\n",
    );
    let (code, stdout) = w.lint();
    assert_eq!(code, 1, "stdout:\n{stdout}");
    assert!(
        stdout.contains("[obs-taxonomy]") && stdout.contains("ghost.event"),
        "{stdout}"
    );
}

#[test]
fn e2e_stale_suppression_flags_and_stale_budget_tightens() {
    let w = MiniWorkspace::new("stale");
    // An allow comment with nothing to suppress is itself a finding.
    w.write(
        "crates/core/src/fine.rs",
        "pub fn f(v: &[u32]) -> u32 {\n    \
         // ccdem-lint: allow(panic) \u{2014} nothing here panics any more\n    \
         v.first().copied().unwrap_or(0)\n}\n",
    );
    // A budget larger than the live finding count is stale too.
    w.write(
        "lint.allow",
        "# test baseline\npanic crates/core/src/fine.rs 3\n",
    );
    let (code, stdout) = w.lint();
    assert_eq!(code, 1, "stdout:\n{stdout}");
    assert!(stdout.contains("stale suppression"), "{stdout}");
    assert!(stdout.contains("stale baseline"), "{stdout}");

    // --fix-baseline tightens the budget to the live count (zero here:
    // the file's entry disappears entirely).
    let (fix_code, _) = w.lint_args(&["--fix-baseline"]);
    assert_eq!(fix_code, 1, "the stale allow comment still reports");
    assert!(
        !w.read("lint.allow").contains("fine.rs"),
        "budget must drop to the live count: {}",
        w.read("lint.allow")
    );
}

#[test]
fn e2e_seeded_alloc_hot_path_violation_fails() {
    let w = MiniWorkspace::new("alloc");
    // `Governor::decide` is a hot-path root; the Vec::new inside the
    // helper it calls is reachable and must flag, with a witness naming
    // the root.
    w.write(
        "crates/core/src/governor.rs",
        "pub struct Governor;\n\
         impl Governor {\n    \
         pub fn decide(&mut self) {\n        \
         scratch_rates();\n    }\n}\n\
         fn scratch_rates() -> Vec<f64> {\n    \
         Vec::new()\n}\n",
    );
    let (code, stdout) = w.lint();
    assert_eq!(code, 1, "stdout:\n{stdout}");
    assert!(
        stdout.contains("[alloc-hot-path]") && stdout.contains("Governor::decide"),
        "{stdout}"
    );
}

#[test]
fn e2e_cold_alloc_does_not_flag() {
    let w = MiniWorkspace::new("alloc-cold");
    // Same allocation, but nothing reachable from a root calls it.
    w.write(
        "crates/core/src/scratch.rs",
        "pub fn scratch_rates() -> Vec<f64> {\n    Vec::new()\n}\n",
    );
    let (code, stdout) = w.lint();
    assert_eq!(code, 0, "cold allocations are fine:\n{stdout}");
}

#[test]
fn e2e_seeded_arith_cast_violation_fails() {
    let w = MiniWorkspace::new("arith");
    w.write(
        "crates/core/src/section.rs",
        "pub fn quantize(v: f64, scale: u64) -> u64 {\n    \
         (v * scale as f64) as u64\n}\n",
    );
    let (code, stdout) = w.lint();
    assert_eq!(code, 1, "stdout:\n{stdout}");
    assert!(
        stdout.contains("[arith-cast]") && stdout.contains("as u64"),
        "{stdout}"
    );
}

#[test]
fn e2e_seeded_atomics_ordering_violation_fails() {
    let w = MiniWorkspace::new("atomics");
    // An unjustified bare SeqCst in crates/obs must flag; the justified
    // Relaxed two lines up must not.
    w.write(
        "crates/obs/src/counter.rs",
        "use std::sync::atomic::{AtomicU64, Ordering};\n\
         pub fn bump(c: &AtomicU64) -> u64 {\n    \
         // ordering: relaxed \u{2014} independent counter, no ordering needed\n    \
         c.fetch_add(1, Ordering::Relaxed);\n    \
         c.load(Ordering::SeqCst)\n}\n",
    );
    let (code, stdout) = w.lint();
    assert_eq!(code, 1, "stdout:\n{stdout}");
    assert!(
        stdout.contains("[atomics-ordering]") && stdout.contains("counter.rs:5"),
        "the unjustified SeqCst load (and only it) must flag:\n{stdout}"
    );
    assert!(!stdout.contains("counter.rs:4"), "{stdout}");
}

#[test]
fn e2e_hot_panic_is_never_baselinable() {
    let w = MiniWorkspace::new("hot-panic");
    // A panic reachable from a root is internal severity: a lint.allow
    // budget cannot absorb it.
    w.write(
        "crates/core/src/governor.rs",
        "pub struct Governor;\n\
         impl Governor {\n    \
         pub fn decide(&mut self, v: &[u32]) -> u32 {\n        \
         v[0]\n    }\n}\n",
    );
    w.write(
        "lint.allow",
        "# test baseline\npanic crates/core/src/governor.rs 1\n",
    );
    let (code, stdout) = w.lint();
    assert_eq!(code, 1, "hot panic must not be baselinable:\n{stdout}");
    assert!(
        stdout.contains("[panic]") && stdout.contains("hot path"),
        "{stdout}"
    );
}

#[test]
fn e2e_baseline_absorbs_then_ratchets() {
    let w = MiniWorkspace::new("baseline");
    w.write(
        "crates/core/src/bad.rs",
        "pub fn f(v: &[u32]) -> u32 {\n    v[0]\n}\n",
    );
    w.write(
        "lint.allow",
        "# test baseline\npanic crates/core/src/bad.rs 1\n",
    );
    let (code, stdout) = w.lint();
    assert_eq!(code, 0, "one finding within budget:\n{stdout}");

    // A second violation exceeds the budget: the whole group reports.
    w.write(
        "crates/core/src/bad.rs",
        "pub fn f(v: &[u32]) -> u32 {\n    v[0] + v[1]\n}\n",
    );
    let (code, stdout) = w.lint();
    assert_eq!(code, 1, "over budget:\n{stdout}");
    assert!(stdout.contains("exceed the lint.allow budget"), "{stdout}");
}
