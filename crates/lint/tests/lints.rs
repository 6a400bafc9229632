//! Fixture-corpus tests: the taxonomy family against known-good and
//! known-bad inputs, asserting exact diagnostic IDs and line numbers,
//! plus end-to-end [`ccdem_lint::run`]s against miniature workspaces
//! seeded with one violation per family.

use std::fs;
use std::path::{Path, PathBuf};

use ccdem_lint::diag::LintId;
use ccdem_lint::lexer::lex;
use ccdem_lint::lints::taxonomy;
use ccdem_lint::source::SourceFile;

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

#[test]
fn clean_fixture_emits_nothing() {
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
            ("taxonomy_mismatch.rs".to_string(), 12), // governor.ghost_fps
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

// --- end-to-end: `ccdem_lint::run` against seeded mini-workspaces ---

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
             reg.add(\"app.ticks\", 1);\n}\n",
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

    /// Lints the workspace; returns whether it is clean and the
    /// rendered findings, one per line.
    fn lint(&self) -> (bool, String) {
        let report = ccdem_lint::run(&ccdem_lint::LintOptions::new(&self.root)).expect("lint runs");
        let rendered: Vec<String> = report.reported.iter().map(|d| d.render()).collect();
        (report.clean(), rendered.join("\n"))
    }
}

impl Drop for MiniWorkspace {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}

#[test]
fn e2e_clean_workspace_is_clean() {
    let w = MiniWorkspace::new("clean");
    let (clean, found) = w.lint();
    assert!(clean, "expected clean, got:\n{found}");
}

#[test]
fn e2e_seeded_taxonomy_violation_fails() {
    let w = MiniWorkspace::new("tax");
    w.write(
        "crates/core/src/bad.rs",
        "pub fn leak(obs: &Obs, now: SimTime) {\n    \
         obs.emit(\"ghost.event\", now, |_| {});\n}\n",
    );
    let (clean, found) = w.lint();
    assert!(!clean, "found:\n{found}");
    assert!(
        found.contains("[obs-taxonomy]") && found.contains("ghost.event"),
        "{found}"
    );
}

#[test]
fn e2e_stale_suppression_flags() {
    let w = MiniWorkspace::new("stale");
    // An allow comment with nothing to suppress is itself a finding.
    w.write(
        "crates/core/src/fine.rs",
        "pub fn f(v: &[u32]) -> u32 {\n    \
         // ccdem-lint: allow(arith-cast) \u{2014} nothing here casts any more\n    \
         v.first().copied().unwrap_or(0)\n}\n",
    );
    let (clean, found) = w.lint();
    assert!(!clean, "found:\n{found}");
    assert!(
        found.contains("fine.rs:2: [internal] stale suppression"),
        "{found}"
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
    let (clean, found) = w.lint();
    assert!(!clean, "found:\n{found}");
    assert!(
        found.contains("[alloc-hot-path]") && found.contains("Governor::decide"),
        "{found}"
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
    let (clean, found) = w.lint();
    assert!(clean, "cold allocations are fine:\n{found}");
}

#[test]
fn e2e_seeded_arith_cast_violation_fails() {
    let w = MiniWorkspace::new("arith");
    w.write(
        "crates/core/src/section.rs",
        "pub fn quantize(v: f64, scale: u64) -> u64 {\n    \
         (v * scale as f64) as u64\n}\n",
    );
    let (clean, found) = w.lint();
    assert!(!clean, "found:\n{found}");
    assert!(
        found.contains("[arith-cast]") && found.contains("as u64"),
        "{found}"
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
    let (clean, found) = w.lint();
    assert!(!clean, "found:\n{found}");
    assert!(
        found.contains("[atomics-ordering]") && found.contains("counter.rs:5"),
        "the unjustified SeqCst load (and only it) must flag:\n{found}"
    );
    assert!(!found.contains("counter.rs:4"), "{found}");
}
