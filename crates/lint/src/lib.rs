//! `ccdem-lint` — workspace static analysis with zero dependencies.
//!
//! Six lint families guard invariants the compiler cannot see
//! (DESIGN.md §10):
//!
//! * **determinism** — no host clocks, unscoped threads, or
//!   randomized-order hash containers in result-affecting crates;
//! * **panic** — no `unwrap()` / `expect(…)` / `panic!` / unchecked
//!   indexing in library code; panics inside functions the call graph
//!   proves reachable from a hot-path root are never baselinable;
//! * **alloc-hot-path** — no heap allocation reachable from a hot-path
//!   root ([`callgraph`]);
//! * **arith-cast** — no truncating `as` casts or unchecked `+`/`*` in
//!   the fixed-point files;
//! * **atomics-ordering** — every `Ordering::*` in `crates/obs` carries
//!   a written justification;
//! * **obs-taxonomy** — the emitted event/metric names and the DESIGN.md
//!   §8 taxonomy tables agree in both directions.
//!
//! Everything is built on a hand-rolled Rust lexer ([`lexer`]) — no
//! `syn`, no `proc-macro2` — because the workspace builds offline with
//! no external crates. On top of the lexer, [`parse`] recovers item
//! nesting and call sites, and [`callgraph`] computes which functions
//! are reachable from the declared hot-path roots. Findings can be
//! suppressed per line with `// ccdem-lint: allow(<id>)` comments
//! ([`source`]) or absorbed by the committed `lint.allow` count ratchet
//! ([`baseline`]); a suppression that suppresses nothing and a budget
//! with slack are themselves findings, so the ratchet only tightens.

pub mod baseline;
pub mod callgraph;
pub mod diag;
pub mod lexer;
pub mod lints;
pub mod parse;
pub mod source;

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

use crate::baseline::Baseline;
use crate::callgraph::CallGraph;
use crate::diag::{Diagnostic, LintId};
use crate::lints::{
    alloc_hot_path, arith_cast, atomics_ordering, determinism, panic as panic_lint, taxonomy,
};
use crate::source::SourceFile;

/// The committed baseline file, at the workspace root.
pub const BASELINE_FILE: &str = "lint.allow";
/// The design document holding the §8 taxonomy tables.
pub const DESIGN_FILE: &str = "DESIGN.md";

/// How a lint run is configured.
#[derive(Debug, Clone)]
pub struct LintOptions {
    /// Workspace root (the directory holding the `[workspace]`
    /// `Cargo.toml`, `DESIGN.md`, and `lint.allow`).
    pub root: PathBuf,
    /// Rewrite `lint.allow` to match the current findings instead of
    /// failing on them.
    pub fix_baseline: bool,
    /// Override for the DESIGN.md text (tests use this to prove the
    /// taxonomy lint fires when a documented name is removed).
    pub design_text: Option<String>,
}

impl LintOptions {
    /// Default options rooted at `root`.
    pub fn new(root: impl Into<PathBuf>) -> LintOptions {
        LintOptions {
            root: root.into(),
            fix_baseline: false,
            design_text: None,
        }
    }
}

/// The outcome of a lint run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Findings that fail the run, sorted by file, line, and id.
    pub reported: Vec<Diagnostic>,
    /// Findings absorbed by the `lint.allow` baseline.
    pub baselined: Vec<Diagnostic>,
    /// Findings silenced by `// ccdem-lint: allow(…)` comments.
    pub suppressed: usize,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Whether `--fix-baseline` rewrote `lint.allow`.
    pub baseline_rewritten: bool,
    /// Analyzer-level numbers for `--stats`.
    pub stats: Stats,
}

/// Analyzer statistics for `ccdem lint --stats`.
#[derive(Debug, Clone, Default)]
pub struct Stats {
    /// Findings per family before suppression and baselining (so the
    /// counts describe what the analyzer saw, not what survived).
    pub family_counts: BTreeMap<LintId, usize>,
    /// Functions parsed across the workspace.
    pub fn_count: usize,
    /// Functions reachable from the hot-path roots.
    pub reachable_fns: usize,
    /// Total violation budget granted by `lint.allow`.
    pub baseline_total: usize,
}

impl Report {
    /// Whether the run passes.
    pub fn clean(&self) -> bool {
        self.reported.is_empty()
    }
}

/// Walks upward from `start` to the nearest directory whose `Cargo.toml`
/// declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d.to_path_buf());
            }
        }
        dir = d.parent();
    }
    None
}

/// Runs every lint family over the workspace at `options.root`.
///
/// # Errors
///
/// Returns a message for configuration-level failures (unreadable root,
/// malformed `lint.allow`, unwritable baseline under `--fix-baseline`).
/// Per-file problems (lex errors, unreadable files) become `internal`
/// diagnostics instead, so one bad file cannot hide the rest.
pub fn run(options: &LintOptions) -> Result<Report, String> {
    let root = &options.root;
    let paths = workspace_sources(root)?;
    let files_scanned = paths.len();

    let mut files: BTreeMap<String, SourceFile> = BTreeMap::new();
    let mut diagnostics: Vec<Diagnostic> = Vec::new();
    for rel in &paths {
        let text = match fs::read_to_string(root.join(rel)) {
            Ok(text) => text,
            Err(err) => {
                diagnostics.push(Diagnostic::new(
                    LintId::Internal,
                    rel.clone(),
                    0,
                    format!("unreadable: {err}"),
                ));
                continue;
            }
        };
        match lexer::lex(&text) {
            Ok(lexed) => {
                let file = SourceFile::new(rel.clone(), crate_of(rel), lexed);
                files.insert(rel.clone(), file);
            }
            Err(err) => {
                diagnostics.push(Diagnostic::new(
                    LintId::Internal,
                    rel.clone(),
                    err.line,
                    format!("lexer error: {}", err.message),
                ));
            }
        }
    }

    // The cross-crate call graph: every function, with reachability
    // from the declared hot-path roots, gated by Cargo dependency
    // direction.
    let deps = workspace_deps(root);
    let graph = CallGraph::build(files.values(), &deps, callgraph::HOT_PATH_ROOTS);

    // Per-file families, plus the taxonomy emission sweep.
    let mut emissions = Vec::new();
    for file in files.values() {
        determinism::check(file, &mut diagnostics);
        panic_lint::check(file, &mut diagnostics);
        alloc_hot_path::check(file, &graph, &mut diagnostics);
        arith_cast::check(file, &mut diagnostics);
        atomics_ordering::check(file, &mut diagnostics);
        taxonomy::collect(file, &mut emissions);
    }

    // The taxonomy cross-check against DESIGN.md §8.
    let design_text = match &options.design_text {
        Some(text) => Some(text.clone()),
        None => match fs::read_to_string(root.join(DESIGN_FILE)) {
            Ok(text) => Some(text),
            Err(err) => {
                diagnostics.push(Diagnostic::new(
                    LintId::Internal,
                    DESIGN_FILE,
                    0,
                    format!("unreadable: {err}"),
                ));
                None
            }
        },
    };
    if let Some(design) = &design_text {
        taxonomy::check(design, DESIGN_FILE, &emissions, &mut diagnostics);
    }

    // Reachability-aware severity: a panic finding inside a function
    // reachable from a hot-path root can never be baselined — only a
    // documented line allow may silence it.
    for d in &mut diagnostics {
        if d.id == LintId::Panic && !d.hot {
            if let Some(witness) = graph.hot(&d.file, d.line) {
                d.hot = true;
                d.message
                    .push_str(&format!(" [hot path: reachable from {witness}]"));
            }
        }
    }

    let mut family_counts: BTreeMap<LintId, usize> = BTreeMap::new();
    for d in &diagnostics {
        *family_counts.entry(d.id).or_insert(0) += 1;
    }

    // Line-level suppressions, tracking which allow entries fired so a
    // suppression that suppresses nothing becomes a finding itself.
    let before = diagnostics.len();
    let mut used_allows: BTreeSet<(String, usize)> = BTreeSet::new();
    diagnostics.retain(|d| {
        let Some(file) = files.get(&d.file) else {
            return true;
        };
        let hits: Vec<usize> = file.allow_indices(d.id, d.line).collect();
        if hits.is_empty() {
            return true;
        }
        for ix in hits {
            used_allows.insert((d.file.clone(), ix));
        }
        false
    });
    let suppressed = before - diagnostics.len();
    for file in files.values() {
        for (ix, allow) in file.allows().iter().enumerate() {
            if file.is_test_line(allow.comment_line) {
                continue;
            }
            if !used_allows.contains(&(file.path.clone(), ix)) {
                diagnostics.push(Diagnostic::new(
                    LintId::Internal,
                    file.path.clone(),
                    allow.comment_line,
                    format!(
                        "stale suppression: `allow({})` matches no finding; \
                         delete the comment or narrow it",
                        allow.id
                    ),
                ));
            }
        }
    }

    sort_diagnostics(&mut diagnostics);

    // The baseline ratchet. `--fix-baseline` rewrites the file to the
    // current findings (internal and hot-path findings are never
    // baselinable); otherwise a budget with slack is itself a finding,
    // so the ratchet only tightens.
    let baseline_path = root.join(BASELINE_FILE);
    let mut baseline_rewritten = false;
    let baseline = if options.fix_baseline {
        let baselinable: Vec<Diagnostic> = diagnostics
            .iter()
            .filter(|d| d.id != LintId::Internal && !d.hot)
            .cloned()
            .collect();
        let rendered = Baseline::render(&baselinable);
        fs::write(&baseline_path, &rendered)
            .map_err(|err| format!("cannot write {}: {err}", baseline_path.display()))?;
        baseline_rewritten = true;
        Baseline::parse(&rendered).map_err(|err| err.to_string())?
    } else {
        match fs::read_to_string(&baseline_path) {
            Ok(text) => Baseline::parse(&text).map_err(|err| err.to_string())?,
            Err(_) => Baseline::default(),
        }
    };
    if !options.fix_baseline {
        let mut live: BTreeMap<(LintId, String), usize> = BTreeMap::new();
        for d in diagnostics
            .iter()
            .filter(|d| !d.hot && d.id != LintId::Internal)
        {
            *live.entry((d.id, d.file.clone())).or_insert(0) += 1;
        }
        for ((id, file), budget) in baseline.entries() {
            let found = live.get(&(*id, file.clone())).copied().unwrap_or(0);
            if found < budget {
                diagnostics.push(Diagnostic::new(
                    LintId::Internal,
                    file.clone(),
                    0,
                    format!(
                        "stale baseline: lint.allow grants {budget} `{id}` \
                         finding(s) here but only {found} exist; run \
                         `ccdem lint --fix-baseline` to tighten the ratchet"
                    ),
                ));
            }
        }
        sort_diagnostics(&mut diagnostics);
    }
    let stats = Stats {
        family_counts,
        fn_count: graph.fn_count(),
        reachable_fns: graph.reachable_count(),
        baseline_total: baseline.total(),
    };
    let (mut reported, baselined) = baseline.apply(diagnostics);
    sort_diagnostics(&mut reported);

    Ok(Report {
        reported,
        baselined,
        suppressed,
        files_scanned,
        baseline_rewritten,
        stats,
    })
}

/// Direct `ccdem-*` dependencies per workspace crate, scraped from the
/// `[dependencies]` sections of the crate manifests (dev-dependencies
/// are excluded: test-only edges must not make cold code hot). Missing
/// manifests — miniature test workspaces — yield empty sets, which
/// restricts call resolution to same-crate edges there.
fn workspace_deps(root: &Path) -> BTreeMap<String, BTreeSet<String>> {
    let mut out = BTreeMap::new();
    if let Ok(entries) = fs::read_dir(root.join("crates")) {
        for entry in entries.filter_map(Result::ok) {
            let dir = entry.path();
            if !dir.is_dir() {
                continue;
            }
            let name = dir
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            out.insert(name, manifest_deps(&dir.join("Cargo.toml")));
        }
    }
    out.insert("ccdem".to_string(), manifest_deps(&root.join("Cargo.toml")));
    out
}

/// The `ccdem-*` dependency names in a manifest's `[dependencies]`
/// section, mapped to crate directory names (`ccdem-obs` → `obs`).
fn manifest_deps(path: &Path) -> BTreeSet<String> {
    let Ok(text) = fs::read_to_string(path) else {
        return BTreeSet::new();
    };
    let mut out = BTreeSet::new();
    let mut in_deps = false;
    for line in text.lines() {
        let trimmed = line.trim();
        if trimmed.starts_with('[') {
            in_deps = trimmed == "[dependencies]";
            continue;
        }
        if !in_deps {
            continue;
        }
        if let Some(name) = trimmed.split(['.', ' ', '=']).next() {
            if let Some(dep) = name.strip_prefix("ccdem-") {
                out.insert(dep.to_string());
            }
        }
    }
    out
}

fn sort_diagnostics(diagnostics: &mut [Diagnostic]) {
    diagnostics.sort_by(|a, b| {
        (&a.file, a.line, a.id, &a.message).cmp(&(&b.file, b.line, b.id, &b.message))
    });
}

/// The crate a repo-relative path belongs to: the directory name under
/// `crates/`, or `ccdem` for the root package's `src/`.
fn crate_of(rel: &str) -> String {
    rel.strip_prefix("crates/")
        .and_then(|rest| rest.split('/').next())
        .unwrap_or("ccdem")
        .to_string()
}

/// Every `.rs` file under `crates/*/src/` and `src/`, repo-relative with
/// forward slashes, sorted. Test directories (`tests/`) are
/// not scanned: the lints only govern library code, and integration
/// tests assert on fixture files that deliberately violate them.
fn workspace_sources(root: &Path) -> Result<Vec<String>, String> {
    let mut out = Vec::new();
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = match fs::read_dir(&crates_dir) {
        Ok(entries) => entries
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect(),
        Err(err) => return Err(format!("cannot read {}: {err}", crates_dir.display())),
    };
    crate_dirs.sort();
    for dir in crate_dirs {
        collect_rs(&dir.join("src"), root, &mut out);
    }
    collect_rs(&root.join("src"), root, &mut out);
    out.sort();
    Ok(out)
}

fn collect_rs(dir: &Path, root: &Path, out: &mut Vec<String>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.filter_map(Result::ok).map(|e| e.path()).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            collect_rs(&path, root, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_string_lossy().replace('\\', "/"));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_of_maps_paths() {
        assert_eq!(crate_of("crates/core/src/meter.rs"), "core");
        assert_eq!(crate_of("src/bin/ccdem.rs"), "ccdem");
        assert_eq!(crate_of("src/lib.rs"), "ccdem");
    }

    #[test]
    fn find_root_walks_up() {
        // The crate's own manifest does not declare a workspace; the
        // repo root's does.
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(here).expect("workspace root");
        assert!(root.join("Cargo.toml").exists());
        assert_ne!(root, here);
    }

    #[test]
    fn sort_is_stable_across_fields() {
        let mut d = vec![
            Diagnostic::new(LintId::Panic, "b.rs", 1, "m"),
            Diagnostic::new(LintId::Panic, "a.rs", 9, "m"),
            Diagnostic::new(LintId::Determinism, "a.rs", 9, "m"),
        ];
        sort_diagnostics(&mut d);
        assert_eq!(d.first().map(|x| x.id), Some(LintId::Determinism));
        assert_eq!(d.last().map(|x| x.file.as_str()), Some("b.rs"));
    }
}
