//! The determinism lint.
//!
//! The repo's headline guarantee is that parallel sweeps are
//! byte-identical to serial ones and that every `RunResult` is a pure
//! function of the seed (DESIGN.md §4, §8). Three std facilities break
//! that guarantee silently when they leak into result-affecting code:
//!
//! * `std::time::Instant` / `SystemTime` — host wall-clock; two runs
//!   never read the same value;
//! * `std::thread::spawn` — unscoped threads with scheduler-dependent
//!   completion order (the sanctioned pool in `simkit::parallel` uses
//!   scoped threads with input-order collection);
//! * `HashMap` / `HashSet` — iteration order is randomized per process
//!   (`RandomState`), so any result derived from iterating one is
//!   nondeterministic; use `BTreeMap`/`BTreeSet` or sorted iteration.
//!
//! The lint flags any mention in a result-affecting crate outside the
//! whitelisted host-timing modules. Telemetry-only uses (sweep
//! wall-clock reporting, the Fig. 6 metering-cost timer) carry a
//! line-level `// ccdem-lint: allow(determinism)` with justification.

use crate::diag::{Diagnostic, LintId};
use crate::source::SourceFile;

/// Crates whose code can affect a `RunResult`.
pub const RESULT_AFFECTING_CRATES: [&str; 9] = [
    "simkit",
    "pixelbuf",
    "panel",
    "compositor",
    "workloads",
    "power",
    "core",
    "metrics",
    "experiments",
];

/// Whitelisted files: host timing is these modules' documented purpose,
/// and their outputs are kept strictly outside `RunResult`.
pub const WHITELIST_FILES: [&str; 4] = [
    // The parallel runner: scoped threads, input-order collection.
    "crates/simkit/src/parallel.rs",
    // Host wall-clock reporting, outside RunResult by design.
    "crates/metrics/src/timing.rs",
    // The perf harness measures host time; that is its output.
    "crates/experiments/src/perf.rs",
    // The scratch-reuse harness times fresh vs reused batches.
    "crates/experiments/src/perf_sweep.rs",
];

/// The forbidden type names.
const FORBIDDEN_IDENTS: [(&str, &str); 4] = [
    ("Instant", "host wall-clock is nondeterministic across runs"),
    ("SystemTime", "host wall-clock is nondeterministic across runs"),
    (
        "HashMap",
        "iteration order is randomized per process; use BTreeMap or sorted iteration",
    ),
    (
        "HashSet",
        "iteration order is randomized per process; use BTreeSet or sorted iteration",
    ),
];

/// Runs the determinism lint over one file.
pub fn check(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    if !RESULT_AFFECTING_CRATES.contains(&file.crate_name.as_str()) {
        return;
    }
    if WHITELIST_FILES.contains(&file.path.as_str()) {
        return;
    }
    for (i, token) in file.tokens.iter().enumerate() {
        if file.is_test_line(token.line) {
            continue;
        }
        if let Some(name) = token.tok.ident() {
            if let Some((_, why)) = FORBIDDEN_IDENTS.iter().find(|(f, _)| *f == name) {
                out.push(Diagnostic::new(
                    LintId::Determinism,
                    file.path.clone(),
                    token.line,
                    format!("`{name}` in result-affecting crate `{}`: {why}", file.crate_name),
                ));
                continue;
            }
            // `thread::spawn` — unscoped threads.
            if name == "thread"
                && file.tokens.get(i + 1).is_some_and(|t| t.tok.is_punct(':'))
                && file.tokens.get(i + 2).is_some_and(|t| t.tok.is_punct(':'))
                && file.tokens.get(i + 3).is_some_and(|t| t.tok.is_ident("spawn"))
            {
                out.push(Diagnostic::new(
                    LintId::Determinism,
                    file.path.clone(),
                    token.line,
                    format!(
                        "`thread::spawn` in result-affecting crate `{}`: \
                         use `ccdem_simkit::parallel` (scoped threads, input-order collection)",
                        file.crate_name
                    ),
                ));
            }
        }
    }
}
