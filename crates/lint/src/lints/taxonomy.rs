//! The obs-taxonomy lint.
//!
//! DESIGN.md §8 documents the full event and metric taxonomy as two
//! machine-readable tables (one name per row, backticked, in the first
//! column). This lint closes the loop in both directions:
//!
//! * **emitted ⇒ documented** — every event-name / metric-name string
//!   literal passed to `Obs::emit`, `Event::new`, `obs_event!`, or the
//!   registry's publish calls (`add` / `set` / `merge`) must appear in
//!   the table; an undocumented name is flagged at its call site.
//! * **documented ⇒ emitted** — every name in the table must be emitted
//!   somewhere; a stale row is flagged at its DESIGN.md line.
//!
//! Names built at runtime (non-literal first argument) are invisible to
//! the lint — the workspace deliberately has none.

use crate::diag::{Diagnostic, LintId};
use crate::source::SourceFile;

/// Crates never scanned for emissions: the `proptest` shim is out of
/// telemetry scope, and the lint itself matches on these method
/// names. The `obs` framework crate *is* scanned, like any other; its
/// name parameters and doc/test literals don't trip the lint
/// (parameters aren't literals, and doc comments lex as single tokens).
pub const SCAN_EXEMPT_CRATES: [&str; 2] = ["proptest", "lint"];

/// A name used at a call site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Emission {
    /// The event or metric name.
    pub name: String,
    /// Repo-relative file.
    pub file: String,
    /// 1-based line of the literal.
    pub line: u32,
    /// Whether this is a metric (registry) name rather than an event.
    pub metric: bool,
}

/// Collects every event/metric name literal in one file.
pub fn collect(file: &SourceFile, out: &mut Vec<Emission>) {
    if SCAN_EXEMPT_CRATES.contains(&file.crate_name.as_str()) {
        return;
    }
    let tokens = &file.tokens;
    for (i, token) in tokens.iter().enumerate() {
        if file.is_test_line(token.line) {
            continue;
        }
        let Some(name) = token.tok.ident() else {
            continue;
        };
        let (event_method, metric_method) = match name {
            "emit" => (true, false),
            "add" | "set" | "merge" => (false, true),
            "new" | "obs_event" => (false, false),
            _ => continue,
        };
        // The literal argument, if the call shape matches.
        let emission = if event_method || metric_method {
            // `.emit("…"` / `.add("…"` — must be a method call.
            let dotted = i >= 1 && tokens.get(i - 1).is_some_and(|t| t.tok.is_punct('.'));
            let lit = tokens
                .get(i + 1)
                .filter(|t| t.tok.is_punct('('))
                .and_then(|_| tokens.get(i + 2));
            match (dotted, lit) {
                (true, Some(lit)) => lit
                    .tok
                    .str_value()
                    .map(|value| (value, lit.line, metric_method)),
                _ => None,
            }
        } else if name == "new" {
            // `Event::new("…"` — qualified by the `Event` path.
            let qualified = i >= 3
                && tokens.get(i - 1).is_some_and(|t| t.tok.is_punct(':'))
                && tokens.get(i - 2).is_some_and(|t| t.tok.is_punct(':'))
                && tokens.get(i - 3).is_some_and(|t| t.tok.is_ident("Event"));
            let lit = tokens
                .get(i + 1)
                .filter(|t| t.tok.is_punct('('))
                .and_then(|_| tokens.get(i + 2));
            match (qualified, lit) {
                (true, Some(lit)) => lit.tok.str_value().map(|value| (value, lit.line, false)),
                _ => None,
            }
        } else {
            // `obs_event!(obs, now, "…", …)` — the first string literal
            // in the macro arguments is the event name.
            if !tokens.get(i + 1).is_some_and(|t| t.tok.is_punct('!')) {
                continue;
            }
            tokens
                .get(i + 2..)
                .unwrap_or(&[])
                .iter()
                .take_while(|t| !t.tok.is_punct(')'))
                .find_map(|t| t.tok.str_value().map(|value| (value, t.line, false)))
        };
        if let Some((value, line, metric)) = emission {
            out.push(Emission {
                name: value.to_string(),
                file: file.path.clone(),
                line,
                metric,
            });
        }
    }
}

/// A documented name with its DESIGN.md line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DocName {
    /// The name.
    pub name: String,
    /// 1-based DESIGN.md line of its table row.
    pub line: u32,
    /// From the metric table rather than the event table.
    pub metric: bool,
}

/// Parses the §8 taxonomy tables out of the DESIGN.md text: every table
/// row under the `### Event taxonomy` / `### Metric taxonomy` headings
/// whose first cell is a single backticked name.
pub fn documented_names(design: &str) -> Vec<DocName> {
    let mut out = Vec::new();
    let mut section: Option<bool> = None; // Some(metric?)
    for (i, raw) in design.lines().enumerate() {
        let line = (i + 1) as u32;
        let trimmed = raw.trim();
        if trimmed.starts_with("### ") {
            section = match trimmed {
                "### Event taxonomy" => Some(false),
                "### Metric taxonomy" => Some(true),
                _ => None,
            };
            continue;
        }
        if trimmed.starts_with("## ") {
            section = None;
            continue;
        }
        let Some(metric) = section else {
            continue;
        };
        // A data row: `| `name` | … |` — skip the header and rule rows.
        let Some(first_cell) = trimmed.strip_prefix('|').and_then(|r| r.split('|').next()) else {
            continue;
        };
        let cell = first_cell.trim();
        let Some(name) = cell.strip_prefix('`').and_then(|c| c.strip_suffix('`')) else {
            continue;
        };
        if name.is_empty() || name.contains('`') {
            continue;
        }
        out.push(DocName {
            name: name.to_string(),
            line,
            metric,
        });
    }
    out
}

/// Cross-checks emissions against the documented taxonomy.
pub fn check(design: &str, design_path: &str, emissions: &[Emission], out: &mut Vec<Diagnostic>) {
    let documented = documented_names(design);
    if documented.is_empty() {
        out.push(Diagnostic::new(
            LintId::ObsTaxonomy,
            design_path,
            0,
            "no taxonomy tables found under `### Event taxonomy` / `### Metric taxonomy` \
             in DESIGN.md §8",
        ));
        return;
    }
    // Emitted but undocumented — flagged at the call site. The event
    // and metric namespaces are checked jointly: a name documented in
    // either table is known (the registry and the event stream share
    // the dotted naming scheme).
    for emission in emissions {
        if documented.iter().any(|d| d.name == emission.name) {
            continue;
        }
        let kind = if emission.metric { "metric" } else { "event" };
        out.push(Diagnostic::new(
            LintId::ObsTaxonomy,
            emission.file.clone(),
            emission.line,
            format!(
                "{kind} name \"{}\" is emitted but not documented in the DESIGN.md §8 \
                 taxonomy tables",
                emission.name
            ),
        ));
    }
    // Documented but never emitted — flagged at the DESIGN.md row.
    for doc in &documented {
        if emissions.iter().any(|e| e.name == doc.name) {
            continue;
        }
        let kind = if doc.metric { "metric" } else { "event" };
        out.push(Diagnostic::new(
            LintId::ObsTaxonomy,
            design_path,
            doc.line,
            format!(
                "{kind} name \"{}\" is documented in the §8 taxonomy but never emitted \
                 by the workspace",
                doc.name
            ),
        ));
    }
}
