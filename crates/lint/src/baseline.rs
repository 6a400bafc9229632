//! The committed `lint.allow` baseline: a per-file violation ratchet.
//!
//! The baseline exists so a new lint can land as a hard CI gate before
//! every historical violation is burned down. Each line grants one
//! `(lint, file)` pair a maximum violation count:
//!
//! ```text
//! # comment
//! panic crates/pixelbuf/src/buffer.rs 12
//! ```
//!
//! Counts, not line numbers: edits elsewhere in a file must not churn
//! the baseline. The ratchet only turns one way — a file at or under
//! its budget passes, one over it fails (and the diagnostics are shown
//! in full), and `--fix-baseline` rewrites the file to the current
//! state so improvements get locked in.

use std::collections::BTreeMap;
use std::fmt;

use crate::diag::{Diagnostic, LintId};

/// The parsed baseline: `(lint, file) → allowed count`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Baseline {
    entries: BTreeMap<(LintId, String), usize>,
}

/// A malformed baseline line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BaselineError {
    /// 1-based line in `lint.allow`.
    pub line: usize,
    /// What is wrong.
    pub message: String,
}

impl fmt::Display for BaselineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lint.allow:{}: {}", self.line, self.message)
    }
}

impl Baseline {
    /// Parses the `lint.allow` text. Blank lines and `#` comments are
    /// skipped.
    ///
    /// # Errors
    ///
    /// Returns [`BaselineError`] for a line that is not
    /// `<lint-id> <path> <count>`.
    pub fn parse(text: &str) -> Result<Baseline, BaselineError> {
        let mut entries = BTreeMap::new();
        for (i, raw) in text.lines().enumerate() {
            let line = i + 1;
            let trimmed = raw.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            let mut fields = trimmed.split_whitespace();
            let (Some(id), Some(path), Some(count), None) =
                (fields.next(), fields.next(), fields.next(), fields.next())
            else {
                return Err(BaselineError {
                    line,
                    message: format!("expected `<lint-id> <path> <count>`, got {trimmed:?}"),
                });
            };
            let Some(id) = LintId::parse(id) else {
                return Err(BaselineError {
                    line,
                    message: format!("unknown lint id {id:?}"),
                });
            };
            let Ok(count) = count.parse::<usize>() else {
                return Err(BaselineError {
                    line,
                    message: format!("count {count:?} is not an unsigned integer"),
                });
            };
            entries.insert((id, path.to_string()), count);
        }
        Ok(Baseline { entries })
    }

    /// Renders the baseline for `diagnostics`, sorted, with a header.
    pub fn render(diagnostics: &[Diagnostic]) -> String {
        let mut counts: BTreeMap<(LintId, &str), usize> = BTreeMap::new();
        for d in diagnostics {
            *counts.entry((d.id, d.file.as_str())).or_insert(0) += 1;
        }
        let mut out = String::from(
            "# ccdem lint baseline: `<lint-id> <path> <count>` grants a file a\n\
             # maximum violation count (a ratchet, not a line list — see\n\
             # DESIGN.md §10). Regenerate with `ccdem lint --fix-baseline`.\n",
        );
        for ((id, file), count) in counts {
            out.push_str(&format!("{id} {file} {count}\n"));
        }
        out
    }

    /// Splits `diagnostics` into `(reported, baselined)`: for each
    /// `(lint, file)` group at or under its baseline budget, the whole
    /// group is baselined; any group over budget is reported in full,
    /// with a trailing note diagnostic naming the excess.
    ///
    /// Hot-path findings (`Diagnostic::hot`) are never baselined: they
    /// report regardless of budget and do not count against the
    /// group's budget — the ratchet cannot grandfather a panic or an
    /// allocation that the call graph proves reachable from a root.
    pub fn apply(&self, diagnostics: Vec<Diagnostic>) -> (Vec<Diagnostic>, Vec<Diagnostic>) {
        let mut counts: BTreeMap<(LintId, String), usize> = BTreeMap::new();
        for d in diagnostics.iter().filter(|d| !d.hot) {
            *counts.entry((d.id, d.file.clone())).or_insert(0) += 1;
        }
        let mut reported = Vec::new();
        let mut baselined = Vec::new();
        for d in diagnostics {
            if d.hot {
                reported.push(d);
                continue;
            }
            let key = (d.id, d.file.clone());
            let found = counts.get(&key).copied().unwrap_or(0);
            let budget = self.entries.get(&key).copied().unwrap_or(0);
            if found <= budget {
                baselined.push(d);
            } else {
                reported.push(d);
            }
        }
        // One note per over-budget group with a non-zero budget, so the
        // failure explains itself.
        let over: Vec<(LintId, String)> = reported.iter().map(|d| (d.id, d.file.clone())).collect();
        let mut noted: Vec<(LintId, String)> = Vec::new();
        for key in over {
            let budget = self.entries.get(&key).copied().unwrap_or(0);
            let found = counts.get(&key).copied().unwrap_or(0);
            if budget > 0 && found > budget && !noted.contains(&key) {
                reported.push(Diagnostic::new(
                    key.0,
                    key.1.clone(),
                    0,
                    format!(
                        "{found} violations exceed the lint.allow budget of {budget}; \
                         fix the new ones or run `ccdem lint --fix-baseline`"
                    ),
                ));
                noted.push(key);
            }
        }
        (reported, baselined)
    }

    /// The `(lint, file) → budget` entries, in sorted order (for the
    /// stale-budget audit and `--stats`).
    pub fn entries(&self) -> impl Iterator<Item = (&(LintId, String), usize)> {
        self.entries.iter().map(|(k, &v)| (k, v))
    }

    /// Sum of all granted budgets.
    pub fn total(&self) -> usize {
        self.entries.values().sum()
    }

    /// Number of `(lint, file)` entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the baseline grants nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(id: LintId, file: &str, line: u32) -> Diagnostic {
        Diagnostic::new(id, file, line, "x")
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(Baseline::parse("panic a.rs").is_err());
        assert!(Baseline::parse("bogus a.rs 3").is_err());
        assert!(Baseline::parse("panic a.rs three").is_err());
        assert!(Baseline::parse("# comment\n\npanic a.rs 3\n").is_ok());
    }

    #[test]
    fn under_budget_is_baselined() {
        let b = Baseline::parse("panic a.rs 2\n").expect("parse");
        let (reported, baselined) = b.apply(vec![
            diag(LintId::Panic, "a.rs", 1),
            diag(LintId::Panic, "a.rs", 9),
        ]);
        assert!(reported.is_empty());
        assert_eq!(baselined.len(), 2);
    }

    #[test]
    fn over_budget_reports_the_whole_group_plus_note() {
        let b = Baseline::parse("panic a.rs 1\n").expect("parse");
        let (reported, baselined) = b.apply(vec![
            diag(LintId::Panic, "a.rs", 1),
            diag(LintId::Panic, "a.rs", 9),
        ]);
        assert!(baselined.is_empty());
        assert_eq!(reported.len(), 3, "two findings plus the budget note");
        assert!(reported.iter().any(|d| d.message.contains("exceed")));
    }

    #[test]
    fn budget_is_per_lint_and_file() {
        let b = Baseline::parse("panic a.rs 1\n").expect("parse");
        let (reported, baselined) = b.apply(vec![
            diag(LintId::Panic, "a.rs", 1),
            diag(LintId::Determinism, "a.rs", 2),
            diag(LintId::Panic, "b.rs", 3),
        ]);
        assert_eq!(baselined.len(), 1);
        assert_eq!(reported.len(), 2);
    }

    #[test]
    fn render_round_trips_through_parse() {
        let rendered = Baseline::render(&[
            diag(LintId::Panic, "b.rs", 3),
            diag(LintId::Panic, "a.rs", 1),
            diag(LintId::Panic, "a.rs", 2),
            diag(LintId::Determinism, "a.rs", 4),
        ]);
        let parsed = Baseline::parse(&rendered).expect("parse rendered");
        assert_eq!(parsed.len(), 3);
        let (reported, baselined) = parsed.apply(vec![
            diag(LintId::Panic, "a.rs", 10),
            diag(LintId::Panic, "a.rs", 20),
        ]);
        assert!(reported.is_empty());
        assert_eq!(baselined.len(), 2);
    }
}
