//! Lint identities and diagnostics.

use std::fmt;

/// The stable identity of a lint family. The string forms are part of
/// the tool's interface: they appear in diagnostics, in
/// `// ccdem-lint: allow(<id>)` suppressions, and in the `lint.allow`
/// baseline file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LintId {
    /// Host time, spawned threads, or unordered hash iteration in a
    /// result-affecting crate.
    Determinism,
    /// `unwrap()` / `expect(…)` / `panic!` / indexing-without-`get` in
    /// library code.
    Panic,
    /// An emitted event or metric name missing from the DESIGN.md §8
    /// taxonomy, or a documented name nothing emits.
    ObsTaxonomy,
    /// Heap allocation inside a function reachable from a hot-path
    /// root (never baselinable; suppressible by documented allow).
    AllocHotPath,
    /// A truncating `as` cast or unchecked `+`/`*` in fixed-point code.
    ArithCast,
    /// An `Ordering::*` argument in `crates/obs` without a written
    /// justification.
    AtomicsOrdering,
    /// The lint tool itself failed to process a file (lexer error,
    /// unreadable file), or found its own configuration stale (unused
    /// suppressions, slack `lint.allow` budgets). Always fatal.
    Internal,
}

impl LintId {
    /// All suppressible lint families.
    pub const ALL: [LintId; 6] = [
        LintId::Determinism,
        LintId::Panic,
        LintId::ObsTaxonomy,
        LintId::AllocHotPath,
        LintId::ArithCast,
        LintId::AtomicsOrdering,
    ];

    /// The stable string form.
    pub fn as_str(self) -> &'static str {
        match self {
            LintId::Determinism => "determinism",
            LintId::Panic => "panic",
            LintId::ObsTaxonomy => "obs-taxonomy",
            LintId::AllocHotPath => "alloc-hot-path",
            LintId::ArithCast => "arith-cast",
            LintId::AtomicsOrdering => "atomics-ordering",
            LintId::Internal => "internal",
        }
    }

    /// Parses the stable string form (as used in suppressions and the
    /// baseline file).
    pub fn parse(s: &str) -> Option<LintId> {
        LintId::ALL.into_iter().find(|id| id.as_str() == s)
    }
}

impl fmt::Display for LintId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One finding: a lint, a location, and what is wrong there.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Which lint family fired.
    pub id: LintId,
    /// Repo-relative path (forward slashes).
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable description.
    pub message: String,
    /// Whether the finding sits on the hot path (inside a function
    /// reachable from a hot-path root). Hot findings are never
    /// absorbed by the `lint.allow` baseline — only an explicit,
    /// documented line allow can silence them.
    pub hot: bool,
}

impl Diagnostic {
    /// Builds a diagnostic.
    pub fn new(
        id: LintId,
        file: impl Into<String>,
        line: u32,
        message: impl Into<String>,
    ) -> Diagnostic {
        Diagnostic {
            id,
            file: file.into(),
            line,
            message: message.into(),
            hot: false,
        }
    }

    /// The one-line human rendering: `file:line: [id] message`.
    pub fn render(&self) -> String {
        format!(
            "{}:{}: [{}] {}",
            self.file, self.line, self.id, self.message
        )
    }

    /// The JSON Lines rendering, shaped like a `ccdem-obs` telemetry
    /// event (`{"event":…,"t_us":…,"fields":{…}}`) so the in-repo
    /// `ccdem_obs::json` parser consumes lint output directly.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(96);
        out.push_str("{\"event\":\"lint.diagnostic\",\"t_us\":0,\"fields\":{\"id\":");
        write_json_string(&mut out, self.id.as_str());
        out.push_str(",\"file\":");
        write_json_string(&mut out, &self.file);
        out.push_str(",\"line\":");
        out.push_str(&self.line.to_string());
        out.push_str(",\"message\":");
        write_json_string(&mut out, &self.message);
        if self.hot {
            out.push_str(",\"hot\":true");
        }
        out.push_str("}}");
        out
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// Writes `s` as a JSON string literal (RFC 8259 escaping).
pub fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_round_trip() {
        for id in LintId::ALL {
            assert_eq!(LintId::parse(id.as_str()), Some(id));
        }
        assert_eq!(LintId::parse("nonsense"), None);
    }

    #[test]
    fn render_is_file_line_id_message() {
        let d = Diagnostic::new(
            LintId::Panic,
            "crates/x/src/a.rs",
            7,
            "unwrap() in library code",
        );
        assert_eq!(
            d.render(),
            "crates/x/src/a.rs:7: [panic] unwrap() in library code"
        );
    }

    #[test]
    fn json_escapes_and_has_envelope() {
        let d = Diagnostic::new(LintId::ObsTaxonomy, "a\"b.rs", 1, "tab\there");
        let j = d.to_json();
        assert!(j.starts_with("{\"event\":\"lint.diagnostic\",\"t_us\":0,"));
        assert!(j.contains("a\\\"b.rs"));
        assert!(j.contains("tab\\there"));
    }
}
