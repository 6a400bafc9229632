//! The per-file analysis model: lexed tokens, test-code regions, and
//! line-level suppressions.

use crate::diag::LintId;
use crate::lexer::{Comment, Lexed, Token};

/// One workspace source file, lexed and annotated.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Repo-relative path, forward slashes.
    pub path: String,
    /// The crate the file belongs to (directory name under `crates/`,
    /// or `ccdem` for the root package).
    pub crate_name: String,
    /// Significant tokens.
    pub tokens: Vec<Token>,
    /// Comments (for suppressions and doc-table parsing).
    pub comments: Vec<Comment>,
    /// Inclusive line ranges occupied by `#[cfg(test)]` / `#[test]`
    /// items; lints treat these as test code.
    test_ranges: Vec<(u32, u32)>,
    /// Suppressions from `// ccdem-lint: allow(…)` comments.
    allows: Vec<Allow>,
}

/// One `(comment, lint-id)` suppression entry. A comment naming several
/// ids yields one entry per id, so staleness is tracked per id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allow {
    /// The suppressed lint family.
    pub id: LintId,
    /// 1-based line of the allow comment itself (where a staleness
    /// finding anchors).
    pub comment_line: u32,
    /// Inclusive line range the suppression covers: the comment block
    /// plus the line after it.
    pub lines: (u32, u32),
}

impl SourceFile {
    /// Builds the model from a lexed file.
    pub fn new(path: String, crate_name: String, lexed: Lexed) -> SourceFile {
        let test_ranges = test_ranges(&lexed.tokens);
        let allows = allows(&lexed.comments);
        SourceFile {
            path,
            crate_name,
            tokens: lexed.tokens,
            comments: lexed.comments,
            test_ranges,
            allows,
        }
    }

    /// Whether `line` is inside a `#[cfg(test)]` / `#[test]` item.
    pub fn is_test_line(&self, line: u32) -> bool {
        self.test_ranges
            .iter()
            .any(|&(lo, hi)| (lo..=hi).contains(&line))
    }

    /// Whether a `// ccdem-lint: allow(id)` suppression covers `line`.
    pub fn is_allowed(&self, id: LintId, line: u32) -> bool {
        self.allow_indices(id, line).next().is_some()
    }

    /// Indices (into [`allows`](Self::allows)) of every suppression
    /// entry covering `(id, line)` — the driver marks these used for
    /// stale-suppression detection.
    pub fn allow_indices(&self, id: LintId, line: u32) -> impl Iterator<Item = usize> + '_ {
        self.allows
            .iter()
            .enumerate()
            .filter(move |(_, a)| a.id == id && (a.lines.0..=a.lines.1).contains(&line))
            .map(|(i, _)| i)
    }

    /// Every suppression entry in the file.
    pub fn allows(&self) -> &[Allow] {
        &self.allows
    }
}

/// Parses `// ccdem-lint: allow(id, id2)` comments into per-line
/// suppressions. A suppression covers the comment's own lines plus the
/// line after it, so both styles work:
///
/// ```text
/// foo().unwrap(); // ccdem-lint: allow(panic) — justified because …
///
/// // ccdem-lint: allow(determinism) — host timing is telemetry-only
/// use std::time::Instant;
/// ```
///
/// When the justification spans several consecutive `//` lines, coverage
/// extends through the whole block to the line after its last comment —
/// the allow can sit on any line of the block.
///
/// Doc comments (`///`, `//!`, `/**`, `/*!`) are skipped: prose and
/// examples about the allow syntax must not create live suppressions
/// (which would then be flagged as stale).
fn allows(comments: &[Comment]) -> Vec<Allow> {
    let mut out = Vec::new();
    for (k, comment) in comments.iter().enumerate() {
        if is_doc_comment(&comment.text) {
            continue;
        }
        let Some(rest) = comment.text.split("ccdem-lint:").nth(1) else {
            continue;
        };
        let Some(args) = rest.split("allow(").nth(1) else {
            continue;
        };
        let Some(list) = args.split(')').next() else {
            continue;
        };
        // Extend through immediately following comment lines (a
        // multi-line `//` justification block).
        let mut end = comment.end_line;
        for next in comments.get(k + 1..).unwrap_or(&[]) {
            if next.line == end + 1 {
                end = next.end_line;
            } else {
                break;
            }
        }
        for raw in list.split(',') {
            if let Some(id) = LintId::parse(raw.trim()) {
                out.push(Allow {
                    id,
                    comment_line: comment.line,
                    lines: (comment.line, end + 1),
                });
            }
        }
    }
    out
}

/// Whether a raw comment (prefix included) is a doc comment.
fn is_doc_comment(text: &str) -> bool {
    text.starts_with("///")
        || text.starts_with("//!")
        || text.starts_with("/**")
        || text.starts_with("/*!")
}

/// Finds the inclusive line ranges of items annotated `#[cfg(test)]`
/// (including `cfg(all(test, …))` but not `cfg(not(test))`) or
/// `#[test]`-style attributes. The range runs from the attribute to the
/// end of the annotated item — the matching close brace, or the `;` for
/// brace-less items like `use` declarations.
fn test_ranges(tokens: &[Token]) -> Vec<(u32, u32)> {
    let mut ranges = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if !starts_attribute(tokens, i) {
            i += 1;
            continue;
        }
        let attr_line = line_at(tokens, i);
        let Some(close) = matching(tokens, i + 1, '[', ']') else {
            break;
        };
        let is_test = attribute_is_test(tokens.get(i + 2..close).unwrap_or(&[]));
        i = close + 1;
        if !is_test {
            continue;
        }
        // Skip any further attributes on the same item.
        while starts_attribute(tokens, i) {
            match matching(tokens, i + 1, '[', ']') {
                Some(close) => i = close + 1,
                None => return ranges,
            }
        }
        // The item body: up to the first `;` at depth 0, or the close of
        // the first brace block.
        let mut end_line = attr_line;
        let mut j = i;
        while let Some(token) = tokens.get(j) {
            end_line = token.line;
            if token.tok.is_punct(';') {
                break;
            }
            if token.tok.is_punct('{') {
                if let Some(close) = matching(tokens, j, '{', '}') {
                    end_line = line_at(tokens, close);
                    j = close;
                }
                break;
            }
            j += 1;
        }
        ranges.push((attr_line, end_line));
        i = j + 1;
    }
    ranges
}

fn line_at(tokens: &[Token], i: usize) -> u32 {
    tokens.get(i).map_or(0, |t| t.line)
}

/// Whether tokens at `i` start an attribute: `#` `[` (outer) or
/// `#` `!` `[` (inner).
fn starts_attribute(tokens: &[Token], i: usize) -> bool {
    let hash = tokens.get(i).is_some_and(|t| t.tok.is_punct('#'));
    let bracket = tokens.get(i + 1).is_some_and(|t| t.tok.is_punct('['));
    hash && bracket
}

/// Whether the attribute token body marks test code. True for `test`
/// (`#[test]`), `cfg(test)`, and `cfg(all(test, …))`; false when every
/// `test` is wrapped in `not(…)`.
fn attribute_is_test(body: &[Token]) -> bool {
    for (k, token) in body.iter().enumerate() {
        if !token.tok.is_ident("test") {
            continue;
        }
        // `not ( test` — the two significant tokens before this `test`.
        let negated = k >= 2
            && body.get(k - 1).is_some_and(|t| t.tok.is_punct('('))
            && body.get(k - 2).is_some_and(|t| t.tok.is_ident("not"));
        if !negated {
            return true;
        }
    }
    false
}

/// The index of the token closing the bracket pair opened at `open_at`
/// (which must hold `open`), honouring nesting.
pub fn matching(tokens: &[Token], open_at: usize, open: char, close: char) -> Option<usize> {
    if !tokens.get(open_at)?.tok.is_punct(open) {
        return None;
    }
    let mut depth = 0usize;
    for (i, token) in tokens.iter().enumerate().skip(open_at) {
        if token.tok.is_punct(open) {
            depth += 1;
        } else if token.tok.is_punct(close) {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn file(src: &str) -> SourceFile {
        SourceFile::new("test.rs".into(), "test".into(), lex(src).expect("lex"))
    }

    #[test]
    fn cfg_test_mod_is_a_test_range() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn tail() {}";
        let f = file(src);
        assert!(!f.is_test_line(1));
        assert!(f.is_test_line(2));
        assert!(f.is_test_line(3));
        assert!(f.is_test_line(4));
        assert!(f.is_test_line(5));
        assert!(!f.is_test_line(6));
    }

    #[test]
    fn cfg_not_test_is_library_code() {
        let f = file("#[cfg(not(test))]\nfn real() {}\n");
        assert!(!f.is_test_line(2));
    }

    #[test]
    fn cfg_all_test_is_test_code() {
        let f = file("#[cfg(all(test, unix))]\nmod helpers {\n}\n");
        assert!(f.is_test_line(2));
    }

    #[test]
    fn cfg_test_use_extends_to_semicolon_only() {
        let f = file("#[cfg(test)]\nuse std::collections::HashMap;\nfn lib() {}\n");
        assert!(f.is_test_line(2));
        assert!(!f.is_test_line(3));
    }

    #[test]
    fn trailing_allow_covers_its_line() {
        let f = file("fn f() { g().unwrap(); } // ccdem-lint: allow(panic) — invariant\n");
        assert!(f.is_allowed(LintId::Panic, 1));
        assert!(!f.is_allowed(LintId::Determinism, 1));
    }

    #[test]
    fn preceding_allow_covers_next_line() {
        let f =
            file("// ccdem-lint: allow(determinism) — telemetry only\nuse std::time::Instant;\n");
        assert!(f.is_allowed(LintId::Determinism, 2));
        assert!(!f.is_allowed(LintId::Determinism, 3));
    }

    #[test]
    fn allow_block_extends_through_consecutive_comments() {
        let src = "// ccdem-lint: allow(determinism) — wall-clock feeds the\n\
                   // timing report only, never a RunResult.\n\
                   use std::time::Instant;\n\
                   fn lib() {}\n";
        let f = file(src);
        assert!(f.is_allowed(LintId::Determinism, 3));
        assert!(!f.is_allowed(LintId::Determinism, 4));
    }

    #[test]
    fn allow_accepts_multiple_ids() {
        let f = file("// ccdem-lint: allow(panic, determinism)\nlet x = v[0];\n");
        assert!(f.is_allowed(LintId::Panic, 2));
        assert!(f.is_allowed(LintId::Determinism, 2));
    }

    #[test]
    fn nested_attributes_inside_test_mod_do_not_split_the_range() {
        let src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { x.unwrap(); }\n}\n";
        let f = file(src);
        for line in 1..=5 {
            assert!(f.is_test_line(line), "line {line} should be test code");
        }
    }
}
