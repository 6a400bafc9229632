//! The panic-policy lint.
//!
//! Library code must not reserve the right to abort the process:
//! fallible operations return `Result`/`Option` to the caller, and the
//! only sanctioned panics are (a) documented contract violations behind
//! `assert!`-family macros (which carry a `# Panics` doc section and are
//! not flagged here) and (b) provably-unreachable cases carrying a
//! line-level `// ccdem-lint: allow(panic)` with the invariant spelled
//! out. The lint flags, in non-test library code:
//!
//! * `.unwrap()` — swallows the error message too;
//! * `.expect(…)` — acceptable only with an allow comment justifying
//!   why the failure is impossible;
//! * `panic!(…)`;
//! * index expressions `x[i]` — `get`/`get_mut` make the miss explicit.
//!   Full-range slicing `x[..]` cannot panic and is not flagged.

use crate::diag::{Diagnostic, LintId};
use crate::lexer::Tok;
use crate::source::{matching, SourceFile};

/// Crates exempt from the panic policy: the vendored `proptest` shim
/// (panicking is how a property-test harness reports failure).
pub const EXEMPT_CRATES: [&str; 1] = ["proptest"];

/// Keywords that can legally precede `[` without forming an index
/// expression (slice patterns, array types/literals after `=`, …).
const NON_INDEX_PRECEDERS: [&str; 15] = [
    "let", "for", "in", "if", "else", "match", "return", "mut", "ref", "box", "move", "as", "dyn",
    "where", "const",
];

/// Runs the panic-policy lint over one file.
pub fn check(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    if EXEMPT_CRATES.contains(&file.crate_name.as_str()) {
        return;
    }
    let tokens = &file.tokens;
    for (i, token) in tokens.iter().enumerate() {
        if file.is_test_line(token.line) {
            continue;
        }
        match &token.tok {
            Tok::Ident(name) if name == "unwrap" => {
                // `.unwrap()` exactly — `unwrap_or(…)` is a different,
                // total method and lexes as a different identifier.
                let dotted = i >= 1 && tokens.get(i - 1).is_some_and(|t| t.tok.is_punct('.'));
                let called = tokens.get(i + 1).is_some_and(|t| t.tok.is_punct('('))
                    && tokens.get(i + 2).is_some_and(|t| t.tok.is_punct(')'));
                if dotted && called {
                    out.push(Diagnostic::new(
                        LintId::Panic,
                        file.path.clone(),
                        token.line,
                        "`.unwrap()` in library code: propagate the error or document the \
                         invariant with `.expect(…)` plus `// ccdem-lint: allow(panic)`",
                    ));
                }
            }
            Tok::Ident(name) if name == "expect" => {
                let dotted = i >= 1 && tokens.get(i - 1).is_some_and(|t| t.tok.is_punct('.'));
                let called = tokens.get(i + 1).is_some_and(|t| t.tok.is_punct('('));
                if dotted && called {
                    out.push(Diagnostic::new(
                        LintId::Panic,
                        file.path.clone(),
                        token.line,
                        "`.expect(…)` in library code: propagate the error, or justify the \
                         invariant with `// ccdem-lint: allow(panic)`",
                    ));
                }
            }
            Tok::Ident(name)
                if name == "panic" && tokens.get(i + 1).is_some_and(|t| t.tok.is_punct('!')) =>
            {
                out.push(Diagnostic::new(
                    LintId::Panic,
                    file.path.clone(),
                    token.line,
                    "`panic!` in library code: return an error instead",
                ));
            }
            Tok::Punct('[') if is_index_expression(tokens, i) => {
                out.push(Diagnostic::new(
                    LintId::Panic,
                    file.path.clone(),
                    token.line,
                    "index expression in library code can panic on a miss: use \
                     `get`/`get_mut`, or justify bounds with `// ccdem-lint: allow(panic)`",
                ));
            }
            _ => {}
        }
    }
}

/// Whether the `[` at `open_at` begins an index *expression* (`x[i]`)
/// rather than an array type/literal, slice pattern, or attribute.
/// Heuristic: the previous significant token must be something an index
/// can apply to — a non-keyword identifier, a close-paren, or a close
/// bracket — and the body must not be the full range `[..]` (which
/// cannot panic).
fn is_index_expression(tokens: &[crate::lexer::Token], open_at: usize) -> bool {
    let Some(prev_at) = open_at.checked_sub(1) else {
        return false;
    };
    let indexable = match tokens.get(prev_at).map(|t| &t.tok) {
        Some(Tok::Ident(name)) => !NON_INDEX_PRECEDERS.contains(&name.as_str()),
        Some(Tok::Punct(')')) | Some(Tok::Punct(']')) => true,
        _ => false,
    };
    if !indexable {
        return false;
    }
    // `x[..]` is RangeFull indexing: total, never panics.
    if let Some(close) = matching(tokens, open_at, '[', ']') {
        let body = tokens.get(open_at + 1..close).unwrap_or(&[]);
        if body.len() == 2 && body.iter().all(|t| t.tok.is_punct('.')) {
            return false;
        }
    }
    true
}
