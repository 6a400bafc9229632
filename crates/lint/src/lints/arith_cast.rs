//! `arith-cast` — truncating casts and unchecked arithmetic in
//! fixed-point code.
//!
//! Three files do load-bearing fixed-point math: the log-linear bucket
//! arithmetic in `ccdem_obs::sketch`, the ×1000 fixed-point campaign
//! statistics in `experiments::campaign`, and the Eq. 1 threshold math
//! in `core::section`. In those files every `as` cast to an integer
//! type (silently truncating or saturating) and every unchecked binary
//! `+` / `*` (including `+=` / `*=`) must either be rewritten with
//! `From` / `checked_*` / `saturating_*`, or carry a documented
//! `// ccdem-lint: allow(arith-cast)` justification.
//!
//! Two shapes are deliberately not flagged: increments by the literal
//! `1` (counter bumps cannot meaningfully overflow a `u64` and have no
//! truncation risk), and operations with a float-literal operand
//! (float arithmetic saturates to ±inf instead of wrapping; the Eq. 1
//! float math is checked by `core::section`'s tests).

use crate::diag::{Diagnostic, LintId};
use crate::lexer::Tok;
use crate::source::SourceFile;

/// The fixed-point files in scope.
pub const SCOPED_FILES: &[&str] = &[
    "crates/obs/src/sketch.rs",
    "crates/experiments/src/campaign.rs",
    "crates/core/src/section.rs",
];

const INT_TYPES: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
];

/// Identifiers that end a value expression (so a following `+`/`*` is
/// binary). Keywords are excluded via this being an allow-list shape:
/// any identifier counts *except* expression-introducing keywords.
fn ends_value(tok: &Tok) -> bool {
    match tok {
        Tok::Ident(id) => !matches!(
            id.as_str(),
            "return" | "if" | "else" | "match" | "in" | "as" | "let" | "mut" | "ref" | "move"
        ),
        Tok::Num(_) => true,
        Tok::Punct(')') | Tok::Punct(']') => true,
        _ => false,
    }
}

/// Tokens that can begin the right operand of a binary `+`/`*`.
fn begins_value(tok: &Tok) -> bool {
    match tok {
        // `impl Trait + Send` / `dyn Error + Sync` bounds are the one
        // ident-plus-ident shape that is not arithmetic.
        Tok::Ident(id) => !matches!(id.as_str(), "Send" | "Sync" | "Unpin"),
        Tok::Num(_) => true,
        Tok::Punct('(') => true,
        _ => false,
    }
}

fn is_float_literal(tok: &Tok) -> bool {
    matches!(tok, Tok::Num(n) if n.contains('.')
        || n.ends_with("f32")
        || n.ends_with("f64")
        || (!n.starts_with("0x") && n.contains(['e', 'E'])))
}

fn is_one(tok: &Tok) -> bool {
    matches!(tok, Tok::Num(n) if n == "1")
}

/// Flags truncating casts and unchecked `+`/`*` in the scoped files.
pub fn check(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    if !SCOPED_FILES.contains(&file.path.as_str()) {
        return;
    }
    let toks = &file.tokens;
    for (k, token) in toks.iter().enumerate() {
        let line = token.line;
        if file.is_test_line(line) {
            continue;
        }
        // `expr as <int type>` — silently truncates (or saturates from
        // floats); the value-range claim deserves a checked conversion
        // or a written justification.
        if token.tok.is_ident("as") {
            if let Some(ty) = toks
                .get(k + 1)
                .and_then(|t| t.tok.ident())
                .filter(|t| INT_TYPES.contains(t))
            {
                out.push(Diagnostic::new(
                    LintId::ArithCast,
                    file.path.clone(),
                    line,
                    format!(
                        "`as {ty}` cast in fixed-point code truncates silently; \
                         use `{ty}::from` / `try_from`, or justify with an allow \
                         comment"
                    ),
                ));
                continue;
            }
        }
        // Binary `+` / `*` (and `+=` / `*=`).
        let op = match &token.tok {
            Tok::Punct(c @ ('+' | '*')) => *c,
            _ => continue,
        };
        let Some(prev) = k.checked_sub(1).and_then(|p| toks.get(p)) else {
            continue; // start of stream: cannot be binary
        };
        if !ends_value(&prev.tok) {
            continue; // unary deref / ref position / start of expr
        }
        // `+=`: the right operand sits one past the `=`.
        let rhs_at = if toks.get(k + 1).is_some_and(|t| t.tok.is_punct('=')) {
            k + 2
        } else {
            k + 1
        };
        let Some(rhs) = toks.get(rhs_at) else {
            continue;
        };
        if !begins_value(&rhs.tok) {
            continue;
        }
        if is_one(&rhs.tok) || is_one(&prev.tok) {
            continue; // counter bump / off-by-one adjustment
        }
        if is_float_literal(&rhs.tok) || is_float_literal(&prev.tok) {
            continue; // float math saturates rather than wrapping
        }
        let shown = if rhs_at == k + 2 {
            format!("{op}=")
        } else {
            op.to_string()
        };
        out.push(Diagnostic::new(
            LintId::ArithCast,
            file.path.clone(),
            line,
            format!(
                "unchecked `{shown}` in fixed-point code can wrap; use \
                 `checked_`/`saturating_` arithmetic or justify with an \
                 allow comment"
            ),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn run(src: &str) -> Vec<(u32, String)> {
        let file = SourceFile::new(
            SCOPED_FILES[0].to_string(),
            "obs".into(),
            lex(src).expect("lex"),
        );
        let mut out = Vec::new();
        check(&file, &mut out);
        out.retain(|d| !file.is_allowed(d.id, d.line));
        out.iter().map(|d| (d.line, d.message.clone())).collect()
    }

    #[test]
    fn flags_int_casts_and_unchecked_ops() {
        let src = "\
fn f(v: u64, n: usize) -> usize {\n\
    let a = v as usize;\n\
    let b = n * 8;\n\
    let mut c = n + b;\n\
    c += b;\n\
    c\n\
}\n";
        let hits = run(src);
        let lines: Vec<u32> = hits.iter().map(|(l, _)| *l).collect();
        assert_eq!(lines, vec![2, 3, 4, 5], "{hits:?}");
        assert!(hits[0].1.contains("as usize"));
        assert!(hits[3].1.contains("`+=`"));
    }

    #[test]
    fn counter_bumps_floats_and_derefs_pass() {
        let src = "\
fn f(xs: &mut [f64], v: f64) -> f64 {\n\
    let mut count = 0u64;\n\
    count += 1;\n\
    let scaled = v * 2.0;\n\
    for x in xs.iter_mut() {\n\
        *x += 1.0;\n\
    }\n\
    let cast = v as f64;\n\
    scaled + 1.0\n\
}\n";
        assert!(run(src).is_empty(), "{:?}", run(src));
    }

    #[test]
    fn out_of_scope_files_pass() {
        let file = SourceFile::new(
            "crates/core/src/governor.rs".into(),
            "core".into(),
            lex("fn f(a: u64, b: u64) -> u64 { (a * b) as u64 }").expect("lex"),
        );
        let mut out = Vec::new();
        check(&file, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn allow_comment_justifies() {
        let src = "\
fn f(v: u64) -> usize {\n\
    // ccdem-lint: allow(arith-cast) — v < 64 by construction\n\
    v as usize\n\
}\n";
        assert!(run(src).is_empty());
    }
}
