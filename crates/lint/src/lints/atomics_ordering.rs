//! `atomics-ordering` — every memory ordering in `crates/obs` must be
//! justified in a comment.
//!
//! The telemetry layer is the only concurrent code whose correctness
//! rests on atomic memory orderings (registry counters, sink buffers,
//! sketch bins). An `Ordering::Relaxed` that is actually fine for a
//! monotone counter is indistinguishable, at the call site, from one
//! that silently drops a needed happens-before edge — unless the author
//! wrote down *why*. This lint requires every `Ordering::*` argument in
//! `crates/obs` to carry a justification: a comment on the same line,
//! or a comment block ending on the line directly above, that mentions
//! the ordering vocabulary (`ordering`, `relaxed`, `acquire`,
//! `release`, `seqcst`, `atomic`, or `happens-before`). A bare
//! `SeqCst` is additionally flagged as an unjustified default even
//! though it is the strongest ordering: if sequential consistency is
//! truly required, the comment must say `SeqCst` and name the reason;
//! if it is not, the site should state the weaker ordering it needs.

use crate::diag::{Diagnostic, LintId};
use crate::source::SourceFile;

/// Words a justification comment must touch to count.
const VOCAB: &[&str] = &[
    "ordering",
    "relaxed",
    "acquire",
    "release",
    "acqrel",
    "seqcst",
    "atomic",
    "happens-before",
];

/// Flags unjustified `Ordering::*` arguments in `crates/obs`.
pub fn check(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    if file.crate_name != "obs" {
        return;
    }
    let toks = &file.tokens;
    for (k, token) in toks.iter().enumerate() {
        if !token.tok.is_ident("Ordering") {
            continue;
        }
        let path_sep = toks.get(k + 1).is_some_and(|t| t.tok.is_punct(':'))
            && toks.get(k + 2).is_some_and(|t| t.tok.is_punct(':'));
        if !path_sep {
            continue;
        }
        let Some(ord) = toks.get(k + 3).and_then(|t| t.tok.ident()) else {
            continue;
        };
        let line = token.line;
        if file.is_test_line(line) {
            continue;
        }
        let justification = justification_for(file, line);
        let justified = justification.is_some_and(|text| {
            let lower = text.to_lowercase();
            let vocab_ok = VOCAB.iter().any(|w| lower.contains(w));
            // SeqCst must be named explicitly: a generic "atomic
            // counter" note does not explain needing the strongest
            // ordering.
            vocab_ok && (ord != "SeqCst" || lower.contains("seqcst"))
        });
        if !justified {
            let hint = if ord == "SeqCst" {
                "bare SeqCst is an unjustified default; name the required \
                 happens-before edge in a comment or use the weakest \
                 sufficient ordering"
            } else {
                "add a same-line or preceding comment explaining why this \
                 ordering is sufficient"
            };
            out.push(Diagnostic::new(
                LintId::AtomicsOrdering,
                file.path.clone(),
                line,
                format!("`Ordering::{ord}` without a written justification; {hint}"),
            ));
        }
    }
}

/// The text of a comment covering `line`: on the line itself, or a
/// comment block whose last line is `line - 1` (walking the block
/// upward so multi-line justifications concatenate).
fn justification_for(file: &SourceFile, line: u32) -> Option<String> {
    let mut parts: Vec<&str> = Vec::new();
    for c in &file.comments {
        if c.line <= line && line <= c.end_line {
            parts.push(&c.text);
        }
    }
    if parts.is_empty() {
        // A preceding block: comments ending exactly on line-1, plus
        // any directly stacked above them.
        let mut cursor = line;
        loop {
            let above: Vec<&str> = file
                .comments
                .iter()
                .filter(|c| c.end_line + 1 == cursor)
                .map(|c| c.text.as_str())
                .collect();
            if above.is_empty() {
                break;
            }
            let top = file
                .comments
                .iter()
                .filter(|c| c.end_line + 1 == cursor)
                .map(|c| c.line)
                .min()
                .unwrap_or(cursor);
            parts.splice(0..0, above);
            if top >= cursor {
                break;
            }
            cursor = top;
        }
    }
    if parts.is_empty() {
        None
    } else {
        Some(parts.join(" "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn run(crate_name: &str, src: &str) -> Vec<(u32, String)> {
        let file = SourceFile::new(
            "crates/obs/src/registry.rs".into(),
            crate_name.into(),
            lex(src).expect("lex"),
        );
        let mut out = Vec::new();
        check(&file, &mut out);
        out.iter().map(|d| (d.line, d.message.clone())).collect()
    }

    #[test]
    fn bare_orderings_flag_and_comments_justify() {
        let src = "\
fn f(c: &AtomicU64) {\n\
    c.fetch_add(1, Ordering::Relaxed);\n\
    c.load(Ordering::Relaxed); // ordering: relaxed — monotone counter, no reader sync\n\
    // ordering: relaxed — snapshot tearing is acceptable for telemetry\n\
    c.store(0, Ordering::Relaxed);\n\
}\n";
        let hits = run("obs", src);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].0, 2);
    }

    #[test]
    fn seqcst_needs_an_explicit_seqcst_reason() {
        let src = "\
fn f(c: &AtomicU64) {\n\
    c.store(1, Ordering::SeqCst); // ordering: relaxed would do\n\
    c.store(2, Ordering::SeqCst); // ordering: SeqCst — total order across flags observed by drain\n\
}\n";
        let hits = run("obs", src);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].0, 2);
        assert!(hits[0].1.contains("SeqCst"));
    }

    #[test]
    fn unrelated_comments_do_not_count() {
        let src = "\
fn f(c: &AtomicU64) {\n\
    // bump the thing\n\
    c.fetch_add(1, Ordering::Relaxed);\n\
}\n";
        assert_eq!(run("obs", src).len(), 1);
    }

    #[test]
    fn multi_line_block_justifies() {
        let src = "\
fn f(c: &AtomicU64) {\n\
    // The counter is monotone and never read back on this thread;\n\
    // ordering: relaxed is sufficient.\n\
    c.fetch_add(1, Ordering::Relaxed);\n\
}\n";
        assert!(run("obs", src).is_empty());
    }

    #[test]
    fn other_crates_are_out_of_scope() {
        assert!(run("core", "fn f(c: &AtomicU64) { c.load(Ordering::SeqCst); }").is_empty());
    }
}
