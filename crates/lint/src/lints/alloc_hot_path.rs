//! `alloc-hot-path` — no heap allocation reachable from a hot-path
//! root.
//!
//! The ROADMAP's governor-as-a-library item requires the decision path
//! (meter → section table → touch boost) to run allocation-free, so it
//! can embed in a real compositor's frame loop. This lint flags the
//! allocating constructors and adaptors — `Vec::new` /
//! `Vec::with_capacity` / `vec!` / `Box::new` / `String::…` /
//! `format!` / `.to_string()` / `.to_owned()` / `.to_vec()` /
//! `.collect()` — but only inside functions the
//! [`CallGraph`] proves reachable from a
//! hot-path root. Steady-state recycling paths (`PixelPool`,
//! `RunScratch`) justify their warm-up allocations with documented
//! `// ccdem-lint: allow(alloc-hot-path)` comments.
//!
//! `crates/obs` is exempt as a whole: the telemetry layer allocates by
//! design (owned event fields, JSONL buffers), and every allocating
//! path is behind an enabled-sink check — the embedded decision path
//! runs with `Obs::disabled()`, which short-circuits before any of it.
//! The contract is documented in DESIGN.md §10.

use crate::callgraph::CallGraph;
use crate::diag::{Diagnostic, LintId};
use crate::source::SourceFile;

/// File prefixes exempt from the allocation lint (see module docs).
const EXEMPT_PREFIXES: &[&str] = &["crates/obs/src/"];

/// Types whose associated constructors allocate.
const ALLOC_TYPES: &[&str] = &["Vec", "Box", "String", "VecDeque", "BTreeMap", "BTreeSet"];

/// Allocating methods (called with `.name(` or `.name::<…>(`).
const ALLOC_METHODS: &[&str] = &["to_string", "to_owned", "to_vec", "collect", "join"];

/// Allocating macros.
const ALLOC_MACROS: &[&str] = &["vec", "format"];

/// Flags allocation inside hot-reachable functions of `file`.
pub fn check(file: &SourceFile, graph: &CallGraph, out: &mut Vec<Diagnostic>) {
    if EXEMPT_PREFIXES.iter().any(|p| file.path.starts_with(p)) {
        return;
    }
    let toks = &file.tokens;
    for (k, token) in toks.iter().enumerate() {
        let line = token.line;
        if file.is_test_line(line) {
            continue;
        }
        let Some(root) = graph.hot(&file.path, line) else {
            continue;
        };
        // `Type::method(` for an allocating type.
        if let Some(ty) = token.tok.ident().filter(|t| ALLOC_TYPES.contains(t)) {
            let path_sep = toks.get(k + 1).is_some_and(|t| t.tok.is_punct(':'))
                && toks.get(k + 2).is_some_and(|t| t.tok.is_punct(':'));
            if path_sep {
                if let Some(m) = toks.get(k + 3).and_then(|t| t.tok.ident()) {
                    out.push(diag(file, line, &format!("{ty}::{m}"), root));
                    continue;
                }
            }
        }
        // `name!(` / `name![` / `name!{` for an allocating macro. The
        // open delimiter is required: `format != x` also lexes as
        // `format` `!` (the lexer splits `!=`), and that is not a call.
        if let Some(mac) = token.tok.ident().filter(|m| ALLOC_MACROS.contains(m)) {
            let bang = toks.get(k + 1).is_some_and(|t| t.tok.is_punct('!'));
            let delim = toks
                .get(k + 2)
                .is_some_and(|t| t.tok.is_punct('(') || t.tok.is_punct('[') || t.tok.is_punct('{'));
            if bang && delim {
                out.push(diag(file, line, &format!("{mac}!"), root));
                continue;
            }
        }
        // `.method(` / `.method::<…>(` for an allocating method.
        if token.tok.is_punct('.') {
            if let Some(m) = toks
                .get(k + 1)
                .and_then(|t| t.tok.ident())
                .filter(|m| ALLOC_METHODS.contains(m))
            {
                let called = toks
                    .get(k + 2)
                    .is_some_and(|t| t.tok.is_punct('(') || t.tok.is_punct(':'));
                if called {
                    out.push(diag(file, line, &format!(".{m}()"), root));
                }
            }
        }
    }
}

fn diag(file: &SourceFile, line: u32, what: &str, root: &str) -> Diagnostic {
    Diagnostic::new(
        LintId::AllocHotPath,
        file.path.clone(),
        line,
        format!(
            "{what} allocates on the hot path (reachable from {root}); \
             reuse a scratch buffer or hoist the allocation out of the \
             per-frame path"
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::CallGraph;
    use crate::lexer::lex;
    use std::collections::BTreeMap;

    fn run(path: &str, src: &str) -> Vec<(u32, String)> {
        let file = SourceFile::new(path.into(), "a".into(), lex(src).expect("lex"));
        let graph = CallGraph::build([&file], &BTreeMap::new(), &[("Root", "go")]);
        let mut out = Vec::new();
        check(&file, &graph, &mut out);
        out.retain(|d| !file.is_allowed(d.id, d.line));
        out.iter().map(|d| (d.line, d.message.clone())).collect()
    }

    const HOT_THEN_COLD: &str = "\
pub struct Root;\n\
impl Root {\n\
    pub fn go(&self) {\n\
        let v = Vec::new();\n\
        let s = format!(\"x\");\n\
        let b = Box::new(1);\n\
        let c: Vec<u32> = x.iter().collect();\n\
        let t = y.to_string();\n\
    }\n\
}\n\
pub fn cold() {\n\
    let v = vec![1, 2];\n\
    let s = String::new();\n\
}\n";

    #[test]
    fn flags_only_reachable_functions() {
        let hits = run("crates/a/src/lib.rs", HOT_THEN_COLD);
        let lines: Vec<u32> = hits.iter().map(|(l, _)| *l).collect();
        assert_eq!(lines, vec![4, 5, 6, 7, 8], "{hits:?}");
        assert!(hits[0].1.contains("Vec::new"));
        assert!(hits[0].1.contains("Root::go"));
    }

    #[test]
    fn obs_crate_is_exempt() {
        assert!(run("crates/obs/src/event.rs", HOT_THEN_COLD).is_empty());
    }

    #[test]
    fn documented_allow_suppresses_recycle_paths() {
        let src = "\
pub struct Root;\n\
impl Root {\n\
    pub fn go(&self) {\n\
        // ccdem-lint: allow(alloc-hot-path) — pool warm-up only\n\
        let v = Vec::with_capacity(64);\n\
    }\n\
}\n";
        assert!(run("crates/a/src/lib.rs", src).is_empty());
    }
}
