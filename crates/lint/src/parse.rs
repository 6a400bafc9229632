//! Item-level parsing: a brace tree over the lexed token stream.
//!
//! The call-graph lints need to know *which function* a token lives in
//! and *which functions that function calls* — nothing more. This
//! parser recovers exactly that from the [`lexer`](crate::lexer)
//! output: `mod` / `impl` / `trait` / `fn` nesting, the line span of
//! every function body, and the call sites inside it. It is not a Rust
//! parser; anything it does not understand it walks past, and call
//! extraction deliberately over-approximates (trait methods and
//! closures resolve by name suffix downstream), which keeps the
//! reachability analysis sound for the lint's purpose: it may mark too
//! much code as hot, never too little.

use crate::lexer::Token;
use crate::source::{matching, SourceFile};

/// One function (or method) with a body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnItem {
    /// Repo-relative path of the defining file.
    pub file: String,
    /// Crate the file belongs to.
    pub crate_name: String,
    /// The bare function name.
    pub name: String,
    /// The enclosing `impl`/`trait` type, if any (last path segment of
    /// the self type; `impl fmt::Display for Foo` records `Foo`).
    pub type_name: Option<String>,
    /// The in-file module path (`mod a { mod b { … } }` → `["a","b"]`).
    pub module: Vec<String>,
    /// 1-based line of the `fn` keyword.
    pub start_line: u32,
    /// 1-based line of the body's closing brace.
    pub end_line: u32,
    /// Call sites inside the body. Calls inside closures and nested
    /// functions are attributed to this item too (over-approximation).
    pub calls: Vec<CallSite>,
    /// Whether the item sits inside a `#[cfg(test)]` / `#[test]` range.
    pub is_test: bool,
}

impl FnItem {
    /// `Type::name` when inside an impl, else the bare name.
    pub fn qualified_name(&self) -> String {
        match &self.type_name {
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// One call site inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallSite {
    /// The called name (last path segment).
    pub name: String,
    /// The path segment immediately before `::name`, when present
    /// (`GridSampler::new(…)` → `Some("GridSampler")`, `Self::f()` →
    /// `Some("Self")`). `None` for bare calls and method calls.
    pub qualifier: Option<String>,
    /// Whether this is a `.name(…)` method call.
    pub method: bool,
    /// 1-based line of the call.
    pub line: u32,
}

/// Identifiers that look like calls lexically but are not function
/// calls worth an edge: control-flow keywords and the std tuple-variant
/// constructors that appear everywhere.
const NON_CALL_IDENTS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "else", "unsafe", "let", "in", "move", "ref",
    "mut", "break", "continue", "where", "impl", "dyn", "as", "fn", "use", "pub", "Some", "None",
    "Ok", "Err",
];

/// Parses every function item in `file`.
pub fn parse(file: &SourceFile) -> Vec<FnItem> {
    let mut out = Vec::new();
    let mut module = Vec::new();
    walk(file, 0, file.tokens.len(), &mut module, None, &mut out);
    out
}

/// Walks tokens in `[i, end)`, recursing into every brace region so
/// nested items (mods in mods, fns in fns, impls in functions) are all
/// found.
fn walk(
    file: &SourceFile,
    mut i: usize,
    end: usize,
    module: &mut Vec<String>,
    impl_type: Option<&str>,
    out: &mut Vec<FnItem>,
) {
    let toks = &file.tokens;
    while i < end {
        let Some(token) = toks.get(i) else { break };
        // Skip attributes: `#[…]` and `#![…]`.
        if token.tok.is_punct('#') {
            let open = if toks.get(i + 1).is_some_and(|t| t.tok.is_punct('!')) {
                i + 2
            } else {
                i + 1
            };
            if toks.get(open).is_some_and(|t| t.tok.is_punct('[')) {
                if let Some(close) = matching(toks, open, '[', ']') {
                    i = close + 1;
                    continue;
                }
            }
        }
        if token.tok.is_ident("mod") {
            if let Some(name) = toks.get(i + 1).and_then(|t| t.tok.ident()) {
                match toks.get(i + 2).map(|t| &t.tok) {
                    Some(t) if t.is_punct('{') => {
                        if let Some(close) = matching(toks, i + 2, '{', '}') {
                            module.push(name.to_string());
                            walk(file, i + 3, close, module, impl_type, out);
                            module.pop();
                            i = close + 1;
                            continue;
                        }
                    }
                    _ => {
                        // `mod name;` — out-of-line module, nothing here.
                        i += 2;
                        continue;
                    }
                }
            }
        }
        if token.tok.is_ident("impl") || token.tok.is_ident("trait") {
            let is_trait = token.tok.is_ident("trait");
            if let Some((ty, body_open)) = impl_header(toks, i, end, is_trait) {
                if let Some(close) = matching(toks, body_open, '{', '}') {
                    walk(file, body_open + 1, close, module, Some(&ty), out);
                    i = close + 1;
                    continue;
                }
            }
            // `impl Trait for X;` or an unterminated header: move on.
            i += 1;
            continue;
        }
        if token.tok.is_ident("fn") {
            if let Some(name) = toks.get(i + 1).and_then(|t| t.tok.ident()) {
                // The body opens at the first `{` before any `;` (a `;`
                // first means a bodiless trait-method declaration).
                let mut j = i + 2;
                let mut body_open = None;
                while j < end {
                    let Some(tj) = toks.get(j) else { break };
                    if tj.tok.is_punct('{') {
                        body_open = Some(j);
                        break;
                    }
                    if tj.tok.is_punct(';') {
                        break;
                    }
                    j += 1;
                }
                if let Some(open) = body_open {
                    if let Some(close) = matching(toks, open, '{', '}') {
                        let mut calls = Vec::new();
                        collect_calls(toks, open + 1, close, &mut calls);
                        out.push(FnItem {
                            file: file.path.clone(),
                            crate_name: file.crate_name.clone(),
                            name: name.to_string(),
                            type_name: impl_type.map(str::to_string),
                            module: module.clone(),
                            start_line: token.line,
                            end_line: line_of(toks, close),
                            calls,
                            is_test: file.is_test_line(token.line),
                        });
                        // Nested named fns become items of their own.
                        walk(file, open + 1, close, module, impl_type, out);
                        i = close + 1;
                        continue;
                    }
                }
                i = j + 1;
                continue;
            }
        }
        // Any other brace region (struct bodies, const initialisers):
        // recurse so no item hides from us.
        if token.tok.is_punct('{') {
            if let Some(close) = matching(toks, i, '{', '}') {
                walk(file, i + 1, close, module, impl_type, out);
                i = close + 1;
                continue;
            }
        }
        i += 1;
    }
}

/// The line of token `k` (0 only when `k` is out of range, which the
/// `matching` invariants rule out).
fn line_of(toks: &[Token], k: usize) -> u32 {
    toks.get(k).map_or(0, |t| t.line)
}

/// Parses an `impl`/`trait` header starting at `kw`: returns the
/// self-type name and the index of the body `{`.
///
/// For `impl`, the name is the last angle-depth-0 path segment before
/// the body or a `where` clause, taken after `for` when present — so
/// `impl<T> fmt::Display for Grid<T> where T: Copy` yields `Grid`. For
/// `trait`, it is the identifier right after the keyword (`trait Foo:
/// Bar` must not pick up `Bar`).
fn impl_header(toks: &[Token], kw: usize, end: usize, is_trait: bool) -> Option<(String, usize)> {
    let mut name: Option<&str> = None;
    let mut angle_depth = 0i32;
    let mut in_where = false;
    let mut j = kw + 1;
    while j < end {
        let Some(t) = toks.get(j) else { break };
        if t.tok.is_punct('{') && angle_depth <= 0 {
            return name.map(|n| (n.to_string(), j));
        }
        if t.tok.is_punct(';') && angle_depth <= 0 {
            return None;
        }
        if t.tok.is_punct('<') {
            angle_depth += 1;
        } else if t.tok.is_punct('>') {
            // `->` in an `impl Fn(…) -> R` bound: the `>` belongs to the
            // arrow, not a generic list.
            if !toks
                .get(j.wrapping_sub(1))
                .is_some_and(|p| p.tok.is_punct('-'))
            {
                angle_depth -= 1;
            }
        } else if angle_depth <= 0 {
            if t.tok.is_ident("where") {
                in_where = true;
            } else if t.tok.is_ident("for") {
                name = None; // the self type follows
            } else if let Some(id) = t.tok.ident() {
                if !in_where && !matches!(id, "dyn" | "const" | "unsafe" | "async") {
                    name = Some(id);
                    if is_trait {
                        // First identifier is the trait name; stop so
                        // supertrait bounds don't override it.
                        in_where = true;
                    }
                }
            }
        }
        j += 1;
    }
    None
}

/// Extracts call sites in the token range `[start, end)`.
fn collect_calls(toks: &[Token], start: usize, end: usize, out: &mut Vec<CallSite>) {
    for k in start..end {
        let Some(tok) = toks.get(k) else { break };
        // `.name::<…>(…)` — turbofish method call; the `(` is far away,
        // so catch it at the `.` instead.
        if tok.tok.is_punct('.')
            && toks.get(k + 2).is_some_and(|t| t.tok.is_punct(':'))
            && toks.get(k + 3).is_some_and(|t| t.tok.is_punct(':'))
            && toks.get(k + 4).is_some_and(|t| t.tok.is_punct('<'))
        {
            if let Some(next) = toks.get(k + 1) {
                if let Some(name) = next.tok.ident() {
                    if !NON_CALL_IDENTS.contains(&name) {
                        out.push(CallSite {
                            name: name.to_string(),
                            qualifier: None,
                            method: true,
                            line: next.line,
                        });
                    }
                }
            }
            continue;
        }
        if !tok.tok.is_punct('(') || k < start + 1 {
            continue;
        }
        let Some(prev) = toks.get(k.wrapping_sub(1)) else {
            continue;
        };
        let Some(name) = prev.tok.ident() else {
            continue;
        };
        if NON_CALL_IDENTS.contains(&name) {
            continue;
        }
        let prev2 = k.checked_sub(2).and_then(|p| toks.get(p));
        // `fn name(` is a declaration, not a call.
        if k >= start + 2 && prev2.is_some_and(|t| t.tok.is_ident("fn")) {
            continue;
        }
        let line = prev.line;
        if k >= start + 2 && prev2.is_some_and(|t| t.tok.is_punct('.')) {
            out.push(CallSite {
                name: name.to_string(),
                qualifier: None,
                method: true,
                line,
            });
        } else if k >= start + 3
            && prev2.is_some_and(|t| t.tok.is_punct(':'))
            && k.checked_sub(3)
                .and_then(|p| toks.get(p))
                .is_some_and(|t| t.tok.is_punct(':'))
        {
            let qualifier = toks
                .get(k.wrapping_sub(4))
                .and_then(|t| t.tok.ident())
                .map(str::to_string);
            out.push(CallSite {
                name: name.to_string(),
                qualifier,
                method: false,
                line,
            });
        } else {
            out.push(CallSite {
                name: name.to_string(),
                qualifier: None,
                method: false,
                line,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn items(src: &str) -> Vec<FnItem> {
        let file = SourceFile::new("t.rs".into(), "t".into(), lex(src).expect("lex"));
        parse(&file)
    }

    #[test]
    fn free_fn_span_and_name() {
        let fns = items("fn a() {\n    b();\n}\n\nfn b() {}\n");
        assert_eq!(fns.len(), 2);
        assert_eq!(fns[0].name, "a");
        assert_eq!((fns[0].start_line, fns[0].end_line), (1, 3));
        assert_eq!(
            fns[0].calls,
            vec![CallSite {
                name: "b".into(),
                qualifier: None,
                method: false,
                line: 2,
            }]
        );
        assert_eq!(fns[1].name, "b");
        assert!(fns[1].calls.is_empty());
    }

    #[test]
    fn impl_methods_carry_the_type() {
        let src = "struct G;\nimpl G {\n    fn m(&self) { self.n(); }\n    fn n(&self) {}\n}\n\
                   impl std::fmt::Display for G {\n    fn fmt(&self) {}\n}\n";
        let fns = items(src);
        let names: Vec<String> = fns.iter().map(FnItem::qualified_name).collect();
        assert_eq!(names, vec!["G::m", "G::n", "G::fmt"]);
        assert!(fns[0].calls.iter().any(|c| c.name == "n" && c.method));
    }

    #[test]
    fn generic_impl_for_resolves_self_type() {
        let src = "impl<T: Clone> Mapper for Table<T> where T: Copy {\n    fn f(&self) {}\n}\n";
        let fns = items(src);
        assert_eq!(fns[0].type_name.as_deref(), Some("Table"));
    }

    #[test]
    fn trait_default_bodies_use_trait_name_not_supertrait() {
        let fns = items("trait Foo: Bar {\n    fn d(&self) { go(); }\n    fn decl(&self);\n}\n");
        assert_eq!(fns.len(), 1, "bodiless declarations are not items");
        assert_eq!(fns[0].qualified_name(), "Foo::d");
    }

    #[test]
    fn modules_nest() {
        let fns = items("mod a {\n    mod b {\n        fn deep() {}\n    }\n}\n");
        assert_eq!(fns[0].module, vec!["a", "b"]);
    }

    #[test]
    fn qualified_and_turbofish_calls() {
        let src = "fn f(v: &[u32]) {\n    let s = Sampler::new();\n    crate::util::go();\n    \
                   let x: Vec<u32> = v.iter().collect::<Vec<u32>>();\n}\n";
        let fns = items(src);
        let calls = &fns[0].calls;
        assert!(calls
            .iter()
            .any(|c| c.name == "new" && c.qualifier.as_deref() == Some("Sampler")));
        assert!(calls
            .iter()
            .any(|c| c.name == "go" && c.qualifier.as_deref() == Some("util")));
        assert!(calls.iter().any(|c| c.name == "collect" && c.method));
        assert!(calls.iter().any(|c| c.name == "iter" && c.method));
    }

    #[test]
    fn closures_attribute_calls_to_the_enclosing_fn() {
        let fns = items("fn f() {\n    run(|x| helper(x));\n}\n");
        let calls = &fns[0].calls;
        assert!(calls.iter().any(|c| c.name == "run"));
        assert!(calls.iter().any(|c| c.name == "helper"));
    }

    #[test]
    fn nested_fns_are_their_own_items_and_over_approximated() {
        let fns = items("fn outer() {\n    fn inner() { leaf(); }\n    inner();\n}\n");
        assert_eq!(fns.len(), 2);
        let outer = fns.iter().find(|f| f.name == "outer").expect("outer");
        // Over-approximation: the nested body's calls count for both.
        assert!(outer.calls.iter().any(|c| c.name == "leaf"));
        assert!(outer.calls.iter().any(|c| c.name == "inner"));
        let inner = fns.iter().find(|f| f.name == "inner").expect("inner");
        assert!(inner.calls.iter().any(|c| c.name == "leaf"));
    }

    #[test]
    fn test_items_are_marked() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn helper() {}\n}\n";
        let fns = items(src);
        assert!(!fns[0].is_test);
        assert!(fns[1].is_test, "{fns:?}");
    }

    #[test]
    fn control_flow_and_variants_are_not_calls() {
        let fns = items(
            "fn f(x: u32) -> Option<u32> {\n    if x > (1) { return Some(x); }\n    \
                         match x { 0 => None, _ => Ok(x).ok() }\n}\n",
        );
        let names: Vec<&str> = fns[0].calls.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["ok"], "{names:?}");
    }
}
