//! The cross-crate call graph and hot-path reachability.
//!
//! Functions parsed by [`parse`] become nodes; call sites
//! become edges under *path-suffix resolution*: a call resolves to every
//! workspace function whose name matches its last path segment, filtered
//! by the qualifier when one is present (`Type::name`, `module::name`,
//! `ccdem_crate::name`, `Self::name`) and by the caller crate's declared
//! Cargo dependencies — a `core` function cannot call into
//! `experiments`, because nothing in `core` can name it. Method calls
//! and trait dispatch resolve to *every* function with the name
//! (conservative over-approximation), so reachability can only err
//! toward marking too much code hot.
//!
//! The roots are the decision-path entry points the ROADMAP's
//! governor-as-a-library item wants embeddable: everything reachable
//! from them must be allocation-free and panic-free (DESIGN.md §10).

use std::collections::{BTreeMap, BTreeSet};

use crate::parse::{self, FnItem};
use crate::source::SourceFile;

/// The declared hot-path roots, as `(type, fn)` pairs: the governor's
/// control tick, the meter's per-frame observation, the tiled sampler
/// compare, the refresh controller's switch path, and compositor
/// compose.
pub const HOT_PATH_ROOTS: &[(&str, &str)] = &[
    ("Governor", "decide"),
    ("Governor", "on_framebuffer_update"),
    ("Governor", "on_touch"),
    ("ContentRateMeter", "observe"),
    ("ContentRateMeter", "observe_damaged"),
    ("GridSampler", "compare_and_capture_tiled"),
    ("RefreshController", "request"),
    ("RefreshController", "poll"),
    ("SurfaceFlinger", "compose"),
];

/// The built graph: every parsed function plus the set reachable from
/// the hot-path roots.
#[derive(Debug)]
pub struct CallGraph {
    fns: Vec<FnItem>,
    /// For each function, the label of a root it is reachable from
    /// (`None` when cold). One witness is enough for diagnostics.
    witness: Vec<Option<String>>,
    /// Per-file line intervals of reachable functions, for `hot()`.
    hot_spans: BTreeMap<String, Vec<(u32, u32, usize)>>,
}

impl CallGraph {
    /// Parses `files` and computes reachability from `roots` under the
    /// crate dependency relation `deps` (direct dependencies per crate;
    /// the closure is taken here).
    pub fn build<'a>(
        files: impl IntoIterator<Item = &'a SourceFile>,
        deps: &BTreeMap<String, BTreeSet<String>>,
        roots: &[(&str, &str)],
    ) -> CallGraph {
        let mut fns = Vec::new();
        for file in files {
            fns.extend(parse::parse(file));
        }
        let deps = transitive(deps);

        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (i, f) in fns.iter().enumerate() {
            if !f.is_test {
                by_name.entry(f.name.as_str()).or_default().push(i);
            }
        }

        let mut witness: Vec<Option<String>> = vec![None; fns.len()];
        let mut queue: Vec<usize> = Vec::new();
        for &(ty, name) in roots {
            for (i, f) in fns.iter().enumerate() {
                if f.name == name && f.type_name.as_deref() == Some(ty) && !f.is_test {
                    if let Some(w) = witness.get_mut(i) {
                        if w.is_none() {
                            *w = Some(format!("{ty}::{name}"));
                            queue.push(i);
                        }
                    }
                }
            }
        }
        while let Some(i) = queue.pop() {
            let Some(caller) = fns.get(i) else { continue };
            let label = witness.get(i).cloned().flatten().unwrap_or_default();
            for call in &caller.calls {
                let Some(cands) = by_name.get(call.name.as_str()) else {
                    continue;
                };
                for &j in cands {
                    if witness.get(j).is_none_or(|w| w.is_some()) {
                        continue;
                    }
                    let Some(callee) = fns.get(j) else { continue };
                    if !dep_ok(&deps, &caller.crate_name, &callee.crate_name) {
                        continue;
                    }
                    let qualifier_ok = match call.qualifier.as_deref() {
                        None => true,
                        Some("Self") => callee.type_name == caller.type_name,
                        Some("self") | Some("crate") | Some("super") => {
                            callee.crate_name == caller.crate_name
                        }
                        Some(q) => {
                            callee.type_name.as_deref() == Some(q)
                                || callee.module.last().map(String::as_str) == Some(q)
                                || crate_matches(q, &callee.crate_name)
                        }
                    };
                    if !qualifier_ok {
                        continue;
                    }
                    if let Some(w) = witness.get_mut(j) {
                        *w = Some(label.clone());
                        queue.push(j);
                    }
                }
            }
        }

        let mut hot_spans: BTreeMap<String, Vec<(u32, u32, usize)>> = BTreeMap::new();
        for (i, f) in fns.iter().enumerate() {
            if witness.get(i).is_some_and(Option::is_some) {
                hot_spans
                    .entry(f.file.clone())
                    .or_default()
                    .push((f.start_line, f.end_line, i));
            }
        }
        CallGraph {
            fns,
            witness,
            hot_spans,
        }
    }

    /// When `file:line` lies inside a function reachable from a root,
    /// the witness root's label (`"Governor::decide"`).
    pub fn hot(&self, file: &str, line: u32) -> Option<&str> {
        let spans = self.hot_spans.get(file)?;
        for &(lo, hi, i) in spans {
            if (lo..=hi).contains(&line) {
                return self.witness.get(i).and_then(|w| w.as_deref());
            }
        }
        None
    }

    /// Number of parsed functions.
    pub fn fn_count(&self) -> usize {
        self.fns.len()
    }

    /// Number of functions reachable from the roots.
    pub fn reachable_count(&self) -> usize {
        self.witness.iter().filter(|w| w.is_some()).count()
    }

    /// The reachable functions' qualified names, sorted (for tests and
    /// `--stats`-style introspection).
    pub fn reachable_names(&self) -> Vec<String> {
        let mut out: Vec<String> = self
            .fns
            .iter()
            .zip(&self.witness)
            .filter(|(_, w)| w.is_some())
            .map(|(f, _)| f.qualified_name())
            .collect();
        out.sort();
        out.dedup();
        out
    }
}

/// Whether `caller_crate` may call into `callee_crate`: same crate, or
/// a (transitive) Cargo dependency.
fn dep_ok(
    deps: &BTreeMap<String, BTreeSet<String>>,
    caller_crate: &str,
    callee_crate: &str,
) -> bool {
    caller_crate == callee_crate
        || deps
            .get(caller_crate)
            .is_some_and(|d| d.contains(callee_crate))
}

/// Whether path qualifier `q` names crate `crate_name` (`ccdem_obs::f()`
/// → crate `obs`).
fn crate_matches(q: &str, crate_name: &str) -> bool {
    q == crate_name
        || q.strip_prefix("ccdem_")
            .is_some_and(|rest| rest == crate_name)
}

/// The transitive closure of a direct-dependency map.
fn transitive(direct: &BTreeMap<String, BTreeSet<String>>) -> BTreeMap<String, BTreeSet<String>> {
    let mut out = direct.clone();
    loop {
        let mut grew = false;
        let snapshot = out.clone();
        for set in out.values_mut() {
            let mut add = BTreeSet::new();
            for dep in set.iter() {
                if let Some(indirect) = snapshot.get(dep) {
                    for d in indirect {
                        if !set.contains(d) {
                            add.insert(d.clone());
                        }
                    }
                }
            }
            if !add.is_empty() {
                grew = true;
                set.extend(add);
            }
        }
        if !grew {
            return out;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn source(path: &str, crate_name: &str, src: &str) -> SourceFile {
        SourceFile::new(path.into(), crate_name.into(), lex(src).expect("lex"))
    }

    fn deps(pairs: &[(&str, &[&str])]) -> BTreeMap<String, BTreeSet<String>> {
        pairs
            .iter()
            .map(|(k, vs)| (k.to_string(), vs.iter().map(|v| v.to_string()).collect()))
            .collect()
    }

    #[test]
    fn reachability_crosses_crates_and_cycles() {
        let a = source(
            "crates/a/src/lib.rs",
            "a",
            "pub struct Root;\nimpl Root {\n    pub fn go(&self) { helper(); }\n}\n\
             fn helper() { ccdem_b::leaf(); helper(); }\n",
        );
        let b = source(
            "crates/b/src/lib.rs",
            "b",
            "pub fn leaf() { cycle_back(); }\npub fn cycle_back() { leaf(); }\npub fn cold() {}\n",
        );
        let graph = CallGraph::build([&a, &b], &deps(&[("a", &["b"])]), &[("Root", "go")]);
        assert_eq!(
            graph.reachable_names(),
            vec!["Root::go", "cycle_back", "helper", "leaf"]
        );
        assert!(graph.hot("crates/b/src/lib.rs", 1).is_some());
        assert!(
            graph.hot("crates/b/src/lib.rs", 3).is_none(),
            "cold() stays cold"
        );
    }

    #[test]
    fn dependency_direction_gates_resolution() {
        // `b` calls a function whose name also exists in `a`, but `b`
        // does not depend on `a`, so the edge must not resolve.
        let a = source(
            "crates/a/src/lib.rs",
            "a",
            "pub fn shared() { secret(); }\nfn secret() {}\n",
        );
        let b = source(
            "crates/b/src/lib.rs",
            "b",
            "pub struct Root;\nimpl Root {\n    pub fn go(&self) { shared(); }\n}\n",
        );
        let graph = CallGraph::build([&a, &b], &deps(&[]), &[("Root", "go")]);
        assert_eq!(graph.reachable_names(), vec!["Root::go"]);
    }

    #[test]
    fn trait_methods_over_approximate_to_every_impl() {
        let src = source(
            "crates/a/src/lib.rs",
            "a",
            "pub struct Root { m: Box<dyn Mapper> }\n\
             impl Root {\n    pub fn go(&self) { self.m.map_it(); }\n}\n\
             pub trait Mapper { fn map_it(&self); }\n\
             pub struct A;\nimpl Mapper for A {\n    fn map_it(&self) { a_only(); }\n}\n\
             pub struct B;\nimpl Mapper for B {\n    fn map_it(&self) { b_only(); }\n}\n\
             fn a_only() {}\nfn b_only() {}\n",
        );
        let graph = CallGraph::build([&src], &deps(&[]), &[("Root", "go")]);
        let names = graph.reachable_names();
        assert!(names.contains(&"A::map_it".to_string()), "{names:?}");
        assert!(names.contains(&"B::map_it".to_string()), "{names:?}");
        assert!(names.contains(&"a_only".to_string()), "{names:?}");
        assert!(names.contains(&"b_only".to_string()), "{names:?}");
    }

    #[test]
    fn closure_bodies_count_for_the_enclosing_fn() {
        let src = source(
            "crates/a/src/lib.rs",
            "a",
            "pub struct Root;\nimpl Root {\n    pub fn go(&self) {\n        \
             with(|x| inner_leaf(x));\n    }\n}\n\
             fn with<F: Fn(u32)>(f: F) { f(1) }\nfn inner_leaf(_x: u32) {}\n",
        );
        let graph = CallGraph::build([&src], &deps(&[]), &[("Root", "go")]);
        let names = graph.reachable_names();
        assert!(names.contains(&"inner_leaf".to_string()), "{names:?}");
        assert!(names.contains(&"with".to_string()), "{names:?}");
    }

    #[test]
    fn qualifier_filters_same_name_methods() {
        let src = source(
            "crates/a/src/lib.rs",
            "a",
            "pub struct Root;\nimpl Root {\n    pub fn go(&self) { Right::make(); }\n}\n\
             pub struct Right;\nimpl Right {\n    pub fn make() {}\n}\n\
             pub struct Wrong;\nimpl Wrong {\n    pub fn make() {}\n}\n",
        );
        let graph = CallGraph::build([&src], &deps(&[]), &[("Root", "go")]);
        assert_eq!(graph.reachable_names(), vec!["Right::make", "Root::go"]);
    }

    #[test]
    fn test_functions_are_excluded_from_the_graph() {
        let src = source(
            "crates/a/src/lib.rs",
            "a",
            "pub struct Root;\nimpl Root {\n    pub fn go(&self) { helper(); }\n}\n\
             #[cfg(test)]\nmod tests {\n    fn helper() { super::forbidden(); }\n}\n\
             pub fn forbidden() {}\n",
        );
        let graph = CallGraph::build([&src], &deps(&[]), &[("Root", "go")]);
        assert_eq!(
            graph.reachable_names(),
            vec!["Root::go"],
            "test helpers resolve nowhere"
        );
    }

    #[test]
    fn hot_covers_whole_span_inclusive() {
        let src = source(
            "crates/a/src/lib.rs",
            "a",
            "pub struct Root;\nimpl Root {\n    pub fn go(&self) {\n        work();\n    }\n}\n",
        );
        let graph = CallGraph::build([&src], &deps(&[]), &[("Root", "go")]);
        assert!(graph.hot("crates/a/src/lib.rs", 3).is_some());
        assert!(graph.hot("crates/a/src/lib.rs", 4).is_some());
        assert!(graph.hot("crates/a/src/lib.rs", 5).is_some());
        assert!(graph.hot("crates/a/src/lib.rs", 2).is_none());
        assert_eq!(graph.hot("crates/a/src/lib.rs", 4), Some("Root::go"));
    }
}
