//! Workspace symbol table and conservative name-based call graph.
//!
//! Built on the item parser ([`crate::parser`]): every `fn` in every
//! scanned file becomes a node with a qualified name
//! (`serve::engine::ServeEngine::run`), its call sites, and its intrinsic
//! *hazard sites* (panics, allocations, wall-clock reads, RNG, unordered
//! maps). Edges are resolved **by name**, without type information:
//!
//! * `foo(...)` links to every free function named `foo`;
//! * `Type::foo(...)` / `module::foo(...)` links to functions named `foo`
//!   whose impl type, module, or crate matches the qualifier — and to
//!   nothing when none matches (so `Vec::new` never links into the
//!   workspace);
//! * `.foo(...)` links to every method (`self` receiver) named `foo`.
//!
//! This over-approximates real dispatch (two unrelated methods that share
//! a name are merged) and under-approximates dynamic behavior (function
//! pointers, closures passed as values). Both caveats are documented in
//! DESIGN.md §15; the reachability lints built on top treat the graph as
//! conservative-by-name, which is what a determinism/panic audit wants:
//! a false edge costs a suppression with a reason, a missed edge is
//! listed as a known soundness hole.
//!
//! Functions defined inside `#[cfg(test)]` / `#[test]` regions are
//! excluded from the table entirely — test helpers may panic and allocate
//! freely, and must not capture call edges from production code that
//! happens to share a name.

use std::collections::BTreeMap;
use std::fmt::Write;

use crate::lexer::TokenKind;
use crate::lints::is_index_base;
use crate::parser::{Item, ItemKind};
use crate::scan::FileScan;

/// Keywords that precede `(` without being calls.
const NON_CALL_KEYWORDS: &[&str] = &[
    "as", "box", "break", "const", "continue", "crate", "dyn", "else", "enum", "fn", "for", "if",
    "impl", "in", "let", "loop", "match", "move", "mut", "pub", "ref", "return", "static",
    "struct", "trait", "type", "unsafe", "use", "where", "while", "yield", "Some", "Ok", "Err",
];

/// Panic-family macros.
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented", "assert"];

/// Container types whose `::new` / `::with_capacity` allocate (shared
/// with the lexical H001 lint).
const ALLOC_TYPES: &[&str] = &[
    "Vec", "String", "Box", "VecDeque", "HashMap", "HashSet", "BTreeMap", "BTreeSet", "Arc", "Rc",
];
/// Methods that allocate on the callee.
const ALLOC_METHODS: &[&str] = &["to_vec", "to_string", "to_owned", "collect", "clone"];

/// What kind of invariant a hazard site threatens.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum HazardKind {
    /// `.unwrap()` / `.expect(...)` / `panic!`-family macro.
    Panic,
    /// Plain `x[i]` indexing (can panic on out-of-range).
    Index,
    /// Heap allocation (constructor, allocating method, `vec!`/`format!`).
    Alloc,
    /// Wall-clock read (`Instant::now`, `SystemTime`).
    Clock,
    /// Ambient / unseeded RNG.
    Rng,
    /// `HashMap` / `HashSet` (iteration order nondeterminism).
    UnorderedMap,
}

/// One hazard site inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hazard {
    /// Classification.
    pub kind: HazardKind,
    /// 1-based line of the site.
    pub line: u32,
    /// Byte offset of the site's first token.
    pub offset: usize,
    /// Short rendering of the site (`.unwrap()`, `vec!`, ...).
    pub what: String,
}

/// One call site inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallSite {
    /// Called name (last path segment).
    pub name: String,
    /// `Type` / `module` in `Type::name(...)`, when present.
    pub qualifier: Option<String>,
    /// True for `.name(...)` method-call syntax.
    pub method: bool,
    /// 1-based line of the call.
    pub line: u32,
    /// True when the call site sits inside a `// analyze: hot` region.
    pub in_hot: bool,
}

/// One function node.
#[derive(Debug, Clone)]
pub struct FnNode {
    /// Unique qualified name (`serve::engine::ServeEngine::run`).
    pub qname: String,
    /// Last segment (`run`).
    pub name: String,
    /// Impl/trait self type when the fn is associated.
    pub self_ty: Option<String>,
    /// Crate short name (`serve`).
    pub krate: String,
    /// Workspace-relative file.
    pub file: String,
    /// Index of the file in the analyzed file list.
    pub file_idx: usize,
    /// 1-based line of the item start.
    pub line: u32,
    /// True when the parameter list has a `self` receiver.
    pub has_self: bool,
    /// Extracted call sites.
    pub calls: Vec<CallSite>,
    /// Extracted hazard sites.
    pub hazards: Vec<Hazard>,
}

/// The workspace call graph.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// All non-test functions, sorted by `qname`.
    pub fns: Vec<FnNode>,
    /// `qname` -> index into `fns`.
    pub by_qname: BTreeMap<String, usize>,
    /// Resolved edges `caller -> (callee, call line)`, per caller, each
    /// list sorted and deduplicated.
    pub edges: Vec<Vec<(usize, u32)>>,
}

/// The crate short name of a workspace-relative path (mirrors
/// [`crate::lints::crate_of`], re-exported here for graph callers).
fn crate_of(rel_path: &str) -> &str {
    rel_path
        .strip_prefix("crates/")
        .and_then(|rest| rest.split('/').next())
        .unwrap_or("")
}

/// The module path of a file within its crate: `crates/serve/src/engine.rs`
/// -> `["engine"]`, `lib.rs` -> `[]`, `bin/repro.rs` -> `["bin", "repro"]`,
/// `foo/mod.rs` -> `["foo"]`.
fn module_path(rel_path: &str) -> Vec<String> {
    let Some(rest) = rel_path
        .strip_prefix("crates/")
        .and_then(|r| r.split_once('/'))
        .map(|(_, r)| r)
        .and_then(|r| r.strip_prefix("src/"))
    else {
        return Vec::new();
    };
    let rest = rest.strip_suffix(".rs").unwrap_or(rest);
    let mut segs: Vec<String> = rest.split('/').map(str::to_string).collect();
    if segs
        .last()
        .is_some_and(|s| s == "lib" || s == "main" || s == "mod")
    {
        segs.pop();
    }
    segs
}

impl CallGraph {
    /// Builds the graph from already-scanned, already-parsed files.
    /// `files` is `(rel_path, scan, items)` — the same single-lex scans
    /// the token lints run over.
    pub fn build(files: &[(String, &FileScan<'_>, &[Item])]) -> CallGraph {
        let fns = files
            .iter()
            .enumerate()
            .flat_map(|(file_idx, (path, scan, items))| file_fns(path, scan, items, file_idx))
            .collect();
        CallGraph::merge(fns)
    }

    /// The serial half of [`CallGraph::build`]: orders the per-file fn
    /// nodes (concatenated in file order) by qualified name, disambiguates
    /// colliding names, and resolves the edges.
    pub(crate) fn merge(mut fns: Vec<FnNode>) -> CallGraph {
        // Stable: equal names keep file order, which fixes who gets `#2`.
        fns.sort_by(|a, b| a.qname.cmp(&b.qname));
        // Qualified names can collide (e.g. the same helper name in two
        // `#[cfg(...)]` branches); disambiguate deterministically so the
        // exports stay byte-stable.
        let mut seen: BTreeMap<String, usize> = BTreeMap::new();
        for f in &mut fns {
            let n = seen.entry(f.qname.clone()).or_insert(0);
            *n += 1;
            if *n > 1 {
                f.qname = format!("{}#{}", f.qname, *n);
            }
        }
        let by_qname = fns
            .iter()
            .enumerate()
            .map(|(i, f)| (f.qname.clone(), i))
            .collect();
        let mut graph = CallGraph {
            fns,
            by_qname,
            edges: Vec::new(),
        };
        graph.resolve_edges();
        graph
    }

    /// Resolves every call site against the symbol table (see the module
    /// docs for the name-based rules).
    fn resolve_edges(&mut self) {
        // name -> indices, split by receiver kind.
        let mut methods: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut free: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut any: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (i, f) in self.fns.iter().enumerate() {
            any.entry(&f.name).or_default().push(i);
            if f.has_self {
                methods.entry(&f.name).or_default().push(i);
            }
            if f.self_ty.is_none() {
                free.entry(&f.name).or_default().push(i);
            }
        }

        let mut edges: Vec<Vec<(usize, u32)>> = vec![Vec::new(); self.fns.len()];
        for (ci, caller) in self.fns.iter().enumerate() {
            for call in &caller.calls {
                let callees: Vec<usize> = match (&call.qualifier, call.method) {
                    (_, true) => methods.get(call.name.as_str()).cloned().unwrap_or_default(),
                    (Some(q), false) => {
                        let q = if q == "Self" {
                            caller.self_ty.as_deref().unwrap_or(q)
                        } else {
                            q.as_str()
                        };
                        any.get(call.name.as_str())
                            .map(|cands| {
                                cands
                                    .iter()
                                    .copied()
                                    .filter(|&i| {
                                        let f = &self.fns[i];
                                        f.self_ty.as_deref() == Some(q)
                                            || f.krate == q
                                            || f.qname.rsplit("::").nth(if f.self_ty.is_some() {
                                                2
                                            } else {
                                                1
                                            }) == Some(q)
                                    })
                                    .collect()
                            })
                            .unwrap_or_default()
                    }
                    (None, false) => free.get(call.name.as_str()).cloned().unwrap_or_default(),
                };
                // Layering-aware pruning: a candidate in a crate the
                // caller cannot depend on is not a real callee. This is
                // what stops a `tree.score(...)` in an `exec` kernel
                // from linking to every backend's `score` method.
                for callee in callees {
                    if !crate::layering::may_reference(&caller.krate, &self.fns[callee].krate) {
                        continue;
                    }
                    edges[ci].push((callee, call.line));
                }
            }
            edges[ci].sort_unstable();
            // Dedup exact (callee, line) pairs only — the same callee
            // called from several lines keeps one edge per line, which
            // H002 needs to match hot-region call sites.
            edges[ci].dedup();
        }
        self.edges = edges;
    }

    /// Indices of fns whose qualified name ends with `suffix` (segment
    /// aligned: `run` matches `ServeEngine::run` only via the suffix
    /// `ServeEngine::run`; use the bare name to match any).
    pub fn find_suffix(&self, suffix: &str) -> Vec<usize> {
        let aligned = |q: &str| {
            q.strip_suffix(suffix)
                .is_some_and(|head| head.is_empty() || head.ends_with("::"))
        };
        self.fns
            .iter()
            .enumerate()
            .filter(|(_, f)| aligned(&f.qname) || f.qname.split('#').next().is_some_and(aligned))
            .map(|(i, _)| i)
            .collect()
    }

    /// BFS from `roots`; returns, for each fn index, the predecessor on a
    /// shortest call chain from some root (`usize::MAX` marks a root,
    /// absent = unreachable). Deterministic: neighbors expand in sorted
    /// order.
    pub fn reach(&self, roots: &[usize]) -> BTreeMap<usize, usize> {
        let mut parent: BTreeMap<usize, usize> = BTreeMap::new();
        let mut queue: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
        let mut roots = roots.to_vec();
        roots.sort_unstable();
        roots.dedup();
        for &r in &roots {
            parent.insert(r, usize::MAX);
            queue.push_back(r);
        }
        while let Some(n) = queue.pop_front() {
            for &(callee, _) in &self.edges[n] {
                if let std::collections::btree_map::Entry::Vacant(e) = parent.entry(callee) {
                    e.insert(n);
                    queue.push_back(callee);
                }
            }
        }
        parent
    }

    /// The call chain `root -> ... -> target` for a `reach` result,
    /// rendered as qualified names.
    pub fn chain(&self, parents: &BTreeMap<usize, usize>, target: usize) -> Vec<String> {
        let mut chain = vec![self.fns[target].qname.clone()];
        let mut cur = target;
        while let Some(&p) = parents.get(&cur) {
            if p == usize::MAX {
                break;
            }
            chain.push(self.fns[p].qname.clone());
            cur = p;
        }
        chain.reverse();
        chain
    }

    /// Deterministic JSON export: functions and resolved edges, sorted.
    pub fn to_json(&self) -> String {
        use mlscore_telemetry::json::write_escaped;
        let mut out = String::from("{\n  \"version\": 1,\n  \"functions\": [");
        for (i, f) in self.fns.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str("    { \"id\": ");
            write_escaped(&mut out, &f.qname);
            out.push_str(", \"file\": ");
            write_escaped(&mut out, &f.file);
            let _ = write!(
                out,
                ", \"line\": {}, \"calls\": {}, \"hazards\": {} }}",
                f.line,
                self.edges[i].len(),
                f.hazards.len()
            );
        }
        if !self.fns.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n  \"edges\": [");
        let mut first = true;
        for (ci, outs) in self.edges.iter().enumerate() {
            for &(callee, line) in outs {
                out.push_str(if first { "\n" } else { ",\n" });
                first = false;
                out.push_str("    { \"from\": ");
                write_escaped(&mut out, &self.fns[ci].qname);
                out.push_str(", \"to\": ");
                write_escaped(&mut out, &self.fns[callee].qname);
                let _ = write!(out, ", \"line\": {line} }}");
            }
        }
        if !first {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }

    /// Graphviz dot export (same ordering as the JSON).
    pub fn to_dot(&self) -> String {
        let mut out = String::from("digraph mlscore_calls {\n  rankdir=LR;\n");
        for (ci, outs) in self.edges.iter().enumerate() {
            for &(callee, _) in outs {
                let _ = writeln!(
                    out,
                    "  \"{}\" -> \"{}\";",
                    self.fns[ci].qname, self.fns[callee].qname
                );
            }
        }
        out.push_str("}\n");
        out
    }
}

/// The fn nodes one file contributes, in item order — the per-file half
/// of [`CallGraph::build`]. `file_idx` is the file's index in the analyzed
/// file list.
pub(crate) fn file_fns(
    path: &str,
    scan: &FileScan<'_>,
    items: &[Item],
    file_idx: usize,
) -> Vec<FnNode> {
    let krate = crate_of(path);
    let mut prefix = vec![krate.to_string()];
    prefix.extend(module_path(path));
    let mut out = Vec::new();
    collect_fns(&mut out, scan, items, &prefix, None, krate, path, file_idx);
    out
}

/// Recursively collects fn nodes from a parsed item tree.
#[allow(clippy::too_many_arguments)]
fn collect_fns(
    out: &mut Vec<FnNode>,
    scan: &FileScan<'_>,
    items: &[Item],
    prefix: &[String],
    self_ty: Option<&str>,
    krate: &str,
    file: &str,
    file_idx: usize,
) {
    for item in items {
        // Anything defined inside a test region stays out of the table.
        if scan.in_test(item.span.line_start) {
            continue;
        }
        match &item.kind {
            ItemKind::Fn {
                name,
                has_self,
                body,
            } => {
                let mut segs: Vec<&str> = prefix.iter().map(String::as_str).collect();
                if let Some(ty) = self_ty {
                    segs.push(ty);
                }
                segs.push(name);
                let (calls, hazards) = match body {
                    Some((open, close)) => extract_body(scan, *open, *close),
                    None => (Vec::new(), Vec::new()),
                };
                out.push(FnNode {
                    qname: segs.join("::"),
                    name: name.clone(),
                    self_ty: self_ty.map(str::to_string),
                    krate: krate.to_string(),
                    file: file.to_string(),
                    file_idx,
                    line: item.span.line_start,
                    has_self: *has_self,
                    calls,
                    hazards,
                });
            }
            ItemKind::Impl {
                self_ty: ty, items, ..
            } => {
                collect_fns(out, scan, items, prefix, Some(ty), krate, file, file_idx);
            }
            ItemKind::Trait { name, items } => {
                collect_fns(out, scan, items, prefix, Some(name), krate, file, file_idx);
            }
            ItemKind::Mod { name, items } => {
                let mut nested = prefix.to_vec();
                nested.push(name.clone());
                collect_fns(out, scan, items, &nested, None, krate, file, file_idx);
            }
            ItemKind::Use { .. } | ItemKind::Other => {}
        }
    }
}

/// Extracts call sites and hazard sites from a fn body's significant-token
/// range `(open, close)` (the braces themselves excluded).
fn extract_body(scan: &FileScan<'_>, open: usize, close: usize) -> (Vec<CallSite>, Vec<Hazard>) {
    let mut calls = Vec::new();
    let mut hazards = Vec::new();
    let mut push_hazard = |kind: HazardKind, i: usize, what: String| {
        let t = scan.tok(i);
        if !scan.in_test(t.line) {
            hazards.push(Hazard {
                kind,
                line: t.line,
                offset: t.offset,
                what,
            });
        }
    };

    for j in open + 1..close {
        let t = scan.tok(j);
        // --- calls ---------------------------------------------------
        if t.kind == TokenKind::Ident
            && scan.punct(j + 1, "(")
            && !NON_CALL_KEYWORDS.contains(&t.text)
            && !scan.punct(j.wrapping_sub(1), "!")
            && !scan.ident(j.wrapping_sub(1), "fn")
        {
            let method = j > 0 && scan.punct(j - 1, ".");
            let qualifier = (!method
                && j >= 3
                && scan.punct(j - 1, ":")
                && scan.punct(j - 2, ":")
                && scan.tok(j - 3).kind == TokenKind::Ident)
                .then(|| scan.tok(j - 3).text.to_string());
            if !scan.in_test(t.line) {
                calls.push(CallSite {
                    name: t.text.to_string(),
                    qualifier,
                    method,
                    line: t.line,
                    in_hot: scan.in_hot(t.line),
                });
            }
        }
        // --- hazards -------------------------------------------------
        if scan.punct(j, ".")
            && (scan.ident(j + 1, "unwrap") || scan.ident(j + 1, "expect"))
            && scan.punct(j + 2, "(")
        {
            push_hazard(
                HazardKind::Panic,
                j + 1,
                format!(".{}()", scan.tok(j + 1).text),
            );
        }
        if t.kind == TokenKind::Ident && PANIC_MACROS.contains(&t.text) && scan.punct(j + 1, "!") {
            // `assert*` macros guard invariants; only the unconditional
            // family is a panic hazard on a request path.
            if t.text != "assert" {
                push_hazard(HazardKind::Panic, j, format!("{}!", t.text));
            }
        }
        if scan.punct(j, "[") && j > open + 1 && is_index_base(scan, j - 1) {
            if let Some(idx_close) = scan.match_group(j, "[", "]") {
                let is_range =
                    (j + 1..idx_close).any(|k| scan.punct(k, ".") && scan.punct(k + 1, "."));
                if !is_range {
                    push_hazard(HazardKind::Index, j, "[..] indexing".to_string());
                }
            }
        }
        if t.kind == TokenKind::Ident
            && ALLOC_TYPES.contains(&t.text)
            && scan.punct(j + 1, ":")
            && scan.punct(j + 2, ":")
            && (scan.ident(j + 3, "new") || scan.ident(j + 3, "with_capacity"))
        {
            push_hazard(
                HazardKind::Alloc,
                j,
                format!("{}::{}", t.text, scan.tok(j + 3).text),
            );
        }
        if t.kind == TokenKind::Ident
            && (t.text == "vec" || t.text == "format")
            && scan.punct(j + 1, "!")
        {
            push_hazard(HazardKind::Alloc, j, format!("{}!", t.text));
        }
        if scan.punct(j, ".")
            && scan.punct(j + 2, "(")
            && ALLOC_METHODS.iter().any(|m| scan.ident(j + 1, m))
        {
            push_hazard(
                HazardKind::Alloc,
                j + 1,
                format!(".{}()", scan.tok(j + 1).text),
            );
        }
        if scan.ident(j, "Instant")
            && scan.punct(j + 1, ":")
            && scan.punct(j + 2, ":")
            && scan.ident(j + 3, "now")
        {
            push_hazard(HazardKind::Clock, j, "Instant::now".to_string());
        }
        if scan.ident(j, "SystemTime") {
            push_hazard(HazardKind::Clock, j, "SystemTime".to_string());
        }
        for f in ["thread_rng", "from_entropy"] {
            if scan.ident(j, f) {
                push_hazard(HazardKind::Rng, j, f.to_string());
            }
        }
        if scan.ident(j, "rand")
            && scan.punct(j + 1, ":")
            && scan.punct(j + 2, ":")
            && scan.ident(j + 3, "random")
        {
            push_hazard(HazardKind::Rng, j, "rand::random".to_string());
        }
        for ty in ["HashMap", "HashSet"] {
            if scan.ident(j, ty) {
                push_hazard(HazardKind::UnorderedMap, j, ty.to_string());
            }
        }
    }
    (calls, hazards)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_items;

    fn graph_of(files: &[(&str, &str)]) -> CallGraph {
        let scans: Vec<(String, FileScan)> = files
            .iter()
            .map(|(p, s)| ((*p).to_string(), FileScan::of(s)))
            .collect();
        let parsed: Vec<Vec<Item>> = scans.iter().map(|(_, s)| parse_items(s)).collect();
        let view: Vec<(String, &FileScan<'_>, &[Item])> = scans
            .iter()
            .zip(&parsed)
            .map(|((p, s), items)| (p.clone(), s, items.as_slice()))
            .collect();
        CallGraph::build(&view)
    }

    #[test]
    fn qualified_names_and_module_paths() {
        let g = graph_of(&[
            (
                "crates/serve/src/engine.rs",
                "impl ServeEngine { pub fn run(&self) { dispatch(); } }\nfn dispatch() {}\n",
            ),
            ("crates/serve/src/lib.rs", "pub fn top() {}\n"),
        ]);
        let names: Vec<&str> = g.fns.iter().map(|f| f.qname.as_str()).collect();
        assert_eq!(
            names,
            [
                "serve::engine::ServeEngine::run",
                "serve::engine::dispatch",
                "serve::top"
            ]
        );
    }

    #[test]
    fn plain_calls_resolve_to_free_fns_only() {
        let g = graph_of(&[(
            "crates/a/src/lib.rs",
            "fn caller() { helper(); }\nfn helper() {}\nimpl T { fn helper(&self) {} }\n",
        )]);
        let caller = g.by_qname["a::caller"];
        let helper = g.by_qname["a::helper"];
        assert_eq!(g.edges[caller], vec![(helper, 1)]);
    }

    #[test]
    fn method_calls_resolve_to_self_receivers() {
        let g = graph_of(&[(
            "crates/a/src/lib.rs",
            "fn caller(x: &T) { x.step(); }\nimpl T { fn step(&self) {} }\nfn step() {}\n",
        )]);
        let caller = g.by_qname["a::caller"];
        let method = g.by_qname["a::T::step"];
        assert_eq!(g.edges[caller], vec![(method, 1)]);
    }

    #[test]
    fn qualified_calls_match_type_module_or_crate_and_nothing_else() {
        let g = graph_of(&[(
            "crates/a/src/m.rs",
            "fn caller() { T::mk(); m::free(); Vec::new(); }\n\
             impl T { fn mk() {} }\nfn free() {}\nfn new() {}\n",
        )]);
        let caller = g.by_qname["a::m::caller"];
        let mk = g.by_qname["a::m::T::mk"];
        let free = g.by_qname["a::m::free"];
        let targets: Vec<usize> = g.edges[caller].iter().map(|&(c, _)| c).collect();
        assert!(targets.contains(&mk));
        assert!(targets.contains(&free));
        // `Vec::new()` must NOT link to the unrelated workspace fn `new`.
        assert!(!targets.contains(&g.by_qname["a::m::new"]));
    }

    #[test]
    fn test_region_fns_stay_out_of_the_table() {
        let g = graph_of(&[(
            "crates/a/src/lib.rs",
            "fn live() { helper(); }\n\
             #[cfg(test)]\nmod tests {\n  fn helper() { panic!(\"x\"); }\n}\n",
        )]);
        assert_eq!(g.fns.len(), 1);
        assert!(g.edges[0].is_empty(), "no edge into test helpers");
    }

    #[test]
    fn hazards_are_extracted_with_kinds() {
        let g = graph_of(&[(
            "crates/a/src/lib.rs",
            "fn f(xs: &[u64], i: usize) -> u64 {\n  let v = Vec::new();\n  \
             let t = Instant::now();\n  xs[i] + x.unwrap()\n}\n",
        )]);
        let kinds: Vec<HazardKind> = g.fns[0].hazards.iter().map(|h| h.kind).collect();
        assert!(kinds.contains(&HazardKind::Alloc));
        assert!(kinds.contains(&HazardKind::Clock));
        assert!(kinds.contains(&HazardKind::Index));
        assert!(kinds.contains(&HazardKind::Panic));
    }

    #[test]
    fn reach_and_chain_find_shortest_paths() {
        let g = graph_of(&[(
            "crates/a/src/lib.rs",
            "fn root() { mid(); }\nfn mid() { leaf(); }\nfn leaf() {}\nfn stranded() { leaf(); }\n",
        )]);
        let root = g.by_qname["a::root"];
        let leaf = g.by_qname["a::leaf"];
        let parents = g.reach(&[root]);
        assert!(parents.contains_key(&leaf));
        assert!(!parents.contains_key(&g.by_qname["a::stranded"]));
        assert_eq!(g.chain(&parents, leaf), ["a::root", "a::mid", "a::leaf"]);
    }

    #[test]
    fn exports_are_deterministic() {
        let files = [("crates/a/src/lib.rs", "fn root() { mid(); }\nfn mid() {}\n")];
        let a = graph_of(&files);
        let b = graph_of(&files);
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.to_dot(), b.to_dot());
        assert!(a.to_dot().contains("\"a::root\" -> \"a::mid\";"));
        let parsed = mlscore_telemetry::json::parse(&a.to_json()).unwrap();
        assert!(parsed.get("functions").is_some());
    }

    #[test]
    fn hot_call_sites_are_marked() {
        let g = graph_of(&[(
            "crates/a/src/lib.rs",
            "// analyze: hot\nfn walk() {\n  helper();\n}\nfn cold() { helper(); }\nfn helper() {}\n",
        )]);
        let walk = g.by_qname["a::walk"];
        let cold = g.by_qname["a::cold"];
        assert!(g.fns[walk].calls[0].in_hot);
        assert!(!g.fns[cold].calls[0].in_hot);
    }
}
