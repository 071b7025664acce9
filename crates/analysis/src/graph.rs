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
//! Call and hazard sites are not matched here: the [`FileScan`] classifies
//! every pattern of a file once, into a site table it shares with the
//! token lints, and each fn takes the sites anchored inside its body (two
//! binary searches).
//!
//! A call site owns no text. It keeps the scan index of its callee-name
//! token and an FNV-1a hash of the name (`name_key`), taken at
//! extraction while the token is still in cache. Resolution looks each
//! site up by that hash among the fns' name keys; only a hit reads the
//! file's scan again, to compare the name itself and to read the
//! qualifier. So resolving needs the scans the fns were extracted from,
//! and a [`CallSite`] means something only next to its file's scan, which
//! a [`crate::WorkspaceAnalysis`] does not keep. Resolution runs over
//! fixed chunks of callers on every core, concatenated back in caller
//! order, so the edges do not depend on the worker count.
//!
//! A fn node and its hazards own no text either, besides the qualified
//! name the exports print. A [`FnNode`]'s crate, self type and last
//! segment are ranges of its qualified name, its file is stored once per
//! file in [`CallGraph::files`], and a [`Hazard`] keeps its entry of the
//! file's site table: [`Hazard::what`] renders it from the scan, only for
//! a hazard that becomes a P002/H002/D004 message, straight into that
//! message.
//!
//! The graph allocates per file and per graph, not per name, site or
//! edge. The item names a node is built from are slices of the source. A
//! file's call sites and hazards go into two tables of the file, each
//! sized once by counting the file's sites; the merge joins every file's
//! into the graph's two tables, and a node keeps `u32` ranges of them
//! ([`CallGraph::calls_of`], [`CallGraph::hazards_of`]). A resolution
//! task gathers each caller's edges in one scratch buffer and hands out
//! a list of their exact size. `Reach` keeps only the parent links of
//! its shortest chains; a chain is written, by a loop over them, straight
//! into the message that shows it.
//!
//! Functions defined inside `#[cfg(test)]` / `#[test]` regions are
//! excluded from the table entirely — test helpers may panic and allocate
//! freely, and must not capture call edges from production code that
//! happens to share a name.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Range;

use mlscore_telemetry::json::{write_escaped, write_uint};

use crate::lexer::TokenKind;
use crate::lints::crate_of;
use crate::par;
use crate::parser::{Item, ItemKind};
use crate::scan::FileScan;
use crate::sites::{Site, SiteKind};

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
///
/// The hazard owns no text: it keeps its entry of the file's site table,
/// and [`Hazard::what`] renders the site from that file's scan, so only a
/// hazard that ends up in a finding's message is ever spelled out.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hazard {
    /// Classification.
    pub kind: HazardKind,
    /// 1-based line of the site.
    pub line: u32,
    /// Byte offset of the site's first token.
    pub offset: usize,
    /// The site in its file's site table.
    pub(crate) site: Site,
}

impl Hazard {
    /// Short rendering of the site (`.unwrap()`, `vec!`, ...), read from
    /// the scan of the file the hazard was extracted from and written
    /// straight into whatever formats it.
    pub fn what<'a>(&self, scan: &FileScan<'a>) -> impl fmt::Display + 'a {
        self.site.what(scan)
    }
}

/// One call site inside a function body.
///
/// The site owns no text: [`CallSite::at`] indexes the scan of the file
/// that holds the calling fn ([`FnNode::file_idx`]) and means nothing
/// without it. A [`crate::WorkspaceAnalysis`] does not keep the scans;
/// whoever does can read the called name and qualifier back through
/// [`CallSite::name`] and [`CallSite::qualifier`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallSite {
    /// Significant-token index, in its file's scan, of the called name
    /// (the last path segment).
    pub at: usize,
    /// [`name_key`] of the called name.
    pub(crate) key: u64,
    /// True for `.name(...)` method-call syntax.
    pub method: bool,
    /// 1-based line of the call.
    pub line: u32,
    /// True when the call site sits inside a `// analyze: hot` region.
    pub in_hot: bool,
}

impl CallSite {
    /// The called name (last path segment), read from the scan of the
    /// file the site was extracted from.
    pub fn name<'a>(&self, scan: &FileScan<'a>) -> &'a str {
        scan.tok(self.at).text
    }

    /// `Type` / `module` in `Type::name(...)`, when present, read from the
    /// scan of the file the site was extracted from.
    pub fn qualifier<'a>(&self, scan: &FileScan<'a>) -> Option<&'a str> {
        let j = self.at;
        (!self.method
            && j >= 3
            && scan.punct(j - 1, ":")
            && scan.punct(j - 2, ":")
            && scan.tok(j - 3).kind == TokenKind::Ident)
            .then(|| scan.tok(j - 3).text)
    }
}

/// One function node.
///
/// The qualified name is the node's only text. Its crate, self type and
/// last segment are ranges of it ([`FnNode::krate`], [`FnNode::self_ty`],
/// [`FnNode::name`]), and its file is [`CallGraph::files`]`[file_idx]`,
/// stored once per file. The `#n` suffix the graph appends to a colliding
/// name sits after every range, so no range moves. Its call sites and
/// hazards are ranges of the graph's two site tables
/// ([`CallGraph::calls_of`], [`CallGraph::hazards_of`]).
#[derive(Debug, Clone)]
pub struct FnNode {
    /// Unique qualified name (`serve::engine::ServeEngine::run`).
    pub qname: String,
    /// `qname[..krate_end]` is the crate.
    krate_end: u32,
    /// `qname[ty_start..name_start - 2]` is the self type when
    /// `ty_start < name_start`; `ty_start == name_start` for a free fn.
    ty_start: u32,
    /// `qname[name_start..name_end]` is the last segment.
    name_start: u32,
    name_end: u32,
    /// Index of the file in the analyzed file list.
    pub file_idx: usize,
    /// 1-based line of the item start.
    pub line: u32,
    /// True when the parameter list has a `self` receiver.
    pub has_self: bool,
    /// The fn's call sites in the call-site table.
    calls: Range<u32>,
    /// The fn's hazards in the hazard table.
    hazards: Range<u32>,
}

impl FnNode {
    /// Last segment (`run`).
    pub fn name(&self) -> &str {
        &self.qname[self.name_start as usize..self.name_end as usize]
    }

    /// Impl/trait self type when the fn is associated.
    pub fn self_ty(&self) -> Option<&str> {
        let (ty, name) = (self.ty_start as usize, self.name_start as usize);
        (ty < name).then(|| &self.qname[ty..name - 2])
    }

    /// Crate short name (`serve`).
    pub fn krate(&self) -> &str {
        &self.qname[..self.krate_end as usize]
    }
}

/// FNV-1a hash of a fn name: call sites and fns are matched on it first,
/// and on the name itself only when it agrees.
pub(crate) fn name_key(name: &str) -> u64 {
    name.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Hashes a [`name_key`], already an FNV-1a hash, by folding its
/// well-mixed high half onto its low half.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 << 8) | u64::from(b);
        }
    }

    fn write_u64(&mut self, key: u64) {
        self.0 = key;
    }
}

/// Callers per resolution task: enough that a task outweighs claiming it,
/// few enough that the last tasks still spread over every worker.
pub(crate) const RESOLVE_CHUNK: usize = 128;

/// The workspace call graph.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// All non-test functions, sorted by `qname`.
    pub fns: Vec<FnNode>,
    /// The workspace-relative path of every analyzed file, in file order:
    /// [`FnNode::file_idx`] indexes it.
    pub files: Vec<String>,
    /// Resolved edges `caller -> (callee, call line)`, per caller, each
    /// list sorted and deduplicated.
    pub edges: Vec<Vec<(usize, u32)>>,
    /// Every fn's call sites, one run per fn, in file order.
    calls: Vec<CallSite>,
    /// Every fn's hazards, one run per fn, in file order.
    hazards: Vec<Hazard>,
}

/// The module path of a file within its crate: `crates/serve/src/engine.rs`
/// -> `["engine"]`, `lib.rs` -> `[]`, `bin/repro.rs` -> `["bin", "repro"]`,
/// `foo/mod.rs` -> `["foo"]`.
fn module_path(rel_path: &str) -> Vec<&str> {
    let Some(rest) = rel_path
        .strip_prefix("crates/")
        .and_then(|r| r.split_once('/'))
        .map(|(_, r)| r)
        .and_then(|r| r.strip_prefix("src/"))
    else {
        return Vec::new();
    };
    let rest = rest.strip_suffix(".rs").unwrap_or(rest);
    let mut segs: Vec<&str> = rest.split('/').collect();
    if matches!(segs.last(), Some(&("lib" | "main" | "mod"))) {
        segs.pop();
    }
    segs
}

impl CallGraph {
    /// Builds the graph from already-scanned, already-parsed files.
    /// `files` is `(rel_path, scan, items)` — the same single-lex scans
    /// the token lints run over. Edges resolve on every core the host
    /// offers.
    pub fn build(files: &[(String, &FileScan<'_>, &[Item<'_>])]) -> CallGraph {
        let per_file = (files.iter().enumerate())
            .map(|(file_idx, (path, scan, items))| file_fns(path, scan, items, file_idx))
            .collect();
        let paths = files.iter().map(|(path, _, _)| path.clone()).collect();
        let scans: Vec<&FileScan<'_>> = files.iter().map(|(_, scan, _)| *scan).collect();
        CallGraph::merge(per_file, paths, &scans, par::host_workers())
    }

    /// The call sites of fn `idx`, in body order.
    pub fn calls_of(&self, idx: usize) -> &[CallSite] {
        let r = &self.fns[idx].calls;
        &self.calls[r.start as usize..r.end as usize]
    }

    /// The hazards of fn `idx`, in body order.
    pub fn hazards_of(&self, idx: usize) -> &[Hazard] {
        let r = &self.fns[idx].hazards;
        &self.hazards[r.start as usize..r.end as usize]
    }

    /// The workspace half of [`CallGraph::build`]: joins the files' fn
    /// nodes (`per_file`, in file order) and their site tables, orders the
    /// nodes by qualified name, disambiguates colliding names, and
    /// resolves the edges on up to `workers` threads. `files[i]` is the
    /// path and `scans[i]` the scan of file `i`, which `per_file[i]` was
    /// extracted from.
    pub(crate) fn merge(
        per_file: Vec<FileFns>,
        files: Vec<String>,
        scans: &[&FileScan<'_>],
        workers: usize,
    ) -> CallGraph {
        // Each file's sites go after the sites of the files before it, and
        // its nodes' ranges move with them.
        let total = |len: fn(&FileFns) -> usize| per_file.iter().map(len).sum();
        let mut fns = Vec::with_capacity(total(|f| f.fns.len()));
        let mut calls = Vec::with_capacity(total(|f| f.calls.len()));
        let mut hazards = Vec::with_capacity(total(|f| f.hazards.len()));
        for file in per_file {
            let (c, h) = (calls.len() as u32, hazards.len() as u32);
            fns.extend(file.fns.into_iter().map(|mut f| {
                f.calls = f.calls.start + c..f.calls.end + c;
                f.hazards = f.hazards.start + h..f.hazards.end + h;
                f
            }));
            calls.extend(file.calls);
            hazards.extend(file.hazards);
        }
        // Sort indices, not nodes, then move each node once. Stable: equal
        // names keep file order, which fixes who gets `#2`.
        let mut order: Vec<usize> = (0..fns.len()).collect();
        order.sort_by(|&a, &b| fns[a].qname.cmp(&fns[b].qname));
        let mut slots: Vec<Option<FnNode>> = fns.into_iter().map(Some).collect();
        // Qualified names can collide (e.g. the same helper name in two
        // `#[cfg(...)]` branches). Equal names now form one run; the n-th
        // node of a run becomes `name#n`, so the exports stay byte-stable.
        let mut fns: Vec<FnNode> = Vec::with_capacity(slots.len());
        let (mut run_start, mut run_len) = (0, 0);
        for &i in &order {
            let Some(mut f) = slots[i].take() else {
                continue;
            };
            if fns
                .get(run_start)
                .is_some_and(|first| first.qname == f.qname)
            {
                run_len += 1;
                f.qname.push('#');
                write_uint(&mut f.qname, run_len);
            } else {
                (run_start, run_len) = (fns.len(), 1);
            }
            fns.push(f);
        }
        let edges = resolve_edges(&fns, &calls, scans, workers);
        CallGraph {
            fns,
            files,
            edges,
            calls,
            hazards,
        }
    }

    /// The index in `fns` of the fn whose qualified name (with its `#n`
    /// suffix, if any) is `qname`. A linear scan: `fns` is sorted by name
    /// before the suffix is added, so `x#10` sorts before `x#2` and a
    /// binary search would miss.
    pub fn index_of(&self, qname: &str) -> Option<usize> {
        self.fns.iter().position(|f| f.qname == qname)
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

    /// BFS from `roots` (any order, repeats allowed): the shortest call
    /// chain from some root to every reachable fn. Deterministic: roots
    /// and neighbors expand in index order, so of two parents at the same
    /// depth the lower index wins.
    pub(crate) fn reach(&self, roots: &[usize]) -> Reach {
        let mut parent = vec![UNREACHED; self.fns.len()];
        let mut queue = VecDeque::with_capacity(self.fns.len());
        let mut roots = roots.to_vec();
        roots.sort_unstable();
        for r in roots {
            if parent[r] == UNREACHED {
                parent[r] = r;
                queue.push_back(r);
            }
        }
        while let Some(n) = queue.pop_front() {
            for &(callee, _) in &self.edges[n] {
                if parent[callee] == UNREACHED {
                    parent[callee] = n;
                    queue.push_back(callee);
                }
            }
        }
        Reach {
            parent,
            path: Vec::new(),
        }
    }

    /// Deterministic JSON export: functions and resolved edges, sorted.
    pub fn to_json(&self) -> String {
        // Each name is escaped once, into one buffer, then copied into
        // every edge naming it: `ids[bounds[i]..bounds[i + 1]]` is fn `i`'s.
        let mut ids = String::with_capacity(self.fns.iter().map(|f| f.qname.len() + 2).sum());
        let mut bounds = Vec::with_capacity(self.fns.len() + 1);
        bounds.push(0);
        for f in &self.fns {
            write_escaped(&mut ids, &f.qname);
            bounds.push(ids.len());
        }
        let id = |i: usize| &ids[bounds[i]..bounds[i + 1]];
        // One reservation: the fixed text of a row plus its names and up
        // to 20 digits per number (files rarely need escapes).
        let fn_rows: usize = (self.fns.iter())
            .map(|f| self.files[f.file_idx].len() + 2 + 130)
            .sum();
        let edge_rows: usize = (self.edges.iter().enumerate())
            .map(|(ci, outs)| {
                (outs.iter())
                    .map(|&(callee, _)| id(ci).len() + id(callee).len() + 64)
                    .sum::<usize>()
            })
            .sum();
        let mut out = String::with_capacity(64 + ids.len() + fn_rows + edge_rows);
        out.push_str("{\n  \"version\": 1,\n  \"functions\": [");
        for (i, f) in self.fns.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str("    { \"id\": ");
            out.push_str(id(i));
            out.push_str(", \"file\": ");
            write_escaped(&mut out, &self.files[f.file_idx]);
            out.push_str(", \"line\": ");
            write_uint(&mut out, u64::from(f.line));
            out.push_str(", \"calls\": ");
            write_uint(&mut out, self.edges[i].len() as u64);
            out.push_str(", \"hazards\": ");
            write_uint(&mut out, f.hazards.len() as u64);
            out.push_str(" }");
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
                out.push_str(id(ci));
                out.push_str(", \"to\": ");
                out.push_str(id(callee));
                out.push_str(", \"line\": ");
                write_uint(&mut out, u64::from(line));
                out.push_str(" }");
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
        const HEAD: &str = "digraph mlscore_calls {\n  rankdir=LR;\n";
        // Exact size: each edge row is its two names plus 12 bytes.
        let rows: usize = (self.edges.iter().enumerate())
            .map(|(ci, outs)| {
                (outs.iter())
                    .map(|&(callee, _)| {
                        self.fns[ci].qname.len() + self.fns[callee].qname.len() + 12
                    })
                    .sum::<usize>()
            })
            .sum();
        let mut out = String::with_capacity(HEAD.len() + rows + 2);
        out.push_str(HEAD);
        for (ci, outs) in self.edges.iter().enumerate() {
            for &(callee, _) in outs {
                out.push_str("  \"");
                out.push_str(&self.fns[ci].qname);
                out.push_str("\" -> \"");
                out.push_str(&self.fns[callee].qname);
                out.push_str("\";\n");
            }
        }
        out.push_str("}\n");
        out
    }
}

/// Resolves every call site against the symbol table (see the module docs
/// for the name-based rules) on up to `workers` threads, `calls` being the
/// call-site table the fns' ranges index and `scans[i]` file `i`'s scan.
/// Returns, per caller, its `(callee, call line)` edges, sorted and
/// deduplicated.
fn resolve_edges(
    fns: &[FnNode],
    calls: &[CallSite],
    scans: &[&FileScan<'_>],
    workers: usize,
) -> Vec<Vec<(usize, u32)>> {
    // Every fn under its name key, sorted by `(key, index)`, and each key's
    // run of it: a call site's candidates. The map is only looked up, never
    // iterated, so its order cannot reach an output.
    let mut by_key: Vec<(u64, usize)> = (fns.iter().enumerate())
        .map(|(i, f)| (name_key(f.name()), i))
        .collect();
    by_key.sort_unstable();
    let mut runs: HashMap<u64, Range<usize>, BuildHasherDefault<KeyHasher>> =
        HashMap::with_capacity_and_hasher(fns.len(), BuildHasherDefault::default());
    for (i, &(key, _)) in by_key.iter().enumerate() {
        runs.entry(key).or_insert(i..i).end = i + 1;
    }
    // Once per graph, not per candidate: each fn's crate id, the layering
    // verdict for every pair of crates, and the module segment a
    // `module::f(...)` qualifier matches. `fns` is sorted by qualified
    // name, which starts with the crate, so one crate is one run of fns.
    let mut crates: Vec<&str> = Vec::new();
    let mut crate_id = Vec::with_capacity(fns.len());
    for f in fns {
        if crates.last() != Some(&f.krate()) {
            crates.push(f.krate());
        }
        crate_id.push(crates.len() - 1);
    }
    let may_reference: Vec<bool> = crates
        .iter()
        .flat_map(|&from| {
            crates
                .iter()
                .map(move |&to| crate::layering::may_reference(from, to))
        })
        .collect();
    let module: Vec<Option<&str>> = fns
        .iter()
        .map(|f| {
            f.qname
                .rsplit("::")
                .nth(if f.self_ty().is_some() { 2 } else { 1 })
        })
        .collect();

    // Pushes caller `ci`'s edges onto `out`, which comes in empty.
    let resolve = |ci: usize, out: &mut Vec<(usize, u32)>| {
        let caller = &fns[ci];
        let scan = scans[caller.file_idx];
        let may_call = &may_reference[crate_id[ci] * crates.len()..][..crates.len()];
        for call in &calls[caller.calls.start as usize..caller.calls.end as usize] {
            // A miss, the common case, touches no scan.
            let Some(run) = runs.get(&call.key) else {
                continue;
            };
            // A hit: only now read the site's text back from the scan.
            let name = call.name(scan);
            let qualifier = match call.qualifier(scan) {
                Some("Self") => Some(caller.self_ty().unwrap_or("Self")),
                q => q,
            };
            for &(_, callee) in &by_key[run.clone()] {
                let f = &fns[callee];
                // Equal keys, different names: a hash collision.
                if f.name() != name {
                    continue;
                }
                let named = match qualifier {
                    _ if call.method => f.has_self,
                    Some(q) => {
                        f.self_ty() == Some(q) || f.krate() == q || module[callee] == Some(q)
                    }
                    None => f.self_ty().is_none(),
                };
                // Layering-aware pruning: a candidate in a crate the
                // caller cannot depend on is not a real callee. This is
                // what stops a `tree.score(...)` in an `exec` kernel from
                // linking to every backend's `score` method.
                if named && may_call[crate_id[callee]] {
                    out.push((callee, call.line));
                }
            }
        }
    };
    // Fixed chunks of callers, so the tasks do not depend on the worker
    // count; the chunks come back in caller order. A chunk gathers each
    // caller's edges in one scratch buffer and hands out a list of their
    // exact size (none for a caller without edges).
    let chunks = fns.len().div_ceil(RESOLVE_CHUNK);
    let per_chunk = par::map_indexed(chunks, workers, |c| {
        let callers = c * RESOLVE_CHUNK..fns.len().min((c + 1) * RESOLVE_CHUNK);
        let mut scratch = Vec::new();
        callers
            .map(|ci| {
                scratch.clear();
                resolve(ci, &mut scratch);
                scratch.sort_unstable();
                // Dedup exact (callee, line) pairs only — the same callee
                // called from several lines keeps one edge per line, which
                // H002 needs to match hot-region call sites.
                scratch.dedup();
                scratch.to_vec()
            })
            .collect::<Vec<_>>()
    });
    let mut edges = Vec::with_capacity(fns.len());
    per_chunk.into_iter().for_each(|chunk| edges.extend(chunk));
    edges
}

/// The parent slot of a fn no root reaches.
const UNREACHED: usize = usize::MAX;

/// Shortest call chains from a set of roots ([`CallGraph::reach`]), one
/// slot per fn.
pub(crate) struct Reach {
    /// Per fn: its predecessor on a shortest chain from a root. A root is
    /// its own parent; a fn no root reaches has [`UNREACHED`].
    parent: Vec<usize>,
    /// Scratch for [`Reach::write_chain`]: the chain being written, from
    /// its last fn back to its root.
    path: Vec<usize>,
}

impl Reach {
    /// Whether some root reaches fn `idx`.
    pub(crate) fn contains(&self, idx: usize) -> bool {
        self.parent[idx] != UNREACHED
    }

    /// The root at the head of `idx`'s chain.
    pub(crate) fn root_of(&self, idx: usize) -> usize {
        links(&self.parent, idx).last().unwrap_or(idx)
    }

    /// The length in bytes of what [`Reach::write_chain`] appends for
    /// `idx`.
    pub(crate) fn chain_len(&self, graph: &CallGraph, idx: usize) -> usize {
        links(&self.parent, idx)
            .map(|n| graph.fns[n].qname.len() + " -> ".len())
            .sum::<usize>()
            - " -> ".len()
    }

    /// Appends the chain `root -> ... -> idx` to `out`: qualified names
    /// joined by ` -> `. A loop over the parent links, not a recursion, so
    /// a chain of any depth is written.
    pub(crate) fn write_chain(&mut self, graph: &CallGraph, idx: usize, out: &mut String) {
        self.path.clear();
        self.path.extend(links(&self.parent, idx));
        for (i, &n) in self.path.iter().rev().enumerate() {
            if i > 0 {
                out.push_str(" -> ");
            }
            out.push_str(&graph.fns[n].qname);
        }
    }
}

/// The fns on `idx`'s chain in a [`Reach`]'s `parent` table, from `idx`
/// back to its root.
fn links(parent: &[usize], idx: usize) -> impl Iterator<Item = usize> + '_ {
    std::iter::successors(Some(idx), |&cur| {
        let p = parent[cur];
        (p != cur && p != UNREACHED).then_some(p)
    })
}

/// The fn nodes one file contributes, in item order, with the call sites
/// and hazards of their bodies: the per-file half of
/// [`CallGraph::build`]. Each node's site ranges index this file's two
/// tables until [`CallGraph::merge`] joins every file's.
pub(crate) struct FileFns {
    fns: Vec<FnNode>,
    calls: Vec<CallSite>,
    hazards: Vec<Hazard>,
}

/// The [`FileFns`] of one file; `file_idx` is the file's index in the
/// analyzed file list. Each of the three lists is allocated once: every
/// fn item, test code included, bounds the nodes, and the file's call and
/// hazard sites bound its fns'.
pub(crate) fn file_fns(
    path: &str,
    scan: &FileScan<'_>,
    items: &[Item<'_>],
    file_idx: usize,
) -> FileFns {
    let krate = crate_of(path);
    let mut prefix = krate.to_string();
    for seg in module_path(path) {
        prefix.push_str("::");
        prefix.push_str(seg);
    }
    let sites = |keep: fn(SiteKind) -> bool| scan.sites.iter().filter(|s| keep(s.kind)).count();
    let mut out = FileFns {
        fns: Vec::with_capacity(fn_items(items)),
        calls: Vec::with_capacity(sites(|kind| kind == SiteKind::Call)),
        hazards: Vec::with_capacity(sites(|kind| hazard_kind(kind).is_some())),
    };
    collect_fns(
        &mut out,
        scan,
        items,
        &mut prefix,
        None,
        krate.len(),
        file_idx,
    );
    out
}

/// The number of fn items in an item tree, nested ones included.
fn fn_items(items: &[Item<'_>]) -> usize {
    (items.iter())
        .map(|item| match &item.kind {
            ItemKind::Fn { .. } => 1,
            ItemKind::Impl { items, .. }
            | ItemKind::Trait { items, .. }
            | ItemKind::Mod { items, .. } => fn_items(items),
            ItemKind::Use { .. } | ItemKind::Other => 0,
        })
        .sum()
}

/// Recursively collects fn nodes from a parsed item tree. `prefix` is the
/// `::`-joined crate and module path of the items, and its first
/// `krate_len` bytes are the crate; a nested `mod` appends its name for
/// its items and takes it off again.
fn collect_fns(
    out: &mut FileFns,
    scan: &FileScan<'_>,
    items: &[Item<'_>],
    prefix: &mut String,
    self_ty: Option<&str>,
    krate_len: usize,
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
                let ty_len = self_ty.map_or(0, |ty| ty.len() + 2);
                let mut qname = String::with_capacity(prefix.len() + ty_len + 2 + name.len());
                qname.push_str(prefix);
                // Without a self type, the name starts where one would.
                let ty_start = qname.len() + 2;
                if let Some(ty) = self_ty {
                    qname.push_str("::");
                    qname.push_str(ty);
                }
                qname.push_str("::");
                let name_start = qname.len();
                qname.push_str(name);
                let (calls, hazards) = (out.calls.len(), out.hazards.len());
                if let Some((open, close)) = body {
                    extract_body(scan, *open, *close, &mut out.calls, &mut out.hazards);
                }
                // Source files are far below 4 GiB, and so is any name in
                // one and the site count of a workspace.
                let at = |i: usize| i as u32;
                out.fns.push(FnNode {
                    krate_end: at(krate_len),
                    ty_start: at(ty_start),
                    name_start: at(name_start),
                    name_end: at(qname.len()),
                    qname,
                    file_idx,
                    line: item.span.line_start,
                    has_self: *has_self,
                    calls: at(calls)..at(out.calls.len()),
                    hazards: at(hazards)..at(out.hazards.len()),
                });
            }
            ItemKind::Impl {
                self_ty: ty, items, ..
            } => {
                collect_fns(out, scan, items, prefix, Some(*ty), krate_len, file_idx);
            }
            ItemKind::Trait { name, items } => {
                collect_fns(out, scan, items, prefix, Some(*name), krate_len, file_idx);
            }
            ItemKind::Mod { name, items } => {
                let outer = prefix.len();
                prefix.push_str("::");
                prefix.push_str(name);
                collect_fns(out, scan, items, prefix, None, krate_len, file_idx);
                prefix.truncate(outer);
            }
            ItemKind::Use { .. } | ItemKind::Other => {}
        }
    }
}

/// The hazard a site of this kind is, when it is one.
fn hazard_kind(kind: SiteKind) -> Option<HazardKind> {
    Some(match kind {
        SiteKind::PanicMethod | SiteKind::PanicMacro => HazardKind::Panic,
        SiteKind::Index => HazardKind::Index,
        SiteKind::AllocNew | SiteKind::AllocMacro | SiteKind::AllocMethod => HazardKind::Alloc,
        SiteKind::InstantNow | SiteKind::SystemTimeUse => HazardKind::Clock,
        SiteKind::AmbientRng | SiteKind::RandRandom => HazardKind::Rng,
        SiteKind::UnorderedMap => HazardKind::UnorderedMap,
        _ => return None,
    })
}

/// Extracts call sites and hazard sites from a fn body's significant-token
/// range `(open, close)` (the braces themselves excluded): the sites of
/// the file's site table anchored inside the body, in anchor order,
/// appended to `calls` and `hazards`.
pub(crate) fn extract_body(
    scan: &FileScan<'_>,
    open: usize,
    close: usize,
    calls: &mut Vec<CallSite>,
    hazards: &mut Vec<Hazard>,
) {
    let from = scan.sites.partition_point(|s| s.at <= open);
    let to = scan.sites.partition_point(|s| s.at < close);
    for &site in &scan.sites[from..to] {
        if site.kind == SiteKind::Call {
            let (j, t) = (site.at, scan.tok(site.at));
            if !scan.in_test(t.line) {
                calls.push(CallSite {
                    at: j,
                    key: name_key(t.text),
                    method: j > 0 && scan.punct(j - 1, "."),
                    line: t.line,
                    in_hot: scan.in_hot(t.line),
                });
            }
            continue;
        }
        // The index base must sit inside the body too.
        let in_body = site.kind != SiteKind::Index || site.at > open + 1;
        let Some(kind) = hazard_kind(site.kind).filter(|_| in_body) else {
            continue;
        };
        let t = scan.tok(site.token());
        if !scan.in_test(t.line) {
            hazards.push(Hazard {
                kind,
                line: t.line,
                offset: t.offset,
                site,
            });
        }
    }
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
        let view: Vec<(String, &FileScan<'_>, &[Item<'_>])> = scans
            .iter()
            .zip(&parsed)
            .map(|((p, s), items)| (p.clone(), s, items.as_slice()))
            .collect();
        CallGraph::build(&view)
    }

    #[test]
    fn merge_resolves_the_same_edges_on_any_worker_count() {
        // Every call form, each name defined in several files and crates,
        // and enough fns for several resolve chunks.
        let sources: Vec<(String, String)> = (0..6)
            .map(|k| {
                let krate = ["app", "exec", "backend"][k % 3];
                let body: String = (0..60)
                    .map(|j| {
                        let next = (j + 7) % 60;
                        format!(
                            "pub fn f{j}() {{ f{next}(); m{k}::f{j}(); Self::g{next}(); Vec::new(); }}\n\
                             impl T{j} {{ fn g{j}(&self) {{ self.g{next}(); T{next}::g{next}(); f{j}(); }} }}\n"
                        )
                    })
                    .collect();
                (format!("crates/{krate}/src/m{k}.rs"), body)
            })
            .collect();
        let scans: Vec<FileScan> = sources.iter().map(|(_, s)| FileScan::of(s)).collect();
        let scan_refs: Vec<&FileScan> = scans.iter().collect();
        let fns = || -> Vec<FileFns> {
            (sources.iter().zip(&scans).enumerate())
                .map(|(i, ((path, _), scan))| file_fns(path, scan, &parse_items(scan), i))
                .collect()
        };
        let paths = || sources.iter().map(|(path, _)| path.clone()).collect();
        let serial = CallGraph::merge(fns(), paths(), &scan_refs, 1);
        assert!(serial.fns.len() > 3 * RESOLVE_CHUNK, "{}", serial.fns.len());
        let edges: usize = serial.edges.iter().map(Vec::len).sum();
        assert!(edges > serial.fns.len(), "{edges} edges");
        for workers in [2, 7] {
            let par = CallGraph::merge(fns(), paths(), &scan_refs, workers);
            assert_eq!(par.edges, serial.edges, "{workers} workers");
        }
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
        let caller = g.index_of("a::caller").unwrap();
        let helper = g.index_of("a::helper").unwrap();
        assert_eq!(g.edges[caller], vec![(helper, 1)]);
    }

    #[test]
    fn method_calls_resolve_to_self_receivers() {
        let g = graph_of(&[(
            "crates/a/src/lib.rs",
            "fn caller(x: &T) { x.step(); }\nimpl T { fn step(&self) {} }\nfn step() {}\n",
        )]);
        let caller = g.index_of("a::caller").unwrap();
        let method = g.index_of("a::T::step").unwrap();
        assert_eq!(g.edges[caller], vec![(method, 1)]);
    }

    #[test]
    fn qualified_calls_match_type_module_or_crate_and_nothing_else() {
        let g = graph_of(&[(
            "crates/a/src/m.rs",
            "fn caller() { T::mk(); m::free(); Vec::new(); }\n\
             impl T { fn mk() {} }\nfn free() {}\nfn new() {}\n",
        )]);
        let caller = g.index_of("a::m::caller").unwrap();
        let mk = g.index_of("a::m::T::mk").unwrap();
        let free = g.index_of("a::m::free").unwrap();
        let targets: Vec<usize> = g.edges[caller].iter().map(|&(c, _)| c).collect();
        assert!(targets.contains(&mk));
        assert!(targets.contains(&free));
        // `Vec::new()` must NOT link to the unrelated workspace fn `new`.
        assert!(!targets.contains(&g.index_of("a::m::new").unwrap()));
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
        let kinds: Vec<HazardKind> = g.hazards_of(0).iter().map(|h| h.kind).collect();
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
        let root = g.index_of("a::root").unwrap();
        let leaf = g.index_of("a::leaf").unwrap();
        let mut reach = g.reach(&[root]);
        assert!(reach.contains(leaf));
        assert!(!reach.contains(g.index_of("a::stranded").unwrap()));
        assert_eq!(chain(&mut reach, &g, leaf), "a::root -> a::mid -> a::leaf");
        assert_eq!(reach.root_of(leaf), root);
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
        let walk = g.index_of("a::walk").unwrap();
        let cold = g.index_of("a::cold").unwrap();
        assert!(g.calls_of(walk)[0].in_hot);
        assert!(!g.calls_of(cold)[0].in_hot);
    }

    /// `idx`'s chain as [`Reach::write_chain`] writes it, checked against
    /// the length [`Reach::chain_len`] gives.
    fn chain(reach: &mut Reach, g: &CallGraph, idx: usize) -> String {
        let mut out = String::new();
        reach.write_chain(g, idx, &mut out);
        assert_eq!(out.len(), reach.chain_len(g, idx), "{out}");
        out
    }

    /// Every reached fn with its rendered chain, in fn order.
    fn chains_of(g: &CallGraph, roots: &[usize]) -> Vec<(usize, String)> {
        let mut reach = g.reach(roots);
        let reached: Vec<usize> = (0..g.fns.len()).filter(|&i| reach.contains(i)).collect();
        reached
            .into_iter()
            .map(|i| (i, chain(&mut reach, g, i)))
            .collect()
    }

    #[test]
    fn merge_resolution_and_reach_are_pinned() {
        let g = graph_of(&[
            ("crates/app/src/x.rs", "pub fn f() {}\n"),
            (
                "crates/app/src/x/mod.rs",
                "pub fn f() { helper(); }\nfn helper() {}\n",
            ),
            (
                "crates/app/src/lib.rs",
                "mod x {\n    pub fn f() {}\n}\npub fn root() {\n    x::f();\n    shared();\n}\n\
                 impl Engine {\n    pub fn run(&self) {\n        Self::prep();\n        \
                 self.c();\n        self.b();\n        shared();\n    }\n    fn prep() {}\n    \
                 fn b(&self) { d(); }\n    fn c(&self) { d(); }\n}\n\
                 fn d() { e(); }\nfn e() { d(); root(); }\nimpl Other { fn prep() {} }\n\
                 fn shared() {}\n",
            ),
            (
                "crates/exec/src/lib.rs",
                "pub fn kernel(t: &Tree) {\n    t.score();\n}\n\
                 impl Tree {\n    pub fn score(&self) {}\n}\n",
            ),
            (
                "crates/backend/src/lib.rs",
                "impl Onnx {\n    pub fn score(&self) {}\n}\n",
            ),
        ]);
        let names = [
            "app::Engine::b",
            "app::Engine::c",
            "app::Engine::prep",
            "app::Engine::run",
            "app::Other::prep",
            "app::d",
            "app::e",
            "app::root",
            "app::shared",
            "app::x::f",
            "app::x::f#2",
            "app::x::f#3",
            "app::x::helper",
            "backend::Onnx::score",
            "exec::Tree::score",
            "exec::kernel",
        ];
        for (i, qname) in names.iter().enumerate() {
            assert_eq!(g.index_of(qname), Some(i), "{qname}");
        }
        assert_eq!(g.index_of("app::x::f#4"), None);
        let qnames: Vec<&str> = g.fns.iter().map(|f| f.qname.as_str()).collect();
        assert_eq!(qnames, names);
        // The three `app::x::f` collide; `#2` and `#3` follow file order.
        let files: Vec<&str> = g.fns[9..=11]
            .iter()
            .map(|f| g.files[f.file_idx].as_str())
            .collect();
        assert_eq!(
            files,
            [
                "crates/app/src/x.rs",
                "crates/app/src/x/mod.rs",
                "crates/app/src/lib.rs"
            ]
        );

        let edges: Vec<Vec<(usize, u32)>> = vec![
            vec![(5, 16)],
            vec![(5, 17)],
            vec![],
            // `Self::prep` is `Engine::prep`, never `Other::prep`.
            vec![(0, 12), (1, 11), (2, 10), (8, 13)],
            vec![],
            vec![(6, 19)],
            vec![(5, 20), (7, 20)],
            // `x::f()` reaches every `app::x::f`, `#2` and `#3` included.
            vec![(8, 6), (9, 5), (10, 5), (11, 5)],
            vec![],
            vec![],
            vec![(12, 1)],
            vec![],
            vec![],
            vec![],
            vec![],
            // `exec` may not depend on `backend`: `Onnx::score` is pruned.
            vec![(14, 2)],
        ];
        assert_eq!(g.edges, edges);

        // Roots unsorted and repeated. `shared` hangs off both roots, and
        // `d` off both `b` and `c`, at equal depth: the lower index wins
        // each time. The `d -> e -> d` and `e -> root` back edges add
        // nothing.
        let run = g.index_of("app::Engine::run").unwrap();
        let root = g.index_of("app::root").unwrap();
        let chains = chains_of(&g, &[root, run, root]);
        let want: Vec<(usize, String)> = [
            (0, "app::Engine::run -> app::Engine::b"),
            (1, "app::Engine::run -> app::Engine::c"),
            (2, "app::Engine::run -> app::Engine::prep"),
            (3, "app::Engine::run"),
            (5, "app::Engine::run -> app::Engine::b -> app::d"),
            (6, "app::Engine::run -> app::Engine::b -> app::d -> app::e"),
            (7, "app::root"),
            (8, "app::Engine::run -> app::shared"),
            (9, "app::root -> app::x::f"),
            (10, "app::root -> app::x::f#2"),
            (11, "app::root -> app::x::f#3"),
            (12, "app::root -> app::x::f#2 -> app::x::helper"),
        ]
        .into_iter()
        .map(|(i, c)| (i, c.to_string()))
        .collect();
        assert_eq!(chains, want);
    }
}
