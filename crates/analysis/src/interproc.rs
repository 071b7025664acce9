//! The interprocedural lints: reachability analyses over the call graph.
//!
//! Where the token lints ([`crate::lints`]) see one site at a time, these
//! four see the *path* to it:
//!
//! | Lint | Invariant |
//! |------|-----------|
//! | P002 | no panic site transitively reachable from a public serving entry point |
//! | H002 | no allocation transitively reachable from a `// analyze: hot` region |
//! | D004 | no wall-clock / RNG / unordered-map taint reachable from an export builder |
//! | A001 | crate layering: every `mlscore_*` cross-crate reference obeys the table |
//!
//! Every P002/H002/D004 finding carries the full call chain from its root
//! in the message, so a reviewer sees *why* the site is on a serving /
//! hot / export path, not just where it is. Suppression is honored at the
//! hazard site: either the interprocedural code (`allow(P002, ...)`) or
//! the matching direct lint (`allow(P001, ...)` for P002, `allow(H001)`
//! for H002, `allow(D001/D002/D003)` for D004) — a site whose direct
//! suppression already states its invariant is justified for the
//! transitive claim too.
//!
//! A finding costs its own allocations and no more: the chain in its
//! message is written from the BFS parent links straight into one
//! `String` sized for the whole message (`chain_message`), and the
//! per-fn `(kind, line)` dedup and hot-line lists are buffers reused
//! across the fns of a lint. So a chain thousands of links deep costs
//! what a short one does.

use std::fmt::{self, Write as _};

use crate::graph::{CallGraph, HazardKind, Reach};
use crate::layering::allowed_of;
use crate::lints::{crate_of, P001_INDEX_CRATES};
use crate::scan::FileScan;
use crate::sites::{SiteKind, CRATE_PREFIX};
use crate::Finding;

/// Public serving entry points: P002 roots, matched as `::`-aligned
/// qualified-name suffixes. These are the functions a request (or a fleet
/// driver) enters through; anything they can reach must not panic. An
/// entry that matches no function is skipped here, so
/// `tests/serving_roots.rs` pins that each one still resolves in this
/// workspace.
pub const SERVING_ROOTS: &[&str] = &[
    "serve::engine::ServeEngine::run",
    "fleet::sim::run_fleet",
    "serve::coalesce::score_merged_stream",
    "pipeline::query::QueryPipeline::execute",
];

/// Export-builder roots: D004 taints anything these can reach. Matched by
/// bare fn name — every serialization surface in the workspace uses one
/// of these names.
pub const EXPORT_ROOTS: &[&str] = &["to_json", "to_jsonl", "render_json", "to_dot"];

/// One analyzed file: its path and single-lex scan — the unit the
/// workspace tier shares between the token lints and the graph. The scan
/// keeps only the file's significant tokens, which borrow its source text.
pub struct FileUnit<'a> {
    /// Workspace-relative path.
    pub path: String,
    /// The file's single-pass scan: lexed exactly once, in the loop that
    /// fills its tables.
    pub scan: FileScan<'a>,
}

/// Runs all four interprocedural lints, one task each over the shared
/// graph, on up to one thread per lint. Returns `(active, suppressed)`
/// findings, unsorted (the caller merges and sorts with the token-lint
/// findings).
pub fn run_interproc(units: &[FileUnit<'_>], graph: &CallGraph) -> (Vec<Finding>, Vec<Finding>) {
    run_interproc_on(units, graph, crate::par::host_workers())
}

/// [`run_interproc`] on up to `workers` threads. The lints' outputs are
/// concatenated in P002, H002, D004, A001 order whatever the worker count,
/// so the stable sort that follows sees the same sequence.
pub(crate) fn run_interproc_on(
    units: &[FileUnit<'_>],
    graph: &CallGraph,
    workers: usize,
) -> (Vec<Finding>, Vec<Finding>) {
    let sinks = crate::par::map_indexed(4, workers, |lint| match lint {
        0 => p002(units, graph),
        1 => h002(units, graph),
        2 => d004(units, graph),
        _ => a001(units),
    });
    let mut active = Vec::with_capacity(sinks.iter().map(|s| s.active.len()).sum());
    let mut suppressed = Vec::with_capacity(sinks.iter().map(|s| s.suppressed.len()).sum());
    for sink in sinks {
        active.extend(sink.active);
        suppressed.extend(sink.suppressed);
    }
    (active, suppressed)
}

/// One lint's findings, in emission order.
#[derive(Default)]
struct Sink {
    active: Vec<Finding>,
    suppressed: Vec<Finding>,
}

impl Sink {
    /// Emits `finding` (built with `suppressed: None`) unless one of
    /// `allow_lints` suppresses it at the site — the first matching
    /// suppression wins and its reason is recorded on the finding.
    fn emit(&mut self, scan: &FileScan<'_>, allow_lints: &[&str], mut finding: Finding) {
        for al in allow_lints {
            if let Some(reason) = scan.suppression_reason(al, finding.line) {
                finding.suppressed = Some(reason.to_string());
                self.suppressed.push(finding);
                return;
            }
        }
        self.active.push(finding);
    }
}

/// Builds an unsuppressed finding; [`Sink::emit`] fills in the reason if
/// a waiver covers the site.
fn finding(lint: &str, file: &str, line: u32, offset: usize, message: String) -> Finding {
    Finding {
        lint: lint.to_string(),
        file: file.to_string(),
        line,
        offset,
        message,
        suppressed: None,
    }
}

/// A P002/H002/D004 message: `head`, then the chain from the root to fn
/// `idx`, then `tail`, in one `String` allocated once at its final size.
/// `head` is measured, then written, with `write!`: the site text and
/// any line number go in without a `String` of their own.
fn chain_message(
    reach: &mut Reach,
    graph: &CallGraph,
    idx: usize,
    head: fmt::Arguments<'_>,
    tail: &str,
) -> String {
    /// Counts the bytes written to it.
    struct Len(usize);
    impl fmt::Write for Len {
        fn write_str(&mut self, s: &str) -> fmt::Result {
            self.0 += s.len();
            Ok(())
        }
    }
    let mut len = Len(reach.chain_len(graph, idx) + tail.len());
    // Writing to a `Len` or a `String` cannot fail.
    let _ = len.write_fmt(head);
    let mut message = String::with_capacity(len.0);
    let _ = message.write_fmt(head);
    reach.write_chain(graph, idx, &mut message);
    message.push_str(tail);
    message
}

/// One finding per `(hazard kind, line)` within a function bounds noise:
/// two `HashMap`s on one line are one problem, not two. One is reused
/// across the fns of a lint, [`LineDedup::clear`]ed between them.
struct LineDedup(Vec<(HazardKind, u32)>);

impl LineDedup {
    fn new() -> Self {
        Self(Vec::new())
    }

    /// Forgets every `(kind, line)` seen, keeping the buffer.
    fn clear(&mut self) {
        self.0.clear();
    }

    /// True the first time `(kind, line)` is seen.
    fn fresh(&mut self, kind: HazardKind, line: u32) -> bool {
        if self.0.contains(&(kind, line)) {
            return false;
        }
        self.0.push((kind, line));
        true
    }
}

/// P002: panic sites transitively reachable from a serving entry point.
fn p002(units: &[FileUnit<'_>], graph: &CallGraph) -> Sink {
    let mut sink = Sink::default();
    let mut roots = Vec::new();
    for root in SERVING_ROOTS {
        roots.extend(graph.find_suffix(root));
    }
    let mut reach = graph.reach(&roots);
    let mut seen = LineDedup::new();
    for (idx, f) in graph.fns.iter().enumerate() {
        if !reach.contains(idx) {
            continue;
        }
        let FileUnit { path, scan } = &units[f.file_idx];
        let flag_index = P001_INDEX_CRATES.contains(&f.krate());
        seen.clear();
        for h in graph.hazards_of(idx) {
            let in_scope = match h.kind {
                HazardKind::Panic => true,
                HazardKind::Index => flag_index,
                _ => false,
            };
            if !in_scope || !seen.fresh(h.kind, h.line) {
                continue;
            }
            let message = chain_message(
                &mut reach,
                graph,
                idx,
                format_args!("`{}` reachable from a serving entry point: ", h.what(scan)),
                " (panic-free serving requires the whole chain to surface errors)",
            );
            sink.emit(
                scan,
                &["P002", "P001"],
                finding("P002", path, h.line, h.offset, message),
            );
        }
    }
    sink
}

/// H002: allocations transitively reachable from `// analyze: hot`
/// regions — the callee side of what H001 checks lexically.
fn h002(units: &[FileUnit<'_>], graph: &CallGraph) -> Sink {
    let mut sink = Sink::default();
    // Roots: every callee reached by a call *site* inside a hot region.
    let mut roots = Vec::new();
    // Per root: the first hot call site `(caller, line)` that reaches it.
    let mut origin: Vec<Option<(usize, u32)>> = vec![None; graph.fns.len()];
    let mut hot_lines = Vec::new();
    for ci in 0..graph.fns.len() {
        hot_lines.clear();
        hot_lines.extend(
            graph
                .calls_of(ci)
                .iter()
                .filter(|c| c.in_hot)
                .map(|c| c.line),
        );
        if hot_lines.is_empty() {
            continue;
        }
        for &(callee, line) in &graph.edges[ci] {
            if hot_lines.contains(&line) {
                roots.push(callee);
                origin[callee].get_or_insert((ci, line));
            }
        }
    }
    let mut reach = graph.reach(&roots);
    let mut seen = LineDedup::new();
    for (idx, f) in graph.fns.iter().enumerate() {
        if !reach.contains(idx) {
            continue;
        }
        let FileUnit { path, scan } = &units[f.file_idx];
        seen.clear();
        for h in graph.hazards_of(idx) {
            if h.kind != HazardKind::Alloc {
                continue;
            }
            // Allocations lexically inside the callee's own hot region
            // are H001's (already flagged there); H002 covers the rest.
            if scan.in_hot(h.line) || !seen.fresh(h.kind, h.line) {
                continue;
            }
            // The BFS root names the hot-region origin.
            let (hot_fn, hot_line) = match origin[reach.root_of(idx)] {
                Some((caller, line)) => (graph.fns[caller].qname.as_str(), line),
                None => ("<hot region>", h.line),
            };
            let message = chain_message(
                &mut reach,
                graph,
                idx,
                format_args!(
                    "allocation `{}` reachable from the hot region in {hot_fn} \
                     (call at line {hot_line}): ",
                    h.what(scan)
                ),
                " (hot paths must reuse scratch buffers transitively)",
            );
            sink.emit(
                scan,
                &["H002", "H001"],
                finding("H002", path, h.line, h.offset, message),
            );
        }
    }
    sink
}

/// D004: determinism taint — wall-clock, RNG, or unordered-map use
/// reachable from a function that builds a serialized export.
fn d004(units: &[FileUnit<'_>], graph: &CallGraph) -> Sink {
    let mut sink = Sink::default();
    let mut roots = Vec::new();
    for (i, f) in graph.fns.iter().enumerate() {
        if EXPORT_ROOTS.contains(&f.name()) {
            roots.push(i);
        }
    }
    let mut reach = graph.reach(&roots);
    let mut seen = LineDedup::new();
    for (idx, f) in graph.fns.iter().enumerate() {
        if !reach.contains(idx) {
            continue;
        }
        let FileUnit { path, scan } = &units[f.file_idx];
        seen.clear();
        for h in graph.hazards_of(idx) {
            let (what, direct): (&str, &str) = match h.kind {
                HazardKind::Clock => ("wall-clock read", "D001"),
                HazardKind::Rng => ("ambient RNG", "D003"),
                HazardKind::UnorderedMap => ("unordered map", "D002"),
                _ => continue,
            };
            if !seen.fresh(h.kind, h.line) {
                continue;
            }
            let message = chain_message(
                &mut reach,
                graph,
                idx,
                format_args!(
                    "{what} `{}` reachable from an export builder: ",
                    h.what(scan)
                ),
                " (exports must be byte-identical across runs)",
            );
            sink.emit(
                scan,
                &["D004", direct],
                finding("D004", path, h.line, h.offset, message),
            );
        }
    }
    sink
}

/// A001: crate-layering violations — any `mlscore_<crate>` reference not
/// allowed by [`crate::layering::LAYERING`], read from each file's
/// crate-reference sites.
fn a001(units: &[FileUnit<'_>]) -> Sink {
    let mut sink = Sink::default();
    let mut seen_lines: Vec<u32> = Vec::new();
    for unit in units {
        let krate = crate_of(&unit.path);
        let Some(allowed) = allowed_of(krate) else {
            // Unknown crate (not in the table): out of layering scope.
            continue;
        };
        let scan = &unit.scan;
        seen_lines.clear();
        for site in &scan.sites {
            if site.kind != SiteKind::CrateRef {
                continue;
            }
            let t = scan.tok(site.at);
            let referenced = &t.text[CRATE_PREFIX.len()..];
            if referenced == krate || allowed.contains(&referenced) {
                continue;
            }
            if scan.in_test(t.line) || seen_lines.contains(&t.line) {
                continue;
            }
            seen_lines.push(t.line);
            let message = format!(
                "crate `{krate}` may not depend on `{referenced}` \
                 (layering table: {krate} -> [{}])",
                allowed.join(", ")
            );
            sink.emit(
                scan,
                &["A001"],
                finding("A001", &unit.path, t.line, t.offset, message),
            );
        }
    }
    sink
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serving_roots_and_export_roots_stay_reasonable() {
        assert!(SERVING_ROOTS.contains(&"serve::engine::ServeEngine::run"));
        assert!(SERVING_ROOTS.contains(&"fleet::sim::run_fleet"));
        assert!(EXPORT_ROOTS.contains(&"to_json"));
    }
}
