//! `mlscore-analysis`: workspace-specific static analysis.
//!
//! The reproduction's headline claims — same `(seed, config)` ⇒
//! byte-identical exports, bit-exact scoring, zero-alloc kernels — are
//! invariants of the *source*, not just of the tests that sample them.
//! This crate enforces them mechanically with a hand-rolled lexer (the
//! container is offline, so no `syn`) and a small set of repo-specific
//! lints:
//!
//! | Lint | Invariant |
//! |------|-----------|
//! | D001 | no wall-clock reads (`Instant::now`/`SystemTime`) outside allowlisted measurement sites |
//! | D002 | no `HashMap`/`HashSet` in report/export-building crates (`serve`, `core`) |
//! | D003 | no ambient/unseeded RNG construction |
//! | P001 | no `unwrap`/`expect`/`panic!`/plain-indexing on `serve`/`pipeline`/`exec` request paths |
//! | H001 | no allocation inside `// analyze: hot` regions |
//! | T001 | every telemetry `.span(...)` reaches a `finish`/`finish_after` |
//! | T002 | every request-lifecycle journal `.emit(...)` in `serve` carries a request id |
//! | A000 | every `// analyze:` directive is well-formed and carries a reason |
//!
//! On top of the token lints sits a structural tier ([`parser`] →
//! [`graph`] → [`interproc`]): a recovery-oriented item parser, a
//! workspace symbol table, and a conservative name-based call graph,
//! which power four *interprocedural* lints:
//!
//! | Lint | Invariant |
//! |------|-----------|
//! | P002 | no panic site transitively reachable from a public serving entry point |
//! | H002 | no allocation transitively reachable from a `// analyze: hot` region |
//! | D004 | no determinism hazard reachable from an export builder (`to_json` etc.) |
//! | A001 | every cross-crate `mlscore_*` reference obeys the layering table |
//!
//! Legitimate exceptions are annotated inline:
//!
//! ```text
//! // analyze: allow(D001, reason="bench boundary: this is the measurement")
//! let t0 = Instant::now();
//! ```
//!
//! and a reason is mandatory — an `allow` without one both fails to
//! suppress and raises `A000`. An inline `allow` is the only waiver: CI
//! fails on any active finding.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod graph;
pub mod interproc;
pub mod layering;
pub mod lexer;
pub mod lints;
mod par;
pub mod parser;
pub mod scan;
mod sites;
pub mod walk;

use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

use scan::FileScan;

/// One lint hit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Lint code (`D001`, ...).
    pub lint: String,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 0-based byte offset of the flagged token in the file.
    pub offset: usize,
    /// Human-readable explanation.
    pub message: String,
    /// `Some(reason)` when an `// analyze: allow(...)` directive
    /// suppressed this finding — the directive's mandatory reason string.
    pub suppressed: Option<String>,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.file, self.line, self.lint, self.message
        )
    }
}

/// A lint's catalog entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LintInfo {
    /// The code findings and `allow` directives use.
    pub code: &'static str,
    /// One-line description.
    pub summary: &'static str,
}

/// Every lint the analyzer knows, in report order.
pub const LINTS: &[LintInfo] = &[
    LintInfo {
        code: "A000",
        summary: "malformed `// analyze:` directive (missing or empty reason, unknown lint)",
    },
    LintInfo {
        code: "A001",
        summary: "crate-layering violation (cross-crate reference outside the table)",
    },
    LintInfo {
        code: "D001",
        summary: "wall-clock read outside an allowlisted measurement site",
    },
    LintInfo {
        code: "D002",
        summary: "unordered map in a report/export-building crate",
    },
    LintInfo {
        code: "D003",
        summary: "ambient or unseeded RNG construction",
    },
    LintInfo {
        code: "D004",
        summary: "determinism hazard transitively reachable from an export builder",
    },
    LintInfo {
        code: "P001",
        summary: "panic path (unwrap/expect/panic!/plain indexing) in request-serving code",
    },
    LintInfo {
        code: "P002",
        summary: "panic site transitively reachable from a serving entry point",
    },
    LintInfo {
        code: "H001",
        summary: "allocation inside a `// analyze: hot` region",
    },
    LintInfo {
        code: "H002",
        summary: "allocation transitively reachable from a `// analyze: hot` region",
    },
    LintInfo {
        code: "T001",
        summary: "telemetry span opened without a matching finish",
    },
    LintInfo {
        code: "T002",
        summary: "request-lifecycle journal emit without a request id",
    },
];

/// Analyzes one file's source text with the *token* lints only
/// (interprocedural lints need the whole workspace — see
/// [`analyze_sources`]). `rel_path` decides crate-scoped lints
/// (`crates/serve/src/...` puts the file in the `serve` crate).
pub fn analyze_source(rel_path: &str, source: &str) -> Vec<Finding> {
    lints::run_lints(rel_path, &FileScan::of(source))
}

/// The full structural analysis of a workspace: active and suppressed
/// findings plus the call graph they were computed over.
pub struct WorkspaceAnalysis {
    /// Active findings, sorted by `(file, line, lint, offset)`.
    pub findings: Vec<Finding>,
    /// Findings an `allow` directive suppressed, with their reasons,
    /// sorted the same way.
    pub suppressed: Vec<Finding>,
    /// The workspace call graph (deterministic: ordered by qualified
    /// name).
    pub graph: graph::CallGraph,
}

fn sort_findings(findings: &mut [Finding]) {
    findings.sort_by(|a, b| {
        (&a.file, a.line, &a.lint, a.offset).cmp(&(&b.file, b.line, &b.lint, b.offset))
    });
}

/// Analyzes a set of in-memory `(rel_path, source)` files as one
/// workspace.
///
/// Each file is lexed exactly once, and its patterns are matched once: the
/// scan's significant tokens, which borrow `files`, feed the item parser,
/// and its site table feeds the token lints, the call graph and A001.
/// Everything up to the call graph is a function of one file and runs on
/// every core the host offers, a file at a time per worker, as one task
/// per file: scan (one loop that lexes and fills the significant-token,
/// class and bracket-partner tables and notes the directive comments; then
/// directives, test regions, sites), item parse, token-lint pass and
/// fn-node extraction, back to back while the file's tables are still in
/// cache. A file that an out-of-line `#[cfg(test)] mod name;` declares,
/// and every submodule file below it, is then test code as a whole: its
/// token lints and fn nodes are taken again with the whole file one test
/// region, so only its malformed directives (A000) still report. The
/// results merge back in file order, so the graph merge (its
/// edges resolved in fixed chunks of callers, concatenated in caller
/// order), the four interprocedural lints (run side by side, concatenated
/// in a fixed order) and the final sort see exactly what a one-core run
/// sees: the analysis is identical for any core count. With one core
/// nothing is spawned.
pub fn analyze_sources(files: &[(String, String)]) -> WorkspaceAnalysis {
    analyze_sources_on(files, par::host_workers())
}

/// [`analyze_sources`] on up to `workers` threads.
fn analyze_sources_on(files: &[(String, String)], workers: usize) -> WorkspaceAnalysis {
    // What one file's scan gives: its active and suppressed token-lint
    // findings and its fn nodes.
    let facts = |i: usize, scan: &FileScan<'_>| {
        let path = &files[i].0;
        let items = parser::parse_items(scan);
        let (active, suppressed) = lints::run_lints_all(path, scan);
        (active, suppressed, graph::file_fns(path, scan, &items, i))
    };
    let mut per_file = par::map_indexed(files.len(), workers, |i| {
        let scan = FileScan::of(&files[i].1);
        let file_facts = facts(i, &scan);
        (scan, file_facts)
    });
    // A file an out-of-line `#[cfg(test)] mod name;` declares is test code
    // as a whole: its facts are taken again with the whole file one test
    // region.
    let paths: Vec<&str> = files.iter().map(|(p, _)| p.as_str()).collect();
    for i in test_only_files(&paths, per_file.iter().map(|(scan, _)| &scan.test_mods)) {
        let (scan, file_facts) = &mut per_file[i];
        scan.test_ranges = vec![scan::WHOLE_FILE];
        *file_facts = facts(i, scan);
    }

    let mut units = Vec::with_capacity(files.len());
    let mut findings = Vec::new();
    let mut suppressed = Vec::new();
    let mut fns = Vec::with_capacity(files.len());
    for ((scan, (file_active, file_suppressed, file_fns)), path) in per_file.into_iter().zip(paths)
    {
        units.push(interproc::FileUnit {
            path: path.to_string(),
            scan,
        });
        findings.extend(file_active);
        suppressed.extend(file_suppressed);
        fns.push(file_fns);
    }
    let scans: Vec<&FileScan<'_>> = units.iter().map(|u| &u.scan).collect();
    let paths = units.iter().map(|u| u.path.clone()).collect();
    let graph = graph::CallGraph::merge(fns, paths, &scans, workers);

    let (inter_active, inter_supp) = interproc::run_interproc_on(&units, &graph, workers);
    findings.extend(inter_active);
    suppressed.extend(inter_supp);
    sort_findings(&mut findings);
    sort_findings(&mut suppressed);
    WorkspaceAnalysis {
        findings,
        suppressed,
        graph,
    }
}

/// The indices of the files that out-of-line test modules declare, in
/// order. `mods` yields, for each file of `paths`, the module paths it
/// declares under a test attribute ([`FileScan::test_mods`]). Declared in
/// `dir/lib.rs`,
/// `dir/main.rs`, `dir/mod.rs` or a `src/bin/` root, the module `name`
/// is the file `dir/name.rs` or `dir/name/mod.rs`; declared in
/// `dir/m.rs`, it is `dir/m/name.rs` or `dir/m/name/mod.rs`. Every file
/// below the module's directory is one of its submodules and test code
/// too.
fn test_only_files<'m>(paths: &[&str], mods: impl Iterator<Item = &'m Vec<String>>) -> Vec<usize> {
    let mut prefixes = Vec::new();
    for (path, declared) in paths.iter().zip(mods) {
        if declared.is_empty() {
            continue;
        }
        let (dir, file) = path.rsplit_once('/').unwrap_or(("", path));
        let stem = file.strip_suffix(".rs").unwrap_or(file);
        let root = matches!(stem, "lib" | "main" | "mod") || dir.ends_with("src/bin");
        let module_dir = if root {
            dir.to_string()
        } else {
            format!("{dir}/{stem}")
        };
        prefixes.extend(declared.iter().map(|m| {
            format!("{module_dir}/{m}")
                .trim_start_matches('/')
                .to_string()
        }));
    }
    (0..paths.len())
        .filter(|&f| {
            prefixes.iter().any(|p| {
                paths[f]
                    .strip_prefix(p.as_str())
                    .is_some_and(|rest| rest == ".rs" || rest.starts_with('/'))
            })
        })
        .collect()
}

/// Analyzes the whole workspace rooted at `root` — token and
/// interprocedural lints — returning the full analysis. The files are
/// read on every core the host offers, then analyzed as
/// [`analyze_sources`] does.
///
/// # Errors
///
/// Propagates I/O failures from the traversal or file reads (the first
/// failing file in path order).
pub fn analyze_workspace_full(root: &Path) -> io::Result<WorkspaceAnalysis> {
    let paths = walk::source_files(root)?;
    let workers = par::host_workers();
    let sources = par::map_indexed(paths.len(), workers, |i| {
        fs::read_to_string(root.join(&paths[i]))
    });
    let files = paths
        .into_iter()
        .zip(sources)
        .map(|(rel, source)| Ok((rel, source?)))
        .collect::<io::Result<Vec<_>>>()?;
    Ok(analyze_sources_on(&files, workers))
}

#[cfg(test)]
mod tests {
    //! Per-lint fixture tests: positive, negative, suppressed-with-reason,
    //! and suppressed-without-reason (which must still fail). Deleting any
    //! lint implementation breaks at least one `..._fires` test here.

    use super::*;

    /// Fixture path inside the `serve` crate — in scope for every
    /// crate-scoped lint.
    const SERVE: &str = "crates/serve/src/fixture.rs";
    /// Fixture path outside all crate-scoped lints.
    const NEUTRAL: &str = "crates/telemetry/src/fixture.rs";

    #[test]
    fn test_only_files_follow_the_module_tree() {
        let paths = [
            "crates/a/src/lib.rs",
            "crates/a/src/t.rs",
            "crates/a/src/t/sub.rs",
            "crates/a/src/t_live.rs",
            "crates/a/src/m.rs",
            "crates/a/src/m/u/mod.rs",
            "crates/a/src/m/live.rs",
            "crates/a/src/m/i/w.rs",
            "crates/a/src/bin/tool.rs",
            "crates/a/src/bin/v.rs",
        ];
        let declared = |i: usize| -> Vec<String> {
            let mods: &[&str] = match i {
                0 => &["t"],
                4 => &["u", "i/w"],
                8 => &["v"],
                _ => &[],
            };
            mods.iter().map(|m| m.to_string()).collect()
        };
        let mods: Vec<Vec<String>> = (0..paths.len()).map(declared).collect();
        assert_eq!(test_only_files(&paths, mods.iter()), [1, 2, 5, 7, 9]);
    }

    fn codes(path: &str, src: &str) -> Vec<String> {
        analyze_source(path, src)
            .into_iter()
            .map(|f| f.lint)
            .collect()
    }

    #[test]
    fn d001_fires_on_wall_clock_reads() {
        let f = analyze_source(NEUTRAL, "fn f() { let t = Instant::now(); }\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].lint, "D001");
        assert_eq!(f[0].line, 1);
        assert_eq!(
            codes(NEUTRAL, "use std::time::SystemTime;\n"),
            vec!["D001".to_string()]
        );
    }

    #[test]
    fn d001_negative_and_test_code() {
        assert!(codes(NEUTRAL, "fn f() { let t = SimInstant::ZERO; }\n").is_empty());
        // `Instant` without `::now` (e.g. a type mention) is fine.
        assert!(codes(NEUTRAL, "fn f(t: Instant) -> Instant { t }\n").is_empty());
        // Test code may touch the real clock.
        assert!(codes(
            NEUTRAL,
            "#[cfg(test)]\nmod tests {\n  fn f() { let t = Instant::now(); }\n}\n"
        )
        .is_empty());
    }

    #[test]
    fn d001_suppression_needs_a_reason() {
        let ok = "// analyze: allow(D001, reason=\"measurement site\")\nlet t = Instant::now();\n";
        assert!(codes(NEUTRAL, ok).is_empty());
        let bad = "// analyze: allow(D001)\nlet t = Instant::now();\n";
        let codes = codes(NEUTRAL, bad);
        assert!(
            codes.contains(&"D001".to_string()),
            "must still fire: {codes:?}"
        );
        assert!(
            codes.contains(&"A000".to_string()),
            "must flag the bad allow: {codes:?}"
        );
    }

    #[test]
    fn d002_fires_in_report_building_crates_only() {
        let src = "use std::collections::HashMap;\n";
        assert_eq!(codes(SERVE, src), vec!["D002".to_string()]);
        assert_eq!(
            codes("crates/core/src/fixture.rs", "let s: HashSet<u32> = x;\n"),
            vec!["D002".to_string()]
        );
        // Out-of-scope crate: backends may hash freely.
        assert!(codes("crates/backend/src/fixture.rs", src).is_empty());
        // BTreeMap is the blessed alternative.
        assert!(codes(SERVE, "use std::collections::BTreeMap;\n").is_empty());
    }

    #[test]
    fn d002_suppression_needs_a_reason() {
        let ok = "// analyze: allow(D002, reason=\"indexed only, never iterated\")\n\
                  use std::collections::HashMap;\n";
        assert!(codes(SERVE, ok).is_empty());
        let bad = "// analyze: allow(D002, reason=)\nuse std::collections::HashMap;\n";
        assert!(codes(SERVE, bad).contains(&"D002".to_string()));
    }

    #[test]
    fn fleet_crate_is_covered_by_d002_and_p001() {
        const FLEET: &str = "crates/fleet/src/fixture.rs";
        assert_eq!(
            codes(FLEET, "use std::collections::HashMap;\n"),
            vec!["D002".to_string()]
        );
        assert_eq!(
            codes(FLEET, "fn f() { x.unwrap(); }\n"),
            vec!["P001".to_string()]
        );
        // Plain indexing is in scope for the fleet's routing tables too.
        assert_eq!(
            codes(FLEET, "fn f() { let y = xs[i]; }\n"),
            vec!["P001".to_string()]
        );
        // Test regions stay exempt.
        assert!(codes(
            FLEET,
            "#[cfg(test)]\nmod tests {\n  fn f() { x.unwrap(); }\n}\n"
        )
        .is_empty());
    }

    #[test]
    fn d003_fires_on_ambient_rng() {
        assert_eq!(
            codes(NEUTRAL, "fn f() { let mut rng = thread_rng(); }\n"),
            vec!["D003".to_string()]
        );
        assert_eq!(
            codes(NEUTRAL, "let rng = StdRng::from_entropy();\n"),
            vec!["D003".to_string()]
        );
        assert_eq!(
            codes(NEUTRAL, "let x: f64 = rand::random();\n"),
            vec!["D003".to_string()]
        );
    }

    #[test]
    fn d003_negative_and_suppressed() {
        assert!(codes(NEUTRAL, "let rng = StdRng::seed_from_u64(7);\n").is_empty());
        let ok = "// analyze: allow(D003, reason=\"demo binary, not a measurement\")\n\
                  let rng = thread_rng();\n";
        assert!(codes(NEUTRAL, ok).is_empty());
        let bad = "// analyze: allow(D003, reason= )\nlet rng = thread_rng();\n";
        assert!(codes(NEUTRAL, bad).contains(&"D003".to_string()));
    }

    #[test]
    fn p001_fires_on_panic_paths_in_request_crates() {
        assert_eq!(
            codes(SERVE, "fn f() { x.unwrap(); }\n"),
            vec!["P001".to_string()]
        );
        assert_eq!(
            codes(SERVE, "fn f() { x.expect(\"msg\"); }\n"),
            vec!["P001".to_string()]
        );
        assert_eq!(
            codes(SERVE, "fn f() { panic!(\"boom\"); }\n"),
            vec!["P001".to_string()]
        );
        assert_eq!(
            codes(
                "crates/pipeline/src/fixture.rs",
                "fn f() { unreachable!(); }\n"
            ),
            vec!["P001".to_string()]
        );
        // Plain indexing in serve/pipeline...
        assert_eq!(
            codes(SERVE, "fn f(xs: &[u64], i: usize) -> u64 { xs[i] }\n"),
            vec!["P001".to_string()]
        );
    }

    #[test]
    fn p001_negative_cases() {
        // Out-of-scope crate.
        assert!(codes(NEUTRAL, "fn f() { x.unwrap(); }\n").is_empty());
        // Range slicing is not plain indexing.
        assert!(codes(SERVE, "fn f(xs: &[u64]) -> &[u64] { &xs[1..3] }\n").is_empty());
        // `get` is the blessed form; unwrap_or_else is not unwrap.
        assert!(codes(SERVE, "fn f() { x.get(i).unwrap_or_else(d); }\n").is_empty());
        // Array-literal and attribute brackets are not indexing.
        assert!(codes(SERVE, "#[derive(Debug)]\nfn f() { for x in [1, 2] {} }\n").is_empty());
        // exec is in unwrap scope but not indexing scope (kernels index by
        // design).
        assert!(codes(
            "crates/exec/src/fixture.rs",
            "fn f(xs: &[u64]) -> u64 { xs[0] }\n"
        )
        .is_empty());
        assert_eq!(
            codes("crates/exec/src/fixture.rs", "fn f() { x.unwrap(); }\n"),
            vec!["P001".to_string()]
        );
    }

    #[test]
    fn p001_suppression_needs_a_reason() {
        let ok = "fn f() {\n  // analyze: allow(P001, reason=\"invariant: built in new()\")\n  \
                  x.unwrap();\n}\n";
        assert!(codes(SERVE, ok).is_empty());
        let bad = "fn f() {\n  // analyze: allow(P001)\n  x.unwrap();\n}\n";
        assert!(codes(SERVE, bad).contains(&"P001".to_string()));
    }

    #[test]
    fn h001_fires_only_inside_hot_regions() {
        let hot = "// analyze: hot\nfn walk(xs: &[u64]) -> Vec<u64> {\n  xs.to_vec()\n}\n";
        assert_eq!(codes(NEUTRAL, hot), vec!["H001".to_string()]);
        let constructors = "// analyze: hot\nfn f() {\n  let v = Vec::new();\n  \
                            let s = vec![0u8; 4];\n  let c = x.clone();\n}\n";
        assert_eq!(codes(NEUTRAL, constructors).len(), 3);
        // The same code outside a hot region is fine.
        assert!(codes(NEUTRAL, "fn cold(xs: &[u64]) -> Vec<u64> { xs.to_vec() }\n").is_empty());
        // Scratch reuse is the blessed pattern.
        let reuse = "// analyze: hot\nfn f(buf: &mut Vec<u64>) {\n  buf.clear();\n  \
                     buf.resize(4, 0);\n}\n";
        assert!(codes(NEUTRAL, reuse).is_empty());
    }

    #[test]
    fn h001_fires_on_turbofish_constructors() {
        let src = "// analyze: hot\nfn f(n: usize) {\n  let a = Vec::<u8>::with_capacity(n);\n  \
                   let b = Vec::with_capacity(n);\n  let c = String::new();\n  \
                   let d = std::collections::HashMap::<u32, u32>::new();\n  \
                   let e = HashMap::<u32, Vec<u8>>::new();\n  \
                   let g = Box::<[u8]>::from(xs);\n}\n";
        let h001: Vec<(u32, String)> = analyze_source("crates/exec/src/lib.rs", src)
            .into_iter()
            .filter(|f| f.lint == "H001")
            .map(|f| (f.line, f.message))
            .collect();
        let want = [
            (3, "`Vec::with_capacity`"),
            (4, "`Vec::with_capacity`"),
            (5, "`String::new`"),
            (6, "`HashMap::new`"),
            (7, "`HashMap::new`"),
        ];
        assert_eq!(h001.len(), want.len(), "{h001:?}");
        for ((line, message), (want_line, what)) in h001.iter().zip(want) {
            assert_eq!(*line, want_line, "{h001:?}");
            assert!(message.contains(what), "{message} names {what}");
        }
    }

    #[test]
    fn h001_fires_on_alloc_in_bitvector_scoring_loop() {
        // A fixture shaped like the QuickScorer kernel's per-record mask
        // loop: allocating the bitvector scratch inside the hot region is
        // exactly the per-record-cost regression H001 exists to catch.
        const EXEC: &str = "crates/exec/src/fixture.rs";
        let bad = "// analyze: hot\n\
                   fn qs_classify_block(rows: Range<usize>) {\n  \
                   for row in rows {\n    \
                   let mut masks = vec![u64::MAX; words];\n    \
                   for item in items {\n      \
                   masks[item.tree] &= item.mask;\n    }\n  }\n}\n";
        let findings = analyze_source(EXEC, bad);
        assert!(
            findings.iter().any(|f| f.lint == "H001"),
            "alloc in bitvector loop must fire H001: {findings:?}"
        );
        // The shipped kernel's shape — thread-local scratch cleared and
        // resized per block — stays clean.
        let good = "// analyze: hot\n\
                    fn qs_classify_block(rows: Range<usize>, s: &mut Scratch) {\n  \
                    for row in rows {\n    \
                    s.masks.clear();\n    s.masks.resize(words, u64::MAX);\n    \
                    for item in items {\n      \
                    s.masks[item.tree] &= item.mask;\n    }\n  }\n}\n";
        assert!(analyze_source(EXEC, good).is_empty());
    }

    #[test]
    fn h001_covers_the_chunked_featurizer_shape() {
        // A fixture shaped like the fused path's per-chunk featurizer
        // (`NormParams::apply_slice` under `NormalizeStream::next_chunk`):
        // materializing a fresh normalized frame per chunk is the
        // marshal-copy regression the fused refactor removed.
        const DATA: &str = "crates/data/src/fixture.rs";
        let bad = "// analyze: hot\n\
                   fn next_chunk(src: &[f32], f: usize) -> Vec<f32> {\n  \
                   let mut dst = Vec::with_capacity(src.len());\n  \
                   for row in src.chunks_exact(f) {\n    \
                   dst.extend(row.iter().map(|v| norm(v)));\n  }\n  dst\n}\n";
        let findings = analyze_source(DATA, bad);
        assert!(
            findings.iter().any(|f| f.lint == "H001"),
            "per-chunk featurizer allocation must fire H001: {findings:?}"
        );
        // The shipped featurizer's shape — resize the reusable scratch
        // within capacity and normalize in place — stays clean.
        let good = "// analyze: hot\n\
                    fn next_chunk(src: &[f32], f: usize, scratch: &mut Frame) {\n  \
                    scratch.resize_rows(src.len() / f);\n  \
                    for (srow, drow) in src.chunks_exact(f)\
                    .zip(scratch.as_mut_slice().chunks_exact_mut(f)) {\n    \
                    for j in 0..f { drow[j] = apply(j, srow[j]); }\n  }\n}\n";
        assert!(analyze_source(DATA, good).is_empty());
    }

    #[test]
    fn h001_suppression_needs_a_reason() {
        let ok = "// analyze: hot\nfn f() {\n  \
                  // analyze: allow(H001, reason=\"amortized: once per batch, not per record\")\n  \
                  let v = Vec::new();\n}\n";
        assert!(codes(NEUTRAL, ok).is_empty());
        let bad = "// analyze: hot\nfn f() {\n  // analyze: allow(H001, reason=\"\")\n  \
                   let v = Vec::new();\n}\n";
        assert!(codes(NEUTRAL, bad).contains(&"H001".to_string()));
    }

    #[test]
    fn t001_fires_on_unfinished_spans() {
        let open = "fn f(tracer: &Tracer) {\n  tracer.span(\"work\", t0).scope(Scope::Query);\n}\n";
        assert_eq!(codes(NEUTRAL, open), vec!["T001".to_string()]);
    }

    #[test]
    fn t001_negative_cases() {
        // Chained finish, with nested parens in the args.
        let chained = "fn f() {\n  tracer.span(format!(\"q {i}\"), t0).scope(s).finish(t1);\n}\n";
        assert!(codes(NEUTRAL, chained).is_empty());
        let after = "fn f() {\n  tracer.span(\"w\", t0).finish_after(dur);\n}\n";
        assert!(codes(NEUTRAL, after).is_empty());
        // Let-bound guard finished later in the block.
        let bound = "fn f() {\n  let g = tracer.span(\"w\", t0).scope(s);\n  work();\n  \
                     g.finish(t1);\n}\n";
        assert!(codes(NEUTRAL, bound).is_empty());
        // ...but a bound guard that is never finished still fires.
        let leaked = "fn f() {\n  let g = tracer.span(\"w\", t0);\n  work();\n}\n";
        assert_eq!(codes(NEUTRAL, leaked), vec!["T001".to_string()]);
    }

    #[test]
    fn t001_suppression_needs_a_reason() {
        let ok =
            "fn f() {\n  // analyze: allow(T001, reason=\"guard moved into the event heap\")\n  \
                  tracer.span(\"w\", t0);\n}\n";
        assert!(codes(NEUTRAL, ok).is_empty());
        let bad = "fn f() {\n  // analyze: allow(T001, reason)\n  tracer.span(\"w\", t0);\n}\n";
        assert!(codes(NEUTRAL, bad).contains(&"T001".to_string()));
    }

    #[test]
    fn t002_fires_on_anonymous_journal_emits() {
        // A sequence number is not a request id.
        assert_eq!(
            codes(SERVE, "fn f() { j.emit(now, seq, kind); }\n"),
            vec!["T002".to_string()]
        );
        assert_eq!(
            codes(
                SERVE,
                "fn f() { self.journal.emit(now, 0, JournalKind::Admitted); }\n"
            ),
            vec!["T002".to_string()]
        );
    }

    #[test]
    fn t002_negative_cases() {
        // The request's id, in any spelling the serve crate uses.
        assert!(codes(SERVE, "fn f() { j.emit(now, r.id, kind); }\n").is_empty());
        assert!(codes(SERVE, "fn f() { j.emit(now, victim.id, kind); }\n").is_empty());
        assert!(codes(SERVE, "fn f() { j.emit(now, request_id, kind); }\n").is_empty());
        // Out-of-scope crate: `emit` methods elsewhere are not the journal.
        assert!(codes(NEUTRAL, "fn f() { sink.emit(now, seq, kind); }\n").is_empty());
    }

    #[test]
    fn t002_suppression_needs_a_reason() {
        let ok = "fn f() {\n  \
                  // analyze: allow(T002, reason=\"engine-level event, no single request\")\n  \
                  j.emit(now, seq, kind);\n}\n";
        assert!(codes(SERVE, ok).is_empty());
        let bad = "fn f() {\n  // analyze: allow(T002)\n  j.emit(now, seq, kind);\n}\n";
        let found = codes(SERVE, bad);
        assert!(found.contains(&"T002".to_string()), "{found:?}");
        assert!(found.contains(&"A000".to_string()), "{found:?}");
    }

    #[test]
    fn a000_fires_on_unknown_directives() {
        assert_eq!(
            codes(NEUTRAL, "// analyze: frobnicate\nfn f() {}\n"),
            vec!["A000"]
        );
        assert_eq!(
            codes(
                NEUTRAL,
                "// analyze: allow(Q999, reason=\"x\")\nfn f() {}\n"
            ),
            vec!["A000"]
        );
    }

    /// A workspace that trips every lint, with waivers, an empty file, a
    /// test-only file, one qualified name defined in two files, and a
    /// dozen busy files of long call chains.
    fn every_lint_workspace() -> Vec<(String, String)> {
        [
            (
                "crates/serve/src/engine.rs",
                "use std::collections::HashMap;\n\
                 pub struct ServeEngine;\n\
                 impl ServeEngine {\n  pub fn run(&self, x: Option<u32>) -> u32 {\n    \
                 let t = Instant::now();\n    self.journal.emit(t, 0, kind);\n    \
                 tracer.span(\"w\", t);\n    twin();\n    x.unwrap()\n  }\n}\n",
            ),
            (
                "crates/serve/src/report.rs",
                "pub fn to_json(m: &Metrics) -> String {\n  stamp(m)\n}\n\
                 fn stamp(m: &Metrics) -> String {\n  \
                 // analyze: allow(D001, reason=\"report header\")\n  \
                 let t = SystemTime::now();\n  format!(\"{t:?}\")\n}\n",
            ),
            (
                "crates/exec/src/kernel.rs",
                "// analyze: hot\nfn walk(xs: &[u64]) -> u64 {\n  let v = xs.to_vec();\n  \
                 scratch(xs)\n}\nfn scratch(xs: &[u64]) -> u64 {\n  \
                 let v = Vec::with_capacity(xs.len());\n  v.len() as u64\n}\n",
            ),
            ("crates/exec/src/twin.rs", "pub fn twin() { Vec::new(); }\n"),
            (
                "crates/exec/src/twin/mod.rs",
                "pub fn twin() { x.unwrap(); }\n",
            ),
            (
                "crates/data/src/lib.rs",
                "use mlscore_serve::ServeEngine;\n",
            ),
            ("crates/core/src/empty.rs", ""),
            (
                "crates/core/src/only_tests.rs",
                "#[cfg(test)]\nmod tests {\n  fn t() { x.unwrap(); }\n}\n",
            ),
            (
                "crates/sim/src/lib.rs",
                "// analyze: allow(D003)\nfn r() { let r = thread_rng(); }\n",
            ),
        ]
        .iter()
        .map(|(p, s)| (p.to_string(), s.to_string()))
        .chain((0..12).map(|k| {
            // Long call chains with panics and allocations, enough work
            // per file that every worker gets some of them.
            let body = (0..150)
                .map(|j| {
                    format!(
                        "pub fn stage_{j}(xs: &[u64]) -> u64 {{\n  let v = xs.to_vec();\n  \
                         xs[0] + v.first().copied().unwrap() + stage_{}(&v)\n}}\n",
                        (j + 1) % 150
                    )
                })
                .collect();
            (format!("crates/pipeline/src/stages_{k:02}.rs"), body)
        }))
        .collect()
    }

    #[test]
    fn analysis_is_identical_for_any_worker_count() {
        let files = every_lint_workspace();
        let exports = |a: &WorkspaceAnalysis| {
            (
                cli::render_json(&a.findings, &a.suppressed),
                a.graph.to_json(),
                a.graph.to_dot(),
            )
        };
        let serial = analyze_sources_on(&files, 1);
        // Every exported byte, each P002/H002/D004 message's hazard text
        // and chain included, as `(length, FNV-1a)`.
        let pins = [
            (698_690, 0xfdd4_a40f_16da_bb7c),
            (2_426_461, 0xc405_7ee7_27de_d501),
            (1_523_785, 0x614b_2312_02f8_b19b),
        ];
        for (doc, pin) in <[String; 3]>::from(exports(&serial)).iter().zip(pins) {
            assert_eq!((doc.len(), graph::name_key(doc)), pin);
        }
        let fired: std::collections::BTreeSet<&str> = serial
            .findings
            .iter()
            .chain(&serial.suppressed)
            .map(|f| f.lint.as_str())
            .collect();
        let every: std::collections::BTreeSet<&str> = LINTS.iter().map(|l| l.code).collect();
        assert_eq!(fired, every);
        assert!(serial.suppressed.iter().any(|f| f.lint == "D004"));
        assert!(serial.graph.index_of("exec::twin::twin#2").is_some());
        // Edge resolution splits the callers into several tasks.
        assert!(serial.graph.fns.len() > 2 * graph::RESOLVE_CHUNK);
        for workers in [2, files.len() + 3] {
            let par = analyze_sources_on(&files, workers);
            assert_eq!(par.findings, serial.findings, "{workers} workers");
            assert_eq!(par.suppressed, serial.suppressed, "{workers} workers");
            assert_eq!(exports(&par), exports(&serial), "{workers} workers");
        }
    }

    #[test]
    fn findings_sort_and_render_with_spans() {
        let src = "fn f() { let t = Instant::now(); let r = thread_rng(); }\n";
        let f = analyze_source(NEUTRAL, src);
        assert_eq!(f.len(), 2);
        let shown = f[0].to_string();
        assert!(
            shown.starts_with("crates/telemetry/src/fixture.rs:1: D001:"),
            "{shown}"
        );
    }
}
