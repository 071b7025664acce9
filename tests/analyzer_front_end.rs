//! The workspace analyzer's front end (lexer, file scan, whole-workspace
//! analysis) on hostile inputs, plus a small fixture workspace whose
//! verdict is pinned exactly, in a narrow and a wide (more files than
//! cores) variant: its findings report, call-graph JSON and dot are
//! compared byte for byte, so a changed message (a hazard's text, a call
//! chain, a waiver's reason) fails as surely as a changed line.
//!
//! The lexer and the scan promise never to fail: malformed source degrades
//! to `Unknown` tokens and unterminated regions run to end of input. The
//! inputs below are the edge cases that promise has to survive —
//! escapes of multi-byte scalars in char literals, unterminated literals
//! and comments, a lone attribute opener, and directives at end of file.

use mlscore_analysis::cli::render_json;
use mlscore_analysis::lexer::{lex, render, Token, TokenKind};
use mlscore_analysis::scan::FileScan;
use mlscore_analysis::{analyze_sources, analyze_workspace_full, Finding, WorkspaceAnalysis};

const HOSTILE: &[&str] = &[
    "'\\é'",
    "b'\\é'",
    "x '\\日' y",
    "'\\é",
    "b'\\日",
    "\"open",
    "\"esc \\é",
    "r#\"open",
    "br##\"open\"#",
    "/* open",
    "/* nested /* open */",
    "'",
    "b'",
    "'\\",
    "#[",
    "#[cfg(test)",
    "#[cfg(test)] mod t {",
    "fn f() {",
    "// analyze: hot",
    "fn f() {}\n// analyze: hot",
    "// analyze: hot\nfn f()",
    "// analyze: allow(D001, reason=\"eof\")",
    "// analyze: allow(D001",
    "µ'\\µ'",
];

/// Asserts that `src` lexes losslessly, token by token, and that the scan
/// and the whole-workspace analysis both return.
fn survives(src: &str) {
    let tokens = lex(src);
    assert_eq!(render(&tokens), src, "lossless on {src:?}");
    let mut cursor = 0;
    for t in &tokens {
        assert!(!t.text.is_empty(), "empty token in {src:?}");
        assert_eq!(t.offset, cursor, "token offsets tile {src:?}");
        assert_eq!(&src[cursor..t.end_offset()], t.text);
        cursor = t.end_offset();
    }
    assert_eq!(cursor, src.len());

    // The scan keeps exactly the tokens that are neither whitespace nor
    // comments, as `lex` yields them.
    let scan = FileScan::of(src);
    let significant: Vec<Token<'_>> = tokens
        .iter()
        .filter(|t| {
            !matches!(
                t.kind,
                TokenKind::Whitespace | TokenKind::LineComment | TokenKind::BlockComment
            )
        })
        .copied()
        .collect();
    let kept: Vec<Token<'_>> = (0..scan.len()).map(|k| scan.tok(k)).collect();
    assert_eq!(kept, significant, "significant tokens of {src:?}");
    for path in ["crates/serve/src/hostile.rs", "crates/exec/src/hostile.rs"] {
        analyze_sources(&[(path.to_string(), src.to_string())]);
    }
}

#[test]
fn hostile_inputs_lex_losslessly_and_analyze_without_panic() {
    for src in HOSTILE {
        survives(src);
    }
}

#[test]
fn hostile_inputs_survive_in_every_pairing() {
    // Each fragment before and after every other one: an unterminated
    // fragment swallows its successor, which must not break either.
    for a in HOSTILE {
        for b in HOSTILE {
            survives(&format!("{a}{b}"));
            survives(&format!("{a}\n{b}"));
        }
    }
}

/// A two-crate workspace: a serving root reaching a backend panic (P002),
/// an unwaived and a trailing-waived wall-clock read (D001), a waived
/// unwrap inside the serving root (P001, and so P002), and a hot region
/// with a waived allocation (H001).
fn fixture() -> Vec<(String, String)> {
    [
        (
            "crates/serve/src/engine.rs",
            "pub struct ServeEngine;\n\
             impl ServeEngine {\n\
             \x20   pub fn run(&self, x: Option<u32>) -> u32 {\n\
             \x20       // analyze: allow(P001, reason=\"checked by admit\")\n\
             \x20       let v = x.unwrap();\n\
             \x20       stamp();\n\
             \x20       prepare(v)\n\
             \x20   }\n\
             }\n\
             fn stamp() {\n\
             \x20   let u = Instant::now();\n\
             \x20   let t = Instant::now(); // analyze: allow(D001, reason=\"bench boundary\")\n\
             }\n",
        ),
        (
            "crates/backend/src/prep.rs",
            "pub fn prepare(x: u32) -> u32 {\n\
             \x20   lookup(x).unwrap()\n\
             }\n\
             fn lookup(x: u32) -> Option<u32> {\n\
             \x20   Some(x + 1)\n\
             }\n\
             // analyze: hot\n\
             pub fn fold(xs: &[u32]) -> u32 {\n\
             \x20   // analyze: allow(H001, reason=\"once per batch\")\n\
             \x20   let v = xs.to_vec();\n\
             \x20   v.len() as u32\n\
             }\n",
        ),
    ]
    .iter()
    .map(|(p, s)| (p.to_string(), s.to_string()))
    .collect()
}

fn summary(findings: &[Finding]) -> Vec<(&str, &str, u32, Option<&str>)> {
    findings
        .iter()
        .map(|f| {
            (
                f.lint.as_str(),
                f.file.as_str(),
                f.line,
                f.suppressed.as_deref(),
            )
        })
        .collect()
}

/// The fixture's active findings as `(lint, file, line, waiver)`.
const ACTIVE: &[(&str, &str, u32, Option<&str>)] = &[
    ("P002", "crates/backend/src/prep.rs", 2, None),
    ("D001", "crates/serve/src/engine.rs", 11, None),
];

/// The fixture's suppressed findings, the same way.
const SUPPRESSED: &[(&str, &str, u32, Option<&str>)] = &[
    (
        "H001",
        "crates/backend/src/prep.rs",
        10,
        Some("once per batch"),
    ),
    (
        "P001",
        "crates/serve/src/engine.rs",
        5,
        Some("checked by admit"),
    ),
    // The direct waiver also justifies the transitive claim.
    (
        "P002",
        "crates/serve/src/engine.rs",
        5,
        Some("checked by admit"),
    ),
    (
        "D001",
        "crates/serve/src/engine.rs",
        12,
        Some("bench boundary"),
    ),
];

/// `render_json` of both fixtures' findings, byte for byte: every message
/// (the hazard text and call chain of a P002 included) and every waiver.
const FINDINGS_JSON: &str = r#"{
  "version": 2,
  "total": 2,
  "findings": [
    { "lint": "P002", "file": "crates/backend/src/prep.rs", "line": 2, "offset": 46, "message": "`.unwrap()` reachable from a serving entry point: serve::engine::ServeEngine::run -> backend::prep::prepare (panic-free serving requires the whole chain to surface errors)" },
    { "lint": "D001", "file": "crates/serve/src/engine.rs", "line": 11, "offset": 246, "message": "wall-clock read `Instant::now` outside an allowlisted measurement site (route through `mlscore_sim::Clock` or `SimInstant`)" }
  ],
  "suppressed": [
    { "lint": "H001", "file": "crates/backend/src/prep.rs", "line": 10, "offset": 227, "message": "allocating call `.to_vec()` in a hot region: hoist and reuse scratch buffers", "suppressed": "once per batch" },
    { "lint": "P001", "file": "crates/serve/src/engine.rs", "line": 5, "offset": 167, "message": "`.unwrap()` on a request path: return the crate's error type instead", "suppressed": "checked by admit" },
    { "lint": "P002", "file": "crates/serve/src/engine.rs", "line": 5, "offset": 167, "message": "`.unwrap()` reachable from a serving entry point: serve::engine::ServeEngine::run (panic-free serving requires the whole chain to surface errors)", "suppressed": "checked by admit" },
    { "lint": "D001", "file": "crates/serve/src/engine.rs", "line": 12, "offset": 274, "message": "wall-clock read `Instant::now` outside an allowlisted measurement site (route through `mlscore_sim::Clock` or `SimInstant`)", "suppressed": "bench boundary" }
  ]
}"#;

/// `CallGraph::to_json` of the narrow fixture, byte for byte.
const CALLGRAPH_JSON: &str = r#"{
  "version": 1,
  "functions": [
    { "id": "backend::prep::fold", "file": "crates/backend/src/prep.rs", "line": 8, "calls": 0, "hazards": 1 },
    { "id": "backend::prep::lookup", "file": "crates/backend/src/prep.rs", "line": 4, "calls": 0, "hazards": 0 },
    { "id": "backend::prep::prepare", "file": "crates/backend/src/prep.rs", "line": 1, "calls": 1, "hazards": 1 },
    { "id": "serve::engine::ServeEngine::run", "file": "crates/serve/src/engine.rs", "line": 3, "calls": 2, "hazards": 1 },
    { "id": "serve::engine::stamp", "file": "crates/serve/src/engine.rs", "line": 10, "calls": 0, "hazards": 2 }
  ],
  "edges": [
    { "from": "backend::prep::prepare", "to": "backend::prep::lookup", "line": 2 },
    { "from": "serve::engine::ServeEngine::run", "to": "backend::prep::prepare", "line": 7 },
    { "from": "serve::engine::ServeEngine::run", "to": "serve::engine::stamp", "line": 6 }
  ]
}
"#;

/// `CallGraph::to_json` of the wide fixture: the narrow one's fns plus
/// both twins, `#2` on the one in `twin/mod.rs`.
const WIDE_CALLGRAPH_JSON: &str = r#"{
  "version": 1,
  "functions": [
    { "id": "backend::prep::fold", "file": "crates/backend/src/prep.rs", "line": 8, "calls": 0, "hazards": 1 },
    { "id": "backend::prep::lookup", "file": "crates/backend/src/prep.rs", "line": 4, "calls": 0, "hazards": 0 },
    { "id": "backend::prep::prepare", "file": "crates/backend/src/prep.rs", "line": 1, "calls": 1, "hazards": 1 },
    { "id": "exec::twin::twin", "file": "crates/exec/src/twin.rs", "line": 1, "calls": 0, "hazards": 0 },
    { "id": "exec::twin::twin#2", "file": "crates/exec/src/twin/mod.rs", "line": 3, "calls": 0, "hazards": 0 },
    { "id": "serve::engine::ServeEngine::run", "file": "crates/serve/src/engine.rs", "line": 3, "calls": 2, "hazards": 1 },
    { "id": "serve::engine::stamp", "file": "crates/serve/src/engine.rs", "line": 10, "calls": 0, "hazards": 2 }
  ],
  "edges": [
    { "from": "backend::prep::prepare", "to": "backend::prep::lookup", "line": 2 },
    { "from": "serve::engine::ServeEngine::run", "to": "backend::prep::prepare", "line": 7 },
    { "from": "serve::engine::ServeEngine::run", "to": "serve::engine::stamp", "line": 6 }
  ]
}
"#;

/// `CallGraph::to_dot` of both fixtures (the twins have no edges).
const CALLGRAPH_DOT: &str = r#"digraph mlscore_calls {
  rankdir=LR;
  "backend::prep::prepare" -> "backend::prep::lookup";
  "serve::engine::ServeEngine::run" -> "backend::prep::prepare";
  "serve::engine::ServeEngine::run" -> "serve::engine::stamp";
}
"#;

#[test]
fn fixture_workspace_verdict_is_pinned() {
    let files = fixture();
    let analysis = analyze_sources(&files);
    assert_eq!(
        summary(&analysis.findings),
        ACTIVE,
        "{:#?}",
        analysis.findings
    );
    assert_eq!(
        summary(&analysis.suppressed),
        SUPPRESSED,
        "{:#?}",
        analysis.suppressed
    );
    let edges: usize = analysis.graph.edges.iter().map(Vec::len).sum();
    assert_eq!(analysis.graph.fns.len(), 5);
    assert_eq!(edges, 3, "run -> stamp, run -> prepare, prepare -> lookup");
    // Every exported byte, messages included.
    assert_eq!(
        exports(&analysis),
        [FINDINGS_JSON, CALLGRAPH_JSON, CALLGRAPH_DOT]
    );
    // The verdict is a pure function of the sources.
    let again = analyze_sources(&files);
    assert_eq!(again.findings, analysis.findings);
    assert_eq!(again.suppressed, analysis.suppressed);
    assert_eq!(again.graph.to_json(), analysis.graph.to_json());
}

/// The fixture above widened to more files than the host has cores: an
/// empty file, a test-only file, one qualified name defined in two files,
/// and fillers with no functions and no findings. `exec::twin::twin` is
/// defined in `twin.rs` and in `twin/mod.rs`; path order puts `twin.rs`
/// first, so the `#2` suffix must land on `twin/mod.rs` whichever worker
/// finishes first.
fn wide_fixture() -> Vec<(String, String)> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut files = fixture();
    files.extend(
        [
            ("crates/core/src/empty.rs", String::new()),
            (
                "crates/exec/src/twin.rs",
                "pub fn twin() -> u32 {\n    1\n}\n".to_string(),
            ),
            (
                "crates/exec/src/twin/mod.rs",
                "//! The other twin.\n\npub fn twin() -> u32 {\n    2\n}\n".to_string(),
            ),
            (
                "crates/serve/src/only_tests.rs",
                "#[cfg(test)]\nmod tests {\n    fn t(x: Option<u32>) -> u32 {\n        \
                 x.unwrap()\n    }\n}\n"
                    .to_string(),
            ),
        ]
        .map(|(p, s)| (p.to_string(), s)),
    );
    for k in 0..cores + 4 {
        let body: String = (0..50)
            .map(|j| format!("pub const K{j}: u32 = {k};\n"))
            .collect();
        files.push((format!("crates/telemetry/src/filler_{k:03}.rs"), body));
    }
    files.sort();
    assert!(files.len() > cores);
    files
}

/// Everything a user of `repro analyze --json --callgraph --dot` sees.
fn exports(a: &WorkspaceAnalysis) -> [String; 3] {
    [
        render_json(&a.findings, &a.suppressed),
        a.graph.to_json(),
        a.graph.to_dot(),
    ]
}

#[test]
fn wide_workspace_verdict_is_pinned_and_repeatable() {
    let files = wide_fixture();
    let analysis = analyze_sources(&files);
    // The extra files add functions but no findings.
    assert_eq!(summary(&analysis.findings), ACTIVE);
    assert_eq!(summary(&analysis.suppressed), SUPPRESSED);
    assert_eq!(analysis.graph.fns.len(), 7);
    let edges: usize = analysis.graph.edges.iter().map(Vec::len).sum();
    assert_eq!(edges, 3);
    let file_of = |qname: &str| {
        let f = &analysis.graph.fns[analysis.graph.index_of(qname).unwrap()];
        (analysis.graph.files[f.file_idx].as_str(), f.line)
    };
    assert_eq!(file_of("exec::twin::twin"), ("crates/exec/src/twin.rs", 1));
    assert_eq!(
        file_of("exec::twin::twin#2"),
        ("crates/exec/src/twin/mod.rs", 3)
    );

    let first = exports(&analysis);
    assert_eq!(first, [FINDINGS_JSON, WIDE_CALLGRAPH_JSON, CALLGRAPH_DOT]);
    for run in 0..20 {
        assert!(exports(&analyze_sources(&files)) == first, "run {run}");
    }

    // Read back from disk, the same workspace gives the same bytes.
    let root = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("wide-fixture");
    let _ = std::fs::remove_dir_all(&root);
    for (rel, source) in &files {
        let path = root.join(rel);
        std::fs::create_dir_all(path.parent().expect("fixture paths have a parent"))
            .expect("create fixture dir");
        std::fs::write(path, source).expect("write fixture file");
    }
    let from_disk = analyze_workspace_full(&root).expect("fixture workspace is readable");
    assert!(exports(&from_disk) == first);
    std::fs::remove_dir_all(&root).expect("remove fixture workspace");
}
