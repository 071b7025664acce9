//! The workspace analyzer's front end (lexer, file scan, whole-workspace
//! analysis) on hostile inputs, plus one small fixture workspace whose
//! verdict is pinned exactly.
//!
//! The lexer and the scan promise never to fail: malformed source degrades
//! to `Unknown` tokens and unterminated regions run to end of input. The
//! inputs below are the edge cases that promise has to survive —
//! escapes of multi-byte scalars in char literals, unterminated literals
//! and comments, a lone attribute opener, and directives at end of file.

use mlscore_analysis::lexer::{lex, render};
use mlscore_analysis::scan::FileScan;
use mlscore_analysis::{analyze_sources, Finding};

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

    let scan = FileScan::of(src);
    assert!(scan.len() <= scan.tokens.len());
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

#[test]
fn fixture_workspace_verdict_is_pinned() {
    let files = fixture();
    let analysis = analyze_sources(&files);
    assert_eq!(
        summary(&analysis.findings),
        [
            ("P002", "crates/backend/src/prep.rs", 2, None),
            ("D001", "crates/serve/src/engine.rs", 11, None),
        ],
        "{:#?}",
        analysis.findings
    );
    assert_eq!(
        summary(&analysis.suppressed),
        [
            (
                "H001",
                "crates/backend/src/prep.rs",
                10,
                Some("once per batch")
            ),
            (
                "P001",
                "crates/serve/src/engine.rs",
                5,
                Some("checked by admit")
            ),
            // The direct waiver also justifies the transitive claim.
            (
                "P002",
                "crates/serve/src/engine.rs",
                5,
                Some("checked by admit")
            ),
            (
                "D001",
                "crates/serve/src/engine.rs",
                12,
                Some("bench boundary")
            ),
        ],
        "{:#?}",
        analysis.suppressed
    );
    let edges: usize = analysis.graph.edges.iter().map(Vec::len).sum();
    assert_eq!(analysis.graph.fns.len(), 5);
    assert_eq!(edges, 3, "run -> stamp, run -> prepare, prepare -> lookup");
    // The verdict is a pure function of the sources.
    let again = analyze_sources(&files);
    assert_eq!(again.findings, analysis.findings);
    assert_eq!(again.suppressed, analysis.suppressed);
    assert_eq!(again.graph.to_json(), analysis.graph.to_json());
}
