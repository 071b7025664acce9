//! Seeded-hazard fixtures for the interprocedural lints.
//!
//! Each test builds a tiny in-memory workspace with exactly one planted
//! cross-function hazard and asserts that exactly the intended lint
//! catches it — P002 for a cross-crate panic chain, H002 for a
//! transitively-reached hot allocation, D004 for a tainted export, A001
//! for a layering violation — and that nothing else fires. The fixtures
//! double as resolution tests: each hazard is only reachable through a
//! call edge the name-based resolver must produce (and the layering
//! pruner must keep).

use mlscore_analysis::analyze_sources;

fn files(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|(p, s)| (p.to_string(), s.to_string()))
        .collect()
}

fn lints_of(analysis: &mlscore_analysis::WorkspaceAnalysis) -> Vec<&str> {
    analysis.findings.iter().map(|f| f.lint.as_str()).collect()
}

#[test]
fn p002_catches_a_cross_crate_panic_chain() {
    // ServeEngine::run (a serving root) calls a backend helper that
    // unwraps. `backend` is outside P001's crate scope, so only the
    // reachability lint can see this.
    let analysis = analyze_sources(&files(&[
        (
            "crates/serve/src/engine.rs",
            "pub struct ServeEngine;\n\
             impl ServeEngine {\n\
                 pub fn run(&self) -> u32 {\n\
                     prepare(7)\n\
                 }\n\
             }\n",
        ),
        (
            "crates/backend/src/prep.rs",
            "pub fn prepare(x: u32) -> u32 {\n\
                 lookup(x).unwrap()\n\
             }\n\
             fn lookup(x: u32) -> Option<u32> {\n\
                 Some(x + 1)\n\
             }\n",
        ),
    ]));
    assert_eq!(lints_of(&analysis), ["P002"], "{:#?}", analysis.findings);
    let f = &analysis.findings[0];
    assert_eq!(f.file, "crates/backend/src/prep.rs");
    assert_eq!(f.line, 2);
    assert!(
        f.message
            .contains("serve::engine::ServeEngine::run -> backend::prep::prepare"),
        "finding must carry the call chain: {}",
        f.message
    );
}

#[test]
fn h002_catches_a_transitively_reached_hot_allocation() {
    // The hot region itself is clean (H001 has nothing to say); the
    // allocation hides one call away, as a macro or a turbofish
    // constructor.
    for (alloc, what) in [
        ("vec![0u8; n]", "`vec!`"),
        ("Vec::<u8>::with_capacity(n)", "`Vec::with_capacity`"),
    ] {
        let analysis = analyze_sources(&files(&[(
            "crates/exec/src/kern.rs",
            format!(
                "// analyze: hot\n\
                 pub fn walk_block(n: usize) -> usize {{\n\
                     helper_scratch(n)\n\
                 }}\n\
                 fn helper_scratch(n: usize) -> usize {{\n\
                     let v = {alloc};\n\
                     v.len()\n\
                 }}\n"
            )
            .as_str(),
        )]));
        assert_eq!(lints_of(&analysis), ["H002"], "{:#?}", analysis.findings);
        let f = &analysis.findings[0];
        assert_eq!(f.line, 6);
        assert!(
            f.message.contains(what),
            "finding must name {what}: {}",
            f.message
        );
        assert!(
            f.message.contains("exec::kern::walk_block"),
            "finding must name the hot origin: {}",
            f.message
        );
        assert!(
            f.message.contains("exec::kern::helper_scratch"),
            "finding must carry the chain: {}",
            f.message
        );
    }
}

#[test]
fn d004_catches_a_tainted_export() {
    // `to_json` (an export root) reaches a helper that consults an
    // unordered map. The helper lives in `backend`, outside D002's crate
    // scope, so only the taint lint can see it.
    let analysis = analyze_sources(&files(&[
        (
            "crates/serve/src/report.rs",
            "pub struct Report;\n\
             impl Report {\n\
                 pub fn to_json(&self) -> String {\n\
                     stamp()\n\
                 }\n\
             }\n",
        ),
        (
            "crates/backend/src/meta.rs",
            "pub fn stamp() -> String {\n\
                 let m: HashMap<u32, u32> = HashMap::new();\n\
                 format!(\"{}\", m.len())\n\
             }\n",
        ),
    ]));
    assert_eq!(lints_of(&analysis), ["D004"], "{:#?}", analysis.findings);
    let f = &analysis.findings[0];
    assert_eq!(f.file, "crates/backend/src/meta.rs");
    assert!(
        f.message
            .contains("serve::report::Report::to_json -> backend::meta::stamp"),
        "finding must carry the chain: {}",
        f.message
    );
}

#[test]
fn a001_catches_a_layering_violation() {
    // `serve` may never reference `fleet` (the dependency points the
    // other way), so the bare mention is the violation.
    let analysis = analyze_sources(&files(&[(
        "crates/serve/src/peek.rs",
        "pub fn peek() -> u32 {\n\
             mlscore_fleet::width()\n\
         }\n",
    )]));
    assert_eq!(lints_of(&analysis), ["A001"], "{:#?}", analysis.findings);
    let f = &analysis.findings[0];
    assert_eq!(f.line, 2);
    assert!(
        f.message.contains("may not depend on `fleet`"),
        "{}",
        f.message
    );
}

#[test]
fn interproc_findings_can_be_suppressed_with_a_reason() {
    // An allow at the hazard site moves the finding to the suppressed
    // list, reason attached; the direct-lint spelling (P001) covers the
    // transitive claim (P002) too.
    let analysis = analyze_sources(&files(&[
        (
            "crates/serve/src/engine.rs",
            "pub struct ServeEngine;\n\
             impl ServeEngine {\n\
                 pub fn run(&self) -> u32 {\n\
                     prepare(7)\n\
                 }\n\
             }\n",
        ),
        (
            "crates/backend/src/prep.rs",
            "pub fn prepare(x: u32) -> u32 {\n\
                 // analyze: allow(P002, reason=\"invariant: lookup succeeds for all x by construction\")\n\
                 lookup(x).unwrap()\n\
             }\n\
             fn lookup(x: u32) -> Option<u32> {\n\
                 Some(x + 1)\n\
             }\n",
        ),
    ]));
    assert!(analysis.findings.is_empty(), "{:#?}", analysis.findings);
    let sup: Vec<_> = analysis
        .suppressed
        .iter()
        .filter(|f| f.lint == "P002")
        .collect();
    assert_eq!(sup.len(), 1);
    assert_eq!(
        sup[0].suppressed.as_deref(),
        Some("invariant: lookup succeeds for all x by construction")
    );
}

#[test]
fn layering_prunes_impossible_call_edges() {
    // A `score` method exists in a crate `exec` cannot depend on; the
    // name-based resolver must NOT link the exec call site to it, so the
    // panic in the un-linkable callee stays unreported.
    let analysis = analyze_sources(&files(&[
        (
            "crates/exec/src/kern.rs",
            "// analyze: hot\n\
             pub fn walk(t: &Tree) -> u32 {\n\
                 t.score()\n\
             }\n",
        ),
        (
            "crates/fleet/src/router.rs",
            "pub struct Router;\n\
             impl Router {\n\
                 pub fn score(&self) -> u32 {\n\
                     let v = vec![0u8; 64];\n\
                     v.len() as u32\n\
                 }\n\
             }\n",
        ),
    ]));
    assert!(
        analysis.findings.is_empty(),
        "exec must not link into fleet: {:#?}",
        analysis.findings
    );
    // The same shape inside a crate exec CAN see resolves and fires.
    let analysis = analyze_sources(&files(&[
        (
            "crates/exec/src/kern.rs",
            "// analyze: hot\n\
             pub fn walk(t: &Tree) -> u32 {\n\
                 t.score()\n\
             }\n",
        ),
        (
            "crates/forest/src/tree.rs",
            "pub struct Tree;\n\
             impl Tree {\n\
                 pub fn score(&self) -> u32 {\n\
                     let v = vec![0u8; 64];\n\
                     v.len() as u32\n\
                 }\n\
             }\n",
        ),
    ]));
    assert_eq!(lints_of(&analysis), ["H002"], "{:#?}", analysis.findings);
}

#[test]
fn for_array_patterns_are_not_index_hazards() {
    // `for [a, b] in pairs` destructures; it indexes nothing. In the serve
    // and pipeline crates, where plain indexing is a P001 finding and a
    // P002 hazard, neither lint may take `for` for an index base. The
    // same helper with a real index is the control.
    let workspace = |body: &str| {
        analyze_sources(&files(&[
            (
                "crates/serve/src/engine.rs",
                "pub struct ServeEngine;\n\
                 impl ServeEngine {\n\
                     pub fn run(&self, pairs: &[[u32; 2]]) -> u32 {\n\
                         sum_pairs(pairs)\n\
                     }\n\
                 }\n",
            ),
            ("crates/pipeline/src/pairs.rs", body),
        ]))
    };
    let destructured = workspace(
        "pub fn sum_pairs(pairs: &[[u32; 2]]) -> u32 {\n\
             let mut total = 0;\n\
             for [a, b] in pairs {\n\
                 total += a + b;\n\
             }\n\
             total\n\
         }\n",
    );
    assert_eq!(
        lints_of(&destructured),
        Vec::<&str>::new(),
        "{:#?}",
        destructured.findings
    );
    let indexed = workspace(
        "pub fn sum_pairs(pairs: &[[u32; 2]]) -> u32 {\n\
             pairs[0][0]\n\
         }\n",
    );
    assert!(
        lints_of(&indexed).contains(&"P001"),
        "{:#?}",
        indexed.findings
    );
}

#[test]
fn files_of_out_of_line_test_modules_are_test_code() {
    // `#[cfg(test)] mod props;` makes `props.rs` and its submodule
    // `props/deep.rs` test code: no token finding, no fn node, and so no
    // edge from the serving root into them.
    let analysis = analyze_sources(&files(&[
        (
            "crates/serve/src/lib.rs",
            "pub mod engine;\n#[cfg(test)]\nmod props;\n",
        ),
        (
            "crates/serve/src/engine.rs",
            "pub struct ServeEngine;\n\
             impl ServeEngine {\n\
                 pub fn run(&self) {\n\
                     helper();\n\
                     deeper();\n\
                 }\n\
             }\n",
        ),
        (
            "crates/serve/src/props.rs",
            "mod deep;\npub fn helper() { v.unwrap(); }\n",
        ),
        (
            "crates/serve/src/props/deep.rs",
            "pub fn deeper() { w.unwrap(); }\n",
        ),
        // A sibling whose name only starts like the module's stays live.
        (
            "crates/serve/src/props_live.rs",
            "pub fn other() { u.unwrap(); }\n",
        ),
    ]));
    let found: Vec<(&str, &str)> = analysis
        .findings
        .iter()
        .map(|f| (f.lint.as_str(), f.file.as_str()))
        .collect();
    assert_eq!(
        found,
        [("P001", "crates/serve/src/props_live.rs")],
        "{:#?}",
        analysis.findings
    );
    let qnames: Vec<&str> = analysis
        .graph
        .fns
        .iter()
        .map(|f| f.qname.as_str())
        .collect();
    assert_eq!(
        qnames,
        [
            "serve::engine::ServeEngine::run",
            "serve::props_live::other"
        ]
    );
    assert!(analysis.graph.edges.iter().all(Vec::is_empty));
}
