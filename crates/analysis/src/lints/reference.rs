//! The per-token passes the site table replaced, kept as the reference
//! for a differential test: over generated token soup, the site-table
//! consumers ([`super::run_lints_all`], [`crate::graph::extract_body`])
//! must return exactly what walking every token returns, messages and
//! order included.

use proptest::prelude::*;

use super::{
    chain_reaches_finish, crate_of, let_bound_finish, D002_CRATES, P001_CRATES, P001_INDEX_CRATES,
    T002_CRATES,
};
use crate::graph::{extract_body, name_key, CallSite, HazardKind};
use crate::lexer::TokenKind;
use crate::parser::{parse_items, Item, ItemKind};
use crate::scan::FileScan;
use crate::Finding;

/// A raw (pre-filter) lint hit.
struct RawFinding {
    lint: &'static str,
    line: u32,
    offset: usize,
    message: String,
}

/// Identifiers that precede `[` without forming an index expression.
const NON_INDEX_KEYWORDS: &[&str] = &[
    "as", "box", "break", "const", "continue", "crate", "dyn", "else", "enum", "fn", "for", "if",
    "impl", "in", "let", "loop", "match", "move", "mut", "pub", "ref", "return", "static",
    "struct", "trait", "type", "unsafe", "use", "where", "while", "yield",
];

/// Container types whose `::new` / `::with_capacity` allocate.
const ALLOC_TYPES: &[&str] = &[
    "Vec", "String", "Box", "VecDeque", "HashMap", "HashSet", "BTreeMap", "BTreeSet", "Arc", "Rc",
];
/// The constructors of [`ALLOC_TYPES`] that allocate.
const CTORS: &[&str] = &["new", "with_capacity"];
/// Methods that allocate on the callee.
const ALLOC_METHODS: &[&str] = &["to_vec", "to_string", "to_owned", "collect", "clone"];

/// Keywords that precede `(` without being calls.
const NON_CALL_KEYWORDS: &[&str] = &[
    "as", "box", "break", "const", "continue", "crate", "dyn", "else", "enum", "fn", "for", "if",
    "impl", "in", "let", "loop", "match", "move", "mut", "pub", "ref", "return", "static",
    "struct", "trait", "type", "unsafe", "use", "where", "while", "yield", "Some", "Ok", "Err",
];

/// Panic-family macros.
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented", "assert"];

/// The significant index of `seg` when the tokens after `i` read `::seg`
/// or `::<..>::seg` and `seg` is one of `segs`. The turbofish runs to the
/// `>` that brings the count of `<` less `>` back to zero; a `;` or a `{`
/// on the way, or the end of the file, means no path.
fn path_to(scan: &FileScan<'_>, i: usize, segs: &[&str]) -> Option<usize> {
    let colons = |j: usize| scan.punct(j, ":") && scan.punct(j + 1, ":");
    let mut seg = i + 3;
    if !colons(i + 1) {
        return None;
    }
    if scan.punct(seg, "<") {
        let mut open = 0i64;
        let close = (seg..scan.len())
            .take_while(|&j| !scan.punct(j, ";") && !scan.punct(j, "{"))
            .find(|&j| {
                open += i64::from(scan.punct(j, "<")) - i64::from(scan.punct(j, ">"));
                open == 0
            })?;
        if !colons(close + 1) {
            return None;
        }
        seg = close + 3;
    }
    segs.iter().any(|s| scan.ident(seg, s)).then_some(seg)
}

/// The parent's fused pass: runs every intra-file lint over one scanned
/// file, trying every pattern at every significant token. Returns
/// `(active, suppressed)`: test-region findings are dropped, findings
/// covered by a well-formed allow move to the suppressed list with the
/// allow's reason attached. Both lists are sorted by `(line, lint)`.
fn lints_by_token(rel_path: &str, scan: &FileScan<'_>) -> (Vec<Finding>, Vec<Finding>) {
    let krate = crate_of(rel_path);
    let d002 = D002_CRATES.contains(&krate);
    let p001 = P001_CRATES.contains(&krate);
    let p001_index = P001_INDEX_CRATES.contains(&krate);
    let t002 = T002_CRATES.contains(&krate);
    let hot = !scan.hot_ranges.is_empty();

    let mut raw: Vec<RawFinding> = Vec::new();
    let mut push = |lint: &'static str, line: u32, offset: usize, message: String| {
        raw.push(RawFinding {
            lint,
            line,
            offset,
            message,
        });
    };

    // One fused pass: every rule family is tried at each significant
    // token. The token buffer is lexed exactly once, by the FileScan.
    for i in 0..scan.len() {
        let tok = scan.tok(i);
        let line = tok.line;
        let offset = tok.offset;

        // --- D001: wall-clock reads --------------------------------
        if scan.ident(i, "Instant") && path_to(scan, i, &["now"]).is_some() {
            push(
                "D001",
                line,
                offset,
                "wall-clock read `Instant::now` outside an allowlisted measurement site \
                 (route through `mlscore_sim::Clock` or `SimInstant`)"
                    .to_string(),
            );
        }
        if scan.ident(i, "SystemTime") {
            push(
                "D001",
                line,
                offset,
                "`SystemTime` use outside an allowlisted measurement site \
                 (simulated components must use `SimInstant`)"
                    .to_string(),
            );
        }

        // --- D002: unordered maps in export-building crates --------
        if d002 && tok.kind == TokenKind::Ident {
            for ty in ["HashMap", "HashSet"] {
                if tok.text == ty {
                    push(
                        "D002",
                        line,
                        offset,
                        format!(
                            "`{ty}` in a report-building crate: iteration order can leak into \
                             exports (use `BTreeMap`/`BTreeSet` or sort before emitting)"
                        ),
                    );
                }
            }
        }

        // --- D003: ambient / unseeded RNG --------------------------
        for f in ["thread_rng", "from_entropy"] {
            if scan.ident(i, f) {
                push(
                    "D003",
                    line,
                    offset,
                    format!("ambient RNG `{f}`: seed explicitly (e.g. `StdRng::seed_from_u64`)"),
                );
            }
        }
        if scan.ident(i, "rand") && path_to(scan, i, &["random"]).is_some() {
            push(
                "D003",
                line,
                offset,
                "ambient RNG `rand::random`: seed explicitly (e.g. `StdRng::seed_from_u64`)"
                    .to_string(),
            );
        }

        // --- P001: panic paths in request-serving crates -----------
        if p001 {
            if scan.punct(i, ".")
                && (scan.ident(i + 1, "unwrap") || scan.ident(i + 1, "expect"))
                && scan.punct(i + 2, "(")
            {
                push(
                    "P001",
                    scan.tok(i + 1).line,
                    scan.tok(i + 1).offset,
                    format!(
                        "`.{}()` on a request path: return the crate's error type instead",
                        scan.tok(i + 1).text
                    ),
                );
            }
            for mac in ["panic", "unreachable", "todo", "unimplemented"] {
                if scan.ident(i, mac) && scan.punct(i + 1, "!") {
                    push(
                        "P001",
                        line,
                        offset,
                        format!(
                            "`{mac}!` on a request path: return the crate's error type instead"
                        ),
                    );
                }
            }
            if p001_index && scan.punct(i, "[") && i > 0 && is_index_base(scan, i - 1) {
                if let Some(close) = scan.match_group(i, "[", "]") {
                    let is_range =
                        (i + 1..close).any(|j| scan.punct(j, ".") && scan.punct(j + 1, "."));
                    if !is_range {
                        push(
                            "P001",
                            line,
                            offset,
                            "plain indexing on a request path can panic: use `.get(...)` and \
                             surface the crate's error type"
                                .to_string(),
                        );
                    }
                }
            }
        }

        // --- H001: allocation inside a hot region ------------------
        if hot && scan.in_hot(line) {
            if let Some(ctor) = path_to(scan, i, CTORS)
                .filter(|_| tok.kind == TokenKind::Ident && ALLOC_TYPES.contains(&tok.text))
            {
                push(
                    "H001",
                    line,
                    offset,
                    format!(
                        "allocation `{}::{}` in a hot region: hoist and reuse scratch buffers",
                        tok.text,
                        scan.tok(ctor).text
                    ),
                );
            }
            for mac in ["vec", "format"] {
                if scan.ident(i, mac) && scan.punct(i + 1, "!") {
                    push(
                        "H001",
                        line,
                        offset,
                        format!(
                            "allocation `{mac}!` in a hot region: hoist and reuse scratch buffers"
                        ),
                    );
                }
            }
            if scan.punct(i, ".")
                && scan.punct(i + 2, "(")
                && ALLOC_METHODS.iter().any(|m| scan.ident(i + 1, m))
            {
                push(
                    "H001",
                    scan.tok(i + 1).line,
                    scan.tok(i + 1).offset,
                    format!(
                        "allocating call `.{}()` in a hot region: hoist and reuse scratch \
                         buffers",
                        scan.tok(i + 1).text
                    ),
                );
            }
        }

        // --- T001: span guard balance ------------------------------
        if scan.punct(i, ".") && scan.ident(i + 1, "span") && scan.punct(i + 2, "(") {
            if let Some(args_close) = scan.match_group(i + 2, "(", ")") {
                if !chain_reaches_finish(scan, args_close + 1)
                    && !let_bound_finish(scan, i, args_close)
                {
                    push(
                        "T001",
                        scan.tok(i + 1).line,
                        scan.tok(i + 1).offset,
                        "span opened without a matching `finish`/`finish_after` \
                         (every span guard must be closed)"
                            .to_string(),
                    );
                }
            }
        }

        // --- T002: journal emits must carry a request id -----------
        if t002 && scan.punct(i, ".") && scan.ident(i + 1, "emit") && scan.punct(i + 2, "(") {
            if let Some(args_close) = scan.match_group(i + 2, "(", ")") {
                let has_id =
                    (i + 3..args_close).any(|j| scan.ident(j, "id") || scan.ident(j, "request_id"));
                if !has_id {
                    push(
                        "T002",
                        scan.tok(i + 1).line,
                        scan.tok(i + 1).offset,
                        "journal emit without a request id: every lifecycle entry must carry \
                         `id`/`request_id` so the causal chain stays reconstructible"
                            .to_string(),
                    );
                }
            }
        }
    }

    let mut active = Vec::new();
    let mut suppressed = Vec::new();
    for r in raw {
        if scan.in_test(r.line) {
            continue;
        }
        let finding = |reason: Option<String>| Finding {
            lint: r.lint.to_string(),
            file: rel_path.to_string(),
            line: r.line,
            offset: r.offset,
            message: r.message.clone(),
            suppressed: reason,
        };
        match scan.suppression_reason(r.lint, r.line) {
            Some(reason) => suppressed.push(finding(Some(reason.to_string()))),
            None => active.push(finding(None)),
        }
    }

    // Malformed directives always fire: a suppression that cannot state
    // its reason must not silently rot.
    active.extend(scan.bad_directives.iter().map(|d| Finding {
        lint: "A000".to_string(),
        file: rel_path.to_string(),
        line: d.line,
        offset: d.offset,
        message: d.message.clone(),
        suppressed: None,
    }));

    active.sort_by(|a, b| (a.line, &a.lint).cmp(&(b.line, &b.lint)));
    suppressed.sort_by(|a, b| (a.line, &a.lint).cmp(&(b.line, &b.lint)));
    (active, suppressed)
}

/// True when the significant token at `i` can be the base expression of an
/// index (`x[i]`, `f()[i]`, `a[i][j]`).
fn is_index_base(scan: &FileScan<'_>, i: usize) -> bool {
    let t = scan.tok(i);
    match t.kind {
        TokenKind::Ident => !NON_INDEX_KEYWORDS.contains(&t.text),
        TokenKind::Punct => t.text == ")" || t.text == "]",
        _ => false,
    }
}

/// A hazard as the per-token pass spells it: a `graph::Hazard` with its
/// text rendered.
#[derive(Debug, PartialEq)]
struct RefHazard {
    kind: HazardKind,
    line: u32,
    offset: usize,
    what: String,
}

/// The parent's call and hazard extraction: walks every significant token
/// of a fn body's range `(open, close)` (the braces themselves excluded).
fn extract_body_by_token(
    scan: &FileScan<'_>,
    open: usize,
    close: usize,
) -> (Vec<CallSite>, Vec<RefHazard>) {
    let mut calls = Vec::new();
    let mut hazards = Vec::new();
    let mut push_hazard = |kind: HazardKind, i: usize, what: String| {
        let t = scan.tok(i);
        if !scan.in_test(t.line) {
            hazards.push(RefHazard {
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
            && !scan.in_test(t.line)
        {
            calls.push(CallSite {
                at: j,
                key: name_key(t.text),
                method: j > 0 && scan.punct(j - 1, "."),
                line: t.line,
                in_hot: scan.in_hot(t.line),
            });
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
        if let Some(ctor) = path_to(scan, j, CTORS)
            .filter(|_| t.kind == TokenKind::Ident && ALLOC_TYPES.contains(&t.text))
        {
            push_hazard(
                HazardKind::Alloc,
                j,
                format!("{}::{}", t.text, scan.tok(ctor).text),
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
        if scan.ident(j, "Instant") && path_to(scan, j, &["now"]).is_some() {
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
        if scan.ident(j, "rand") && path_to(scan, j, &["random"]).is_some() {
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

/// Paths covering every crate scope: D002's, P001's, P001's indexing,
/// T002's, a crate no scoped lint covers, and a file outside `crates/`.
const PATHS: &[&str] = &[
    "crates/serve/src/x.rs",
    "crates/core/src/x.rs",
    "crates/fleet/src/x.rs",
    "crates/pipeline/src/x.rs",
    "crates/exec/src/x.rs",
    "crates/telemetry/src/x.rs",
    "src/lib.rs",
];

/// Fragments of the token soup: every pattern and near misses, loose
/// brackets and markers, waivers for every token lint (well-formed and
/// not), file-scope items, and a method name a line after its `.`.
const FRAGMENTS: &[&str] = &[
    "Instant::now()",
    "Instant",
    "SystemTime::now()",
    "thread_rng()",
    "StdRng::from_entropy()",
    "rand::random::<f64>()",
    "rand",
    "HashMap::new()",
    "HashSet::with_capacity(8)",
    "HashMap<u32, u32>",
    "Vec::new()",
    "String::with_capacity(n)",
    "Box::new(x)",
    "Vec::<u8>::with_capacity(n)",
    "HashMap::<u32, Vec<u8>>::new()",
    "Instant::<u8>::now()",
    "Vec::<",
    "<",
    ">",
    "Arc",
    "vec![0u8; 4]",
    "format!(\"{x}\")",
    "x.unwrap()",
    "y.expect(\"msg\")",
    ".unwrap_or(0)",
    "panic!(\"boom\")",
    "unreachable!()",
    "todo!()",
    "unimplemented!()",
    "assert!(ok)",
    "xs[i]",
    "xs[1..3]",
    "f()[0]",
    "a[i][j]",
    "[1, 2]",
    "xs.to_vec()",
    "s.to_string()",
    ".clone()",
    "x.\nclone()",
    ".collect::<Vec<_>>()",
    "tracer.span(\"w\", t0)",
    ".scope(s)",
    ".finish(t1)",
    ".finish_after(d)",
    "let g = tracer.span(\"w\", t0);",
    "let mut h = t.span(a);",
    "g.finish(t1);",
    "j.emit(now, seq, kind)",
    "j.emit(now, r.id, kind)",
    ".emit(request_id)",
    "mlscore_serve::X",
    "use mlscore_exec::Y;",
    "helper(",
    "Self::prep()",
    "T::mk()",
    "m::free(x)",
    "x.step()",
    "Some(x)",
    "fn",
    "let",
    "!",
    ".",
    ":",
    "::",
    "(",
    ")",
    "[",
    "]",
    "{",
    "}",
    ";",
    ",",
    "=>",
    "x",
    "42",
    "'c'",
    "\"text with x.unwrap()\"",
    "/* Instant::now() */",
    "fn h() -> u32 { xs[0] }",
    "struct S { a: u32 }",
    "use std::collections::HashMap;",
    "#[cfg(test)]",
    "#[test]",
    "#[derive(Debug)]",
    "// analyze: hot\n",
    "// analyze: allow(D001, reason=\"measurement\")\n",
    "// analyze: allow(D002, reason=\"lookup only\")\n",
    "// analyze: allow(D003, reason=\"demo\")\n",
    "// analyze: allow(P001, reason=\"invariant\")\n",
    "// analyze: allow(H001, reason=\"amortized\")\n",
    "// analyze: allow(T001, reason=\"moved\")\n",
    "// analyze: allow(T002, reason=\"engine event\")\n",
    "// analyze: allow(D001)\n",
    "// analyze: allow(Q999, reason=\"x\")\n",
    "// analyze: frob\n",
];

/// Bracketed groups `(open, close)`: items, hot and test regions, index
/// and call argument lists.
const GROUPS: &[(&str, &str)] = &[
    ("{", "}"),
    ("fn f(&self) {", "}"),
    ("pub fn g(xs: &[u64]) -> u64 {", "}"),
    ("impl T {", "}"),
    ("trait Tr {", "}"),
    ("mod m {", "}"),
    ("if x {", "} else { y }"),
    ("// analyze: hot\nfn hot() {", "}"),
    ("#[cfg(test)]\nmod tests {", "}"),
    ("#[test]\nfn t() {", "}"),
    ("xs[", "]"),
    ("f(", ")"),
    ("tracer.span(", ")"),
    ("j.emit(", ")"),
];

/// Separators after a fragment or group: none (tokens may run together),
/// a space, a newline.
const SEPS: &[&str] = &["", " ", "\n"];

/// One step of token soup, rendered by [`render`].
#[derive(Debug, Clone, Copy)]
enum Step {
    /// `FRAGMENTS[frag]`, then `SEPS[sep]`.
    Frag(usize, usize),
    /// Opens `GROUPS[group]` on its own line.
    Open(usize),
    /// Closes the innermost open group, then `SEPS[sep]`.
    Close(usize),
}

/// Steps with nesting: seven in ten are fragments, and the rest open and
/// close groups about equally, so groups nest a few levels deep.
fn arb_steps() -> impl Strategy<Value = Vec<Step>> {
    let step = (0..10usize, 0..1024usize, 0..SEPS.len()).prop_map(|(op, k, sep)| match op {
        0..=6 => Step::Frag(k % FRAGMENTS.len(), sep),
        7 | 8 => Step::Open(k % GROUPS.len()),
        _ => Step::Close(sep),
    });
    proptest::collection::vec(step, 0..200)
}

/// Renders steps into source text. A close with no open group is dropped,
/// and groups still open at the end are closed.
fn render(steps: &[Step]) -> String {
    let mut src = String::new();
    let mut open: Vec<&str> = Vec::new();
    for &step in steps {
        match step {
            Step::Frag(frag, sep) => {
                src.push_str(FRAGMENTS[frag]);
                src.push_str(SEPS[sep]);
            }
            Step::Open(group) => {
                src.push_str(GROUPS[group].0);
                src.push('\n');
                open.push(GROUPS[group].1);
            }
            Step::Close(sep) => {
                if let Some(close) = open.pop() {
                    src.push_str(close);
                    src.push_str(SEPS[sep]);
                }
            }
        }
    }
    for close in open.iter().rev() {
        src.push_str(close);
    }
    src
}

/// The body ranges of every fn in `items`, nested ones included.
fn bodies(items: &[Item], out: &mut Vec<(usize, usize)>) {
    for item in items {
        match &item.kind {
            ItemKind::Fn { body, .. } => out.extend(*body),
            ItemKind::Impl { items, .. }
            | ItemKind::Trait { items, .. }
            | ItemKind::Mod { items, .. } => bodies(items, out),
            ItemKind::Use { .. } | ItemKind::Other => {}
        }
    }
}

/// Asserts the site-table consumers agree with the per-token reference on
/// one file: findings for every crate scope, and calls and hazards for
/// every fn body plus the whole file as one range.
fn assert_agrees(src: &str) {
    let scan = FileScan::of(src);
    for path in PATHS {
        assert_eq!(
            super::run_lints_all(path, &scan),
            lints_by_token(path, &scan),
            "{path}: {src:?}"
        );
    }
    let mut ranges = vec![(0, scan.len())];
    bodies(&parse_items(&scan), &mut ranges);
    for (open, close) in ranges {
        let (mut calls, mut hazards) = (Vec::new(), Vec::new());
        extract_body(&scan, open, close, &mut calls, &mut hazards);
        let hazards: Vec<RefHazard> = (hazards.iter())
            .map(|h| RefHazard {
                kind: h.kind,
                line: h.line,
                offset: h.offset,
                what: h.what(&scan).to_string(),
            })
            .collect();
        assert_eq!(
            (calls, hazards),
            extract_body_by_token(&scan, open, close),
            "body ({open}, {close}): {src:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn site_table_consumers_match_the_per_token_passes(steps in arb_steps()) {
        assert_agrees(&render(&steps));
    }
}

#[test]
fn every_fragment_in_one_file_fires_every_token_lint_and_hazard() {
    // Two hot regions: a `.` on the first one's closing line whose method
    // name sits on the next line (H001 decides by the `.`), then every
    // fragment.
    let hot = GROUPS
        .iter()
        .position(|g| g.0.starts_with("// analyze: hot"))
        .expect("a hot group");
    let frag = |f: &str| {
        Step::Frag(
            FRAGMENTS.iter().position(|&x| x == f).expect("a fragment"),
            2,
        )
    };
    let mut steps = vec![Step::Open(hot), frag("Vec::new()"), Step::Close(0)];
    steps.extend([frag("x.\nclone()"), Step::Open(hot)]);
    steps.extend((0..FRAGMENTS.len()).map(|f| Step::Frag(f, 2)));
    let src = render(&steps);
    assert_agrees(&src);
    let scan = FileScan::of(&src);
    let mut lints: Vec<String> = PATHS
        .iter()
        .flat_map(|path| {
            let (active, suppressed) = lints_by_token(path, &scan);
            active.into_iter().chain(suppressed).map(|f| f.lint)
        })
        .collect();
    lints.sort();
    lints.dedup();
    let want = [
        "A000", "D001", "D002", "D003", "H001", "P001", "T001", "T002",
    ];
    assert_eq!(lints, want);
    let (calls, hazards) = extract_body_by_token(&scan, 0, scan.len());
    assert!(calls.iter().any(|c| c.method) && calls.iter().any(|c| c.qualifier(&scan).is_some()));
    let mut kinds: Vec<HazardKind> = hazards.iter().map(|h| h.kind).collect();
    kinds.sort();
    kinds.dedup();
    assert_eq!(kinds.len(), 6, "{kinds:?}");
}
