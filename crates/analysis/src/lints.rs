//! The intra-file (token-level) lint implementations.
//!
//! Every lint is a pattern over one file's significant-token stream (see
//! [`FileScan`]); none needs a full AST. All rule families run in **one
//! fused pass** over the token stream — the file is lexed exactly once
//! (by the [`FileScan`] the caller hands in, which the interprocedural
//! tier shares too) and every pattern is tried at each token position,
//! instead of one full sweep per rule family.
//!
//! Findings inside `#[cfg(test)]` / `#[test]` regions are dropped (test
//! code may panic, index, and allocate freely). Findings covered by a
//! well-formed `// analyze: allow(LINT, reason=...)` come back in the
//! *suppressed* list with their reason attached, so `--json` consumers
//! (editors, CI annotators) can still see them.

use crate::lexer::TokenKind;
use crate::scan::FileScan;
use crate::Finding;

/// Crates whose map contents reach a `ServingReport`, a Perfetto export,
/// or bench JSON — iteration order there must be deterministic.
const D002_CRATES: &[&str] = &["serve", "core", "fleet"];
/// Crates with request paths that must return errors instead of panicking.
const P001_CRATES: &[&str] = &["serve", "pipeline", "exec", "fleet"];
/// Crates whose request-lifecycle journal emits are audited: every
/// `.emit(...)` must carry the request's id, or the causal chain the
/// journal reconstructs (arrival -> ... -> completed) breaks.
const T002_CRATES: &[&str] = &["serve"];
/// Crates where plain `x[i]` indexing is flagged too. The exec kernels
/// index heavily by design and are governed by `H001` hot regions instead.
pub(crate) const P001_INDEX_CRATES: &[&str] = &["serve", "pipeline", "fleet"];

/// Identifiers that precede `[` without forming an index expression.
const NON_INDEX_KEYWORDS: &[&str] = &[
    "as", "box", "break", "const", "continue", "crate", "dyn", "else", "enum", "fn", "if", "impl",
    "in", "let", "loop", "match", "move", "mut", "pub", "ref", "return", "static", "struct",
    "trait", "type", "unsafe", "use", "where", "while", "yield",
];

/// Container types whose `::new` / `::with_capacity` allocate (H001 here,
/// the call graph's allocation hazards for H002).
pub(crate) const ALLOC_TYPES: &[&str] = &[
    "Vec", "String", "Box", "VecDeque", "HashMap", "HashSet", "BTreeMap", "BTreeSet", "Arc", "Rc",
];
/// Methods that allocate on the callee (H001 and the call graph).
pub(crate) const ALLOC_METHODS: &[&str] = &["to_vec", "to_string", "to_owned", "collect", "clone"];

/// The crate a workspace-relative path belongs to (`crates/serve/src/x.rs`
/// -> `serve`; anything else -> `""`).
pub fn crate_of(rel_path: &str) -> &str {
    rel_path
        .strip_prefix("crates/")
        .and_then(|rest| rest.split('/').next())
        .unwrap_or("")
}

/// A raw (pre-filter) lint hit.
struct RawFinding {
    lint: &'static str,
    line: u32,
    offset: usize,
    message: String,
}

/// Runs every intra-file lint over one scanned file. Returns
/// `(active, suppressed)`: test-region findings are dropped, findings
/// covered by a well-formed allow move to the suppressed list with the
/// allow's reason attached. Both lists are sorted by `(line, lint)`.
pub fn run_lints_all(rel_path: &str, scan: &FileScan<'_>) -> (Vec<Finding>, Vec<Finding>) {
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
        if scan.ident(i, "Instant")
            && scan.punct(i + 1, ":")
            && scan.punct(i + 2, ":")
            && scan.ident(i + 3, "now")
        {
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
        if scan.ident(i, "rand")
            && scan.punct(i + 1, ":")
            && scan.punct(i + 2, ":")
            && scan.ident(i + 3, "random")
        {
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
            if tok.kind == TokenKind::Ident
                && ALLOC_TYPES.contains(&tok.text)
                && scan.punct(i + 1, ":")
                && scan.punct(i + 2, ":")
                && (scan.ident(i + 3, "new") || scan.ident(i + 3, "with_capacity"))
            {
                push(
                    "H001",
                    line,
                    offset,
                    format!(
                        "allocation `{}::{}` in a hot region: hoist and reuse scratch buffers",
                        tok.text,
                        scan.tok(i + 3).text
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

/// Runs every intra-file lint and returns the surviving (active)
/// findings only.
pub fn run_lints(rel_path: &str, scan: &FileScan<'_>) -> Vec<Finding> {
    run_lints_all(rel_path, scan).0
}

/// True when the significant token at `i` can be the base expression of an
/// index (`x[i]`, `f()[i]`, `a[i][j]`).
pub(crate) fn is_index_base(scan: &FileScan<'_>, i: usize) -> bool {
    let t = scan.tok(i);
    match t.kind {
        TokenKind::Ident => !NON_INDEX_KEYWORDS.contains(&t.text),
        TokenKind::Punct => t.text == ")" || t.text == "]",
        _ => false,
    }
}

/// Walks a method chain starting at significant index `j` (just past a
/// call's closing paren); true if the chain contains `finish`/
/// `finish_after`.
fn chain_reaches_finish(scan: &FileScan<'_>, mut j: usize) -> bool {
    while scan.punct(j, ".") {
        if scan.ident(j + 1, "finish") || scan.ident(j + 1, "finish_after") {
            return true;
        }
        if scan.punct(j + 2, "(") {
            match scan.match_group(j + 2, "(", ")") {
                Some(close) => j = close + 1,
                None => return false,
            }
        } else {
            // Field access or `.await`; keep walking.
            j += 2;
        }
    }
    false
}

/// True when the `.span(` at significant index `dot` sits in a
/// `let name = ...` statement and `name.finish(...)` /
/// `name.finish_after(...)` appears later in the file.
fn let_bound_finish(scan: &FileScan<'_>, dot: usize, args_close: usize) -> bool {
    // Find the statement start: walk back to the nearest `;`, `{`, or `}`.
    let mut k = dot;
    while k > 0 {
        if scan.punct(k - 1, ";") || scan.punct(k - 1, "{") || scan.punct(k - 1, "}") {
            break;
        }
        k -= 1;
    }
    if !scan.ident(k, "let") {
        return false;
    }
    let name_idx = if scan.ident(k + 1, "mut") {
        k + 2
    } else {
        k + 1
    };
    if name_idx >= scan.len() || scan.tok(name_idx).kind != TokenKind::Ident {
        return false;
    }
    let name = scan.tok(name_idx).text;
    (args_close + 1..scan.len().saturating_sub(2)).any(|j| {
        scan.ident(j, name)
            && scan.punct(j + 1, ".")
            && (scan.ident(j + 2, "finish") || scan.ident(j + 2, "finish_after"))
    })
}
