//! The intra-file (token-level) lint implementations.
//!
//! Every lint is a pattern over one file's significant-token stream (see
//! [`FileScan`]); none needs a full AST. No lint walks the tokens itself:
//! the [`FileScan`] the caller hands in (lexed once, and shared with the
//! interprocedural tier) classifies every pattern occurrence once into its
//! site table, and this pass maps each site to a finding, applying the
//! lint's crate scope and, for `H001`, the hot regions. The call-graph
//! extractor reads the same table, so a pattern is spelled in one place.
//!
//! Findings inside `#[cfg(test)]` / `#[test]` regions are dropped (test
//! code may panic, index, and allocate freely). Findings covered by a
//! well-formed `// analyze: allow(LINT, reason=...)` come back in the
//! *suppressed* list with their reason attached, so `--json` consumers
//! (editors, CI annotators) can still see them.

use crate::lexer::TokenKind;
use crate::scan::FileScan;
use crate::sites::SiteKind;
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

/// The crate a workspace-relative path belongs to (`crates/serve/src/x.rs`
/// -> `serve`; anything else -> `""`).
pub fn crate_of(rel_path: &str) -> &str {
    rel_path
        .strip_prefix("crates/")
        .and_then(|rest| rest.split('/').next())
        .unwrap_or("")
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

    let mut active = Vec::new();
    let mut suppressed = Vec::new();
    // The file's site table holds every pattern occurrence, matched once
    // by the FileScan; each rule maps its sites to findings here.
    for &site in &scan.sites {
        let i = site.at;
        let what = || site.what(scan);
        let (lint, message) = match site.kind {
            // --- D001: wall-clock reads ----------------------------------
            SiteKind::InstantNow => (
                "D001",
                "wall-clock read `Instant::now` outside an allowlisted measurement site \
                 (route through `mlscore_sim::Clock` or `SimInstant`)"
                    .to_string(),
            ),
            SiteKind::SystemTimeUse => (
                "D001",
                "`SystemTime` use outside an allowlisted measurement site \
                 (simulated components must use `SimInstant`)"
                    .to_string(),
            ),
            // --- D002: unordered maps in export-building crates ----------
            SiteKind::UnorderedMap if d002 => (
                "D002",
                format!(
                    "`{}` in a report-building crate: iteration order can leak into \
                     exports (use `BTreeMap`/`BTreeSet` or sort before emitting)",
                    what()
                ),
            ),
            // --- D003: ambient / unseeded RNG ----------------------------
            SiteKind::AmbientRng | SiteKind::RandRandom => (
                "D003",
                format!(
                    "ambient RNG `{}`: seed explicitly (e.g. `StdRng::seed_from_u64`)",
                    what()
                ),
            ),
            // --- P001: panic paths in request-serving crates -------------
            SiteKind::PanicMethod | SiteKind::PanicMacro if p001 => (
                "P001",
                format!(
                    "`{}` on a request path: return the crate's error type instead",
                    what()
                ),
            ),
            SiteKind::Index if p001_index => (
                "P001",
                "plain indexing on a request path can panic: use `.get(...)` and \
                 surface the crate's error type"
                    .to_string(),
            ),
            // --- H001: allocation inside a hot region --------------------
            // The anchor's line decides hotness, also for a method call
            // reported at its name.
            SiteKind::AllocNew | SiteKind::AllocMacro if scan.in_hot(scan.tok(i).line) => (
                "H001",
                format!(
                    "allocation `{}` in a hot region: hoist and reuse scratch buffers",
                    what()
                ),
            ),
            SiteKind::AllocMethod if scan.in_hot(scan.tok(i).line) => (
                "H001",
                format!(
                    "allocating call `{}` in a hot region: hoist and reuse scratch buffers",
                    what()
                ),
            ),
            // --- T001: span guard balance --------------------------------
            SiteKind::Span => match scan.match_group(i + 2, "(", ")") {
                Some(args_close)
                    if !chain_reaches_finish(scan, args_close + 1)
                        && !let_bound_finish(scan, i, args_close) =>
                {
                    (
                        "T001",
                        "span opened without a matching `finish`/`finish_after` \
                         (every span guard must be closed)"
                            .to_string(),
                    )
                }
                _ => continue,
            },
            // --- T002: journal emits must carry a request id -------------
            SiteKind::Emit if t002 => match scan.match_group(i + 2, "(", ")") {
                Some(args_close)
                    if !(i + 3..args_close)
                        .any(|j| scan.ident(j, "id") || scan.ident(j, "request_id")) =>
                {
                    (
                        "T002",
                        "journal emit without a request id: every lifecycle entry must \
                         carry `id`/`request_id` so the causal chain stays reconstructible"
                            .to_string(),
                    )
                }
                _ => continue,
            },
            _ => continue,
        };
        // Test code may panic, index and allocate; a waived finding moves
        // to the suppressed list with its reason.
        let tok = scan.tok(site.token());
        if scan.in_test(tok.line) {
            continue;
        }
        let reason = scan.suppression_reason(lint, tok.line);
        let finding = Finding {
            lint: lint.to_string(),
            file: rel_path.to_string(),
            line: tok.line,
            offset: tok.offset,
            message,
            suppressed: reason.map(str::to_string),
        };
        if reason.is_some() {
            suppressed.push(finding);
        } else {
            active.push(finding);
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

#[cfg(test)]
mod reference;
