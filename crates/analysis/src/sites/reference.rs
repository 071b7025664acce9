//! The site classifier before it skipped the tokens that cannot start a
//! site: every significant token built and run through two string
//! `match`es. Kept as the reference for a differential test: over
//! fragment soups, [`super::classify`] must return exactly the sites this
//! one does, kind and anchor, in order.

use super::{Site, SiteKind, CRATE_PREFIX};
use crate::lexer::TokenKind;
use crate::scan::FileScan;

/// Keywords that neither name a callee before `(` nor end an index base
/// before `[`.
#[rustfmt::skip]
fn is_keyword(name: &str) -> bool {
    matches!(
        name,
        "as" | "box" | "break" | "const" | "continue" | "crate" | "dyn" | "else" | "enum"
            | "fn" | "for" | "if" | "impl" | "in" | "let" | "loop" | "match" | "move" | "mut"
            | "pub" | "ref" | "return" | "static" | "struct" | "trait" | "type" | "unsafe"
            | "use" | "where" | "while" | "yield"
    )
}
/// Container types whose `::new` / `::with_capacity` allocate.
#[rustfmt::skip]
fn is_alloc_type(name: &str) -> bool {
    matches!(
        name,
        "Vec" | "String" | "Box" | "VecDeque" | "HashMap" | "HashSet" | "BTreeMap" | "BTreeSet"
            | "Arc" | "Rc"
    )
}
/// Classifies every significant token of `scan` into its sites, sorted by
/// anchor.
pub(super) fn classify(scan: &FileScan<'_>) -> Vec<Site> {
    let mut sites = Vec::new();
    for i in 0..scan.len() {
        let t = scan.tok(i);
        let mut push = |kind| sites.push(Site { kind, at: i });
        match (t.kind, t.text) {
            (TokenKind::Ident, name) => {
                // `name::seg` or `name::<..>::seg` where `seg` passes
                // `is_seg`.
                let path_to = |is_seg: fn(&str) -> bool| {
                    path_seg(scan, i).is_some_and(|j| {
                        scan.tok(j).kind == TokenKind::Ident && is_seg(scan.tok(j).text)
                    })
                };
                let bang = scan.punct(i + 1, "!");
                // `Some(`, `Ok(` and `Err(` build values; they are not calls.
                if scan.punct(i + 1, "(")
                    && !is_keyword(name)
                    && !matches!(name, "Some" | "Ok" | "Err")
                    && !scan.punct(i.wrapping_sub(1), "!")
                    && !scan.ident(i.wrapping_sub(1), "fn")
                {
                    push(SiteKind::Call);
                }
                // Unconditional panics only: `assert*` guards an invariant.
                if bang && matches!(name, "panic" | "unreachable" | "todo" | "unimplemented") {
                    push(SiteKind::PanicMacro);
                }
                if is_alloc_type(name) && path_to(|s| matches!(s, "new" | "with_capacity")) {
                    push(SiteKind::AllocNew);
                }
                if bang && matches!(name, "vec" | "format") {
                    push(SiteKind::AllocMacro);
                }
                match name {
                    "Instant" if path_to(|s| s == "now") => push(SiteKind::InstantNow),
                    "SystemTime" => push(SiteKind::SystemTimeUse),
                    "rand" if path_to(|s| s == "random") => push(SiteKind::RandRandom),
                    "thread_rng" | "from_entropy" => push(SiteKind::AmbientRng),
                    // Maps whose iteration order is unspecified.
                    "HashMap" | "HashSet" => push(SiteKind::UnorderedMap),
                    _ if name.starts_with(CRATE_PREFIX) => push(SiteKind::CrateRef),
                    _ => {}
                }
            }
            (TokenKind::Punct, ".") if scan.punct(i + 2, "(") => {
                let method = scan.tok(i + 1);
                if method.kind != TokenKind::Ident {
                    continue;
                }
                match method.text {
                    "span" => push(SiteKind::Span),
                    "emit" => push(SiteKind::Emit),
                    "unwrap" | "expect" => push(SiteKind::PanicMethod),
                    "to_vec" | "to_string" | "to_owned" | "collect" | "clone" => {
                        push(SiteKind::AllocMethod)
                    }
                    _ => {}
                }
            }
            (TokenKind::Punct, "[") if i > 0 && is_index_base(scan, i - 1) => {
                if let Some(close) = scan.match_group(i, "[", "]") {
                    let is_range =
                        (i + 1..close).any(|j| scan.punct(j, ".") && scan.punct(j + 1, "."));
                    if !is_range {
                        push(SiteKind::Index);
                    }
                }
            }
            _ => {}
        }
    }
    sites
}

/// The significant index after `name::` or after `name::<..>::`, `name`
/// being at `i`: the turbofish's `<` and `>` are counted, and a `;` or a
/// `{` before its last `>`, or the end of the file, means no path.
fn path_seg(scan: &FileScan<'_>, i: usize) -> Option<usize> {
    let colons = |j: usize| scan.punct(j, ":") && scan.punct(j + 1, ":");
    if !colons(i + 1) {
        return None;
    }
    if !scan.punct(i + 3, "<") {
        return (i + 3 < scan.len()).then_some(i + 3);
    }
    let mut depth = 0i64;
    for j in i + 3..scan.len() {
        if scan.punct(j, ";") || scan.punct(j, "{") {
            return None;
        }
        depth += i64::from(scan.punct(j, "<")) - i64::from(scan.punct(j, ">"));
        if depth == 0 {
            return (colons(j + 1) && j + 3 < scan.len()).then_some(j + 3);
        }
    }
    None
}

/// True when the significant token at `i` can be the base expression of an
/// index (`x[i]`, `f()[i]`, `a[i][j]`).
fn is_index_base(scan: &FileScan<'_>, i: usize) -> bool {
    let t = scan.tok(i);
    match t.kind {
        TokenKind::Ident => !is_keyword(t.text),
        TokenKind::Punct => t.text == ")" || t.text == "]",
        _ => false,
    }
}
