//! The per-file site table: every lint and hazard pattern, matched once.
//!
//! [`FileScan::of`] classifies each file's significant tokens once, into a
//! list of [`Site`]s: a pattern kind plus the significant index where the
//! pattern starts (its *anchor*). The token lints ([`crate::lints`]), the
//! call-graph extractor ([`crate::graph`]) and the A001 layering lint read
//! this table instead of walking the tokens themselves, so each pattern
//! below is spelled in exactly one place.
//!
//! Sites are sorted by anchor. One anchor can carry two sites
//! (`HashMap::new` is an allocation *and* an unordered map, `thread_rng(`
//! is a call *and* ambient RNG); at one anchor they come in [`SiteKind`]
//! declaration order.

use std::fmt;

use crate::lexer::TokenKind;
use crate::scan::FileScan;

/// What pattern starts at a site's anchor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SiteKind {
    /// `name(`, not a keyword, not a macro (`name!(`) or `fn name(`.
    Call,
    /// `.unwrap(` / `.expect(`, anchored at the `.`.
    PanicMethod,
    /// `panic!` / `unreachable!` / `todo!` / `unimplemented!`.
    PanicMacro,
    /// `base[...]`, a non-range index whose base ends at the anchor's
    /// predecessor, anchored at the `[`.
    Index,
    /// `Vec::new` / `String::with_capacity` and the like.
    AllocNew,
    /// `vec!` / `format!`.
    AllocMacro,
    /// `.to_vec(` / `.clone(` and the other allocating methods, anchored
    /// at the `.`.
    AllocMethod,
    /// `Instant::now`.
    InstantNow,
    /// `SystemTime` (the variant cannot share the name: D001 would flag it).
    SystemTimeUse,
    /// `thread_rng` / `from_entropy`.
    AmbientRng,
    /// `rand::random`.
    RandRandom,
    /// `HashMap` / `HashSet`.
    UnorderedMap,
    /// `.span(`, anchored at the `.`.
    Span,
    /// `.emit(`, anchored at the `.`.
    Emit,
    /// An identifier naming a workspace crate (`mlscore_serve`).
    CrateRef,
}

/// One classified pattern occurrence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Site {
    /// The pattern.
    pub(crate) kind: SiteKind,
    /// Significant index of the pattern's first token.
    pub(crate) at: usize,
}

impl Site {
    /// The significant index findings and hazards report: the method name
    /// of a `.name(` site, the anchor otherwise.
    pub(crate) fn token(self) -> usize {
        match self.kind {
            SiteKind::PanicMethod | SiteKind::AllocMethod | SiteKind::Span | SiteKind::Emit => {
                self.at + 1
            }
            _ => self.at,
        }
    }

    /// The site's short rendering (`.unwrap()`, `vec!`, `Vec::new`, ...),
    /// borrowed from the scan: formatting it writes the pieces straight
    /// into the message, with no `String` of its own.
    pub(crate) fn what<'a>(self, scan: &FileScan<'a>) -> SiteText<'a> {
        let text = |i: usize| scan.tok(i).text;
        SiteText(match self.kind {
            SiteKind::PanicMethod | SiteKind::AllocMethod => [".", text(self.at + 1), "()"],
            SiteKind::PanicMacro | SiteKind::AllocMacro => [text(self.at), "!", ""],
            SiteKind::AllocNew => [text(self.at), "::", text(self.at + 3)],
            SiteKind::Index => ["[..] indexing", "", ""],
            SiteKind::InstantNow => ["Instant::now", "", ""],
            SiteKind::RandRandom => ["rand::random", "", ""],
            _ => [text(self.at), "", ""],
        })
    }
}

/// A site's short rendering ([`Site::what`]): pieces of the source and
/// fixed text, written one after another.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SiteText<'a>([&'a str; 3]);

impl fmt::Display for SiteText<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.iter().try_for_each(|piece| f.write_str(piece))
    }
}

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
/// The prefix of every workspace crate's identifier.
pub(crate) const CRATE_PREFIX: &str = "mlscore_";

/// Classifies every significant token of `scan` into its sites, sorted by
/// anchor.
pub(crate) fn classify(scan: &FileScan<'_>) -> Vec<Site> {
    let mut sites = Vec::new();
    for i in 0..scan.len() {
        let t = scan.tok(i);
        let mut push = |kind| sites.push(Site { kind, at: i });
        match (t.kind, t.text) {
            (TokenKind::Ident, name) => {
                // `name::seg` where `seg` passes `is_seg`.
                let path_to = |is_seg: fn(&str) -> bool| {
                    scan.punct(i + 1, ":")
                        && scan.punct(i + 2, ":")
                        && i + 3 < scan.len()
                        && scan.tok(i + 3).kind == TokenKind::Ident
                        && is_seg(scan.tok(i + 3).text)
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
