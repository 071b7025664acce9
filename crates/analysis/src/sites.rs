//! The per-file site table: every lint and hazard pattern, matched once.
//!
//! [`FileScan::of`] classifies each file's significant tokens once, into a
//! list of [`Site`]s: a pattern kind plus the significant index where the
//! pattern starts (its *anchor*). The token lints ([`crate::lints`]), the
//! call-graph extractor ([`crate::graph`]) and the A001 layering lint read
//! this table instead of walking the tokens themselves, so each pattern
//! below is spelled in exactly one place.
//!
//! Classification looks only where a site can start. It reads the dense
//! punct table first: of the puncts only `.` (a method site) and `[` (an
//! index) can start one. An identifier is looked at only when `(`, `!` or
//! `:` follows it, or when it could be a pattern that needs none of them;
//! then one `match` on its name decides every pattern it can start.
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

/// The keywords that neither name a callee before `(` nor end an index
/// base before `[`, as a pattern.
#[rustfmt::skip]
macro_rules! keyword {
    () => {
        "as" | "box" | "break" | "const" | "continue" | "crate" | "dyn" | "else" | "enum"
            | "fn" | "for" | "if" | "impl" | "in" | "let" | "loop" | "match" | "move" | "mut"
            | "pub" | "ref" | "return" | "static" | "struct" | "trait" | "type" | "unsafe"
            | "use" | "where" | "while" | "yield"
    };
}

/// The prefix of every workspace crate's identifier.
pub(crate) const CRATE_PREFIX: &str = "mlscore_";

/// Classifies the significant tokens of `scan` into their sites, sorted
/// by anchor.
///
/// Only a `.`, a `[` or an identifier can start a site, so the dense punct
/// table is read first and every other punct is skipped there. An
/// identifier is skipped unless `(`, `!` or `:` follows it or its length
/// is that of a pattern that needs none (`HashMap`, `SystemTime`,
/// `thread_rng`, `from_entropy`) or it starts with [`CRATE_PREFIX`]; one
/// `match` on the name classifies the rest.
pub(crate) fn classify(scan: &FileScan<'_>) -> Vec<Site> {
    use SiteKind::*;
    let puncts = &scan.puncts[..];
    // The punct byte at `i`; 0 past either end or for a non-punct.
    let punct = |i: usize| puncts.get(i).copied().unwrap_or(0);
    let mut sites = Vec::new();
    for (i, &byte) in puncts.iter().enumerate() {
        let mut push = |kind| sites.push(Site { kind, at: i });
        match byte {
            0 => {}
            b'.' => {
                let method = match scan.row(i + 1) {
                    Some(m) if m.kind == TokenKind::Ident && punct(i + 2) == b'(' => m.text,
                    _ => continue,
                };
                match method {
                    "span" => push(Span),
                    "emit" => push(Emit),
                    "unwrap" | "expect" => push(PanicMethod),
                    "to_vec" | "to_string" | "to_owned" | "collect" | "clone" => push(AllocMethod),
                    _ => {}
                }
                continue;
            }
            b'[' => {
                if i > 0 && is_index_base(scan, i - 1) {
                    if let Some(close) = scan.match_group(i, "[", "]") {
                        if !puncts[i + 1..close].windows(2).any(|w| w == b"..") {
                            push(Index);
                        }
                    }
                }
                continue;
            }
            _ => continue,
        }
        let t = scan.tok(i);
        if t.kind != TokenKind::Ident {
            continue;
        }
        let name = t.text;
        let next = punct(i + 1);
        if !matches!(next, b'(' | b'!' | b':')
            && !matches!(name.len(), 7 | 10 | 12)
            && !name.starts_with(CRATE_PREFIX)
        {
            continue;
        }
        // `name::seg` where `seg` passes `is_seg`.
        let path_to = |is_seg: fn(&str) -> bool| {
            next == b':'
                && punct(i + 2) == b':'
                && scan
                    .row(i + 3)
                    .is_some_and(|seg| seg.kind == TokenKind::Ident && is_seg(seg.text))
        };
        let ctor = |seg: &str| matches!(seg, "new" | "with_capacity");
        let bang = next == b'!';
        // The sites the name starts besides a call, in `SiteKind` order.
        let (first, second) = match name {
            // `Some(`, `Ok(` and `Err(` build values; they are not calls.
            keyword!() | "Some" | "Ok" | "Err" => continue,
            // Unconditional panics only: `assert*` guards an invariant.
            "panic" | "unreachable" | "todo" | "unimplemented" => {
                (bang.then_some(PanicMacro), None)
            }
            "vec" | "format" => (bang.then_some(AllocMacro), None),
            // Maps whose iteration order is unspecified; containers whose
            // `::new` / `::with_capacity` allocate.
            "HashMap" | "HashSet" => (path_to(ctor).then_some(AllocNew), Some(UnorderedMap)),
            "Vec" | "String" | "Box" | "VecDeque" | "BTreeMap" | "BTreeSet" | "Arc" | "Rc" => {
                (path_to(ctor).then_some(AllocNew), None)
            }
            "Instant" => (path_to(|s| s == "now").then_some(InstantNow), None),
            "SystemTime" => (Some(SystemTimeUse), None),
            "rand" => (path_to(|s| s == "random").then_some(RandRandom), None),
            "thread_rng" | "from_entropy" => (Some(AmbientRng), None),
            _ => (name.starts_with(CRATE_PREFIX).then_some(CrateRef), None),
        };
        if next == b'(' && punct(i.wrapping_sub(1)) != b'!' && !scan.ident(i.wrapping_sub(1), "fn")
        {
            push(Call);
        }
        first.into_iter().chain(second).for_each(push);
    }
    sites
}

/// True when the significant token at `i` can be the base expression of an
/// index (`x[i]`, `f()[i]`, `a[i][j]`).
fn is_index_base(scan: &FileScan<'_>, i: usize) -> bool {
    let t = scan.tok(i);
    match t.kind {
        TokenKind::Ident => !matches!(t.text, keyword!()),
        TokenKind::Punct => matches!(t.text, ")" | "]"),
        _ => false,
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    /// Every name a site pattern reads, every keyword, `Some`/`Ok`/`Err`,
    /// workspace-crate names, and names that share a standalone
    /// pattern's length without being one.
    #[rustfmt::skip]
    const NAMES: &[&str] = &[
        "panic", "unreachable", "todo", "unimplemented", "assert", "vec", "format", "Vec",
        "String", "Box", "VecDeque", "HashMap", "HashSet", "BTreeMap", "BTreeSet", "Arc", "Rc",
        "Instant", "SystemTime", "rand", "thread_rng", "from_entropy", "new", "with_capacity",
        "now", "random", "span", "emit", "unwrap", "expect", "to_vec", "to_string", "to_owned",
        "collect", "clone", "Some", "Ok", "Err", "as", "box", "break", "const", "continue",
        "crate", "dyn", "else", "enum", "fn", "for", "if", "impl", "in", "let", "loop", "match",
        "move", "mut", "pub", "ref", "return", "static", "struct", "trait", "type", "unsafe",
        "use", "where", "while", "yield", "mlscore_serve", "mlscore_", "mlscore", "Hashmap",
        "SystemTimes", "thread_rnG", "from_entropY", "x",
    ];

    /// What can follow a name: each punct a site needs, and a plain token.
    const AFTER: &[&str] = &["(", "!", "::", ".", "[", " y"];

    /// What can precede a name: the tokens the call and method rules
    /// look back or ahead at, or nothing.
    const BEFORE: &[&str] = &["", "fn ", "!", ".", "x ", ")", "]"];

    /// Pieces between names: closers, ranges, literals and comments.
    const GLUE: &[&str] = &[
        ")", "]", "..", "{", "}", ";", "0", "\"s\"", "'a", "// c\n", "/* c */", "::", "(", "[",
    ];

    fn assert_agrees(src: &str) {
        let scan = FileScan::of(src);
        assert_eq!(scan.sites, reference::classify(&scan), "on {src:?}");
    }

    #[test]
    fn every_name_before_every_follower_matches_the_reference() {
        for name in NAMES {
            for after in AFTER {
                for before in BEFORE {
                    for tail in ["", " new ( ) [ 0 ] x", " now", " random", " with_capacity"] {
                        assert_agrees(&format!("{before}{name}{after}{tail}"));
                    }
                }
            }
        }
    }

    /// A soup of names, each maybe followed by a follower, and glue.
    fn soup() -> impl Strategy<Value = String> {
        proptest::collection::vec((0usize..4, any::<usize>(), any::<usize>()), 0..64).prop_map(
            |picks| {
                let mut src = String::new();
                for (pick, x, y) in picks {
                    match pick {
                        0 => src.push_str(GLUE[x % GLUE.len()]),
                        1 => src.push_str(NAMES[x % NAMES.len()]),
                        _ => {
                            src.push_str(NAMES[x % NAMES.len()]);
                            src.push_str(AFTER[y % AFTER.len()]);
                        }
                    }
                    if y % 3 != 0 {
                        src.push(' ');
                    }
                }
                src
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// The classifier that skips the tokens that cannot start a site
        /// finds the sites, kind and anchor in order, that classifying
        /// every token finds.
        #[test]
        fn skipping_classifier_matches_the_reference(src in soup()) {
            let scan = FileScan::of(&src);
            prop_assert_eq!(&scan.sites, &reference::classify(&scan), "on {:?}", src);
        }
    }
}
