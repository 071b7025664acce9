//! The per-file site table: every lint and hazard pattern, matched once.
//!
//! [`FileScan::of`] classifies each file's significant tokens once, into a
//! list of [`Site`]s: a pattern kind plus the significant index where the
//! pattern starts (its *anchor*). The token lints ([`crate::lints`]), the
//! call-graph extractor ([`crate::graph`]) and the A001 layering lint read
//! this table instead of walking the tokens themselves, so each pattern
//! below is spelled in exactly one place.
//!
//! Classification visits only the tokens a site can start at. The scan
//! gives each significant token one class byte ([`FileScan::of`]): of the
//! puncts only `[` (an index) is visited, and of the identifiers only one
//! that `(`, `!` or `:` follows or one that may start a pattern needing
//! none of them ([`may_start_alone`]). A method site, `.name(`, is found
//! from its name, which `(` follows, and anchored at the `.` before it, so
//! the `.` of a field access is never visited. [`classify`] jumps from one
//! such class byte to the next with a `position` over a 256-entry table,
//! so a token that cannot start a site is never read from the rows; then
//! one `match` on an identifier's name decides every pattern it can
//! start.
//!
//! Sites are sorted by anchor. One anchor can carry two sites
//! (`HashMap::new` is an allocation *and* an unordered map, `thread_rng(`
//! is a call *and* ambient RNG); at one anchor they come in [`SiteKind`]
//! declaration order.

use std::fmt;

use crate::scan::{FileScan, IDENT_ALONE, IDENT_LEADS};

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
            // An `AllocNew` site always has its constructor.
            SiteKind::AllocNew => [
                text(self.at),
                "::",
                path_seg(scan, self.at).map_or("", text),
            ],
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

/// True when an identifier may start a site with no `(`, `!` or `:` after
/// it: its length is that of such a pattern (`HashMap`, `SystemTime`,
/// `thread_rng`, `from_entropy`) or it starts with [`CRATE_PREFIX`]. The
/// scan asks this of every identifier, so the length test is a bit of a
/// mask, not a branch.
#[inline]
pub(crate) fn may_start_alone(name: &str) -> bool {
    const LENGTHS: u64 = 1 << 7 | 1 << 10 | 1 << 12;
    let length = (LENGTHS >> name.len().min(63)) & 1 != 0;
    length | name.starts_with(CRATE_PREFIX)
}

/// The class bytes [`classify`] visits: `[` and the identifiers
/// [`FileScan::of`] marks as candidates.
const STARTS: [bool; 256] = {
    let mut table = [false; 256];
    table[b'[' as usize] = true;
    table[IDENT_ALONE as usize] = true;
    table[IDENT_LEADS as usize] = true;
    table
};

/// Classifies the significant tokens of `scan` into their sites, sorted
/// by anchor.
///
/// Only a `[`, a candidate identifier or the `.` before a candidate can
/// start a site, so the class table is searched for the next `[` or
/// candidate and every other token is passed over unread; one `match` on
/// an identifier's name classifies the rest.
pub(crate) fn classify(scan: &FileScan<'_>) -> Vec<Site> {
    use SiteKind::*;
    let classes = &scan.classes[..];
    // The class byte at `i`; 0 past either end.
    let class = |i: usize| classes.get(i).copied().unwrap_or(0);
    let mut sites = Vec::new();
    let mut from = 0;
    while let Some(skipped) = classes[from..].iter().position(|&c| STARTS[usize::from(c)]) {
        let i = from + skipped;
        from = i + 1;
        if classes[i] == b'[' {
            if i > 0 && is_index_base(scan, i - 1) {
                if let Some(close) = scan.match_group(i, "[", "]") {
                    if !classes[i + 1..close].windows(2).any(|w| w == b"..") {
                        sites.push(Site { kind: Index, at: i });
                    }
                }
            }
            continue;
        }
        let name = scan.text(i);
        let next = class(i + 1);
        // A method site, `.name(`, is anchored at the `.` before the name:
        // the name is a candidate, as `(` follows it, and the `.` is not.
        if next == b'(' && class(i.wrapping_sub(1)) == b'.' {
            let method = match name {
                "span" => Some(Span),
                "emit" => Some(Emit),
                "unwrap" | "expect" => Some(PanicMethod),
                "to_vec" | "to_string" | "to_owned" | "collect" | "clone" => Some(AllocMethod),
                _ => None,
            };
            sites.extend(method.map(|kind| Site { kind, at: i - 1 }));
        }
        let mut push = |kind| sites.push(Site { kind, at: i });
        // `name::seg` or `name::<..>::seg` where `seg` passes `is_seg`.
        let path_to =
            |is_seg: fn(&str) -> bool| path_seg(scan, i).is_some_and(|j| is_seg(scan.text(j)));
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
        if next == b'(' && class(i.wrapping_sub(1)) != b'!' && !scan.ident(i.wrapping_sub(1), "fn")
        {
            push(Call);
        }
        first.into_iter().chain(second).for_each(push);
    }
    sites
}

/// The significant index of `seg` in the path `name::seg` or, with a
/// turbofish, `name::<..>::seg`, the identifier `name` being at `i`.
/// The generic group is skipped by `<`/`>` depth (a `>>` is two closers)
/// and ends the search at a `;` or a `{` before it closes, or at the end
/// of the file.
fn path_seg(scan: &FileScan<'_>, i: usize) -> Option<usize> {
    let path = |j: usize| scan.punct(j, ":") && scan.punct(j + 1, ":");
    if !path(i + 1) {
        return None;
    }
    let mut seg = i + 3;
    if scan.punct(seg, "<") {
        let mut depth = 0usize;
        loop {
            match scan.classes.get(seg)? {
                b'<' => depth += 1,
                b'>' => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                b';' | b'{' => return None,
                _ => {}
            }
            seg += 1;
        }
        if !path(seg + 1) {
            return None;
        }
        seg += 3;
    }
    scan.is_ident(seg).then_some(seg)
}

/// True when the significant token at `i` can be the base expression of an
/// index (`x[i]`, `f()[i]`, `a[i][j]`).
fn is_index_base(scan: &FileScan<'_>, i: usize) -> bool {
    match scan.classes[i] {
        IDENT_ALONE..=IDENT_LEADS => !matches!(scan.text(i), keyword!()),
        c => matches!(c, b')' | b']'),
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

    /// What can follow a name: each punct a site needs, a turbofish, a
    /// comment before a `(`, a `[` that is never closed, and a plain
    /// token.
    const AFTER: &[&str] = &[
        "(", "!", "::", "::<u8>::", ".", "[", " y", "/* c */(", "// c\n(", "[0",
    ];

    /// What can precede a name: the tokens the call and method rules
    /// look back or ahead at, or nothing.
    const BEFORE: &[&str] = &["", "fn ", "!", ".", "x ", ")", "]"];

    /// Pieces between names: closers, ranges, literals, comments, generic
    /// brackets, and paths and macros cut short (at the end of input when
    /// a soup ends with one).
    const GLUE: &[&str] = &[
        ")",
        "]",
        "..",
        "{",
        "}",
        ";",
        "0",
        "\"s\"",
        "'a",
        "// c\n",
        "/* c */",
        "::",
        "(",
        "[",
        "::<u8>",
        "<",
        ">",
        ">>",
        "HashMap::",
        "vec!",
        "x /* c */ (",
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
