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

    /// The site's short rendering (`.unwrap()`, `vec!`, `Vec::new`, ...).
    pub(crate) fn what(self, scan: &FileScan<'_>) -> String {
        let text = |i: usize| scan.tok(i).text;
        match self.kind {
            SiteKind::PanicMethod | SiteKind::AllocMethod => format!(".{}()", text(self.at + 1)),
            SiteKind::PanicMacro | SiteKind::AllocMacro => format!("{}!", text(self.at)),
            SiteKind::AllocNew => format!("{}::{}", text(self.at), text(self.at + 3)),
            SiteKind::Index => "[..] indexing".to_string(),
            SiteKind::InstantNow => "Instant::now".to_string(),
            SiteKind::RandRandom => "rand::random".to_string(),
            _ => text(self.at).to_string(),
        }
    }
}

/// Keywords that neither name a callee before `(` nor end an index base
/// before `[`.
const KEYWORDS: &[&str] = &[
    "as", "box", "break", "const", "continue", "crate", "dyn", "else", "enum", "fn", "for", "if",
    "impl", "in", "let", "loop", "match", "move", "mut", "pub", "ref", "return", "static",
    "struct", "trait", "type", "unsafe", "use", "where", "while", "yield",
];
/// Words besides [`KEYWORDS`] that precede `(` without being calls.
const NON_CALL_WORDS: &[&str] = &["Some", "Ok", "Err"];

/// Methods that can panic on the callee.
const PANIC_METHODS: &[&str] = &["unwrap", "expect"];
/// Unconditional panic macros (`assert*` guards an invariant instead).
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];
/// Container types whose `::new` / `::with_capacity` allocate.
const ALLOC_TYPES: &[&str] = &[
    "Vec", "String", "Box", "VecDeque", "HashMap", "HashSet", "BTreeMap", "BTreeSet", "Arc", "Rc",
];
/// Constructors of [`ALLOC_TYPES`] that allocate.
const ALLOC_CONSTRUCTORS: &[&str] = &["new", "with_capacity"];
/// Macros that allocate.
const ALLOC_MACROS: &[&str] = &["vec", "format"];
/// Methods that allocate on the callee.
const ALLOC_METHODS: &[&str] = &["to_vec", "to_string", "to_owned", "collect", "clone"];
/// Ambient (unseeded) RNG constructors.
const AMBIENT_RNG: &[&str] = &["thread_rng", "from_entropy"];
/// Maps whose iteration order is unspecified.
const UNORDERED_MAPS: &[&str] = &["HashMap", "HashSet"];
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
                let path_to = |segs: &[&str]| {
                    scan.punct(i + 1, ":")
                        && scan.punct(i + 2, ":")
                        && segs.iter().any(|s| scan.ident(i + 3, s))
                };
                let bang = scan.punct(i + 1, "!");
                if scan.punct(i + 1, "(")
                    && !KEYWORDS.contains(&name)
                    && !NON_CALL_WORDS.contains(&name)
                    && !scan.punct(i.wrapping_sub(1), "!")
                    && !scan.ident(i.wrapping_sub(1), "fn")
                {
                    push(SiteKind::Call);
                }
                if bang && PANIC_MACROS.contains(&name) {
                    push(SiteKind::PanicMacro);
                }
                if ALLOC_TYPES.contains(&name) && path_to(ALLOC_CONSTRUCTORS) {
                    push(SiteKind::AllocNew);
                }
                if bang && ALLOC_MACROS.contains(&name) {
                    push(SiteKind::AllocMacro);
                }
                match name {
                    "Instant" if path_to(&["now"]) => push(SiteKind::InstantNow),
                    "SystemTime" => push(SiteKind::SystemTimeUse),
                    "rand" if path_to(&["random"]) => push(SiteKind::RandRandom),
                    _ if AMBIENT_RNG.contains(&name) => push(SiteKind::AmbientRng),
                    _ if UNORDERED_MAPS.contains(&name) => push(SiteKind::UnorderedMap),
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
                    m if PANIC_METHODS.contains(&m) => push(SiteKind::PanicMethod),
                    m if ALLOC_METHODS.contains(&m) => push(SiteKind::AllocMethod),
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
        TokenKind::Ident => !KEYWORDS.contains(&t.text),
        TokenKind::Punct => t.text == ")" || t.text == "]",
        _ => false,
    }
}
