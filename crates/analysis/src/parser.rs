//! A lightweight item parser over the lossless token stream.
//!
//! The interprocedural tier (call graph, reachability lints) needs to know
//! *which function* a token belongs to, not full expression syntax — so
//! this parser recognizes item structure only: `fn` / `impl` / `trait` /
//! `mod` / `use` / everything-else, nested, each with a byte + line span
//! and (for functions) the significant-token range of the body.
//!
//! It is recovery-oriented and never fails: unrecognized constructs become
//! [`ItemKind::Other`] items that extend to the next top-level `;` or
//! brace group, so the item spans of a file always **tile** its
//! significant tokens — every significant token belongs to exactly one
//! top-level item, with no gaps and no overlaps (pinned by a proptest in
//! `tests/parser_tiling.rs`). Tiling is what guarantees the call-graph
//! tier cannot silently skip a region of source the way a lost parse
//! would.
//!
//! Items borrow their names: a name or self type is a slice of the
//! source (`<anonymous>` / `<unknown>` when there is none), and only a
//! `use` path, joined from several tokens, owns its text. The items of
//! every list being parsed sit on one stack, and a finished list moves
//! off it into a `Vec` of its exact size, so a file's parse allocates one
//! list per item list and the stack's growth, not per item.

use crate::lexer::TokenKind;
use crate::scan::FileScan;

/// Byte + line extent of one item, attributes included.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Byte offset of the item's first significant token.
    pub start: usize,
    /// Byte offset one past the item's last significant token.
    pub end: usize,
    /// 1-based line of the first significant token.
    pub line_start: u32,
    /// 1-based line of the last significant token.
    pub line_end: u32,
}

/// What kind of item a parsed node is. Names are slices of the source
/// (`<anonymous>` / `<unknown>` when the item has none).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ItemKind<'a> {
    /// `fn name(...) { ... }` (or a bodyless trait-method declaration).
    Fn {
        /// The function's name.
        name: &'a str,
        /// True when the parameter list starts with a `self` receiver.
        has_self: bool,
        /// Significant-token index range `[open_brace, close_brace]` of
        /// the body, when the function has one.
        body: Option<(usize, usize)>,
    },
    /// `impl Type { ... }` / `impl Trait for Type { ... }`.
    Impl {
        /// Last path segment of the implemented-for type.
        self_ty: &'a str,
        /// The associated items.
        items: Vec<Item<'a>>,
    },
    /// `trait Name { ... }`.
    Trait {
        /// The trait's name.
        name: &'a str,
        /// The trait's associated items.
        items: Vec<Item<'a>>,
    },
    /// `mod name { ... }` or `mod name;`.
    Mod {
        /// The module's name.
        name: &'a str,
        /// Items of an inline module body (empty for `mod name;`).
        items: Vec<Item<'a>>,
    },
    /// `use path::to::thing;` — `path` is the significant-token text
    /// joined without whitespace (`a::b::{c, d}`).
    Use {
        /// The import path text.
        path: String,
    },
    /// Any other item (struct/enum/const/static/type/macro/extern/...),
    /// kept so spans still tile.
    Other,
}

/// One parsed item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Item<'a> {
    /// Structural classification.
    pub kind: ItemKind<'a>,
    /// Byte + line extent.
    pub span: Span,
    /// Inclusive significant-token index range `[first, last]` the item
    /// covers.
    pub sig_range: (usize, usize),
}

/// Parses the file's top-level items. Always succeeds; see the module
/// docs for the tiling guarantee.
pub fn parse_items<'a>(scan: &FileScan<'a>) -> Vec<Item<'a>> {
    let mut p = Parser {
        scan,
        pos: 0,
        stack: Vec::new(),
    };
    p.items(None)
}

/// Modifier / qualifier keywords that may precede an item keyword.
const MODIFIERS: &[&str] = &["pub", "const", "unsafe", "async", "extern", "default"];

struct Parser<'s, 'a> {
    scan: &'s FileScan<'a>,
    pos: usize,
    /// The items of every list still being parsed, innermost list last:
    /// a finished list moves off the top into a `Vec` of its exact size.
    stack: Vec<Item<'a>>,
}

impl<'a> Parser<'_, 'a> {
    fn len(&self) -> usize {
        self.scan.len()
    }

    fn ident_at(&self, i: usize) -> Option<&'a str> {
        let t = self.scan.row(i)?;
        (t.kind == TokenKind::Ident).then_some(t.text)
    }

    /// Parses items until `close` (a `}` significant index) or EOF.
    fn items(&mut self, close: Option<usize>) -> Vec<Item<'a>> {
        let base = self.stack.len();
        let end = close.unwrap_or(self.len());
        while self.pos < end {
            let start = self.pos;
            let item = self.item(end);
            debug_assert!(self.pos > start, "parser must always make progress");
            if self.pos <= start {
                // Defensive: never loop; swallow one token as Other.
                self.pos = start + 1;
            }
            self.stack.push(item);
        }
        // Step past the closing `}` of a nested body; at top level, stay
        // at EOF.
        self.pos = match close {
            Some(c) => c + 1,
            None => end,
        };
        self.stack.drain(base..).collect()
    }

    /// Parses one item starting at `self.pos`, never reading past `end`.
    fn item(&mut self, end: usize) -> Item<'a> {
        let first = self.pos;

        // Leading attributes: `#[...]` / `#![...]`.
        while self.scan.punct(self.pos, "#") && self.pos < end {
            let mut j = self.pos + 1;
            if self.scan.punct(j, "!") {
                j += 1;
            }
            if self.scan.punct(j, "[") {
                match self.scan.match_group(j, "[", "]") {
                    Some(close) if close < end => self.pos = close + 1,
                    _ => {
                        self.pos = end;
                        return self.mk(first, end.saturating_sub(1), ItemKind::Other);
                    }
                }
            } else {
                break;
            }
        }

        // Visibility / qualifiers: `pub(crate) const unsafe extern "C" ...`.
        while let Some(word) = self.ident_at(self.pos) {
            if !MODIFIERS.contains(&word) {
                break;
            }
            // `const NAME: T = ...;` / `static` items vs `const fn`:
            // `const` is a modifier only when followed by `fn`-ish tokens.
            if word == "const"
                && !matches!(
                    self.ident_at(self.pos + 1),
                    Some("fn" | "unsafe" | "extern" | "async")
                )
            {
                break;
            }
            let saw_extern = word == "extern";
            self.pos += 1;
            if self.scan.punct(self.pos, "(") {
                // pub(crate) / pub(in path)
                if let Some(close) = self.scan.match_group(self.pos, "(", ")") {
                    self.pos = close + 1;
                }
            }
            if saw_extern && self.pos < end && self.scan.tok(self.pos).kind == TokenKind::Literal {
                self.pos += 1; // the ABI string in `extern "C"`
            }
        }

        let Some(keyword) = self.ident_at(self.pos) else {
            return self.other(first, end);
        };

        match keyword {
            "fn" => self.fn_item(first, end),
            "impl" => self.impl_item(first, end),
            "trait" => self.trait_item(first, end),
            "mod" => self.mod_item(first, end),
            "use" => {
                self.pos += 1;
                let path_start = self.pos;
                while self.pos < end && !self.scan.punct(self.pos, ";") {
                    self.pos += 1;
                }
                let texts = (path_start..self.pos).map(|i| self.scan.tok(i).text);
                let mut path = String::with_capacity(texts.clone().map(str::len).sum());
                texts.for_each(|t| path.push_str(t));
                let last = self.pos.min(end.saturating_sub(1));
                if self.pos < end {
                    self.pos += 1; // the `;`
                }
                self.mk(first, last, ItemKind::Use { path })
            }
            _ => self.other(first, end),
        }
    }

    fn fn_item(&mut self, first: usize, end: usize) -> Item<'a> {
        self.pos += 1; // `fn`
        let name = self.ident_at(self.pos).unwrap_or("<anonymous>");
        if self.pos < end {
            self.pos += 1;
        }
        // Optional generics: `<...>` with nesting. `<` can only be the
        // generic opener here (between the name and the parameter list).
        if self.scan.punct(self.pos, "<") {
            let mut depth = 0usize;
            while self.pos < end {
                if self.scan.punct(self.pos, "<") {
                    depth += 1;
                } else if self.scan.punct(self.pos, ">") {
                    depth -= 1;
                    if depth == 0 {
                        self.pos += 1;
                        break;
                    }
                }
                self.pos += 1;
            }
        }
        // Parameter list.
        let mut has_self = false;
        if self.scan.punct(self.pos, "(") {
            if let Some(close) = self.scan.match_group(self.pos, "(", ")") {
                has_self = (self.pos + 1..close)
                    .take(4)
                    .any(|j| self.scan.ident(j, "self"));
                self.pos = close + 1;
            } else {
                return self.other_from(first, end);
            }
        }
        // Return type / where clause: scan to the body `{` or a `;` at
        // bracket depth 0. Parens and brackets nest (`-> impl Fn(A) -> B`).
        let mut depth = 0usize;
        while self.pos < end {
            if self.scan.punct(self.pos, "(") || self.scan.punct(self.pos, "[") {
                depth += 1;
            } else if self.scan.punct(self.pos, ")") || self.scan.punct(self.pos, "]") {
                depth = depth.saturating_sub(1);
            } else if depth == 0 && self.scan.punct(self.pos, ";") {
                let last = self.pos;
                self.pos += 1;
                return self.mk(
                    first,
                    last,
                    ItemKind::Fn {
                        name,
                        has_self,
                        body: None,
                    },
                );
            } else if depth == 0 && self.scan.punct(self.pos, "{") {
                break;
            }
            self.pos += 1;
        }
        let Some(close) = self.scan.match_group(self.pos, "{", "}") else {
            return self.other_from(first, end);
        };
        let open = self.pos;
        self.pos = close + 1;
        self.mk(
            first,
            close,
            ItemKind::Fn {
                name,
                has_self,
                body: Some((open, close)),
            },
        )
    }

    fn impl_item(&mut self, first: usize, end: usize) -> Item<'a> {
        self.pos += 1; // `impl`
                       // Header: everything up to the `{` at angle-depth 0. The
                       // implemented-for type is the last angle-depth-0 ident of the
                       // header (after `for` when present): `impl fmt::Display for
                       // ServingReport` -> `ServingReport`, `impl<B> Foo<B>` -> `Foo`.
        let mut self_ty = "<unknown>";
        let mut angle = 0usize;
        while self.pos < end && !(angle == 0 && self.scan.punct(self.pos, "{")) {
            let t = self.scan.tok(self.pos);
            match (t.kind, t.text) {
                (TokenKind::Punct, "<") => angle += 1,
                (TokenKind::Punct, ">") => angle = angle.saturating_sub(1),
                (TokenKind::Ident, "where") if angle == 0 => {
                    // Bounds only from here on; the type came before.
                    while self.pos < end && !self.scan.punct(self.pos, "{") {
                        self.pos += 1;
                    }
                    break;
                }
                (TokenKind::Ident, name) if angle == 0 => self_ty = name,
                _ => {}
            }
            if !(angle == 0 && self.scan.punct(self.pos, "{")) {
                self.pos += 1;
            }
        }
        let Some(close) = self.scan.match_group(self.pos, "{", "}") else {
            return self.other_from(first, end);
        };
        self.pos += 1; // the `{`
        let items = self.items(Some(close));
        self.mk(first, close, ItemKind::Impl { self_ty, items })
    }

    fn trait_item(&mut self, first: usize, end: usize) -> Item<'a> {
        self.pos += 1; // `trait`
        let name = self.ident_at(self.pos).unwrap_or("<anonymous>");
        // Header (generics, supertraits, where clause) up to `{` or `;`
        // at angle-depth 0 (`trait Alias = Bound;` ends without a body).
        let mut angle = 0usize;
        while self.pos < end {
            if self.scan.punct(self.pos, "<") {
                angle += 1;
            } else if self.scan.punct(self.pos, ">") {
                angle = angle.saturating_sub(1);
            } else if angle == 0 && self.scan.punct(self.pos, "{") {
                break;
            } else if angle == 0 && self.scan.punct(self.pos, ";") {
                let last = self.pos;
                self.pos += 1;
                return self.mk(
                    first,
                    last,
                    ItemKind::Trait {
                        name,
                        items: Vec::new(),
                    },
                );
            }
            self.pos += 1;
        }
        let Some(close) = self.scan.match_group(self.pos, "{", "}") else {
            return self.other_from(first, end);
        };
        self.pos += 1;
        let items = self.items(Some(close));
        self.mk(first, close, ItemKind::Trait { name, items })
    }

    fn mod_item(&mut self, first: usize, end: usize) -> Item<'a> {
        self.pos += 1; // `mod`
        let name = self.ident_at(self.pos).unwrap_or("<anonymous>");
        if self.pos < end {
            self.pos += 1;
        }
        if self.scan.punct(self.pos, ";") {
            let last = self.pos;
            self.pos += 1;
            return self.mk(
                first,
                last,
                ItemKind::Mod {
                    name,
                    items: Vec::new(),
                },
            );
        }
        let Some(close) = self.scan.match_group(self.pos, "{", "}") else {
            return self.other_from(first, end);
        };
        self.pos += 1;
        let items = self.items(Some(close));
        self.mk(first, close, ItemKind::Mod { name, items })
    }

    /// Recovery: consume to the next `;` at depth 0 or through the next
    /// brace group, whichever comes first, and emit an `Other` item.
    fn other(&mut self, first: usize, end: usize) -> Item<'a> {
        let mut depth = 0usize;
        while self.pos < end {
            let t = self.scan.tok(self.pos);
            if t.kind == TokenKind::Punct {
                match t.text {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth = depth.saturating_sub(1),
                    ";" if depth == 0 => {
                        let last = self.pos;
                        self.pos += 1;
                        return self.mk(first, last, ItemKind::Other);
                    }
                    "{" if depth == 0 => {
                        if let Some(close) = self.scan.match_group(self.pos, "{", "}") {
                            // `struct S { .. }` ends at the brace group;
                            // `macro_rules! m { .. }` too. A trailing `;`
                            // (tuple struct, macro stmt) joins the item.
                            self.pos = close + 1;
                            if self.scan.punct(self.pos, ";") && self.pos < end {
                                let last = self.pos;
                                self.pos += 1;
                                return self.mk(first, last, ItemKind::Other);
                            }
                            return self.mk(first, close, ItemKind::Other);
                        }
                        self.pos = end;
                        return self.mk(first, end.saturating_sub(1), ItemKind::Other);
                    }
                    _ => {}
                }
            }
            self.pos += 1;
        }
        self.mk(first, end.saturating_sub(1).max(first), ItemKind::Other)
    }

    /// Like [`Self::other`], but used when a structured parse lost its
    /// footing mid-item: resumes consumption from the current position.
    fn other_from(&mut self, first: usize, end: usize) -> Item<'a> {
        self.other(first, end)
    }

    /// Builds an item spanning significant indices `[first, last]`.
    fn mk(&self, first: usize, last: usize, kind: ItemKind<'a>) -> Item<'a> {
        let last = last.clamp(first, self.len().saturating_sub(1));
        let a = self.scan.tok(first);
        let b = self.scan.tok(last);
        Item {
            kind,
            span: Span {
                start: a.offset,
                end: b.end_offset(),
                line_start: a.line,
                line_end: b.line,
            },
            sig_range: (first, last),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> Vec<Item<'_>> {
        parse_items(&FileScan::of(src))
    }

    fn names(items: &[Item]) -> Vec<String> {
        items
            .iter()
            .map(|i| match &i.kind {
                ItemKind::Fn { name, .. } => format!("fn {name}"),
                ItemKind::Impl { self_ty, .. } => format!("impl {self_ty}"),
                ItemKind::Trait { name, .. } => format!("trait {name}"),
                ItemKind::Mod { name, .. } => format!("mod {name}"),
                ItemKind::Use { path } => format!("use {path}"),
                ItemKind::Other => "other".to_string(),
            })
            .collect()
    }

    #[test]
    fn parses_top_level_items_with_names() {
        let src = "\
use std::collections::BTreeMap;
pub struct Config { pub n: usize }
pub fn free(n: usize) -> usize { n + 1 }
impl Engine {
    pub fn run(&self) -> u64 { self.step() }
    fn step(&self) -> u64 { 7 }
}
mod inner {
    pub fn helper() {}
}
";
        let items = parse(src);
        assert_eq!(
            names(&items),
            [
                "use std::collections::BTreeMap",
                "other",
                "fn free",
                "impl Engine",
                "mod inner",
            ]
        );
        let ItemKind::Impl { items: assoc, .. } = &items[3].kind else {
            panic!("expected impl");
        };
        assert_eq!(names(assoc), ["fn run", "fn step"]);
        let ItemKind::Fn { has_self, body, .. } = &assoc[0].kind else {
            panic!("expected fn");
        };
        assert!(*has_self);
        assert!(body.is_some());
    }

    #[test]
    fn impl_trait_for_type_resolves_the_type() {
        let items = parse("impl fmt::Display for ServingReport { fn fmt(&self) {} }\n");
        assert_eq!(names(&items), ["impl ServingReport"]);
        let items = parse("impl<B: Backend> Roster<B> { fn new() -> Self { x } }\n");
        assert_eq!(names(&items), ["impl Roster"]);
        let items = parse("impl Router for RoundRobin where R: Sized { fn pick(&self) {} }\n");
        assert_eq!(names(&items), ["impl RoundRobin"]);
    }

    #[test]
    fn trait_methods_with_and_without_bodies() {
        let src = "\
pub trait Router {
    fn pick(&mut self, n: usize) -> usize;
    fn name(&self) -> &'static str { \"rr\" }
}
";
        let items = parse(src);
        assert_eq!(names(&items), ["trait Router"]);
        let ItemKind::Trait { items: assoc, .. } = &items[0].kind else {
            panic!("expected trait");
        };
        assert_eq!(names(assoc), ["fn pick", "fn name"]);
        let ItemKind::Fn { body, .. } = &assoc[0].kind else {
            panic!()
        };
        assert!(body.is_none());
    }

    #[test]
    fn const_static_and_macros_are_other_items() {
        let src = "\
const N: usize = 4;
static TABLE: [u8; 2] = [1, 2];
macro_rules! m { () => {}; }
pub const fn answer() -> u32 { 42 }
";
        let items = parse(src);
        assert_eq!(names(&items), ["other", "other", "other", "fn answer"]);
    }

    #[test]
    fn generic_fns_and_weird_signatures_parse() {
        let src = "\
fn map<T, F: Fn(T) -> T>(xs: Vec<T>, f: F) -> Vec<T> { xs }
fn to(x: impl Iterator<Item = (u8, u8)>) -> impl Fn(usize) -> bool { move |_| true }
extern \"C\" fn callback(n: i32) -> i32 { n }
";
        let items = parse(src);
        assert_eq!(names(&items), ["fn map", "fn to", "fn callback"]);
    }

    #[test]
    fn spans_tile_significant_tokens() {
        let src = "\
use a::b;
fn f() { let x = [1, 2]; }
struct S;
impl S { fn g(&self) {} }
";
        let scan = FileScan::of(src);
        let items = parse_items(&scan);
        let mut next = 0usize;
        for item in &items {
            assert_eq!(item.sig_range.0, next, "gap/overlap at {item:?}");
            assert!(item.sig_range.1 >= item.sig_range.0);
            next = item.sig_range.1 + 1;
        }
        assert_eq!(next, scan.len(), "trailing tokens uncovered");
    }

    #[test]
    fn nested_mod_and_byte_spans_are_consistent() {
        let src = "mod outer { mod inner { fn deep() {} } }\n";
        let items = parse(src);
        let ItemKind::Mod {
            items: outer_items, ..
        } = &items[0].kind
        else {
            panic!("expected mod");
        };
        let ItemKind::Mod {
            items: inner_items, ..
        } = &outer_items[0].kind
        else {
            panic!("expected inner mod");
        };
        assert_eq!(names(inner_items), ["fn deep"]);
        assert!(items[0].span.start < outer_items[0].span.start);
        assert!(items[0].span.end >= outer_items[0].span.end);
        assert_eq!(items[0].span.line_start, 1);
    }
}
