//! File-level scanning shared by every lint: the significant-token view,
//! `// analyze:` directive parsing (suppressions and hot markers),
//! `#[cfg(test)]` / `#[test]` / `#![cfg(test)]` region detection, the
//! out-of-line test modules a file declares, and the per-file site table
//! (the crate's `sites` module) every pattern-matching pass reads.
//!
//! [`FileScan::of`] is one loop from bytes to tables: it drives the
//! [`Lexer`] one step per significant token or comment (the step skips the
//! whitespace before it), hands each `// analyze:` line comment to
//! directive collection, drops the other comments, and pushes every other
//! token into the significant-token rows together with its punct byte (0
//! for anything that is not a punct). One `match` on that byte keeps one
//! stack of open indices per bracket kind, so each kind nests on its own
//! exactly as a per-kind depth count would, unbalanced input included;
//! every matched pair fills the bracket-partner table, which maps each
//! `(`, `[` and `{` to its close, after the loop. No token that is not
//! significant is stored. [`FileScan::punct`] is then one byte compare and
//! [`FileScan::match_group`] one lookup: no caller walks a group to find
//! its end.
//!
//! A stored row is a token's text, line and kind in 24 bytes; its byte
//! offset is where the text sits in the source, so [`FileScan::tok`]
//! rebuilds the full [`Token`] by value. Partners are `u32` indices.
//!
//! Directives own nothing. A well-formed `allow` becomes a [`Suppression`]
//! that borrows its reason from the comment in the source, names its lint
//! by the [`LINTS`] entry's own `&'static str` code, and stores the two
//! lines it covers inline; only a malformed directive, which is rare,
//! formats a message of its own. So a file's waivers cost no allocation
//! beyond the growth of the suppression list and its index.
//!
//! Directive lookups are indexed rather than rescanned: significant-token
//! lines never decrease, so "the first significant token after line L" is
//! one binary search over the significant tokens, and suppression lookups
//! binary-search a covered-line index built once per file.

use crate::lexer::{Lexer, Token, TokenKind};
use crate::sites::{self, Site};
use crate::LINTS;

/// An inline suppression parsed from `// analyze: allow(LINT, reason=...)`.
///
/// It owns nothing: the lint is the [`LINTS`] entry's own code, the
/// reason a slice of the comment in the source, and the two lines it
/// covers are stored inline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Suppression<'a> {
    /// The lint code the comment allows.
    pub lint: &'static str,
    /// The mandatory justification, trimmed and unquoted. Suppressions
    /// without one do not suppress (they raise `A000` instead), so this is
    /// always non-empty.
    pub reason: &'a str,
    /// Line of the comment itself.
    pub line: u32,
    /// The next line holding a significant token, when the file has one.
    pub next_line: Option<u32>,
}

impl Suppression<'_> {
    /// Lines the suppression covers: the comment's own line and the next
    /// line holding a significant token.
    pub fn covers(&self) -> impl Iterator<Item = u32> {
        std::iter::once(self.line).chain(self.next_line)
    }
}

/// A malformed `// analyze:` directive (missing reason, unknown lint,
/// unknown directive). Reported as lint `A000` and never suppresses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BadDirective {
    /// Line of the comment.
    pub line: u32,
    /// Byte offset of the comment token.
    pub offset: usize,
    /// What is wrong with it.
    pub message: String,
}

/// Inclusive line range.
pub type LineRange = (u32, u32);

/// The line range of a whole file.
pub const WHOLE_FILE: LineRange = (1, u32::MAX);

/// Everything the lints need to know about one file. The tokens and the
/// suppressions borrow the source text, so a scan lives no longer than
/// its source. Directive lookups (`suppression_reason`, the lines a
/// directive covers) are binary searches, not walks of the token list.
#[derive(Debug)]
pub struct FileScan<'a> {
    /// Parsed, well-formed suppressions, in line order.
    pub suppressions: Vec<Suppression<'a>>,
    /// Malformed directives (become `A000` findings).
    pub bad_directives: Vec<BadDirective>,
    /// Brace-balanced regions following `// analyze: hot` markers.
    pub hot_ranges: Vec<LineRange>,
    /// Brace-balanced regions under `#[cfg(test)]` / `#[test]`, and the
    /// region an inner `#![cfg(test)]` marks: the `{ ... }` group around
    /// it, or [`WHOLE_FILE`] at the top level.
    pub test_ranges: Vec<LineRange>,
    /// The out-of-line modules a test attribute marks
    /// (`#[cfg(test)] mod name;`), each as its path relative to this
    /// file's module: `name`, or `a/name` inside `mod a { ... }`. The
    /// files that hold them are test code as a whole
    /// ([`crate::analyze_sources`] marks them so).
    pub(crate) test_mods: Vec<String>,
    /// Every lint and hazard pattern in the file, sorted by anchor.
    pub(crate) sites: Vec<Site>,
    /// `(covered line, index into suppressions)` for every line each
    /// suppression covers, sorted by line and then suppression order.
    covered: Vec<(u32, usize)>,
    /// The scanned source; a row's offset is its text's distance from
    /// the start of it.
    src: &'a str,
    /// The significant tokens (no whitespace, no comments), in source
    /// order: what the lint patterns match over.
    rows: Vec<Row<'a>>,
    /// Per significant token: its byte when it is a punct, else 0.
    pub(crate) puncts: Vec<u8>,
    /// Per significant token: for a `(`, `[` or `{`, the significant index
    /// of its matching close ([`NO_PARTNER`] when it has none).
    partner: Vec<u32>,
}

/// One stored significant token: a [`Token`] without its offset, which
/// [`FileScan::tok`] recomputes from the text's position in the source.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Row<'a> {
    pub(crate) text: &'a str,
    pub(crate) line: u32,
    pub(crate) kind: TokenKind,
}

/// The `partner` entry of every significant token that is not an opener
/// with a matching close.
const NO_PARTNER: u32 = u32::MAX;

impl<'a> FileScan<'a> {
    /// Lexes and scans one file, classifying its sites.
    pub fn of(source: &'a str) -> Self {
        // Dense generated code measures over four bytes a significant
        // token and this repository over six: a third of the length
        // seldom has to grow.
        let cap = source.len() / 3 + 1;
        let mut rows = Vec::with_capacity(cap);
        let mut puncts = Vec::with_capacity(cap);
        // `(opener, close)` significant indices of every matched pair.
        let mut pairs = Vec::new();
        // One stack of open significant indices per bracket kind.
        let (mut parens, mut squares, mut braces) = (Vec::new(), Vec::new(), Vec::new());
        // `(line, offset, directive text)` of every `// analyze:` comment.
        let mut directives = Vec::new();
        let mut lexer = Lexer::new(source);
        while let Some(t) = lexer.next_non_space() {
            let byte = match t.kind {
                TokenKind::Punct => t.text.as_bytes()[0],
                TokenKind::LineComment => {
                    if let Some(d) = directive(t.text) {
                        directives.push((t.line, t.offset, d));
                    }
                    continue;
                }
                TokenKind::BlockComment => continue,
                _ => 0,
            };
            // Like lines, significant indices are `u32`: a source shorter
            // than 4 GiB has fewer tokens, so `k` never reaches
            // `NO_PARTNER`.
            let k = rows.len() as u32;
            match byte {
                b'(' => parens.push(k),
                b'[' => squares.push(k),
                b'{' => braces.push(k),
                b')' => close(&mut parens, &mut pairs, k),
                b']' => close(&mut squares, &mut pairs, k),
                b'}' => close(&mut braces, &mut pairs, k),
                _ => {}
            }
            rows.push(Row {
                text: t.text,
                line: t.line,
                kind: t.kind,
            });
            puncts.push(byte);
        }

        let mut partner = vec![NO_PARTNER; rows.len()];
        for (o, c) in pairs {
            partner[o as usize] = c;
        }
        let mut scan = FileScan {
            src: source,
            rows,
            puncts,
            partner,
            suppressions: Vec::new(),
            bad_directives: Vec::new(),
            hot_ranges: Vec::new(),
            test_ranges: Vec::new(),
            test_mods: Vec::new(),
            sites: Vec::new(),
            covered: Vec::new(),
        };
        scan.collect_directives(directives);
        scan.collect_test_ranges();
        scan.sites = sites::classify(&scan);
        scan
    }

    /// The significant token at significant-index `i`, rebuilt by value
    /// from its stored row.
    #[inline]
    pub fn tok(&self, i: usize) -> Token<'a> {
        let r = self.rows[i];
        Token {
            kind: r.kind,
            text: r.text,
            line: r.line,
            offset: r.text.as_ptr() as usize - self.src.as_ptr() as usize,
        }
    }

    /// The stored row of the significant token at `i`, when there is one.
    #[inline]
    pub(crate) fn row(&self, i: usize) -> Option<Row<'a>> {
        self.rows.get(i).copied()
    }

    /// Number of significant tokens.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the file has no significant tokens.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// True when the significant token at `i` is a punct with this exact
    /// text.
    pub fn punct(&self, i: usize, text: &str) -> bool {
        matches!(text.as_bytes(), &[b] if b != 0 && self.puncts.get(i) == Some(&b))
    }

    /// True when the significant token at `i` is an identifier with this
    /// exact text.
    pub fn ident(&self, i: usize, text: &str) -> bool {
        self.row(i)
            .is_some_and(|r| r.kind == TokenKind::Ident && r.text == text)
    }

    /// True when `line` falls inside any `#[cfg(test)]` / `#[test]` region.
    pub fn in_test(&self, line: u32) -> bool {
        self.test_ranges
            .iter()
            .any(|&(a, b)| (a..=b).contains(&line))
    }

    /// True when `line` falls inside any `// analyze: hot` region.
    pub fn in_hot(&self, line: u32) -> bool {
        self.hot_ranges
            .iter()
            .any(|&(a, b)| (a..=b).contains(&line))
    }

    /// True when a well-formed suppression for `lint` covers `line`.
    pub fn suppressed(&self, lint: &str, line: u32) -> bool {
        self.suppression_reason(lint, line).is_some()
    }

    /// The reason of the well-formed suppression for `lint` covering
    /// `line`, when one exists. When several cover it, the first in
    /// `suppressions` order supplies the reason.
    pub fn suppression_reason(&self, lint: &str, line: u32) -> Option<&'a str> {
        let from = self.covered.partition_point(|&(l, _)| l < line);
        self.covered[from..]
            .iter()
            .take_while(|&&(l, _)| l == line)
            .map(|&(_, s)| &self.suppressions[s])
            .find(|s| s.lint == lint)
            .map(|s| s.reason)
    }

    /// The significant index of the first significant token on a line
    /// strictly after `line` (`len()` when there is none). Significant
    /// tokens' lines never decrease, so this is one binary search.
    fn first_sig_after(&self, line: u32) -> usize {
        self.rows.partition_point(|r| r.line <= line)
    }

    /// Starting from the significant token at `from`, finds the matching
    /// close for the first `open` punct, honoring nesting of
    /// `open`/`close`. Returns the significant index of the close. The
    /// pair must be `(`/`)`, `[`/`]` or `{`/`}`; any other pair has no
    /// group.
    pub fn match_group(&self, from: usize, open: &str, close: &str) -> Option<usize> {
        let (&[o], &[c]) = (open.as_bytes(), close.as_bytes()) else {
            return None;
        };
        if !matches!((o, c), (b'(', b')') | (b'[', b']') | (b'{', b'}')) {
            return None;
        }
        let close = self.partner[self.next_punct(from, o)?];
        (close != NO_PARTNER).then_some(close as usize)
    }

    /// The significant index of the first punct `byte` at or after `from`.
    fn next_punct(&self, from: usize, byte: u8) -> Option<usize> {
        Some(from + self.puncts.get(from..)?.iter().position(|&b| b == byte)?)
    }

    /// Parses the `(line, offset, directive text)` of every `// analyze:`
    /// comment into suppressions, hot ranges and bad directives.
    fn collect_directives(&mut self, directives: Vec<(u32, usize, &'a str)>) {
        for (line, offset, directive) in directives {
            if directive == "hot" {
                if let Some(range) = self.brace_region_after(line) {
                    self.hot_ranges.push(range);
                } else {
                    self.bad_directives.push(BadDirective {
                        line,
                        offset,
                        message: "`analyze: hot` marker with no following `{ ... }` region"
                            .to_string(),
                    });
                }
                continue;
            }
            match parse_allow(directive) {
                Ok((lint, reason)) => {
                    let Some(known) = LINTS.iter().find(|l| l.code == lint) else {
                        self.bad_directives.push(BadDirective {
                            line,
                            offset,
                            message: format!("unknown lint `{lint}` in allow directive"),
                        });
                        continue;
                    };
                    let next_line = self.row(self.first_sig_after(line)).map(|r| r.line);
                    self.suppressions.push(Suppression {
                        lint: known.code,
                        reason,
                        line,
                        next_line,
                    });
                }
                Err(msg) => self.bad_directives.push(BadDirective {
                    line,
                    offset,
                    message: msg,
                }),
            }
        }
        self.hot_ranges.sort_unstable();
        self.suppressions.sort_by_key(|s| s.line);
        self.bad_directives.sort_by_key(|d| d.line);
        self.covered = Vec::with_capacity(2 * self.suppressions.len());
        for (i, s) in self.suppressions.iter().enumerate() {
            self.covered.extend(s.covers().map(|l| (l, i)));
        }
        self.covered.sort_unstable();
    }

    /// The `{ ... }` region opened by the first brace after `line`.
    fn brace_region_after(&self, line: u32) -> Option<LineRange> {
        let open = self.next_punct(self.first_sig_after(line), b'{')?;
        let close = self.match_group(open, "{", "}")?;
        Some((self.tok(open).line, self.tok(close).line))
    }

    /// Finds the test regions and the out-of-line test modules, jumping
    /// from one `#` to the next.
    fn collect_test_ranges(&mut self) {
        let mut ranges = Vec::new();
        let mut test_mods = Vec::new();
        let mut i = 0;
        while let Some(hash) = self.next_punct(i, b'#') {
            i = hash + 1;
            // `#![...]` is an inner attribute: it marks what encloses it.
            let inner = self.punct(hash + 1, "!");
            let open = hash + 1 + usize::from(inner);
            if !self.punct(open, "[") {
                continue;
            }
            let Some(attr_close) = self.match_group(open, "[", "]") else {
                break;
            };
            i = attr_close + 1;
            if !self.is_test_attr(open + 1, attr_close) {
                continue;
            }
            if inner {
                ranges.push(match self.enclosing_braces(hash).last() {
                    Some(&o) => (self.tok(o).line, self.close_line(o)),
                    None => WHOLE_FILE,
                });
                continue;
            }
            // The attached item body: next `{` before any `;`, stepping
            // over the signature's `(...)` and `[...]` groups (a `[u8; 4]`
            // parameter holds a `;`).
            let mut j = attr_close + 1;
            while j < self.len() && !self.punct(j, "{") && !self.punct(j, ";") {
                let group_close = if self.punct(j, "(") {
                    self.match_group(j, "(", ")")
                } else if self.punct(j, "[") {
                    self.match_group(j, "[", "]")
                } else {
                    None
                };
                j = group_close.unwrap_or(j) + 1;
            }
            if self.punct(j, "{") {
                if let Some(close) = self.match_group(j, "{", "}") {
                    ranges.push((self.tok(hash).line, self.tok(close).line));
                    i = close + 1;
                }
            } else if self.punct(j, ";") && self.ident(j - 2, "mod") {
                test_mods.extend(self.module_path(j - 1));
            }
        }
        self.test_ranges = ranges;
        self.test_mods = test_mods;
    }

    /// The significant indices of the `{` openers whose groups enclose
    /// significant index `k`, outermost first. An opener with no close
    /// encloses everything after it.
    fn enclosing_braces(&self, k: usize) -> Vec<usize> {
        let mut enclosing = Vec::new();
        let mut i = 0;
        while let Some(open) = self.next_punct(i, b'{').filter(|&o| o < k) {
            let close = self.partner[open];
            if close == NO_PARTNER || close as usize > k {
                enclosing.push(open);
                i = open + 1;
            } else {
                i = close as usize + 1;
            }
        }
        enclosing
    }

    /// The line of the close matching the `{` at `open`; `u32::MAX`, the
    /// end of the file, when it has none.
    fn close_line(&self, open: usize) -> u32 {
        match self.partner[open] {
            NO_PARTNER => u32::MAX,
            close => self.tok(close as usize).line,
        }
    }

    /// The path, relative to this file's module, of the module the
    /// identifier at `name` declares (`mod name;` gives `name`, the same
    /// inside `mod a { ... }` gives `a/name`); `None` when a group other
    /// than an inline `mod` encloses the declaration.
    fn module_path(&self, name: usize) -> Option<String> {
        let mut path = String::new();
        for open in self.enclosing_braces(name) {
            if open < 2
                || !self.ident(open - 2, "mod")
                || self.tok(open - 1).kind != TokenKind::Ident
            {
                return None;
            }
            path.push_str(self.tok(open - 1).text);
            path.push('/');
        }
        (self.tok(name).kind == TokenKind::Ident).then(|| path + self.tok(name).text)
    }

    /// True when the attribute whose tokens lie in significant indices
    /// `[from, close)` marks test code: `#[test]`, or a `cfg` naming `test`
    /// outside any `not(...)` (`#[cfg(not(test))]` marks live code).
    fn is_test_attr(&self, from: usize, close: usize) -> bool {
        let (mut idents, mut cfg, mut test) = (0, false, false);
        let mut j = from;
        while j < close {
            if self.ident(j, "not") && self.punct(j + 1, "(") {
                j = self.match_group(j + 1, "(", ")").map_or(close, |c| c + 1);
                continue;
            }
            let t = self.tok(j);
            if t.kind == TokenKind::Ident {
                idents += 1;
                cfg |= t.text == "cfg";
                test |= t.text == "test";
            }
            j += 1;
        }
        test && (idents == 1 || cfg)
    }
}

/// Pairs the close at significant index `k` with the innermost opener on
/// its kind's `stack`, when one is open.
#[inline]
fn close(stack: &mut Vec<u32>, pairs: &mut Vec<(u32, u32)>, k: u32) {
    if let Some(o) = stack.pop() {
        pairs.push((o, k));
    }
}

/// The directive text of a line comment that reads `// analyze: ...`
/// (any number of leading slashes), trimmed.
fn directive(comment: &str) -> Option<&str> {
    let body = comment.trim_start_matches('/').trim();
    body.strip_prefix("analyze:").map(str::trim)
}

/// Parses `allow(LINT, reason=...)`; returns `(lint, reason)`, both
/// trimmed slices of `directive`.
fn parse_allow(directive: &str) -> Result<(&str, &str), String> {
    let inner = directive
        .strip_prefix("allow(")
        .and_then(|rest| rest.strip_suffix(')'))
        .ok_or_else(|| {
            format!(
                "unrecognized analyze directive `{directive}` \
                 (expected `hot` or `allow(LINT, reason=...)`)"
            )
        })?;
    let (lint, rest) = inner
        .split_once(',')
        .ok_or_else(|| "allow directive is missing the mandatory reason".to_string())?;
    let reason = rest
        .trim()
        .strip_prefix("reason")
        .and_then(|r| r.trim_start().strip_prefix('='))
        .map(|r| r.trim().trim_matches('"').trim())
        .ok_or_else(|| "allow directive is missing the mandatory reason".to_string())?;
    if reason.is_empty() {
        return Err("allow directive has an empty reason".to_string());
    }
    Ok((lint.trim(), reason))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_well_formed_suppressions_with_coverage() {
        let src = "\
// analyze: allow(D001, reason=\"bench measurement site\")
let t = Instant::now();
";
        let scan = FileScan::of(src);
        assert_eq!(scan.suppressions.len(), 1);
        let s = &scan.suppressions[0];
        assert_eq!(s.lint, "D001");
        assert_eq!(s.reason, "bench measurement site");
        assert_eq!((s.line, s.next_line), (1, Some(2)));
        assert!(scan.suppressed("D001", 2));
        assert!(!scan.suppressed("D002", 2));
        assert!(scan.bad_directives.is_empty());
    }

    #[test]
    fn trailing_same_line_suppression_covers_its_own_line() {
        let src = "let t = Instant::now(); // analyze: allow(D001, reason=wall clock ok here)\n";
        let scan = FileScan::of(src);
        assert!(scan.suppressed("D001", 1));
    }

    #[test]
    fn missing_reason_is_a_bad_directive_and_does_not_suppress() {
        for bad in [
            "// analyze: allow(D001)",
            "// analyze: allow(D001, reason=)",
            "// analyze: allow(D001, reason= \"\" )",
            "// analyze: allow(Z999, reason=\"x\")",
            "// analyze: allos(D001, reason=\"x\")",
        ] {
            let src = format!("{bad}\nlet t = Instant::now();\n");
            let scan = FileScan::of(&src);
            assert!(!scan.suppressed("D001", 2), "must not suppress for {bad}");
            assert_eq!(scan.bad_directives.len(), 1, "must flag {bad}");
        }
    }

    #[test]
    fn hot_marker_attaches_to_the_next_brace_region() {
        let src = "\
fn cold() { x(); }
// analyze: hot
fn walk(xs: &[u64]) -> u64 {
    xs.iter().sum()
}
fn cold2() { y(); }
";
        let scan = FileScan::of(src);
        assert_eq!(scan.hot_ranges, vec![(3, 5)]);
        assert!(scan.in_hot(4));
        assert!(!scan.in_hot(1));
        assert!(!scan.in_hot(6));
    }

    #[test]
    fn cfg_test_modules_and_test_fns_are_ranged() {
        let src = "\
fn live() {}
#[cfg(test)]
mod tests {
    #[test]
    fn t() { panic!(\"fine in tests\"); }
}
";
        let scan = FileScan::of(src);
        assert!(scan.in_test(5));
        assert!(!scan.in_test(1));
    }

    #[test]
    fn cfg_test_on_braceless_item_does_not_swallow_the_file() {
        let src = "\
#[cfg(test)]
use foo::bar;
fn live() {}
";
        let scan = FileScan::of(src);
        assert!(!scan.in_test(3));
    }

    #[test]
    fn semicolon_in_a_test_item_signature_keeps_its_body_in_test() {
        let src = "\
#[cfg(test)]
fn helper(a: [u8; 4]) -> u8 {
    a.first().copied().unwrap()
}
";
        let scan = FileScan::of(src);
        assert_eq!(scan.test_ranges, [(1, 4)]);
        let findings = crate::analyze_source("crates/serve/src/lib.rs", src);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn cfg_not_test_marks_live_code() {
        let src = "\
#[cfg(not(test))]
pub fn live(x: Option<u32>) -> u32 { x.unwrap() }
#[cfg(all(test, not(feature = \"slow\")))]
mod tests { fn t() {} }
";
        let scan = FileScan::of(src);
        assert_eq!(scan.test_ranges, [(3, 4)]);
        let findings = crate::analyze_source("crates/serve/src/lib.rs", src);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!((findings[0].lint.as_str(), findings[0].line), ("P001", 2));
    }

    #[test]
    fn inner_cfg_test_marks_what_encloses_it() {
        let src = "#![cfg(test)]\nfn f() { x.unwrap(); }\n";
        let scan = FileScan::of(src);
        assert_eq!(scan.test_ranges, [WHOLE_FILE]);
        let findings = crate::analyze_source("crates/serve/src/x.rs", src);
        assert!(findings.is_empty(), "{findings:?}");

        // Inside an inline module it marks that module only; other inner
        // attributes mark nothing.
        let src = "\
#![forbid(unsafe_code)]
#![cfg_attr(test, allow(dead_code))]
mod m {
    #![cfg(test)]
    fn g() { y.unwrap(); }
}
fn live() { z.unwrap(); }
";
        let scan = FileScan::of(src);
        assert_eq!(scan.test_ranges, [(3, 6)]);
        let findings = crate::analyze_source("crates/serve/src/x.rs", src);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!((findings[0].lint.as_str(), findings[0].line), ("P001", 7));
    }

    #[test]
    fn out_of_line_test_modules_are_listed_by_path() {
        let src = "\
#[cfg(test)]
mod props;
#[cfg(not(test))]
mod live;
mod a {
    #[cfg(test)]
    pub(crate) mod b;
}
fn f() {
    #[cfg(test)]
    mod c;
}
#[test]
fn t() {}
";
        let scan = FileScan::of(src);
        assert_eq!(scan.test_mods, ["props", "a/b"]);
        assert_eq!(scan.test_ranges, [(13, 14)]);
    }

    #[test]
    fn a_stored_row_is_at_most_24_bytes() {
        assert!(std::mem::size_of::<Row<'_>>() <= 24);
    }
}
