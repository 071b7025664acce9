//! The scan's indexed directive lookups agree with a linear scan.
//!
//! `FileScan` answers "the next significant line after L" with a binary
//! search over `sig`, and `suppression_reason` with a binary search over a
//! covered-line index. This test rebuilds every answer the slow way — one
//! linear walk of the significant tokens (`tok`) per directive, with the
//! directive comments read from `lex` — over
//! files built from the lexer fragments with `allow(...)`, `hot` and
//! `#[cfg(test)]` lines sprinkled in, and asserts both agree on every
//! lint and every line.
//!
//! `FileScan::of` lexes and keeps only the significant tokens in one
//! loop. A property checks that what it keeps is exactly `lex` with
//! whitespace and comments filtered out — kind, text, line and offset —
//! over soups of the lexer fragments, CRLF line ends and directives.
//!
//! `punct` reads a per-token byte table and `match_group` a bracket-partner
//! index. A second property checks both, for every bracket pair and every
//! start index, against the per-kind depth walk they replaced, over
//! bracket soups that are unbalanced and interleave the three kinds.

use proptest::prelude::*;

use mlscore_analysis::lexer::{lex, Token, TokenKind};
use mlscore_analysis::scan::FileScan;
use mlscore_analysis::LINTS;

mod fragments;
use fragments::POOL;

/// What a directive comment is expected to become.
#[derive(Debug, Clone, Copy)]
enum Want {
    /// A well-formed suppression of `(lint, reason)`.
    Allow(&'static str, &'static str),
    /// A hot marker: a range when a brace region follows, else a bad
    /// directive.
    Hot,
    /// A malformed directive.
    Bad,
}

/// Directive bodies (after `// analyze:`) and what each becomes. Two
/// `D001` allows with different reasons exercise the first-wins rule.
const DIRECTIVES: &[(&str, Want)] = &[
    (
        "allow(D001, reason=\"first\")",
        Want::Allow("D001", "first"),
    ),
    (
        "allow(D001, reason=\"second\")",
        Want::Allow("D001", "second"),
    ),
    (
        "allow(P001, reason=checked)",
        Want::Allow("P001", "checked"),
    ),
    ("hot", Want::Hot),
    ("allow(D001)", Want::Bad),
    ("allow(Z999, reason=\"z\")", Want::Bad),
];

/// Structural fragments that give hot markers braces to find and
/// suppressions significant lines to cover.
const EXTRA: &[&str] = &[
    "fn f() {",
    "}",
    "let t = Instant::now();",
    "\n",
    "\n#[cfg(test)]\n",
];

/// One piece of a generated file.
#[derive(Debug, Clone, Copy)]
enum Piece {
    Fragment(usize),
    Extra(usize),
    /// A directive on a line of its own.
    Line(usize),
    /// A directive trailing code on the same line.
    Trailing(usize),
}

fn piece() -> impl Strategy<Value = Piece> {
    prop_oneof![
        (0usize..POOL.len()).prop_map(Piece::Fragment),
        (0usize..EXTRA.len()).prop_map(Piece::Extra),
        (0usize..DIRECTIVES.len()).prop_map(Piece::Line),
        (0usize..DIRECTIVES.len()).prop_map(Piece::Trailing),
    ]
}

fn render(pieces: &[Piece]) -> String {
    pieces
        .iter()
        .map(|p| match *p {
            Piece::Fragment(i) => POOL[i].to_string(),
            Piece::Extra(i) => EXTRA[i].to_string(),
            Piece::Line(i) => format!("\n// analyze: {}\n", DIRECTIVES[i].0),
            Piece::Trailing(i) => format!("\nx; // analyze: {}\n", DIRECTIVES[i].0),
        })
        .collect()
}

/// A suppression as the linear reference computes it.
#[derive(Debug, PartialEq)]
struct RefSuppression {
    lint: String,
    reason: String,
    line: u32,
    covers: Vec<u32>,
}

/// Every directive lookup answered by linear scans of the significant
/// tokens.
#[derive(Debug, Default, PartialEq)]
struct Reference {
    suppressions: Vec<RefSuppression>,
    hot_ranges: Vec<(u32, u32)>,
    /// `(line, offset)` of each malformed directive.
    bad: Vec<(u32, usize)>,
}

fn sig_line(scan: &FileScan<'_>, k: usize) -> u32 {
    scan.tok(k).line
}

fn sig_punct(scan: &FileScan<'_>, k: usize, text: &str) -> bool {
    let t = scan.tok(k);
    t.kind == TokenKind::Punct && t.text == text
}

/// The first significant index on a line after `line`, walking from the
/// start of the file.
fn first_after(scan: &FileScan<'_>, line: u32) -> Option<usize> {
    (0..scan.len()).find(|&k| sig_line(scan, k) > line)
}

/// The brace region opened by the first `{` after `line`, matched by a
/// linear depth count.
fn brace_region(scan: &FileScan<'_>, line: u32) -> Option<(u32, u32)> {
    let open = (first_after(scan, line)?..scan.len()).find(|&k| sig_punct(scan, k, "{"))?;
    let close = match_group_by_walk(scan, open, "{", "}")?;
    Some((sig_line(scan, open), sig_line(scan, close)))
}

fn reference(src: &str, scan: &FileScan<'_>) -> Result<Reference, String> {
    let mut r = Reference::default();
    for t in lex(src)
        .into_iter()
        .filter(|t| t.kind == TokenKind::LineComment)
    {
        let Some(body) = t
            .text
            .trim_start_matches('/')
            .trim()
            .strip_prefix("analyze:")
        else {
            continue;
        };
        let body = body.trim();
        let want = DIRECTIVES
            .iter()
            .find(|(d, _)| *d == body)
            .map(|&(_, w)| w)
            .ok_or_else(|| format!("unexpected directive {body:?}"))?;
        match want {
            Want::Allow(lint, reason) => {
                let mut covers = vec![t.line];
                covers.extend(first_after(scan, t.line).map(|k| sig_line(scan, k)));
                r.suppressions.push(RefSuppression {
                    lint: lint.to_string(),
                    reason: reason.to_string(),
                    line: t.line,
                    covers,
                });
            }
            Want::Hot => match brace_region(scan, t.line) {
                Some(range) => r.hot_ranges.push(range),
                None => r.bad.push((t.line, t.offset)),
            },
            Want::Bad => r.bad.push((t.line, t.offset)),
        }
    }
    r.hot_ranges.sort_unstable();
    Ok(r)
}

/// Asserts the scan of `src` matches the linear reference on every
/// directive field and on `suppression_reason` for every lint × line.
fn check(src: &str) -> Result<(), String> {
    let scan = FileScan::of(src);
    let want = reference(src, &scan)?;
    let got = Reference {
        suppressions: scan
            .suppressions
            .iter()
            .map(|s| RefSuppression {
                lint: s.lint.to_string(),
                reason: s.reason.to_string(),
                line: s.line,
                covers: s.covers().collect(),
            })
            .collect(),
        hot_ranges: scan.hot_ranges.clone(),
        bad: scan
            .bad_directives
            .iter()
            .map(|d| (d.line, d.offset))
            .collect(),
    };
    if got != want {
        return Err(format!("scan {got:#?}\nreference {want:#?}\nin {src:?}"));
    }
    let last = lex(src).last().map_or(1, |t| t.line + 1);
    for lint in LINTS {
        for line in 0..=last {
            let reference = want
                .suppressions
                .iter()
                .find(|s| s.lint == lint.code && s.covers.contains(&line))
                .map(|s| s.reason.as_str());
            if scan.suppression_reason(lint.code, line) != reference
                || scan.suppressed(lint.code, line) != reference.is_some()
            {
                return Err(format!(
                    "{} line {line}: scan {:?}, reference {reference:?} in {src:?}",
                    lint.code,
                    scan.suppression_reason(lint.code, line)
                ));
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn indexed_lookups_match_a_linear_scan(
        pieces in proptest::collection::vec(piece(), 0usize..48)
    ) {
        let src = render(&pieces);
        if let Err(e) = check(&src) {
            prop_assert!(false, "{}", e);
        }
    }
}

#[test]
fn allow_on_the_last_line_covers_only_itself() {
    let src = "fn f() {}\n// analyze: allow(D001, reason=\"first\")";
    check(src).unwrap();
    let scan = FileScan::of(src);
    assert_eq!(
        (scan.suppressions[0].line, scan.suppressions[0].next_line),
        (2, None)
    );
    assert_eq!(scan.suppression_reason("D001", 2), Some("first"));
    assert_eq!(scan.suppression_reason("D001", 3), None);
}

#[test]
fn first_of_two_allows_covering_a_line_supplies_the_reason() {
    let src = "// analyze: allow(D001, reason=\"first\")\n\
               // analyze: allow(D001, reason=\"second\")\n\
               let t = Instant::now();\n";
    check(src).unwrap();
    let scan = FileScan::of(src);
    assert_eq!(
        (scan.suppressions[0].line, scan.suppressions[0].next_line),
        (1, Some(3))
    );
    assert_eq!(
        (scan.suppressions[1].line, scan.suppressions[1].next_line),
        (2, Some(3))
    );
    assert_eq!(scan.suppression_reason("D001", 3), Some("first"));
    assert_eq!(scan.suppression_reason("D001", 2), Some("second"));
}

#[test]
fn trailing_same_line_allow_covers_its_line_and_the_next() {
    let src = "let t = Instant::now(); // analyze: allow(D001, reason=\"first\")\n\n\
               let u = Instant::now();\n";
    check(src).unwrap();
    let scan = FileScan::of(src);
    assert_eq!(
        (scan.suppressions[0].line, scan.suppressions[0].next_line),
        (1, Some(3))
    );
    assert_eq!(scan.suppression_reason("D001", 1), Some("first"));
    assert_eq!(scan.suppression_reason("D001", 3), Some("first"));
}

#[test]
fn hot_marker_without_a_following_brace_is_a_bad_directive() {
    let src = "fn f() {}\n// analyze: hot\nlet x = 1;\n";
    check(src).unwrap();
    let scan = FileScan::of(src);
    assert!(scan.hot_ranges.is_empty());
    assert_eq!(scan.bad_directives.len(), 1);
    assert_eq!(scan.bad_directives[0].line, 2);
}

/// Asserts that the significant tokens of `FileScan::of(src)` are the
/// tokens of `lex(src)` that are neither whitespace nor comments.
fn check_significant(src: &str) -> Result<(), String> {
    let scan = FileScan::of(src);
    let want: Vec<Token<'_>> = lex(src)
        .into_iter()
        .filter(|t| {
            !matches!(
                t.kind,
                TokenKind::Whitespace | TokenKind::LineComment | TokenKind::BlockComment
            )
        })
        .collect();
    let got: Vec<Token<'_>> = (0..scan.len()).map(|k| scan.tok(k)).collect();
    if got != want {
        return Err(format!("scan {got:#?}\nlex {want:#?}\nin {src:?}"));
    }
    Ok(())
}

/// Pieces beyond the lexer fragments for the significant-token property:
/// CRLF line ends, raw strings with more hashes, a lifetime beside a char
/// and a directive on a CRLF line.
const SEAMS: &[&str] = &[
    "\r\n",
    "x\r\ny",
    "br##\"a\"# b\"##",
    "r##\"open\"#",
    "'a'b 'c",
    "/* a /* b */",
    "\r\n// analyze: allow(D001, reason=\"crlf\")\r\n",
    "日本",
];

fn seam_piece() -> impl Strategy<Value = String> {
    prop_oneof![
        piece().prop_map(|p| render(&[p])),
        (0usize..SEAMS.len()).prop_map(|i| SEAMS[i].to_string()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn significant_tokens_are_lex_without_whitespace_and_comments(
        pieces in proptest::collection::vec(seam_piece(), 0usize..48)
    ) {
        let src: String = pieces.concat();
        if let Err(e) = check_significant(&src) {
            prop_assert!(false, "{}", e);
        }
    }
}

/// Punct texts whose `punct` answer the table test checks at every index.
const PUNCTS: &[&str] = &[
    "(", ")", "[", "]", "{", "}", "#", ";", ":", ".", "!", "<", "\0", "::",
];

/// The bracket pairs `match_group` answers.
const PAIRS: [(&str, &str); 3] = [("(", ")"), ("[", "]"), ("{", "}")];

/// The matching close for the first `open` at or after `from`, by a
/// linear depth count of `open`/`close` alone: the walk the partner index
/// replaced.
fn match_group_by_walk(scan: &FileScan<'_>, from: usize, open: &str, close: &str) -> Option<usize> {
    let start = (from..scan.len()).find(|&k| sig_punct(scan, k, open))?;
    let mut depth = 0usize;
    for k in start..scan.len() {
        if sig_punct(scan, k, open) {
            depth += 1;
        } else if sig_punct(scan, k, close) {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

/// Asserts `punct` and `match_group` on `src` agree with the linear
/// reference at every significant index (and one past the end).
fn check_tables(src: &str) -> Result<(), String> {
    let scan = FileScan::of(src);
    for k in 0..=scan.len() + 1 {
        for text in PUNCTS {
            let want = k < scan.len() && sig_punct(&scan, k, text);
            if scan.punct(k, text) != want {
                return Err(format!("punct({k}, {text:?}) != {want} in {src:?}"));
            }
        }
        for (open, close) in PAIRS {
            let want = match_group_by_walk(&scan, k, open, close);
            let got = scan.match_group(k, open, close);
            if got != want {
                return Err(format!(
                    "match_group({k}, {open:?}): {got:?}, walk {want:?} in {src:?}"
                ));
            }
        }
    }
    Ok(())
}

/// Bracket-heavy pieces: every opener and close on its own, a few that
/// come in balanced or crossed runs, and lexer fragments so brackets also
/// sit inside comments and literals, where they are not punct.
fn bracket_piece() -> impl Strategy<Value = String> {
    const BRACKETY: &[&str] = &[
        "(",
        ")",
        "[",
        "]",
        "{",
        "}",
        "({[",
        "]})",
        "(]",
        "[)",
        "{)",
        "(}",
        "#[cfg(test)]",
        "\"({[\"",
        "/* ) */",
        "// ]\n",
        "'{'",
    ];
    prop_oneof![
        (0usize..BRACKETY.len()).prop_map(|i| BRACKETY[i].to_string()),
        (0usize..POOL.len()).prop_map(|i| POOL[i].to_string()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn punct_and_match_group_match_a_depth_walk(
        pieces in proptest::collection::vec(bracket_piece(), 0usize..40)
    ) {
        let src: String = pieces.concat();
        if let Err(e) = check_tables(&src) {
            prop_assert!(false, "{}", e);
        }
    }
}

#[test]
fn each_bracket_kind_nests_on_its_own() {
    // `(` ... `]` ... `)`: the square close belongs to no square opener and
    // does not end the paren group.
    let src = "( [ ] ] ) { ( } )";
    check_tables(src).unwrap();
    let scan = FileScan::of(src);
    assert_eq!(scan.match_group(0, "(", ")"), Some(4));
    assert_eq!(scan.match_group(1, "[", "]"), Some(2));
    assert_eq!(scan.match_group(3, "[", "]"), None);
    assert_eq!(scan.match_group(5, "{", "}"), Some(7));
    assert_eq!(scan.match_group(5, "(", ")"), Some(8));
}
