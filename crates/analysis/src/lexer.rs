//! A hand-rolled Rust lexer.
//!
//! The container is offline, so the analyzer cannot use `syn`; the lints in
//! this crate only need a token stream with line numbers, not a syntax
//! tree. The lexer is *lossless*: concatenating the `text` of every token
//! reproduces the input byte-for-byte (pinned by a proptest in
//! `tests/lexer_roundtrip.rs`), which guarantees no source region silently
//! escapes scanning.
//!
//! The lexer is also *zero-copy*: a [`Token`]'s `text` is a slice of the
//! source it was lexed from, and the tokens live no longer than the
//! source. [`Lexer`] is an iterator that allocates nothing: it yields one
//! token per `next`, and [`lex`] collects them. [`crate::scan::FileScan::of`]
//! drives the same per-class arms through a step that first steps over
//! the whitespace run at the cursor itself, so whitespace never becomes a
//! token there. Every token start is tested in frequency order: a punct
//! other than `/`, then an identifier not starting with `r` or `b` (each
//! one read of a 256-entry byte-class table and one branch), and only
//! then the `match` on the byte's class that takes comments, literals,
//! numbers, lifetimes, whitespace and the rest.
//!
//! Comments and string/char literals are single tokens, so lint passes that
//! match identifiers can never fire on prose, doc examples, or string
//! contents.

use std::fmt;

/// What a token is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Horizontal and vertical whitespace (including newlines).
    Whitespace,
    /// `// ...` up to (not including) the terminating newline. Doc comments
    /// (`///`, `//!`) are line comments too.
    LineComment,
    /// `/* ... */`, nesting respected. Unterminated comments run to EOF.
    BlockComment,
    /// An identifier or keyword, including raw identifiers (`r#match`).
    Ident,
    /// A lifetime (`'a`, `'static`) or a loop label.
    Lifetime,
    /// An integer or float literal, with any suffix.
    Number,
    /// A string, raw string, byte string, or char literal.
    Literal,
    /// A single punctuation byte (`{`, `::` is two tokens, etc.).
    Punct,
    /// Any byte the lexer does not recognize (kept for losslessness).
    Unknown,
}

/// One lossless token: its kind, exact source text, 1-based start line,
/// and byte offset of its first byte. The text borrows the lexed source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token<'a> {
    /// Classification.
    pub kind: TokenKind,
    /// The exact bytes of the token: a slice of the source, never a copy.
    pub text: &'a str,
    /// 1-based line of the token's first byte.
    pub line: u32,
    /// 0-based byte offset of the token's first byte in the source.
    pub offset: usize,
}

impl Token<'_> {
    /// Byte offset one past the token's last byte.
    pub fn end_offset(&self) -> usize {
        self.offset + self.text.len()
    }
}

impl fmt::Display for Token<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.text)
    }
}

/// Lexes `source` into a lossless token stream: every token of
/// [`Lexer`], collected.
///
/// Never fails: malformed input degrades to `Unknown` single-char tokens,
/// and unterminated literals/comments extend to end of input.
pub fn lex(source: &str) -> Vec<Token<'_>> {
    Lexer::new(source).collect()
}

/// Concatenates the tokens' text; equal to the lexed source by
/// construction.
pub fn render(tokens: &[Token<'_>]) -> String {
    tokens.iter().map(|t| t.text).collect()
}

/// The lossless token stream of one source, one token per `next`.
/// [`lex`] collects it; [`crate::scan::FileScan::of`] drives it and keeps
/// only the tokens it needs.
pub struct Lexer<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    line: u32,
}

/// What the byte that starts a token says about the token.
#[derive(Clone, Copy)]
enum Class {
    /// ` `, `\t`, `\n` or `\r`.
    Space,
    /// `_` or an ASCII letter other than `r` and `b`.
    Ident,
    /// `r` or `b`: a raw or byte literal's prefix, else an identifier.
    Prefix,
    /// An ASCII digit.
    Digit,
    /// `/`: a comment or a punct.
    Slash,
    /// `"`.
    Quote,
    /// `'`: a char literal or a lifetime.
    Apostrophe,
    /// Any other ASCII punctuation.
    Punct,
    /// Any other ASCII byte (control characters).
    Other,
    /// A byte of 0x80 or above; at a token start, a UTF-8 lead byte.
    Utf8,
}

/// The [`Class`] of every byte.
const CLASS: [Class; 256] = {
    let mut table = [Class::Other; 256];
    let mut i = 0;
    while i < 256 {
        let b = i as u8;
        table[i] = match b {
            b' ' | b'\t' | b'\n' | b'\r' => Class::Space,
            b'r' | b'b' => Class::Prefix,
            b'_' | b'a'..=b'z' | b'A'..=b'Z' => Class::Ident,
            b'0'..=b'9' => Class::Digit,
            b'/' => Class::Slash,
            b'"' => Class::Quote,
            b'\'' => Class::Apostrophe,
            0x80.. => Class::Utf8,
            _ if b.is_ascii_punctuation() => Class::Punct,
            _ => Class::Other,
        };
        i += 1;
    }
    table
};

/// True for the bytes that continue an identifier: `_` and ASCII
/// alphanumerics.
const IDENT_CONTINUE: [bool; 256] = {
    let mut table = [false; 256];
    let mut i = 0;
    while i < 256 {
        table[i] = i == b'_' as usize || (i as u8).is_ascii_alphanumeric();
        i += 1;
    }
    table
};

impl<'a> Iterator for Lexer<'a> {
    type Item = Token<'a>;

    #[inline]
    fn next(&mut self) -> Option<Token<'a>> {
        (self.pos < self.bytes.len()).then(|| self.token())
    }
}

impl<'a> Lexer<'a> {
    /// A lexer at the start of `source`, on line 1.
    pub fn new(source: &'a str) -> Self {
        Lexer {
            src: source,
            bytes: source.as_bytes(),
            pos: 0,
            line: 1,
        }
    }

    /// The next token that is not whitespace: the step
    /// [`crate::scan::FileScan::of`] drives. It steps over the whitespace
    /// run at the cursor, counting its newlines, then takes the token
    /// after it as [`Lexer::next`] would.
    #[inline(always)]
    pub(crate) fn next_non_space(&mut self) -> Option<Token<'a>> {
        self.skip_space();
        (self.pos < self.bytes.len()).then(|| self.token())
    }

    fn peek(&self, ahead: usize) -> Option<u8> {
        self.bytes.get(self.pos + ahead).copied()
    }

    /// Advances past the run of bytes from `pos` that satisfy `keep`.
    #[inline]
    fn skip_while(&mut self, keep: impl Fn(u8) -> bool) {
        let rest = &self.bytes[self.pos..];
        self.pos += rest.iter().position(|&b| !keep(b)).unwrap_or(rest.len());
    }

    /// Advances past the whitespace run at `pos` (possibly empty),
    /// counting its newlines.
    #[inline(always)]
    fn skip_space(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'\n' => self.line += 1,
                b' ' | b'\t' | b'\r' => {}
                _ => break,
            }
            self.pos += 1;
        }
    }

    /// The token at `pos`, which must be before the end of input. The two
    /// commonest starts come first, each one table read and one branch: a
    /// punct other than `/`, then an identifier not starting with `r` or
    /// `b`. Every other start, whitespace included, goes through the
    /// class `match`.
    #[inline(always)]
    fn token(&mut self) -> Token<'a> {
        let start = self.pos;
        let line = self.line;
        let class = CLASS[usize::from(self.bytes[start])];
        let kind = if matches!(class, Class::Punct) {
            self.pos += 1;
            TokenKind::Punct
        } else if matches!(class, Class::Ident) {
            self.ident()
        } else {
            self.rare_kind(class)
        };
        debug_assert!(self.pos > start, "lexer must always make progress");
        Token {
            kind,
            text: &self.src[start..self.pos],
            line,
            offset: start,
        }
    }

    /// An identifier from its first byte.
    #[inline(always)]
    fn ident(&mut self) -> TokenKind {
        self.pos += 1;
        self.skip_while(|b| IDENT_CONTINUE[usize::from(b)]);
        TokenKind::Ident
    }

    /// The kind of every token [`Lexer::token`] does not take first,
    /// advancing past it.
    fn rare_kind(&mut self, class: Class) -> TokenKind {
        let start = self.pos;
        let kind = match class {
            Class::Space => {
                self.skip_space();
                TokenKind::Whitespace
            }
            Class::Prefix if self.is_literal_prefix() => self.prefixed_literal(),
            Class::Ident | Class::Prefix => self.ident(),
            Class::Digit => self.number(),
            Class::Slash => match self.peek(1) {
                Some(b'/') => {
                    self.skip_while(|b| b != b'\n');
                    TokenKind::LineComment
                }
                Some(b'*') => self.block_comment(),
                _ => {
                    self.pos += 1;
                    TokenKind::Punct
                }
            },
            Class::Quote => self.string_literal(),
            Class::Apostrophe => self.char_or_lifetime(),
            Class::Punct => {
                self.pos += 1;
                TokenKind::Punct
            }
            Class::Other => {
                self.pos += 1;
                TokenKind::Unknown
            }
            Class::Utf8 => {
                // One whole UTF-8 scalar: its lead byte gives its length
                // (the input is a `&str`, so `pos` is on a boundary).
                self.pos += match self.bytes[start] {
                    0xF0.. => 4,
                    0xE0.. => 3,
                    _ => 2,
                };
                TokenKind::Unknown
            }
        };
        // Whitespace counts its own newlines; of the other kinds only
        // these can hold one.
        if matches!(kind, TokenKind::BlockComment | TokenKind::Literal) {
            self.line += self.bytes[start..self.pos]
                .iter()
                .filter(|&&b| b == b'\n')
                .count() as u32;
        }
        kind
    }

    /// `/* ... */` from its opening `/*`, nesting respected; unterminated,
    /// it runs to the end of input.
    fn block_comment(&mut self) -> TokenKind {
        self.pos += 2;
        let mut depth = 1usize;
        while depth > 0 {
            match (self.peek(0), self.peek(1)) {
                (Some(b'/'), Some(b'*')) => {
                    depth += 1;
                    self.pos += 2;
                }
                (Some(b'*'), Some(b'/')) => {
                    depth -= 1;
                    self.pos += 2;
                }
                (Some(_), _) => self.pos += 1,
                (None, _) => break,
            }
        }
        TokenKind::BlockComment
    }

    /// True when the byte at `pos` starts `r"`, `r#"`, `r#ident`, `b"`,
    /// `b'`, `br"`, or `br#"` rather than a plain identifier.
    fn is_literal_prefix(&self) -> bool {
        let b = self.bytes[self.pos];
        match (b, self.peek(1)) {
            (b'r', Some(b'"')) => true,
            (b'r', Some(b'#')) => {
                // r#"raw"# (literal) vs r#ident (raw identifier).
                let mut i = 1;
                while self.peek(i) == Some(b'#') {
                    i += 1;
                }
                self.peek(i) == Some(b'"')
            }
            (b'b', Some(b'"' | b'\'')) => true,
            (b'b', Some(b'r')) => matches!(self.peek(2), Some(b'"' | b'#')),
            _ => false,
        }
    }

    fn prefixed_literal(&mut self) -> TokenKind {
        let raw = self.bytes[self.pos] == b'r'
            || (self.bytes[self.pos] == b'b' && self.peek(1) == Some(b'r'));
        while matches!(self.peek(0), Some(b'r' | b'b')) {
            self.pos += 1;
        }
        if raw {
            let mut hashes = 0usize;
            while self.peek(0) == Some(b'#') {
                hashes += 1;
                self.pos += 1;
            }
            if self.peek(0) == Some(b'"') {
                self.pos += 1;
                loop {
                    match self.peek(0) {
                        None => break,
                        Some(b'"') => {
                            self.pos += 1;
                            let mut closing = 0usize;
                            while closing < hashes && self.peek(0) == Some(b'#') {
                                closing += 1;
                                self.pos += 1;
                            }
                            if closing == hashes {
                                break;
                            }
                        }
                        Some(_) => self.pos += 1,
                    }
                }
            }
            TokenKind::Literal
        } else if self.peek(0) == Some(b'\'') {
            self.pos += 1;
            self.char_body();
            TokenKind::Literal
        } else {
            self.string_literal()
        }
    }

    fn string_literal(&mut self) -> TokenKind {
        debug_assert_eq!(self.peek(0), Some(b'"'));
        self.pos += 1;
        loop {
            match self.peek(0) {
                None => break,
                Some(b'"') => {
                    self.pos += 1;
                    break;
                }
                Some(b'\\') => self.pos += 2.min(self.bytes.len() - self.pos),
                Some(_) => self.pos += 1,
            }
        }
        TokenKind::Literal
    }

    /// Consumes the body of a char literal after the opening `'`.
    fn char_body(&mut self) {
        match self.peek(0) {
            Some(b'\\') => {
                // Step over the backslash and the whole escaped scalar,
                // which may be multi-byte (`'\é'`): the token must end on
                // a char boundary.
                self.pos += 1;
                self.pos += self.src[self.pos..]
                    .chars()
                    .next()
                    .map_or(0, char::len_utf8);
                // Escapes like \u{1F600} have a bracketed payload.
                if self.peek(0) == Some(b'{') {
                    while !matches!(self.peek(0), None | Some(b'}')) {
                        self.pos += 1;
                    }
                    if self.peek(0) == Some(b'}') {
                        self.pos += 1;
                    }
                }
            }
            Some(_) => {
                let c_len = self.src[self.pos..]
                    .chars()
                    .next()
                    .map_or(1, char::len_utf8);
                self.pos += c_len;
            }
            None => return,
        }
        if self.peek(0) == Some(b'\'') {
            self.pos += 1;
        }
    }

    fn char_or_lifetime(&mut self) -> TokenKind {
        debug_assert_eq!(self.peek(0), Some(b'\''));
        // `'a'` / `'\n'` are char literals; `'a` / `'static` are lifetimes.
        if self
            .peek(1)
            .is_some_and(|b| matches!(CLASS[usize::from(b)], Class::Ident | Class::Prefix))
        {
            // Scan the identifier run; a trailing quote makes it a char.
            let mut i = 1;
            while self.peek(i).is_some_and(|b| IDENT_CONTINUE[usize::from(b)]) {
                i += 1;
            }
            if self.peek(i) == Some(b'\'') && i == 2 {
                self.pos += 1;
                self.char_body();
                return TokenKind::Literal;
            }
            if self.peek(i) == Some(b'\'') && i != 2 {
                // Multi-char body like 'abc' is not valid Rust; treat as a
                // literal anyway so the text stays one token.
                self.pos += i + 1;
                return TokenKind::Literal;
            }
            self.pos += i;
            return TokenKind::Lifetime;
        }
        // `'\n'`, `'('`, `'0'`, unterminated `'` at EOF...
        self.pos += 1;
        if self.peek(0).is_some() {
            self.char_body();
        }
        TokenKind::Literal
    }

    fn number(&mut self) -> TokenKind {
        // Digits, underscores, suffixes, hex/oct/bin bodies, and float
        // forms. A `.` joins only when followed by a digit (so `0..n` and
        // `x.0.clone()` split correctly); `+`/`-` join only directly after
        // an exponent `e`/`E` in a decimal literal.
        let hex = self.peek(0) == Some(b'0') && matches!(self.peek(1), Some(b'x' | b'X'));
        loop {
            match self.peek(0) {
                Some(b'0'..=b'9' | b'_') => self.pos += 1,
                Some(b'a'..=b'z' | b'A'..=b'Z') => {
                    let is_exp = matches!(self.bytes[self.pos], b'e' | b'E') && !hex;
                    self.pos += 1;
                    if is_exp && matches!(self.peek(0), Some(b'+' | b'-')) {
                        self.pos += 1;
                    }
                }
                Some(b'.') if self.peek(1).is_some_and(|d| d.is_ascii_digit()) => self.pos += 1,
                _ => break,
            }
        }
        TokenKind::Number
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, String)> {
        lex(src)
            .into_iter()
            .filter(|t| t.kind != TokenKind::Whitespace)
            .map(|t| (t.kind, t.text.to_string()))
            .collect()
    }

    #[test]
    fn roundtrips_representative_source() {
        let src = r##"
//! Module docs with `HashMap` in prose.
use std::collections::HashMap; // trailing
/* block /* nested */ still comment */
fn f<'a>(x: &'a [u8]) -> u64 {
    let s = "string with Instant::now() inside";
    let r = r#"raw "quoted" body"#;
    let b = b"bytes"; let c = 'x'; let nl = '\n';
    let n = 0xFF_u64 + 1.5e-3 + 2.0f32 as f64 as u64;
    x[0] as u64 + s.len() as u64 + r.len() as u64 + b.len() as u64
        + c as u64 + nl as u64 + n
}
"##;
        assert_eq!(render(&lex(src)), src);
    }

    #[test]
    fn identifiers_inside_strings_and_comments_stay_opaque() {
        let src = "// HashMap\nlet s = \"HashMap\"; /* HashMap */ let h = 1;";
        let idents: Vec<&str> = lex(src)
            .into_iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text)
            .collect();
        assert_eq!(idents, ["let", "s", "let", "h"]);
    }

    #[test]
    fn lifetimes_and_chars_disambiguate() {
        let toks = kinds("'a 'static 'x' '\\n' '_'");
        assert_eq!(
            toks,
            [
                (TokenKind::Lifetime, "'a".to_string()),
                (TokenKind::Lifetime, "'static".to_string()),
                (TokenKind::Literal, "'x'".to_string()),
                (TokenKind::Literal, "'\\n'".to_string()),
                (TokenKind::Literal, "'_'".to_string()),
            ]
        );
    }

    #[test]
    fn raw_identifiers_are_idents_not_literals() {
        let toks = kinds("r#match r\"str\" br#\"raw\"#");
        assert_eq!(toks[0], (TokenKind::Ident, "r".to_string()));
        assert_eq!(toks[1], (TokenKind::Punct, "#".to_string()));
        assert_eq!(toks[2], (TokenKind::Ident, "match".to_string()));
        assert_eq!(toks[3], (TokenKind::Literal, "r\"str\"".to_string()));
        assert_eq!(toks[4], (TokenKind::Literal, "br#\"raw\"#".to_string()));
    }

    #[test]
    fn line_numbers_track_every_token_kind() {
        let src = "a\n\"two\nlines\"\nb /* c\nd */ e";
        let lines: Vec<(&str, u32)> = lex(src)
            .into_iter()
            .filter(|t| t.kind != TokenKind::Whitespace)
            .map(|t| (t.text, t.line))
            .collect();
        assert_eq!(
            lines,
            [
                ("a", 1),
                ("\"two\nlines\"", 2),
                ("b", 4),
                ("/* c\nd */", 4),
                ("e", 5),
            ]
        );
    }

    #[test]
    fn numeric_ranges_split_and_floats_join() {
        let toks = kinds("0..10 1.5e-3 1.0e+4 0xA_B 1_000u64 x.0.y");
        let texts: Vec<&str> = toks.iter().map(|(_, t)| t.as_str()).collect();
        assert_eq!(
            texts,
            [
                "0", ".", ".", "10", "1.5e-3", "1.0e+4", "0xA_B", "1_000u64", "x", ".", "0", ".",
                "y"
            ]
        );
    }

    #[test]
    fn escapes_of_multibyte_scalars_end_on_char_boundaries() {
        for src in ["'\\é'", "b'\\é'", "x '\\日' y", "'\\é", "b'\\日"] {
            assert_eq!(render(&lex(src)), src, "lossless on {src:?}");
        }
        let toks = kinds("x '\\日' y");
        assert_eq!(toks[1], (TokenKind::Literal, "'\\日'".to_string()));
    }

    #[test]
    fn unterminated_inputs_do_not_loop_or_drop_bytes() {
        for src in ["\"open", "/* open", "r#\"open", "'", "b'"] {
            assert_eq!(render(&lex(src)), src, "lossless on {src:?}");
        }
    }

    /// Characters that steer the lexer.
    const CHARS: &str = " \t\n\r/*\"'#\\rbxeE_aZ09.+-{}()[]!;é日😀\u{b}\u{c}\u{7f}\0";

    /// Seams that open or close a literal, a comment or an escape.
    const SEAMS: &[&str] = &[
        "\r\n", "r#\"", "\"#", "br#", "b'", "/*", "*/", "//", "'a", "'\\u{", "0x", "1e",
    ];

    /// An arbitrary string: each piece is one of [`CHARS`] or, one time
    /// in four each, one of [`SEAMS`] or an arbitrary Unicode scalar.
    fn arbitrary_source() -> impl Strategy<Value = String> {
        proptest::collection::vec((0u32..4, any::<u32>()), 0usize..96).prop_map(|picks| {
            let chars: Vec<char> = CHARS.chars().collect();
            let mut src = String::new();
            for (pick, x) in picks {
                match pick {
                    0 => src.push(char::from_u32(x % 0x11_0000).unwrap_or('\u{fffd}')),
                    1 => src.push_str(SEAMS[x as usize % SEAMS.len()]),
                    _ => src.push(chars[x as usize % chars.len()]),
                }
            }
            src
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// The class-table lexer yields the token stream of the guarded
        /// `match` it replaced: kind, text, line and offset of every token.
        #[test]
        fn class_table_lexer_matches_the_guarded_match(src in arbitrary_source()) {
            prop_assert_eq!(lex(&src), reference::lex(&src), "on {:?}", src);
        }
    }
}
