//! The lexer before it dispatched on a byte-class table: a `match` with
//! guards on the leading byte, kept as the reference for a differential
//! test. On arbitrary strings the class-table [`super::Lexer`] must yield
//! exactly the tokens this one does.

use super::{Token, TokenKind};

/// Lexes `source` the way the guarded `match` did.
pub(super) fn lex(source: &str) -> Vec<Token<'_>> {
    Lexer {
        src: source,
        bytes: source.as_bytes(),
        pos: 0,
        line: 1,
        out: Vec::new(),
    }
    .run()
}

struct Lexer<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    line: u32,
    out: Vec<Token<'a>>,
}

impl<'a> Lexer<'a> {
    fn run(mut self) -> Vec<Token<'a>> {
        while self.pos < self.bytes.len() {
            let start = self.pos;
            let line = self.line;
            let kind = self.next_kind();
            let text = &self.src[start..self.pos];
            debug_assert!(self.pos > start, "lexer must always make progress");
            // Whitespace counts its own newlines; of the other kinds only
            // these can hold one.
            if matches!(kind, TokenKind::BlockComment | TokenKind::Literal) {
                self.line += text.bytes().filter(|&b| b == b'\n').count() as u32;
            }
            self.out.push(Token {
                kind,
                text,
                line,
                offset: start,
            });
        }
        self.out
    }

    fn peek(&self, ahead: usize) -> Option<u8> {
        self.bytes.get(self.pos + ahead).copied()
    }

    /// Advances past the run of bytes from `pos` that satisfy `keep`.
    fn skip_while(&mut self, keep: impl Fn(u8) -> bool) {
        let rest = &self.bytes[self.pos..];
        self.pos += rest.iter().position(|&b| !keep(b)).unwrap_or(rest.len());
    }

    fn next_kind(&mut self) -> TokenKind {
        let b = self.bytes[self.pos];
        match b {
            b' ' | b'\t' | b'\n' | b'\r' => {
                while let Some(&b) = self.bytes.get(self.pos) {
                    match b {
                        b'\n' => self.line += 1,
                        b' ' | b'\t' | b'\r' => {}
                        _ => break,
                    }
                    self.pos += 1;
                }
                TokenKind::Whitespace
            }
            b'/' if self.peek(1) == Some(b'/') => {
                self.skip_while(|b| b != b'\n');
                TokenKind::LineComment
            }
            b'/' if self.peek(1) == Some(b'*') => {
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
            b'"' => self.string_literal(),
            b'\'' => self.char_or_lifetime(),
            b'r' | b'b' if self.is_literal_prefix() => self.prefixed_literal(),
            _ if is_ident_start(b) => {
                self.skip_while(is_ident_continue);
                TokenKind::Ident
            }
            b'0'..=b'9' => self.number(),
            _ if b.is_ascii() => {
                self.pos += 1;
                if b.is_ascii_punctuation() {
                    TokenKind::Punct
                } else {
                    TokenKind::Unknown
                }
            }
            _ => {
                // Skip one whole UTF-8 scalar (input is &str, boundaries
                // are valid).
                let c_len = self.src[self.pos..]
                    .chars()
                    .next()
                    .map_or(1, char::len_utf8);
                self.pos += c_len;
                TokenKind::Unknown
            }
        }
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
        if self.peek(1).is_some_and(is_ident_start) {
            // Scan the identifier run; a trailing quote makes it a char.
            let mut i = 1;
            while self.peek(i).is_some_and(is_ident_continue) {
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

fn is_ident_start(b: u8) -> bool {
    b == b'_' || b.is_ascii_alphabetic()
}

fn is_ident_continue(b: u8) -> bool {
    b == b'_' || b.is_ascii_alphanumeric()
}
