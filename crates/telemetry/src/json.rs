//! The workspace's one JSON path: a value model, a streaming writer, and
//! a recursive-descent parser.
//!
//! The workspace vendors no JSON crate. Every exporter — Perfetto traces,
//! the request journal, the `BENCH_*` and run-report documents — writes
//! through [`JsonWriter`], which owns separators, escaping, number
//! formatting and layout; every reader — the report validators, the
//! benchmark diff, tests — goes through [`parse`] and
//! [`JsonValue::field`]. The parser handles the full JSON grammar except
//! exotic number formats beyond `f64`, and caps nesting at [`MAX_DEPTH`].

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// Deepest container nesting [`parse`] accepts. Every document the
/// workspace writes nests a handful of levels; the cap turns a hostile
/// input of nested brackets into a [`JsonError`] instead of a stack
/// overflow.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number, held as `f64`.
    Number(f64),
    /// A string (unescaped).
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object; key order is not preserved.
    Object(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// The value at `key` if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// The elements if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The number if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The string contents if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The member `key` of this object as a `T` (a number, string, array
    /// or object). The error names the block being read (`what`), the
    /// expected type and the key: `what: missing numeric "key"`.
    ///
    /// # Errors
    ///
    /// Returns the description above if `key` is absent or of another
    /// type.
    pub fn field<'a, T: FromJson<'a>>(&'a self, key: &str, what: &str) -> Result<T, String> {
        self.get(key)
            .and_then(T::from_json)
            .ok_or_else(|| format!("{what}: missing {} \"{key}\"", T::KIND))
    }
}

/// A type [`JsonValue::field`] can read out of a document.
pub trait FromJson<'a>: Sized {
    /// The type's name in error messages.
    const KIND: &'static str;
    /// `Some` if `value` holds this type.
    fn from_json(value: &'a JsonValue) -> Option<Self>;
}

impl<'a> FromJson<'a> for f64 {
    const KIND: &'static str = "numeric";
    fn from_json(value: &'a JsonValue) -> Option<Self> {
        value.as_f64()
    }
}

impl<'a> FromJson<'a> for &'a str {
    const KIND: &'static str = "string";
    fn from_json(value: &'a JsonValue) -> Option<Self> {
        value.as_str()
    }
}

impl<'a> FromJson<'a> for &'a [JsonValue] {
    const KIND: &'static str = "array";
    fn from_json(value: &'a JsonValue) -> Option<Self> {
        value.as_array()
    }
}

/// An object member (a nested block).
impl<'a> FromJson<'a> for &'a JsonValue {
    const KIND: &'static str = "object";
    fn from_json(value: &'a JsonValue) -> Option<Self> {
        matches!(value, JsonValue::Object(_)).then_some(value)
    }
}

/// A parse failure with byte offset context.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset in the input where it went wrong.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Appends `s` to `out` as a JSON string literal (with quotes).
///
/// `"`, `\` and the C0 controls are escaped; everything else is copied as
/// is. Every byte that needs an escape is ASCII, so none sits inside a
/// multi-byte character: the runs between them are copied whole.
///
/// Most text needs no escape at all, so the bytes are tested 16 at a time
/// with one branch-free "any byte needs an escape" test, and a clean chunk
/// only extends the pending run. Only a chunk that holds an escape byte,
/// and the short tail, are walked byte by byte.
pub fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    let chunks = s.as_bytes().chunks_exact(ESCAPE_CHUNK);
    let tail = chunks.remainder();
    // `run` is where the pending unescaped run starts.
    let (mut run, mut at) = (0, 0);
    for chunk in chunks {
        if chunk.iter().fold(false, |any, &b| any | needs_escape(b)) {
            escape_bytes(out, s, at, chunk, &mut run);
        }
        at += ESCAPE_CHUNK;
    }
    escape_bytes(out, s, at, tail, &mut run);
    out.push_str(&s[run..]);
    out.push('"');
}

/// Bytes [`write_escaped`] tests at once.
const ESCAPE_CHUNK: usize = 16;

/// True for the bytes a JSON string cannot hold raw: `"`, `\` and the C0
/// controls. No branch, so a fold over a chunk compiles to byte-wide
/// vector compares.
fn needs_escape(b: u8) -> bool {
    (b < 0x20) | (b == b'"') | (b == b'\\')
}

/// The byte loop of [`write_escaped`] over `bytes`, the bytes of `s` from
/// offset `at`: each byte that needs an escape flushes the pending run
/// `s[*run..]` up to it and is written escaped.
fn escape_bytes(out: &mut String, s: &str, at: usize, bytes: &[u8], run: &mut usize) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    for (i, &b) in (at..).zip(bytes) {
        if !needs_escape(b) {
            continue;
        }
        out.push_str(&s[*run..i]);
        *run = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                out.push_str("\\u00");
                out.push(char::from(HEX[usize::from(b >> 4)]));
                out.push(char::from(HEX[usize::from(b & 0xf)]));
            }
        }
    }
}

/// Appends `v` in decimal, as `format!("{v}")` would, without going
/// through the formatting machinery.
pub fn write_uint(out: &mut String, mut v: u64) {
    // u64::MAX has 20 digits.
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend(digits[start..].iter().map(|&d| char::from(d)));
}

/// A streaming JSON writer: every exporter in the workspace emits through
/// it, so separators, escaping ([`write_escaped`]), number formatting and
/// layout are decided once.
///
/// Values are written in call order. Open a container with
/// [`begin_object`](Self::begin_object) or [`begin_array`](Self::begin_array),
/// name each object member with [`key`](Self::key) before its value, and
/// close the innermost container with [`end`](Self::end). Numbers are
/// written either with fixed decimals ([`fixed`](Self::fixed)) or in
/// shortest round-trip form ([`float`](Self::float)); both write a
/// non-finite value as `null`.
///
/// There is one layout rule, in two modes:
///
/// - [`compact`](Self::compact): no whitespace at all;
/// - [`pretty`](Self::pretty): a container that holds another container
///   puts one member per line at two spaces of indent per level; a
///   container of scalars stays on one line as `{"k": v, "k": v}`. The
///   document ends with a newline.
///
/// ```
/// use mlscore_telemetry::json::JsonWriter;
///
/// let mut w = JsonWriter::pretty();
/// w.begin_object();
/// w.key("name").str("fpga");
/// w.key("busy").begin_object();
/// w.key("p50").fixed(0.25, 3).key("p99").float(f64::NAN);
/// w.end();
/// w.end();
/// assert_eq!(
///     w.finish(),
///     "{\n  \"name\": \"fpga\",\n  \"busy\": {\"p50\": 0.250, \"p99\": null}\n}\n"
/// );
/// ```
#[derive(Debug)]
pub struct JsonWriter {
    out: String,
    pretty: bool,
    /// Open containers, innermost last.
    open: Vec<Container>,
    /// A key was written and its value is still due.
    keyed: bool,
}

/// One open container of a [`JsonWriter`].
#[derive(Debug)]
struct Container {
    close: char,
    /// Byte offset in the output where each member starts.
    members: Vec<usize>,
    /// Whether a member is itself a container.
    nested: bool,
}

impl JsonWriter {
    /// A writer with the compact layout (no whitespace).
    pub fn compact() -> Self {
        Self::new(false)
    }

    /// A writer with the pretty layout (see the type docs).
    pub fn pretty() -> Self {
        Self::new(true)
    }

    fn new(pretty: bool) -> Self {
        Self {
            out: String::new(),
            pretty,
            open: Vec::new(),
            keyed: false,
        }
    }

    /// Opens an object.
    pub fn begin_object(&mut self) -> &mut Self {
        self.begin('{', '}')
    }

    /// Opens an array.
    pub fn begin_array(&mut self) -> &mut Self {
        self.begin('[', ']')
    }

    /// Closes the innermost open container.
    pub fn end(&mut self) -> &mut Self {
        if let Some(container) = self.open.pop() {
            if self.pretty && container.nested {
                self.break_lines(&container.members);
            }
            self.out.push(container.close);
        }
        self
    }

    /// Names the next object member.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.member();
        write_escaped(&mut self.out, key);
        self.out.push_str(if self.pretty { ": " } else { ":" });
        self.keyed = true;
        self
    }

    /// Writes a string.
    pub fn str(&mut self, v: &str) -> &mut Self {
        self.value();
        write_escaped(&mut self.out, v);
        self
    }

    /// Writes an unsigned integer.
    pub fn uint(&mut self, v: u64) -> &mut Self {
        self.value();
        write_uint(&mut self.out, v);
        self
    }

    /// Writes `true` or `false`.
    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.value();
        self.out.push_str(if v { "true" } else { "false" });
        self
    }

    /// Writes `null`.
    pub fn null(&mut self) -> &mut Self {
        self.value();
        self.out.push_str("null");
        self
    }

    /// Writes `v` with exactly `decimals` digits after the point (`null`
    /// if it is not finite).
    pub fn fixed(&mut self, v: f64, decimals: usize) -> &mut Self {
        self.value();
        if v.is_finite() {
            let _ = write!(self.out, "{v:.decimals$}");
        } else {
            self.out.push_str("null");
        }
        self
    }

    /// Writes `v` in the shortest form that parses back to the same `f64`
    /// (`null` if it is not finite).
    pub fn float(&mut self, v: f64) -> &mut Self {
        self.value();
        if v.is_finite() {
            let _ = write!(self.out, "{v}");
        } else {
            self.out.push_str("null");
        }
        self
    }

    /// Ends one JSON Lines record: a newline after a top-level value.
    pub fn end_line(&mut self) -> &mut Self {
        self.out.push('\n');
        self
    }

    /// The text written so far; a pretty document gets its final newline.
    pub fn finish(mut self) -> String {
        if self.pretty {
            self.out.push('\n');
        }
        self.out
    }

    fn begin(&mut self, open: char, close: char) -> &mut Self {
        self.value();
        if let Some(parent) = self.open.last_mut() {
            parent.nested = true;
        }
        self.out.push(open);
        self.open.push(Container {
            close,
            members: Vec::new(),
            nested: false,
        });
        self
    }

    /// Starts a member of the innermost container: the separator, then a
    /// note of where the member begins.
    fn member(&mut self) {
        if let Some(container) = self.open.last_mut() {
            if !container.members.is_empty() {
                self.out.push_str(if self.pretty { ", " } else { "," });
            }
            container.members.push(self.out.len());
        }
    }

    /// Starts a value: an object member's value follows its key, anything
    /// else is a member of its own.
    fn value(&mut self) {
        if self.keyed {
            self.keyed = false;
        } else {
            self.member();
        }
    }

    /// Re-lays a just-closed pretty container's members (written inline,
    /// `", "`-separated, starting at `members`) one per line, indented one
    /// level deeper than the container itself.
    fn break_lines(&mut self, members: &[usize]) {
        let Some(&first) = members.first() else {
            return;
        };
        let body = self.out.split_off(first);
        let indent = 2 * self.open.len();
        let ends = members
            .iter()
            .skip(1)
            .map(|&start| start - first - 2)
            .chain(std::iter::once(body.len()));
        for (i, (&start, end)) in members.iter().zip(ends).enumerate() {
            self.out.push_str(if i == 0 { "\n" } else { ",\n" });
            self.out.extend(std::iter::repeat_n(' ', indent + 2));
            self.out.push_str(&body[start - first..end]);
        }
        self.out.push('\n');
        self.out.extend(std::iter::repeat_n(' ', indent));
    }
}

/// Parses a complete JSON document.
///
/// # Errors
///
/// Returns a [`JsonError`] on malformed input or trailing garbage.
pub fn parse(input: &str) -> Result<JsonValue, JsonError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Containers open at `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_string(),
            offset: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'{' | b'[') => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
                }
                self.depth += 1;
                let value = if self.peek() == Some(b'{') {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                value
            }
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|_| self.err("malformed number"))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            if self.pos + 5 > self.bytes.len() {
                                return Err(self.err("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos + 1..self.pos + 5])
                                .map_err(|_| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // Surrogates are not paired up; traces we write
                            // never contain them.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input came from &str, so
                    // boundaries are valid).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    let c = rest.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The one-char-at-a-time encoder [`write_escaped`] replaced, kept as
    /// the reference its output must match byte for byte.
    fn reference_escaped(out: &mut String, s: &str) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    out.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }

    /// Every C0 control, the two escaped printables, DEL, plain ASCII,
    /// 2-, 3- and 4-byte scalars, and U+2028/U+2029 (valid raw in JSON).
    fn escape_pool() -> Vec<char> {
        let mut pool: Vec<char> = (0u8..0x20).map(char::from).collect();
        pool.extend(['"', '\\', '\u{7f}', 'a', ' ', '/', '~']);
        pool.extend(['µ', 'é', '\u{7ff}', '€', '\u{fffd}', '\u{2028}', '\u{2029}']);
        pool.extend(['😀', '\u{10000}', '\u{10ffff}']);
        pool
    }

    fn pooled_string() -> impl Strategy<Value = String> {
        let pool = escape_pool();
        proptest::collection::vec(0..pool.len(), 0..48)
            .prop_map(move |picks| picks.iter().map(|&i| pool[i]).collect())
    }

    proptest! {
        #[test]
        fn write_escaped_matches_the_per_char_reference(
            strings in proptest::collection::vec(pooled_string(), 1..4)
        ) {
            for s in &strings {
                let (mut got, mut want) = (String::from("x"), String::from("x"));
                write_escaped(&mut got, s);
                reference_escaped(&mut want, s);
                prop_assert_eq!(&got, &want);
                prop_assert_eq!(parse(&got[1..]).unwrap().as_str(), Some(s.as_str()));
            }
            // A whole document: keys and values both go through the
            // escaper, in either layout.
            for pretty in [false, true] {
                let mut w = if pretty { JsonWriter::pretty() } else { JsonWriter::compact() };
                let (open, comma, colon, close) = if pretty {
                    ("{\n  ", ",\n  ", ": [", "\n}\n")
                } else {
                    ("{", ",", ":[", "}")
                };
                let mut want = String::from(open);
                w.begin_object();
                for (i, s) in strings.iter().enumerate() {
                    w.key(s).begin_array().str(s).str("k").end();
                    if i > 0 {
                        want.push_str(comma);
                    }
                    reference_escaped(&mut want, s);
                    want.push_str(colon);
                    reference_escaped(&mut want, s);
                    want.push_str(if pretty { ", \"k\"]" } else { ",\"k\"]" });
                }
                w.end();
                want.push_str(close);
                prop_assert_eq!(w.finish(), want);
            }
        }
    }

    /// A run of up to 100 bytes that need no escape: printable ASCII but
    /// `"` and `\`, and DEL.
    fn clean_run() -> impl Strategy<Value = String> {
        let clean: Vec<char> = (0x20u8..0x80)
            .filter(|&b| b != b'"' && b != b'\\')
            .map(char::from)
            .collect();
        proptest::collection::vec(0..clean.len(), 0..=100)
            .prop_map(move |picks| picks.iter().map(|&i| clean[i]).collect())
    }

    /// One char that needs an escape, or one 2-, 3- or 4-byte scalar.
    fn odd_char() -> impl Strategy<Value = char> {
        let odd: Vec<char> = (escape_pool().into_iter())
            .filter(|&c| !c.is_ascii() || needs_escape(c as u8))
            .collect();
        (0..odd.len()).prop_map(move |i| odd[i])
    }

    proptest! {
        /// The escaper tests 16 bytes at a time: one escape byte or one
        /// multi-byte scalar, put at every offset of a clean run of up to
        /// 100 bytes, lands in every position of a chunk, in the tail and
        /// in neither, and every clean chunk around it is skipped whole.
        #[test]
        fn write_escaped_matches_the_reference_across_chunk_boundaries(
            head in clean_run(),
            odd in odd_char(),
            tail in clean_run(),
        ) {
            for cut in 0..=head.len() {
                let s = format!("{}{odd}{}{tail}", &head[..cut], &head[cut..]);
                let (mut got, mut want) = (String::new(), String::new());
                write_escaped(&mut got, &s);
                reference_escaped(&mut want, &s);
                prop_assert_eq!(&got, &want);
                prop_assert_eq!(parse(&got).unwrap().as_str(), Some(s.as_str()));
            }
        }
    }

    proptest! {
        #[test]
        fn write_uint_matches_format(v in any::<u64>(), len in 0..4usize) {
            // The drawn value, 0, 9, 10, u64::MAX, and every power of ten
            // and its predecessor: each digit count and both of its ends.
            let tens = (0..20).map(|e| 10u64.pow(e));
            let ends = tens.clone().chain(tens.map(|t| t - 1));
            for v in [v, 0, 9, 10, u64::MAX].into_iter().chain(ends) {
                // Appends after whatever the buffer already holds.
                let head = "x".repeat(len);
                let mut got = head.clone();
                write_uint(&mut got, v);
                prop_assert_eq!(got, format!("{head}{v}"));
            }
        }
    }

    #[test]
    fn parses_nested_document() {
        let doc = r#"{"a": [1, 2.5, -3e2], "b": {"c": "x\ny", "d": true}, "e": null}"#;
        let v = parse(doc).unwrap();
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[2].as_f64(),
            Some(-300.0)
        );
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("b").unwrap().get("d"), Some(&JsonValue::Bool(true)));
        assert_eq!(v.get("e"), Some(&JsonValue::Null));
    }

    #[test]
    fn escape_roundtrips_through_parser() {
        let nasty = "quote\" slash\\ newline\n tab\t control\u{1} unicode µ";
        let mut doc = String::new();
        write_escaped(&mut doc, nasty);
        let v = parse(&doc).unwrap();
        assert_eq!(v.as_str(), Some(nasty));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["{", "[1,", "\"open", "{\"a\" 1}", "12 34", "nul"] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn empty_containers() {
        assert_eq!(parse("[]").unwrap(), JsonValue::Array(vec![]));
        assert_eq!(parse("{}").unwrap(), JsonValue::Object(BTreeMap::new()));
    }
}
