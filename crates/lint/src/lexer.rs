//! A hand-rolled Rust lexer, sufficient for token-stream lint matching.
//!
//! This is not a full `rustc` lexer; it is the subset the lints need to
//! be *sound on real Rust source*: every construct that could make a
//! naive substring scan lie — string literals (plain, raw, byte, raw
//! byte, with arbitrary `#` fences), character literals vs. lifetimes,
//! nested block comments, doc comments — is tokenized correctly, so a
//! `unwrap()` inside `r#"…unwrap()…"#` or a `HashMap` in a doc example
//! never reaches a lint. Comments are kept out of the token stream but
//! collected separately (with line numbers) because two consumers need
//! them: line-level `// ccdem-lint: allow(…)` suppressions and the
//! atomics-ordering lint, which looks for a written justification.
//!
//! Multi-character operators are deliberately emitted as single-char
//! punctuation tokens (`::` is `:` `:`): the lints match short fixed
//! sequences and never need operator-level granularity.

use std::fmt;

/// One significant token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// An identifier or keyword (raw identifiers are stripped of `r#`).
    Ident(String),
    /// A lifetime, without the leading `'`.
    Lifetime(String),
    /// A string literal (plain or raw); the payload is the *cooked*
    /// value for plain strings and the verbatim inner text for raw ones.
    Str(String),
    /// A byte-string literal (`b"…"` / `br"…"`); payload as for [`Tok::Str`].
    ByteStr(String),
    /// A character or byte literal (`'a'`, `b'\n'`).
    Char,
    /// A numeric literal, verbatim.
    Num(String),
    /// A single punctuation character.
    Punct(char),
}

impl Tok {
    /// The identifier text, if this is an identifier.
    pub fn ident(&self) -> Option<&str> {
        match self {
            Tok::Ident(name) => Some(name),
            _ => None,
        }
    }

    /// The string-literal payload, if this is a string literal.
    pub fn str_value(&self) -> Option<&str> {
        match self {
            Tok::Str(value) => Some(value),
            _ => None,
        }
    }

    /// Whether this token is the punctuation `c`.
    pub fn is_punct(&self, c: char) -> bool {
        matches!(self, Tok::Punct(p) if *p == c)
    }

    /// Whether this token is the identifier `name`.
    pub fn is_ident(&self, name: &str) -> bool {
        matches!(self, Tok::Ident(i) if i == name)
    }
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(i) => write!(f, "{i}"),
            Tok::Lifetime(l) => write!(f, "'{l}"),
            Tok::Str(_) => write!(f, "string literal"),
            Tok::ByteStr(_) => write!(f, "byte-string literal"),
            Tok::Char => write!(f, "char literal"),
            Tok::Num(n) => write!(f, "{n}"),
            Tok::Punct(p) => write!(f, "{p}"),
        }
    }
}

/// A token plus the 1-based line it starts on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// The token.
    pub tok: Tok,
    /// 1-based source line.
    pub line: u32,
}

/// A comment (line or block, doc or plain) with its starting line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Comment {
    /// The comment text, including the `//` / `/*` markers.
    pub text: String,
    /// 1-based line the comment starts on.
    pub line: u32,
    /// 1-based line the comment ends on (equal to `line` for line
    /// comments).
    pub end_line: u32,
}

/// A lexing failure; diagnostics point at the offending line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexError {
    /// 1-based line of the failure.
    pub line: u32,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

/// The lexed form of one source file.
#[derive(Debug, Clone, Default)]
pub struct Lexed {
    /// Significant tokens in source order.
    pub tokens: Vec<Token>,
    /// Comments in source order.
    pub comments: Vec<Comment>,
}

/// Lexes Rust source.
///
/// # Errors
///
/// Returns [`LexError`] for unterminated strings, comments, or raw-string
/// fences — which on real, compiling source indicates a lexer bug, so
/// the caller surfaces it as a hard diagnostic rather than skipping the
/// file silently.
pub fn lex(source: &str) -> Result<Lexed, LexError> {
    Lexer {
        bytes: source.as_bytes(),
        pos: 0,
        line: 1,
        out: Lexed::default(),
    }
    .run()
}

struct Lexer<'a> {
    bytes: &'a [u8],
    pos: usize,
    line: u32,
    out: Lexed,
}

impl Lexer<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn peek_at(&self, offset: usize) -> Option<u8> {
        self.bytes.get(self.pos + offset).copied()
    }

    /// Consumes one byte, maintaining the line counter.
    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
        }
        Some(b)
    }

    fn error(&self, message: impl Into<String>) -> LexError {
        LexError {
            line: self.line,
            message: message.into(),
        }
    }

    fn push(&mut self, tok: Tok, line: u32) {
        self.out.tokens.push(Token { tok, line });
    }

    fn run(mut self) -> Result<Lexed, LexError> {
        while let Some(b) = self.peek() {
            let line = self.line;
            match b {
                b' ' | b'\t' | b'\r' | b'\n' => {
                    self.bump();
                }
                b'/' if self.peek_at(1) == Some(b'/') => self.line_comment(),
                b'/' if self.peek_at(1) == Some(b'*') => self.block_comment()?,
                b'"' => {
                    let value = self.string()?;
                    self.push(Tok::Str(value), line);
                }
                b'\'' => self.quote(line)?,
                b'b' | b'r' if self.string_prefix().is_some() => {
                    let kind = self.string_prefix();
                    self.prefixed_string(kind, line)?;
                }
                b'_' | b'a'..=b'z' | b'A'..=b'Z' => {
                    let ident = self.ident();
                    self.push(Tok::Ident(ident), line);
                }
                b'0'..=b'9' => {
                    let num = self.number();
                    self.push(Tok::Num(num), line);
                }
                _ => {
                    self.bump();
                    // Multi-byte UTF-8 (only legal in comments/strings in
                    // valid Rust, but be permissive): skip continuation
                    // bytes without emitting tokens.
                    if b < 0x80 {
                        self.push(Tok::Punct(char::from(b)), line);
                    }
                }
            }
        }
        Ok(self.out)
    }

    /// Detects `b"`, `r"…`, `br"…`, `r#…#"…`, `br#…#"…`, `b'` at the
    /// cursor. Returns the prefix kind: `Some((is_byte, is_raw))`.
    /// A raw *identifier* (`r#type`) has ident chars, not `"`, after its
    /// `#` and is not a string prefix.
    fn string_prefix(&self) -> Option<(bool, bool)> {
        match (self.peek(), self.peek_at(1)) {
            (Some(b'r'), Some(b'"')) => Some((false, true)),
            (Some(b'r'), Some(b'#')) if self.fence_then_quote(1) => Some((false, true)),
            (Some(b'b'), Some(b'"')) => Some((true, false)),
            (Some(b'b'), Some(b'\'')) => Some((true, false)),
            (Some(b'b'), Some(b'r')) => match self.peek_at(2) {
                Some(b'"') => Some((true, true)),
                Some(b'#') if self.fence_then_quote(2) => Some((true, true)),
                _ => None,
            },
            _ => None,
        }
    }

    /// Whether, starting `offset` bytes ahead, a run of `#`s is followed
    /// by `"` — the raw-string fence, as opposed to a raw identifier.
    fn fence_then_quote(&self, offset: usize) -> bool {
        let mut at = offset;
        while self.peek_at(at) == Some(b'#') {
            at += 1;
        }
        at > offset && self.peek_at(at) == Some(b'"')
    }

    fn prefixed_string(&mut self, kind: Option<(bool, bool)>, line: u32) -> Result<(), LexError> {
        let (is_byte, is_raw) = match kind {
            Some(k) => k,
            None => return Ok(()),
        };
        if is_byte {
            self.bump(); // consume `b`
        }
        if is_raw {
            self.bump(); // consume `r`
            let value = self.raw_string()?;
            let tok = if is_byte {
                Tok::ByteStr(value)
            } else {
                Tok::Str(value)
            };
            self.push(tok, line);
        } else if self.peek() == Some(b'\'') {
            // Byte literal b'x'.
            self.char_literal()?;
            self.push(Tok::Char, line);
        } else {
            let value = self.string()?;
            let tok = if is_byte {
                Tok::ByteStr(value)
            } else {
                Tok::Str(value)
            };
            self.push(tok, line);
        }
        Ok(())
    }

    fn line_comment(&mut self) {
        let line = self.line;
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b == b'\n' {
                break;
            }
            self.bump();
        }
        let text =
            String::from_utf8_lossy(self.bytes.get(start..self.pos).unwrap_or(&[])).into_owned();
        self.out.comments.push(Comment {
            text,
            line,
            end_line: line,
        });
    }

    /// Block comments nest, per the Rust reference.
    fn block_comment(&mut self) -> Result<(), LexError> {
        let line = self.line;
        let start = self.pos;
        self.bump(); // `/`
        self.bump(); // `*`
        let mut depth = 1usize;
        while depth > 0 {
            match (self.peek(), self.peek_at(1)) {
                (Some(b'/'), Some(b'*')) => {
                    self.bump();
                    self.bump();
                    depth += 1;
                }
                (Some(b'*'), Some(b'/')) => {
                    self.bump();
                    self.bump();
                    depth -= 1;
                }
                (Some(_), _) => {
                    self.bump();
                }
                (None, _) => return Err(self.error("unterminated block comment")),
            }
        }
        let text =
            String::from_utf8_lossy(self.bytes.get(start..self.pos).unwrap_or(&[])).into_owned();
        self.out.comments.push(Comment {
            text,
            line,
            end_line: self.line,
        });
        Ok(())
    }

    /// A plain (escaped) string body, cursor on the opening `"`.
    fn string(&mut self) -> Result<String, LexError> {
        self.bump(); // opening quote
        let mut value = String::new();
        loop {
            match self.bump() {
                None => return Err(self.error("unterminated string literal")),
                Some(b'"') => return Ok(value),
                Some(b'\\') => match self.bump() {
                    None => return Err(self.error("unterminated escape")),
                    Some(b'n') => value.push('\n'),
                    Some(b't') => value.push('\t'),
                    Some(b'r') => value.push('\r'),
                    Some(b'0') => value.push('\0'),
                    Some(b'\\') => value.push('\\'),
                    Some(b'"') => value.push('"'),
                    Some(b'\'') => value.push('\''),
                    Some(b'\n') => {
                        // Line-continuation escape: skip leading whitespace.
                        while matches!(self.peek(), Some(b' ' | b'\t')) {
                            self.bump();
                        }
                    }
                    // \xNN, \u{…}: the cooked value of an escape never
                    // matters to a lint (names are plain ASCII), so a
                    // placeholder keeps the lexer simple and honest.
                    Some(b'x') => {
                        self.bump();
                        self.bump();
                        value.push('\u{FFFD}');
                    }
                    Some(b'u') => {
                        while let Some(b) = self.peek() {
                            let done = b == b'}';
                            self.bump();
                            if done {
                                break;
                            }
                        }
                        value.push('\u{FFFD}');
                    }
                    Some(other) => value.push(char::from(other)),
                },
                Some(b) if b < 0x80 => value.push(char::from(b)),
                Some(_) => value.push('\u{FFFD}'),
            }
        }
    }

    /// A raw string body, cursor on `#` or `"` (the `r` is consumed).
    fn raw_string(&mut self) -> Result<String, LexError> {
        let mut fence = 0usize;
        while self.peek() == Some(b'#') {
            self.bump();
            fence += 1;
        }
        if self.peek() != Some(b'"') {
            return Err(self.error("malformed raw string fence"));
        }
        self.bump();
        let start = self.pos;
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated raw string")),
                Some(b'"') => {
                    // A closing quote counts only when followed by the
                    // full `#` fence.
                    let mut matched = 0usize;
                    while matched < fence && self.peek_at(1 + matched) == Some(b'#') {
                        matched += 1;
                    }
                    if matched == fence {
                        let value =
                            String::from_utf8_lossy(self.bytes.get(start..self.pos).unwrap_or(&[]))
                                .into_owned();
                        self.bump(); // `"`
                        for _ in 0..fence {
                            self.bump(); // `#`
                        }
                        return Ok(value);
                    }
                    self.bump();
                }
                Some(_) => {
                    self.bump();
                }
            }
        }
    }

    /// Disambiguates `'a'` (char), `'\n'` (char), `'static` (lifetime).
    /// A lifetime is `'` + ident-start not closed by a matching `'`
    /// immediately after one character.
    fn quote(&mut self, line: u32) -> Result<(), LexError> {
        let next = self.peek_at(1);
        let after = self.peek_at(2);
        let is_lifetime =
            matches!(next, Some(b'_' | b'a'..=b'z' | b'A'..=b'Z')) && after != Some(b'\'');
        if is_lifetime {
            self.bump(); // `'`
            let name = self.ident();
            self.push(Tok::Lifetime(name), line);
            Ok(())
        } else {
            self.char_literal()?;
            self.push(Tok::Char, line);
            Ok(())
        }
    }

    /// A char literal, cursor on the opening `'`.
    fn char_literal(&mut self) -> Result<(), LexError> {
        self.bump(); // opening quote
        match self.bump() {
            None => return Err(self.error("unterminated character literal")),
            Some(b'\\') => match self.bump() {
                None => return Err(self.error("unterminated escape")),
                Some(b'x') => {
                    self.bump();
                    self.bump();
                }
                Some(b'u') => {
                    while let Some(b) = self.peek() {
                        let done = b == b'}';
                        self.bump();
                        if done {
                            break;
                        }
                    }
                }
                Some(_) => {}
            },
            // Multi-byte UTF-8 scalar (e.g. '–'): consume its
            // continuation bytes too.
            Some(b) if b >= 0x80 => {
                while matches!(self.peek(), Some(0x80..=0xBF)) {
                    self.bump();
                }
            }
            Some(_) => {}
        }
        if self.bump() != Some(b'\'') {
            return Err(self.error("unterminated character literal"));
        }
        Ok(())
    }

    fn ident(&mut self) -> String {
        // Raw identifier: `r#type` — strip the marker so lints see the
        // plain name.
        if self.peek() == Some(b'r') && self.peek_at(1) == Some(b'#') {
            self.bump();
            self.bump();
        }
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'_' | b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9')
        ) {
            self.bump();
        }
        String::from_utf8_lossy(self.bytes.get(start..self.pos).unwrap_or(&[])).into_owned()
    }

    fn number(&mut self) -> String {
        let start = self.pos;
        // Digits, underscores, type suffixes, hex/oct/bin markers, and a
        // fractional part. `1.0` consumes the dot only when a digit
        // follows (so `x.0` field access still lexes as punctuation —
        // close enough, since `0` here follows a digit, not an ident).
        while matches!(
            self.peek(),
            Some(
                b'0'..=b'9'
                | b'_'
                | b'a'..=b'f'
                | b'A'..=b'F'
                | b'x'
                | b'o'
                | b'i'
                | b'u'
                | b's'
                | b'z',
            )
        ) {
            self.bump();
        }
        if self.peek() == Some(b'.') && matches!(self.peek_at(1), Some(b'0'..=b'9')) {
            self.bump();
            while matches!(self.peek(), Some(b'0'..=b'9' | b'_' | b'e' | b'E' | b'f')) {
                self.bump();
            }
        }
        String::from_utf8_lossy(self.bytes.get(start..self.pos).unwrap_or(&[])).into_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .expect("lex")
            .tokens
            .into_iter()
            .filter_map(|t| match t.tok {
                Tok::Ident(i) => Some(i),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn unwrap_inside_strings_is_not_an_ident() {
        let src = r####"
            let a = "call .unwrap() here";
            let b = r#"raw .unwrap() too"#;
            let c = b"bytes .unwrap()";
            let d = br##"raw bytes .unwrap()"##;
        "####;
        assert!(!idents(src).contains(&"unwrap".to_string()));
    }

    #[test]
    fn nested_block_comments_hide_tokens() {
        let src = "/* outer /* inner unwrap() */ still comment */ let x = 1;";
        let lexed = lex(src).expect("lex");
        assert!(!lexed.tokens.iter().any(|t| t.tok.is_ident("unwrap")));
        assert_eq!(lexed.comments.len(), 1);
        assert!(lexed
            .comments
            .first()
            .expect("one comment")
            .text
            .contains("inner"));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let src = "fn f<'a>(x: &'a str) -> char { 'a' }";
        let lexed = lex(src).expect("lex");
        let lifetimes = lexed
            .tokens
            .iter()
            .filter(|t| matches!(t.tok, Tok::Lifetime(_)))
            .count();
        let chars = lexed.tokens.iter().filter(|t| t.tok == Tok::Char).count();
        assert_eq!(lifetimes, 2);
        assert_eq!(chars, 1);
    }

    #[test]
    fn multibyte_char_literal_lexes() {
        let src = "let dash = '–'; let ok = x.split('|');";
        let lexed = lex(src).expect("lex");
        let chars = lexed.tokens.iter().filter(|t| t.tok == Tok::Char).count();
        assert_eq!(chars, 2);
    }

    #[test]
    fn escaped_quote_chars_lex() {
        let lexed = lex(r"let q = '\''; let n = '\n'; let u = '\u{1F600}';").expect("lex");
        assert_eq!(
            lexed.tokens.iter().filter(|t| t.tok == Tok::Char).count(),
            3
        );
    }

    #[test]
    fn line_numbers_are_tracked() {
        let src = "let a = 1;\nlet b = 2;\n\nlet c = 3;";
        let lexed = lex(src).expect("lex");
        let line_of = |name: &str| {
            lexed
                .tokens
                .iter()
                .find(|t| t.tok.is_ident(name))
                .map(|t| t.line)
        };
        assert_eq!(line_of("a"), Some(1));
        assert_eq!(line_of("b"), Some(2));
        assert_eq!(line_of("c"), Some(4));
    }

    #[test]
    fn string_values_cook_escapes() {
        let lexed = lex(r#"emit("a\nb");"#).expect("lex");
        let value = lexed
            .tokens
            .iter()
            .find_map(|t| t.tok.str_value())
            .expect("one string");
        assert_eq!(value, "a\nb");
    }

    #[test]
    fn raw_string_fences_respected() {
        let lexed = lex(r####"let x = r##"has "# inside"##;"####).expect("lex");
        let value = lexed
            .tokens
            .iter()
            .find_map(|t| t.tok.str_value())
            .expect("one string");
        assert_eq!(value, r##"has "# inside"##);
    }

    #[test]
    fn doc_comments_are_comments() {
        let src = "/// uses HashMap in prose\n//! and here\nfn f() {}";
        let lexed = lex(src).expect("lex");
        assert!(!lexed.tokens.iter().any(|t| t.tok.is_ident("HashMap")));
        assert_eq!(lexed.comments.len(), 2);
    }

    #[test]
    fn raw_identifiers_are_stripped() {
        assert_eq!(idents("let r#type = 1;"), vec!["let", "type"]);
    }

    #[test]
    fn unterminated_string_is_an_error() {
        assert!(lex("let x = \"oops").is_err());
        assert!(lex("/* never closed").is_err());
        assert!(lex("let x = r#\"oops\"").is_err());
    }
}
