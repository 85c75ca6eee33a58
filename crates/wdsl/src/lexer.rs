//! Tokenizer for the workload DSL.
//!
//! [`Lexer`] scans one token per call, so the parser holds only its
//! lookahead and a large `data` array never exists as a token list; `#`
//! starts a comment running to end of line. Integer literals are
//! decimal `u64`. Identifiers and keywords share one token kind — the
//! parser decides which identifiers are reserved, so the token stream
//! stays simple.

use crate::error::{DslError, Pos};

/// One lexical token with its source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// Token kind and payload.
    pub kind: TokenKind,
    /// Source position of the token's first character.
    pub pos: Pos,
}

/// The token kinds of the DSL.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`let`, `kernel`, `frontier`, …).
    Ident(String),
    /// Decimal integer literal.
    Int(u64),
    /// Double-quoted string literal (no escapes).
    Str(String),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `,`
    Comma,
    /// `;`
    Semi,
    /// `=`
    Assign,
    /// `..`
    DotDot,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `%`
    Percent,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==`
    EqEq,
    /// `!=`
    Ne,
    /// `&`
    Amp,
    /// `&&`
    AmpAmp,
    /// `|`
    Pipe,
    /// `||`
    PipePipe,
    /// `!`
    Bang,
    /// End of input (always the final token).
    Eof,
}

impl TokenKind {
    /// Human-readable description for error messages.
    pub fn describe(&self) -> String {
        match self {
            TokenKind::Ident(s) => format!("identifier '{s}'"),
            TokenKind::Int(n) => format!("integer {n}"),
            TokenKind::Str(s) => format!("string \"{s}\""),
            TokenKind::Eof => "end of input".to_string(),
            other => format!("'{}'", other.glyph()),
        }
    }

    fn glyph(&self) -> &'static str {
        match self {
            TokenKind::LParen => "(",
            TokenKind::RParen => ")",
            TokenKind::LBrace => "{",
            TokenKind::RBrace => "}",
            TokenKind::LBracket => "[",
            TokenKind::RBracket => "]",
            TokenKind::Comma => ",",
            TokenKind::Semi => ";",
            TokenKind::Assign => "=",
            TokenKind::DotDot => "..",
            TokenKind::Plus => "+",
            TokenKind::Minus => "-",
            TokenKind::Star => "*",
            TokenKind::Slash => "/",
            TokenKind::Percent => "%",
            TokenKind::Shl => "<<",
            TokenKind::Shr => ">>",
            TokenKind::Lt => "<",
            TokenKind::Le => "<=",
            TokenKind::Gt => ">",
            TokenKind::Ge => ">=",
            TokenKind::EqEq => "==",
            TokenKind::Ne => "!=",
            TokenKind::Amp => "&",
            TokenKind::AmpAmp => "&&",
            TokenKind::Pipe => "|",
            TokenKind::PipePipe => "||",
            TokenKind::Bang => "!",
            _ => "?",
        }
    }
}

/// A streaming tokenizer over one source text: each
/// [`next_token`](Lexer::next_token) call scans and returns one token,
/// so no caller ever holds more tokens than it asked for.
#[derive(Debug)]
pub struct Lexer<'a> {
    bytes: &'a [u8],
    i: usize,
    line: u32,
    col: u32,
}

impl<'a> Lexer<'a> {
    /// A lexer positioned at the start of `src`.
    pub fn new(src: &'a str) -> Self {
        Lexer { bytes: src.as_bytes(), i: 0, line: 1, col: 1 }
    }

    /// Scans the next token. At the end of input it returns `Eof`, and
    /// keeps returning `Eof` on every later call; after an error the
    /// input counts as ended.
    ///
    /// # Errors
    ///
    /// Reports an unexpected character, an unterminated string, or an
    /// integer literal that overflows `u64`, with its position.
    pub fn next_token(&mut self) -> Result<Token, DslError> {
        let token = self.scan();
        if token.is_err() {
            self.i = self.bytes.len();
        }
        token
    }

    fn scan(&mut self) -> Result<Token, DslError> {
        let bytes = self.bytes;
        while let Some(&c) = bytes.get(self.i) {
            match c {
                b'\n' => {
                    self.i += 1;
                    self.line += 1;
                    self.col = 1;
                }
                b' ' | b'\t' | b'\r' => {
                    self.i += 1;
                    self.col += 1;
                }
                b'#' => {
                    while self.i < bytes.len() && bytes[self.i] != b'\n' {
                        self.i += 1;
                    }
                }
                _ => break,
            }
        }
        let i = self.i;
        let Some(&c) = bytes.get(i) else {
            return Ok(Token { kind: TokenKind::Eof, pos: self.pos() });
        };
        let second = bytes.get(i + 1).copied();
        let (kind, len) = match c {
            b'(' => (TokenKind::LParen, 1),
            b')' => (TokenKind::RParen, 1),
            b'{' => (TokenKind::LBrace, 1),
            b'}' => (TokenKind::RBrace, 1),
            b'[' => (TokenKind::LBracket, 1),
            b']' => (TokenKind::RBracket, 1),
            b',' => (TokenKind::Comma, 1),
            b';' => (TokenKind::Semi, 1),
            b'+' => (TokenKind::Plus, 1),
            b'-' => (TokenKind::Minus, 1),
            b'*' => (TokenKind::Star, 1),
            b'/' => (TokenKind::Slash, 1),
            b'%' => (TokenKind::Percent, 1),
            b'.' if second == Some(b'.') => (TokenKind::DotDot, 2),
            b'=' if second == Some(b'=') => (TokenKind::EqEq, 2),
            b'=' => (TokenKind::Assign, 1),
            b'!' if second == Some(b'=') => (TokenKind::Ne, 2),
            b'!' => (TokenKind::Bang, 1),
            b'<' if second == Some(b'<') => (TokenKind::Shl, 2),
            b'<' if second == Some(b'=') => (TokenKind::Le, 2),
            b'<' => (TokenKind::Lt, 1),
            b'>' if second == Some(b'>') => (TokenKind::Shr, 2),
            b'>' if second == Some(b'=') => (TokenKind::Ge, 2),
            b'>' => (TokenKind::Gt, 1),
            b'&' if second == Some(b'&') => (TokenKind::AmpAmp, 2),
            b'&' => (TokenKind::Amp, 1),
            b'|' if second == Some(b'|') => (TokenKind::PipePipe, 2),
            b'|' => (TokenKind::Pipe, 1),
            b'"' => {
                let start = i + 1;
                let mut end = start;
                while end < bytes.len() && bytes[end] != b'"' && bytes[end] != b'\n' {
                    end += 1;
                }
                if end >= bytes.len() || bytes[end] != b'"' {
                    return Err(self.error("unterminated string literal".to_string()));
                }
                let s = String::from_utf8_lossy(&bytes[start..end]).into_owned();
                (TokenKind::Str(s), end + 1 - i)
            }
            b'0'..=b'9' => {
                let end = self.run_end(u8::is_ascii_digit);
                let text = std::str::from_utf8(&bytes[i..end]).unwrap_or("");
                let value: u64 = text.parse().map_err(|_| {
                    self.error(format!("integer literal '{text}' does not fit in u64"))
                })?;
                (TokenKind::Int(value), end - i)
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                let end = self.run_end(|b| b.is_ascii_alphanumeric() || *b == b'_');
                let s = String::from_utf8_lossy(&bytes[i..end]).into_owned();
                (TokenKind::Ident(s), end - i)
            }
            other => return Err(self.error(format!("unexpected character '{}'", other as char))),
        };
        let token = Token { kind, pos: self.pos() };
        self.i += len;
        self.col += len as u32;
        Ok(token)
    }

    /// End of the run of bytes matching `class` that starts at the
    /// current byte.
    fn run_end(&self, class: impl Fn(&u8) -> bool) -> usize {
        self.bytes[self.i..].iter().position(|b| !class(b)).map_or(self.bytes.len(), |n| self.i + n)
    }

    /// The position the lexer has reached; after an error, the error's
    /// position.
    pub(crate) fn pos(&self) -> Pos {
        Pos { line: self.line, col: self.col }
    }

    fn error(&self, message: String) -> DslError {
        DslError::Lex { pos: self.pos(), message }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every token of `src` up to and including `Eof`.
    fn lex(src: &str) -> Result<Vec<Token>, DslError> {
        let mut lexer = Lexer::new(src);
        let mut tokens = Vec::new();
        loop {
            let token = lexer.next_token()?;
            let eof = token.kind == TokenKind::Eof;
            tokens.push(token);
            if eof {
                return Ok(tokens);
            }
        }
    }

    fn kinds(src: &str) -> Vec<TokenKind> {
        lex(src).expect("lexes").into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_program_fragment() {
        let ks = kinds("let a = tb * 32; # chunk start\nif a <= 7 { yield addr(r, a); }");
        assert!(ks.contains(&TokenKind::Ident("let".into())));
        assert!(ks.contains(&TokenKind::Int(32)));
        assert!(ks.contains(&TokenKind::Le));
        assert!(!ks.iter().any(|k| matches!(k, TokenKind::Ident(s) if s == "chunk")));
    }

    #[test]
    fn two_char_operators_win_over_one_char() {
        assert_eq!(
            kinds("<< >> <= >= == != && || ..")[..9],
            [
                TokenKind::Shl,
                TokenKind::Shr,
                TokenKind::Le,
                TokenKind::Ge,
                TokenKind::EqEq,
                TokenKind::Ne,
                TokenKind::AmpAmp,
                TokenKind::PipePipe,
                TokenKind::DotDot,
            ]
        );
    }

    #[test]
    fn positions_track_lines_and_columns() {
        let toks = lex("a\n  bb").expect("lexes");
        assert_eq!(toks[0].pos, Pos { line: 1, col: 1 });
        assert_eq!(toks[1].pos, Pos { line: 2, col: 3 });
        assert_eq!(toks[2].pos, Pos { line: 2, col: 5 }, "eof sits after the last token");
    }

    #[test]
    fn eof_repeats_after_the_end() {
        let mut lexer = Lexer::new("a # trailing comment");
        assert_eq!(lexer.next_token().expect("lexes").kind, TokenKind::Ident("a".into()));
        for _ in 0..3 {
            assert_eq!(lexer.next_token().expect("lexes").kind, TokenKind::Eof);
        }
    }

    #[test]
    fn input_ends_at_the_first_error() {
        let mut lexer = Lexer::new("a @ b $");
        assert_eq!(lexer.next_token().expect("lexes").kind, TokenKind::Ident("a".into()));
        let err = lexer.next_token().expect_err("must fail");
        assert!(err.to_string().contains('@'), "{err}");
        assert_eq!(lexer.next_token().expect("ended").kind, TokenKind::Eof);
    }

    #[test]
    fn string_literals() {
        assert_eq!(kinds("\"bfs-sweep\"")[0], TokenKind::Str("bfs-sweep".into()));
    }

    #[test]
    fn unterminated_string_is_an_error() {
        let err = lex("\"oops").expect_err("must fail");
        assert!(err.to_string().contains("unterminated string"), "{err}");
    }

    #[test]
    fn overflowing_integer_is_an_error() {
        let err = lex("99999999999999999999999").expect_err("must fail");
        assert!(err.to_string().contains("does not fit"), "{err}");
    }

    #[test]
    fn stray_character_is_an_error() {
        let err = lex("a @ b").expect_err("must fail");
        assert_eq!(err.stage(), "lex");
        assert!(err.to_string().contains('@'), "{err}");
    }

    #[test]
    fn lone_dot_is_an_error() {
        assert!(lex("a . b").is_err());
    }
}
