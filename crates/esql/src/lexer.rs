//! Hand-written lexer for E-SQL.
//!
//! Identifiers may contain `-` after the first character (the paper names
//! views like `Asia-Customer`); keywords are case-insensitive; strings use
//! single quotes with `''` escaping.

use crate::error::{ParseError, ParseResult};

/// A lexical token kind.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum TokenKind {
    /// Identifier or keyword (original spelling preserved).
    Ident(String),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// Single-quoted string literal (unescaped content).
    Str(String),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `=`
    Eq,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `<>`
    Ne,
    /// `~` (used in `VE = '~'` alternatives)
    Tilde,
    /// End of input.
    Eof,
}

impl TokenKind {
    /// Short description for error messages.
    #[must_use]
    pub fn describe(&self) -> String {
        match self {
            TokenKind::Ident(s) => format!("identifier `{s}`"),
            TokenKind::Int(v) => format!("integer `{v}`"),
            TokenKind::Float(v) => format!("float `{v}`"),
            TokenKind::Str(s) => format!("string `'{s}'`"),
            TokenKind::LParen => "`(`".into(),
            TokenKind::RParen => "`)`".into(),
            TokenKind::Comma => "`,`".into(),
            TokenKind::Dot => "`.`".into(),
            TokenKind::Eq => "`=`".into(),
            TokenKind::Lt => "`<`".into(),
            TokenKind::Le => "`<=`".into(),
            TokenKind::Gt => "`>`".into(),
            TokenKind::Ge => "`>=`".into(),
            TokenKind::Ne => "`<>`".into(),
            TokenKind::Tilde => "`~`".into(),
            TokenKind::Eof => "end of input".into(),
        }
    }
}

/// A token with its source position.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Token {
    /// Kind and payload.
    pub kind: TokenKind,
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub column: usize,
}

/// Tokenizes E-SQL source text.
///
/// # Errors
///
/// Returns a [`ParseError`] for unterminated strings, malformed numbers or
/// unexpected characters.
pub(crate) fn tokenize(src: &str) -> ParseResult<Vec<Token>> {
    let mut tokens = Vec::new();
    let chars: Vec<char> = src.chars().collect();
    let mut i = 0usize;
    let mut line = 1usize;
    let mut col = 1usize;

    macro_rules! push {
        ($kind:expr, $l:expr, $c:expr) => {
            tokens.push(Token {
                kind: $kind,
                line: $l,
                column: $c,
            })
        };
    }

    while i < chars.len() {
        let c = chars[i];
        let (tl, tc) = (line, col);
        match c {
            '\n' => {
                line += 1;
                col = 1;
                i += 1;
            }
            c if c.is_whitespace() => {
                col += 1;
                i += 1;
            }
            '-' if i + 1 < chars.len() && chars[i + 1] == '-' => {
                // SQL comment to end of line.
                while i < chars.len() && chars[i] != '\n' {
                    i += 1;
                }
            }
            '-' if i + 1 < chars.len() && chars[i + 1].is_ascii_digit() => {
                // Negative numeric literal (a lone `-` can only start a
                // number: hyphens inside identifiers are consumed by the
                // identifier rule).
                let start = i;
                i += 1;
                while i < chars.len() && chars[i].is_ascii_digit() {
                    i += 1;
                }
                let mut is_float = false;
                if i + 1 < chars.len() && chars[i] == '.' && chars[i + 1].is_ascii_digit() {
                    is_float = true;
                    i += 1;
                    while i < chars.len() && chars[i].is_ascii_digit() {
                        i += 1;
                    }
                }
                let text: String = chars[start..i].iter().collect();
                col += i - start;
                if is_float {
                    let v: f64 = text
                        .parse()
                        .map_err(|_| ParseError::new(tl, tc, format!("bad float `{text}`")))?;
                    push!(TokenKind::Float(v), tl, tc);
                } else {
                    let v: i64 = text
                        .parse()
                        .map_err(|_| ParseError::new(tl, tc, format!("bad integer `{text}`")))?;
                    push!(TokenKind::Int(v), tl, tc);
                }
            }
            '(' => {
                push!(TokenKind::LParen, tl, tc);
                i += 1;
                col += 1;
            }
            ')' => {
                push!(TokenKind::RParen, tl, tc);
                i += 1;
                col += 1;
            }
            ',' => {
                push!(TokenKind::Comma, tl, tc);
                i += 1;
                col += 1;
            }
            '.' => {
                push!(TokenKind::Dot, tl, tc);
                i += 1;
                col += 1;
            }
            '=' => {
                push!(TokenKind::Eq, tl, tc);
                i += 1;
                col += 1;
            }
            '~' => {
                push!(TokenKind::Tilde, tl, tc);
                i += 1;
                col += 1;
            }
            '<' => {
                if i + 1 < chars.len() && chars[i + 1] == '=' {
                    push!(TokenKind::Le, tl, tc);
                    i += 2;
                    col += 2;
                } else if i + 1 < chars.len() && chars[i + 1] == '>' {
                    push!(TokenKind::Ne, tl, tc);
                    i += 2;
                    col += 2;
                } else {
                    push!(TokenKind::Lt, tl, tc);
                    i += 1;
                    col += 1;
                }
            }
            '>' => {
                if i + 1 < chars.len() && chars[i + 1] == '=' {
                    push!(TokenKind::Ge, tl, tc);
                    i += 2;
                    col += 2;
                } else {
                    push!(TokenKind::Gt, tl, tc);
                    i += 1;
                    col += 1;
                }
            }
            '\'' => {
                let mut s = String::new();
                let mut j = i + 1;
                let mut closed = false;
                while j < chars.len() {
                    if chars[j] == '\'' {
                        if j + 1 < chars.len() && chars[j + 1] == '\'' {
                            s.push('\'');
                            j += 2;
                        } else {
                            closed = true;
                            j += 1;
                            break;
                        }
                    } else {
                        s.push(chars[j]);
                        j += 1;
                    }
                }
                if !closed {
                    return Err(ParseError::new(tl, tc, "unterminated string literal"));
                }
                col += j - i;
                i = j;
                push!(TokenKind::Str(s), tl, tc);
            }
            c if c.is_ascii_digit() => {
                let start = i;
                while i < chars.len() && chars[i].is_ascii_digit() {
                    i += 1;
                }
                let mut is_float = false;
                if i + 1 < chars.len() && chars[i] == '.' && chars[i + 1].is_ascii_digit() {
                    is_float = true;
                    i += 1;
                    while i < chars.len() && chars[i].is_ascii_digit() {
                        i += 1;
                    }
                }
                let text: String = chars[start..i].iter().collect();
                col += i - start;
                if is_float {
                    let v: f64 = text
                        .parse()
                        .map_err(|_| ParseError::new(tl, tc, format!("bad float `{text}`")))?;
                    push!(TokenKind::Float(v), tl, tc);
                } else {
                    let v: i64 = text
                        .parse()
                        .map_err(|_| ParseError::new(tl, tc, format!("bad integer `{text}`")))?;
                    push!(TokenKind::Int(v), tl, tc);
                }
            }
            c if c.is_alphabetic() || c == '_' => {
                let start = i;
                while i < chars.len()
                    && (chars[i].is_alphanumeric() || chars[i] == '_' || chars[i] == '-')
                {
                    i += 1;
                }
                // A trailing '-' belongs to punctuation, not the identifier.
                while i > start + 1 && chars[i - 1] == '-' {
                    i -= 1;
                }
                let text: String = chars[start..i].iter().collect();
                col += i - start;
                push!(TokenKind::Ident(text), tl, tc);
            }
            other => {
                return Err(ParseError::new(
                    tl,
                    tc,
                    format!("unexpected character `{other}`"),
                ));
            }
        }
    }
    tokens.push(Token {
        kind: TokenKind::Eof,
        line,
        column: col,
    });
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        tokenize(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn basic_tokens() {
        assert_eq!(
            kinds("SELECT R.A, 42"),
            vec![
                TokenKind::Ident("SELECT".into()),
                TokenKind::Ident("R".into()),
                TokenKind::Dot,
                TokenKind::Ident("A".into()),
                TokenKind::Comma,
                TokenKind::Int(42),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn comparison_operators() {
        assert_eq!(
            kinds("< <= > >= = <>"),
            vec![
                TokenKind::Lt,
                TokenKind::Le,
                TokenKind::Gt,
                TokenKind::Ge,
                TokenKind::Eq,
                TokenKind::Ne,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn hyphenated_identifier() {
        assert_eq!(
            kinds("Asia-Customer"),
            vec![TokenKind::Ident("Asia-Customer".into()), TokenKind::Eof]
        );
    }

    #[test]
    fn string_with_escape() {
        assert_eq!(
            kinds("'Asia' 'O''Hare'"),
            vec![
                TokenKind::Str("Asia".into()),
                TokenKind::Str("O'Hare".into()),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn unterminated_string_errors() {
        let e = tokenize("'oops").unwrap_err();
        assert!(e.message.contains("unterminated"));
    }

    #[test]
    fn floats_and_ints() {
        assert_eq!(
            kinds("3.25 7"),
            vec![TokenKind::Float(3.25), TokenKind::Int(7), TokenKind::Eof]
        );
    }

    #[test]
    fn negative_literals() {
        assert_eq!(
            kinds("-42 -3.5"),
            vec![TokenKind::Int(-42), TokenKind::Float(-3.5), TokenKind::Eof]
        );
        // Hyphen inside an identifier still lexes as one identifier…
        assert_eq!(
            kinds("Asia-2"),
            vec![TokenKind::Ident("Asia-2".into()), TokenKind::Eof]
        );
        // …and a comparison against a negative number works.
        assert_eq!(
            kinds("A > -7"),
            vec![
                TokenKind::Ident("A".into()),
                TokenKind::Gt,
                TokenKind::Int(-7),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn comment_skipped() {
        assert_eq!(
            kinds("A -- rest is ignored\nB"),
            vec![
                TokenKind::Ident("A".into()),
                TokenKind::Ident("B".into()),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn positions_track_lines() {
        let toks = tokenize("A\n  B").unwrap();
        assert_eq!((toks[0].line, toks[0].column), (1, 1));
        assert_eq!((toks[1].line, toks[1].column), (2, 3));
    }

    #[test]
    fn unexpected_character_reported() {
        let e = tokenize("SELECT ;").unwrap_err();
        assert!(e.message.contains("unexpected character"));
        assert_eq!(e.column, 8);
    }

    #[test]
    fn tilde_token() {
        assert_eq!(kinds("~"), vec![TokenKind::Tilde, TokenKind::Eof]);
    }
}
