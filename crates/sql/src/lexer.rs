//! Tokenizer for the supported SQL dialect.

use std::fmt;

/// Lexer/parser error with position information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SqlError {
    /// Human-readable message.
    pub message: String,
    /// Byte offset in the input (best effort).
    pub position: usize,
}

impl SqlError {
    pub(crate) fn new(message: impl Into<String>, position: usize) -> Self {
        SqlError {
            message: message.into(),
            position,
        }
    }
}

impl fmt::Display for SqlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SQL error at byte {}: {}", self.position, self.message)
    }
}

impl std::error::Error for SqlError {}

impl From<SqlError> for eqjoin_db::DbError {
    fn from(e: SqlError) -> Self {
        eqjoin_db::DbError::Sql(e.to_string())
    }
}

/// SQL tokens.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// Keyword or identifier (case preserved; keyword matching is
    /// case-insensitive).
    Ident(String),
    /// Single-quoted string literal (with `''` escape).
    StringLit(String),
    /// Integer literal.
    IntLit(i64),
    /// Decimal literal, scaled to cents.
    DecimalLit(i64),
    /// `*`
    Star,
    /// `=`
    Equals,
    /// `,`
    Comma,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `.`
    Dot,
    /// `;`
    Semicolon,
}

/// Tokenize an input string.
pub fn tokenize(input: &str) -> Result<Vec<(Token, usize)>, SqlError> {
    let bytes = input.as_bytes();
    let mut tokens = Vec::new();
    let mut pos = 0usize;
    while pos < bytes.len() {
        let c = bytes[pos] as char;
        match c {
            ' ' | '\t' | '\n' | '\r' => pos += 1,
            '*' => {
                tokens.push((Token::Star, pos));
                pos += 1;
            }
            '=' => {
                tokens.push((Token::Equals, pos));
                pos += 1;
            }
            ',' => {
                tokens.push((Token::Comma, pos));
                pos += 1;
            }
            '(' => {
                tokens.push((Token::LParen, pos));
                pos += 1;
            }
            ')' => {
                tokens.push((Token::RParen, pos));
                pos += 1;
            }
            '.' => {
                tokens.push((Token::Dot, pos));
                pos += 1;
            }
            ';' => {
                tokens.push((Token::Semicolon, pos));
                pos += 1;
            }
            '\'' => {
                let start = pos;
                pos += 1;
                let mut lit = String::new();
                loop {
                    match bytes.get(pos) {
                        None => return Err(SqlError::new("unterminated string literal", start)),
                        Some(b'\'') if bytes.get(pos + 1) == Some(&b'\'') => {
                            lit.push('\'');
                            pos += 2;
                        }
                        Some(b'\'') => {
                            pos += 1;
                            break;
                        }
                        Some(&b) => {
                            lit.push(b as char);
                            pos += 1;
                        }
                    }
                }
                tokens.push((Token::StringLit(lit), start));
            }
            '0'..='9' | '-' => {
                let start = pos;
                if c == '-' {
                    pos += 1;
                    if !bytes.get(pos).is_some_and(|b| b.is_ascii_digit()) {
                        return Err(SqlError::new("expected digit after '-'", start));
                    }
                }
                while bytes.get(pos).is_some_and(|b| b.is_ascii_digit()) {
                    pos += 1;
                }
                // Decimal if a dot followed by digits (not a qualified ref).
                if bytes.get(pos) == Some(&b'.')
                    && bytes.get(pos + 1).is_some_and(|b| b.is_ascii_digit())
                {
                    pos += 1;
                    let frac_start = pos;
                    while bytes.get(pos).is_some_and(|b| b.is_ascii_digit()) {
                        pos += 1;
                    }
                    let text = &input[start..pos];
                    let frac_len = pos - frac_start;
                    if frac_len > 2 {
                        return Err(SqlError::new(
                            "decimal literals support at most 2 fraction digits",
                            start,
                        ));
                    }
                    let no_dot: String = text.chars().filter(|&ch| ch != '.').collect();
                    let mut cents: i64 = no_dot
                        .parse()
                        .map_err(|_| SqlError::new("invalid decimal literal", start))?;
                    if frac_len == 1 {
                        cents *= 10;
                    } else if frac_len == 0 {
                        cents *= 100;
                    }
                    tokens.push((Token::DecimalLit(cents), start));
                } else {
                    let value: i64 = input[start..pos]
                        .parse()
                        .map_err(|_| SqlError::new("invalid integer literal", start))?;
                    tokens.push((Token::IntLit(value), start));
                }
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = pos;
                while bytes
                    .get(pos)
                    .is_some_and(|&b| (b as char).is_ascii_alphanumeric() || b == b'_')
                {
                    pos += 1;
                }
                tokens.push((Token::Ident(input[start..pos].to_owned()), start));
            }
            other => {
                return Err(SqlError::new(
                    format!("unexpected character {other:?}"),
                    pos,
                ));
            }
        }
    }
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(input: &str) -> Vec<Token> {
        tokenize(input)
            .unwrap()
            .into_iter()
            .map(|(t, _)| t)
            .collect()
    }

    #[test]
    fn keywords_and_symbols() {
        assert_eq!(
            toks("SELECT * FROM t;"),
            vec![
                Token::Ident("SELECT".into()),
                Token::Star,
                Token::Ident("FROM".into()),
                Token::Ident("t".into()),
                Token::Semicolon,
            ]
        );
    }

    #[test]
    fn string_literals_with_escapes() {
        assert_eq!(
            toks("'Web Application' 'O''Brien'"),
            vec![
                Token::StringLit("Web Application".into()),
                Token::StringLit("O'Brien".into()),
            ]
        );
    }

    #[test]
    fn numbers() {
        assert_eq!(
            toks("42 -17 3.5 10.25"),
            vec![
                Token::IntLit(42),
                Token::IntLit(-17),
                Token::DecimalLit(350),
                Token::DecimalLit(1025),
            ]
        );
    }

    #[test]
    fn qualified_reference_is_not_a_decimal() {
        assert_eq!(
            toks("T.col"),
            vec![
                Token::Ident("T".into()),
                Token::Dot,
                Token::Ident("col".into()),
            ]
        );
    }

    #[test]
    fn errors() {
        assert!(tokenize("'open").is_err());
        assert!(tokenize("3.123").is_err());
        assert!(tokenize("a ? b").is_err());
        assert!(tokenize("-x").is_err());
    }
}
