//! One pass over a file's raw text: a token stream for the rules, and the
//! start of each line's `//` comment for the allow annotations.
//!
//! Comment text and string/char-literal contents yield no tokens, so a rule
//! never matches doc prose or a quoted pattern — and a `//` inside a string
//! literal is not a comment. Tokens are identifiers, numbers, lifetimes,
//! one [`TokKind::Str`] per string or char literal, and single-character
//! punctuation; rules that need `::`, `->` or `=>` read adjacent punct
//! tokens.

/// What a token is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TokKind {
    /// Identifier or keyword: `[A-Za-z_][A-Za-z0-9_]*`.
    Ident,
    /// Numeric literal (decimal/hex/octal/binary, including `_` and
    /// suffix letters — the lexer does not validate, only groups).
    Number,
    /// Lifetime: `'` followed by an identifier.
    Lifetime,
    /// A string, byte-string, raw-string or char literal, prefix included.
    Str,
    /// One punctuation character.
    Punct(char),
}

/// One token with the line it starts on.
#[derive(Debug, Clone)]
pub(crate) struct Tok {
    pub(crate) kind: TokKind,
    /// Token text: empty for [`TokKind::Str`] (no rule reads a literal),
    /// the single character for punctuation.
    pub(crate) text: String,
    /// 1-based line number.
    pub(crate) line: usize,
}

impl Tok {
    /// Whether this token is the identifier `s`.
    pub(crate) fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    /// Whether this token is the punctuation character `c`.
    pub(crate) fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct(c)
    }
}

/// A lexed file.
pub(crate) struct Lexed {
    pub(crate) toks: Vec<Tok>,
    /// Per source line (0-based), the byte offset of the `//` that starts
    /// its line comment — found in code position only, so never inside a
    /// string literal or a block comment.
    pub(crate) comment_at: Vec<Option<usize>>,
}

/// What the previous line left open.
enum State {
    Code,
    /// Inside `/* ... */`, with nesting depth.
    Block(u32),
    /// Inside a `"`-delimited string (escapes honored).
    Str,
    /// Inside a raw string closed by `"` followed by this many `#`s.
    RawStr(usize),
}

fn is_ident_start(c: char) -> bool {
    c.is_ascii_alphabetic() || c == '_'
}

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// If `rest` (which starts with `'`) opens a char literal rather than a
/// lifetime, its length in bytes: `'x'`, `'é'`, `'\n'`, `'\u{1F600}'`.
fn char_literal_len(rest: &str) -> Option<usize> {
    let mut chars = rest[1..].chars();
    match chars.next()? {
        '\\' => {
            // Escaped: the literal ends at the first `'` after the
            // escaped character (`'\''` included).
            chars.next()?;
            let skipped = rest.len() - chars.as_str().len();
            chars.as_str().find('\'').map(|close| skipped + close + 1)
        }
        c => chars.as_str().starts_with('\'').then(|| c.len_utf8() + 2),
    }
}

/// Lex `content`.
pub(crate) fn lex(content: &str) -> Lexed {
    let mut toks = Vec::new();
    let mut comment_at = Vec::new();
    let mut state = State::Code;
    for (idx, line) in content.lines().enumerate() {
        let lineno = idx + 1;
        let mut comment = None;
        let mut push = |kind: TokKind, text: &str| {
            toks.push(Tok {
                kind,
                text: text.to_string(),
                line: lineno,
            });
        };
        let mut i = 0usize;
        while let Some(c) = line[i..].chars().next() {
            let rest = &line[i..];
            match state {
                State::Block(depth) => {
                    if rest.starts_with("/*") {
                        state = State::Block(depth + 1);
                        i += 2;
                    } else if rest.starts_with("*/") {
                        state = if depth == 1 {
                            State::Code
                        } else {
                            State::Block(depth - 1)
                        };
                        i += 2;
                    } else {
                        i += c.len_utf8();
                    }
                }
                State::Str => {
                    if c == '\\' {
                        // The escaped character, or the line break of a
                        // `\`-continued string.
                        i += 1 + rest[1..].chars().next().map_or(0, char::len_utf8);
                    } else {
                        if c == '"' {
                            state = State::Code;
                        }
                        i += c.len_utf8();
                    }
                }
                State::RawStr(hashes) => {
                    let closes = c == '"'
                        && rest[1..].len() >= hashes
                        && rest[1..].bytes().take(hashes).all(|b| b == b'#');
                    if closes {
                        state = State::Code;
                        i += 1 + hashes;
                    } else {
                        i += c.len_utf8();
                    }
                }
                State::Code if c.is_whitespace() => i += c.len_utf8(),
                State::Code if rest.starts_with("//") => {
                    comment = Some(i);
                    break;
                }
                State::Code if rest.starts_with("/*") => {
                    state = State::Block(1);
                    i += 2;
                }
                State::Code if c == '"' => {
                    push(TokKind::Str, "");
                    state = State::Str;
                    i += 1;
                }
                State::Code if is_ident_start(c) => {
                    let len = rest.find(|c| !is_ident_char(c)).unwrap_or(rest.len());
                    let (word, after) = rest.split_at(len);
                    // `b"…"`, `r"…"`, `r#"…"#`, `br#"…"#`: a literal, not an
                    // identifier (`r#type` has no quote after the hashes).
                    let hashes = after.bytes().take_while(|&b| b == b'#').count();
                    let quoted = after[hashes..].starts_with('"');
                    if quoted && matches!(word, "r" | "br") {
                        push(TokKind::Str, "");
                        state = State::RawStr(hashes);
                        i += len + hashes + 1;
                    } else if quoted && hashes == 0 && word == "b" {
                        push(TokKind::Str, "");
                        state = State::Str;
                        i += len + 1;
                    } else {
                        push(TokKind::Ident, word);
                        i += len;
                    }
                }
                State::Code if c.is_ascii_digit() => {
                    // Digits, `_`, suffix letters and one-dot fractions;
                    // the `..` of a `1..x` range is not part of the number.
                    let len = rest
                        .char_indices()
                        .find(|&(at, c)| {
                            !(is_ident_char(c) || c == '.' && !rest[at..].starts_with(".."))
                        })
                        .map_or(rest.len(), |(at, _)| at);
                    push(TokKind::Number, &rest[..len]);
                    i += len;
                }
                State::Code if c == '\'' => {
                    if let Some(len) = char_literal_len(rest) {
                        push(TokKind::Str, "");
                        i += len;
                    } else {
                        let len = 1 + rest[1..]
                            .find(|c| !is_ident_char(c))
                            .unwrap_or(rest.len() - 1);
                        if len > 1 {
                            push(TokKind::Lifetime, &rest[..len]);
                        } else {
                            push(TokKind::Punct('\''), "'");
                        }
                        i += len;
                    }
                }
                State::Code => {
                    push(TokKind::Punct(c), &rest[..c.len_utf8()]);
                    i += c.len_utf8();
                }
            }
        }
        comment_at.push(comment);
    }
    Lexed { toks, comment_at }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(src: &str) -> Vec<String> {
        lex(src).toks.into_iter().map(|t| t.text).collect()
    }

    fn idents(src: &str) -> Vec<String> {
        let toks = lex(src).toks.into_iter();
        toks.filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn idents_numbers_puncts_and_lines() {
        let lexed = lex("fn a() {\n    let x = foo(42);\n}\n");
        let t = &lexed.toks;
        assert_eq!(
            t.iter().map(|t| t.text.as_str()).collect::<Vec<_>>(),
            ["fn", "a", "(", ")", "{", "let", "x", "=", "foo", "(", "42", ")", ";", "}"]
        );
        assert_eq!(t[0].kind, TokKind::Ident);
        assert_eq!(t[10].kind, TokKind::Number);
        assert_eq!(t[8].line, 2, "lines are 1-based");
        assert_eq!(lexed.comment_at, [None, None, None]);
    }

    /// Every way a rule pattern can sit in a file without being code:
    /// `(source, identifiers the lexer may report)`.
    #[test]
    fn comments_and_literals_yield_no_idents() {
        let cases: &[(&str, &[&str])] = &[
            ("let x = 1; // a.unwrap()", &["let", "x"]),
            ("/// calls unwrap for effect", &[]),
            ("let p = \"a.unwrap()\";", &["let", "p"]),
            // An escaped quote does not end the string.
            (
                r#"let p = "a\"b"; q.unwrap();"#,
                &["let", "p", "q", "unwrap"],
            ),
            // Block comments nest and span lines.
            (
                "/* unwrap /* nested */\nstill comment */ let x = 1;",
                &["let", "x"],
            ),
            // Raw, byte and raw-byte strings; `r#type` is not one of them.
            (
                r##"let p = r#"un"wrap"#; let t = 2;"##,
                &["let", "p", "let", "t"],
            ),
            (
                r##"f(b"unwrap", br#"unwrap"#, r#type)"##,
                &["f", "r", "type"],
            ),
            // A string carries over the line break, and code resumes right
            // after its closing quote.
            (
                "let s = \"one\n  two\"; a.unwrap(); let t = \"x\";",
                &["let", "s", "a", "unwrap", "let", "t"],
            ),
            // Char literals — a quote, an escape, a multi-byte char — against
            // lifetimes.
            (
                "fn f<'a>(x: &'a str) { g('\"', '\\'', '\\u{e9}', 'é', 'z') }",
                &["fn", "f", "x", "str", "g"],
            ),
        ];
        for (src, want) in cases {
            assert_eq!(idents(src), *want, "{src}");
        }
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let lexed = lex("fn f<'a>(x: &'a str, c: char) { let y = 'z'; }");
        let lifetimes: Vec<&Tok> = lexed
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .collect();
        assert_eq!(lifetimes.len(), 2);
        assert!(lifetimes.iter().all(|t| t.text == "'a"));
        let strs = lexed.toks.iter().filter(|t| t.kind == TokKind::Str);
        assert_eq!(strs.count(), 1, "'z' is one literal");
    }

    #[test]
    fn range_is_not_swallowed_by_number() {
        assert_eq!(
            texts("for i in 0..n { 1.5 }"),
            ["for", "i", "in", "0", ".", ".", "n", "{", "1.5", "}"]
        );
    }

    #[test]
    fn a_comment_starts_in_code_position_only() {
        let src = "let u = \"http://x\"; // real\n\
                   /* not // here */ x // but here\n\
                   let s = \"open\n\
                   // still the string\";\n\
                   // own line\n";
        assert_eq!(
            lex(src).comment_at,
            [Some(20), Some(20), None, None, Some(0)]
        );
    }
}
