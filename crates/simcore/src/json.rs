//! A minimal JSON parser.
//!
//! The workspace builds with no registry access, so instead of
//! `serde_json` this small [`Json`] value type reads the documents the
//! workspace consumes: `aomp-benchmark` parses `BENCHMARK.json` and its
//! own result lines with it, and the observability tests parse the
//! runtime's metrics and trace output.

/// A parsed JSON value. Objects preserve key order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (stored as `f64`, like serde_json's default).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Look up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Non-negative integer value, if this is a whole number.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as usize),
            _ => None,
        }
    }

    /// String value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array contents, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Field `key` as an `f64`, with a descriptive error.
    pub fn f64_field(&self, key: &str) -> Result<f64, String> {
        self.get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("missing numeric field `{key}`"))
    }

    /// Field `key` as a `usize`, with a descriptive error.
    pub fn usize_field(&self, key: &str) -> Result<usize, String> {
        self.get(key)
            .and_then(Json::as_usize)
            .ok_or_else(|| format!("missing integer field `{key}`"))
    }

    /// Field `key` as a string, with a descriptive error.
    pub fn str_field(&self, key: &str) -> Result<String, String> {
        self.get(key)
            .and_then(Json::as_str)
            .map(str::to_owned)
            .ok_or_else(|| format!("missing string field `{key}`"))
    }

    /// Parse a JSON document.
    pub fn parse(src: &str) -> Result<Json, String> {
        let mut p = Parser {
            src: src.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.src.len() {
            return Err(format!("trailing characters at byte {}", p.pos));
        }
        Ok(v)
    }
}

struct Parser<'a> {
    src: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.pos < self.src.len()
            && matches!(self.src[self.pos], b' ' | b'\t' | b'\n' | b'\r')
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.src[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek().ok_or("unexpected end of input")? {
            b'n' => self.literal("null", Json::Null),
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            b'"' => Ok(Json::Str(self.string()?)),
            b'[' => self.array(),
            b'{' => self.object(),
            _ => self.number(),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let b = self.peek().ok_or("unterminated string")?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let e = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .src
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            // Exactly four hex digits: `from_str_radix`
                            // alone would also take a leading `+`.
                            let code = std::str::from_utf8(hex)
                                .ok()
                                .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or("bad \\u escape")?;
                            self.pos += 4;
                            // Surrogate pairs are not needed for the
                            // documents read here; map lone surrogates
                            // to U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                        other => return Err(format!("bad escape `\\{}`", other as char)),
                    }
                }
                b if b < 0x80 => out.push(b as char),
                _ => {
                    // Multi-byte UTF-8: copy the full sequence.
                    let start = self.pos - 1;
                    let len = utf8_len(b);
                    let bytes = self.src.get(start..start + len).ok_or("truncated UTF-8")?;
                    out.push_str(std::str::from_utf8(bytes).map_err(|_| "invalid UTF-8")?);
                    self.pos = start + len;
                }
            }
        }
    }

    /// Consume a run of ASCII digits, returning how many there were.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    /// Consume `b` if it is next.
    fn eat(&mut self, b: u8) -> bool {
        let hit = self.peek() == Some(b);
        self.pos += usize::from(hit);
        hit
    }

    /// RFC 8259's number grammar,
    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`, whose
    /// value must also be finite: `+1`, `.5`, `1.`, `01` and `1e400`
    /// are errors, not numbers.
    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        self.eat(b'-');
        let int = self.pos;
        let int_ok = match self.digits() {
            0 => false,
            1 => true,
            _ => self.src[int] != b'0',
        };
        let frac_ok = !self.eat(b'.') || self.digits() > 0;
        let exp_ok = !(self.eat(b'e') || self.eat(b'E')) || {
            let _ = self.eat(b'+') || self.eat(b'-');
            self.digits() > 0
        };
        let text = std::str::from_utf8(&self.src[start..self.pos]).map_err(|_| "invalid number")?;
        match text.parse::<f64>() {
            Ok(n) if int_ok && frac_ok && exp_ok && n.is_finite() => Ok(Json::Num(n)),
            _ => Err(format!("invalid number `{text}` at byte {start}")),
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        b if b >= 0xF0 => 4,
        b if b >= 0xE0 => 3,
        _ => 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_objects_and_arrays() {
        let doc = Json::parse(
            r#" { "name": "a \"b\"\n", "xs": [1, 2.5, null, true, {"k": [false]}],
                 "empty": [], "obj": {} } "#,
        )
        .unwrap();
        assert_eq!(doc.str_field("name").unwrap(), "a \"b\"\n");
        let xs = doc.get("xs").and_then(Json::as_array).unwrap();
        assert_eq!(xs.len(), 5);
        assert_eq!(xs[0].as_usize(), Some(1));
        assert_eq!(xs[1].as_f64(), Some(2.5));
        assert_eq!(xs[1].as_usize(), None);
        assert_eq!(xs[2], Json::Null);
        assert_eq!(xs[3], Json::Bool(true));
        let inner = xs[4].get("k").and_then(Json::as_array).unwrap();
        assert_eq!(inner, [Json::Bool(false)]);
        assert_eq!(doc.get("empty").and_then(Json::as_array), Some(&[][..]));
        assert_eq!(doc.get("obj"), Some(&Json::Obj(vec![])));
        assert!(doc.get("missing").is_none());
        assert!(doc.f64_field("name").is_err());
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("12 34").is_err());
        assert!(Json::parse("nul").is_err());
        // Numbers outside RFC 8259's grammar, or not finite.
        for text in [
            "+1", ".5", "1.", "01", "-", "1e", "1e+", "-.5", "[01]", "1e400", "-1e400",
        ] {
            assert!(Json::parse(text).is_err(), "{text} parsed");
        }
        // `\u` takes exactly four hex digits.
        for text in [r#""\u+04a""#, r#""\u04g1""#, r#""\u 4a1""#] {
            assert!(Json::parse(text).is_err(), "{text} parsed");
        }
        for (text, n) in [("-0", 0.0), ("0.5", 0.5), ("1E+2", 100.0), ("2e-1", 0.2)] {
            assert_eq!(Json::parse(text), Ok(Json::Num(n)), "{text}");
        }
        assert_eq!(Json::parse(r#""\u00b5""#), Ok(Json::Str("µ".into())));
    }

    #[test]
    fn parses_escapes_and_unicode() {
        let j = Json::parse(r#""tab\tA µ""#).unwrap();
        assert_eq!(j.as_str().unwrap(), "tab\tA µ");
    }
}
