//! Minimal JSON reader/writer (no external dependencies).
//!
//! Public because the workspace's tooling uses it to write and parse the
//! perf-baseline report, the telemetry JSONL stream and Chrome traces.
//! Deliberately tiny: objects, arrays, strings, booleans, numbers — with
//! unsigned 64-bit integers preserved exactly, so counters and sizes never
//! pass through an `f64`.

use std::fmt::Write as _;

/// A parsed JSON value. Numbers keep an exact `u64` alongside the `f64`
/// when the literal was a non-negative integer in range.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number; `.1` is the exact value for unsigned-integer literals.
    Num(f64, Option<u64>),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up a key of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The elements, when this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The boolean value, when this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The exact unsigned value, when this was an unsigned-integer literal.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(_, exact) => *exact,
            _ => None,
        }
    }

    /// The numeric value, when this is any number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v, _) => Some(*v),
            _ => None,
        }
    }
}

/// Parses one JSON document (trailing whitespace allowed, nothing else).
pub fn parse(input: &[u8]) -> Result<Json, String> {
    let mut p = Parser { input, pos: 0 };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.input.len() {
        return Err(format!("trailing bytes at offset {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    input: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn bump(&mut self) -> Result<u8, String> {
        let b = self.peek().ok_or("unexpected end of input")?;
        self.pos += 1;
        Ok(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        let got = self.bump()?;
        if got != b {
            return Err(format!(
                "expected '{}' at offset {}, found '{}'",
                b as char,
                self.pos - 1,
                got as char
            ));
        }
        Ok(())
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.input[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at offset {}", self.pos))
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
            b'-' | b'0'..=b'9' => self.number(),
            other => Err(format!(
                "unexpected byte '{}' at offset {}",
                other as char, self.pos
            )),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump()? {
                b'"' => return Ok(out),
                b'\\' => match self.bump()? {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = (self.bump()? as char)
                                .to_digit(16)
                                .ok_or("bad \\u escape")?;
                            code = code * 16 + d;
                        }
                        // surrogate pairs are not used by any model field
                        out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                    }
                    other => return Err(format!("bad escape '\\{}'", other as char)),
                },
                byte => {
                    // pass UTF-8 continuation bytes through unchanged
                    let start = self.pos - 1;
                    let mut end = self.pos;
                    while end < self.input.len() && self.input[end] & 0xC0 == 0x80 {
                        end += 1;
                    }
                    if byte < 0x80 {
                        out.push(byte as char);
                    } else {
                        let chunk = std::str::from_utf8(&self.input[start..end])
                            .map_err(|_| "invalid UTF-8 in string")?;
                        out.push_str(chunk);
                        self.pos = end;
                    }
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
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
        let text = std::str::from_utf8(&self.input[start..self.pos])
            .map_err(|_| "invalid number bytes")?;
        let value: f64 = text
            .parse()
            .map_err(|_| format!("invalid number '{text}'"))?;
        // exact path for unsigned-integer literals (packed weight words)
        let exact = if text.bytes().all(|b| b.is_ascii_digit()) {
            text.parse::<u64>().ok()
        } else {
            None
        };
        Ok(Json::Num(value, exact))
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
            match self.bump()? {
                b',' => continue,
                b']' => return Ok(Json::Arr(items)),
                other => return Err(format!("expected ',' or ']', found '{}'", other as char)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.bump()? {
                b',' => continue,
                b'}' => return Ok(Json::Obj(fields)),
                other => return Err(format!("expected ',' or '}}', found '{}'", other as char)),
            }
        }
    }
}

/// Serializes a value back to compact JSON (the layout `serde_json` used:
/// no whitespace, object fields in insertion order).
pub fn write(value: &Json, out: &mut String) {
    match value {
        Json::Null => out.push_str("null"),
        Json::Bool(true) => out.push_str("true"),
        Json::Bool(false) => out.push_str("false"),
        Json::Num(_, Some(exact)) => {
            let _ = write!(out, "{exact}");
        }
        Json::Num(v, None) => {
            let _ = write!(out, "{v}");
        }
        Json::Str(s) => {
            out.push('"');
            for ch in s.chars() {
                match ch {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => {
                        let _ = write!(out, "\\u{:04x}", c as u32);
                    }
                    c => out.push(c),
                }
            }
            out.push('"');
        }
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write(item, out);
            }
            out.push(']');
        }
        Json::Obj(fields) => {
            out.push('{');
            for (i, (k, v)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write(&Json::Str(k.clone()), out);
                out.push(':');
                write(v, out);
            }
            out.push('}');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_model_like_document() {
        let doc = br#"{"config":{"d_h":4,"high_fraction":0.75},"mask":{"bits":[true,false]},"words":[18446744073709551615,0]}"#;
        let v = parse(doc).unwrap();
        assert_eq!(
            v.get("config").unwrap().get("d_h").unwrap().as_u64(),
            Some(4)
        );
        assert_eq!(
            v.get("config")
                .unwrap()
                .get("high_fraction")
                .unwrap()
                .as_f64(),
            Some(0.75)
        );
        let bits = v
            .get("mask")
            .unwrap()
            .get("bits")
            .unwrap()
            .as_arr()
            .unwrap();
        assert_eq!(bits[0].as_bool(), Some(true));
        // u64::MAX survives exactly (would be lossy through f64)
        let words = v.get("words").unwrap().as_arr().unwrap();
        assert_eq!(words[0].as_u64(), Some(u64::MAX));
        assert_eq!(words[1].as_u64(), Some(0));
    }

    #[test]
    fn roundtrips_through_writer() {
        let doc = br#"{"a":[1,2.5,-3],"b":"x\"y","c":null,"d":true}"#;
        let v = parse(doc).unwrap();
        let mut out = String::new();
        write(&v, &mut out);
        assert_eq!(parse(out.as_bytes()).unwrap(), v);
    }

    #[test]
    fn rejects_malformed() {
        assert!(parse(b"{").is_err());
        assert!(parse(b"[1,]").is_err());
        assert!(parse(b"{\"a\" 1}").is_err());
        assert!(parse(b"123 45").is_err());
        assert!(parse(b"").is_err());
    }

    #[test]
    fn whitespace_tolerant() {
        let v = parse(b" { \"a\" : [ 1 , 2 ] } \n").unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 2);
    }
}
