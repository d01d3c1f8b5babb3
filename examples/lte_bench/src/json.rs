//! A flat JSON document: one object whose values are numbers, strings or
//! arrays of numbers. That is all a result file needs, and it keeps the
//! reader `compare` depends on small enough to test exhaustively (the
//! workspace has no JSON dependency and the benchmark may not add one).

/// One value of a flat document.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Num(f64),
    Str(String),
    Arr(Vec<f64>),
}

/// An ordered `key -> value` document.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FlatJson {
    entries: Vec<(String, Value)>,
}

/// A number as JSON: shortest round-trip decimal, `null` when not finite
/// (JSON has no NaN or infinity; `null` reads back as NaN).
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// A string as JSON.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

impl FlatJson {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn push(&mut self, key: &str, value: Value) {
        self.entries.push((key.to_string(), value));
    }

    pub fn get(&self, key: &str) -> Option<&Value> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    pub fn num(&self, key: &str) -> Option<f64> {
        match self.get(key)? {
            Value::Num(v) => Some(*v),
            _ => None,
        }
    }

    pub fn text(&self, key: &str) -> Option<&str> {
        match self.get(key)? {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn arr(&self, key: &str) -> Option<&[f64]> {
        match self.get(key)? {
            Value::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// Renders the document, one entry per line.
    pub fn render(&self) -> String {
        let mut out = String::from("{\n");
        for (i, (key, value)) in self.entries.iter().enumerate() {
            let rendered = match value {
                Value::Num(v) => number(*v),
                Value::Str(s) => quote(s),
                Value::Arr(a) => {
                    let items: Vec<String> = a.iter().map(|&v| number(v)).collect();
                    format!("[{}]", items.join(", "))
                }
            };
            let comma = if i + 1 < self.entries.len() { "," } else { "" };
            out.push_str(&format!("  {}: {rendered}{comma}\n", quote(key)));
        }
        out.push_str("}\n");
        out
    }

    /// Parses a document written by [`render`](Self::render) (or any JSON
    /// object of the same shape).
    pub fn parse(text: &str) -> Result<FlatJson, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let mut doc = FlatJson::new();
        p.expect(b'{')?;
        if p.peek() == Some(b'}') {
            p.pos += 1;
        } else {
            loop {
                let key = p.string()?;
                p.expect(b':')?;
                let value = p.value()?;
                doc.entries.push((key, value));
                match p.next_token()? {
                    b',' => continue,
                    b'}' => break,
                    other => return Err(p.unexpected(other)),
                }
            }
        }
        match p.peek() {
            None => Ok(doc),
            Some(other) => Err(p.unexpected(other)),
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(u8::is_ascii_whitespace)
        {
            self.pos += 1;
        }
    }

    /// The next non-blank byte, not consumed.
    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    /// The next non-blank byte, consumed.
    fn next_token(&mut self) -> Result<u8, String> {
        let b = self.peek().ok_or("unexpected end of document")?;
        self.pos += 1;
        Ok(b)
    }

    fn unexpected(&self, b: u8) -> String {
        format!("unexpected '{}' at byte {}", b as char, self.pos - 1)
    }

    fn expect(&mut self, want: u8) -> Result<(), String> {
        match self.next_token()? {
            b if b == want => Ok(()),
            other => Err(self.unexpected(other)),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = Vec::new();
        loop {
            let b = *self.bytes.get(self.pos).ok_or("unterminated string")?;
            self.pos += 1;
            match b {
                b'"' => break,
                b'\\' => {
                    let e = *self.bytes.get(self.pos).ok_or("unterminated escape")?;
                    self.pos += 1;
                    match e {
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or("bad \\u escape")?;
                            self.pos += 4;
                            out.extend_from_slice(hex.to_string().as_bytes());
                        }
                        other => out.push(other),
                    }
                }
                other => out.push(other),
            }
        }
        String::from_utf8(out).map_err(|e| e.to_string())
    }

    fn number(&mut self) -> Result<f64, String> {
        self.skip_ws();
        if self.bytes[self.pos..].starts_with(b"null") {
            self.pos += 4;
            return Ok(f64::NAN);
        }
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || b"+-.eE".contains(b))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("bad number at byte {start}"))
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek().ok_or("unexpected end of document")? {
            b'"' => Ok(Value::Str(self.string()?)),
            b'[' => {
                self.pos += 1;
                let mut items = Vec::new();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                loop {
                    items.push(self.number()?);
                    match self.next_token()? {
                        b',' => continue,
                        b']' => return Ok(Value::Arr(items)),
                        other => return Err(self.unexpected(other)),
                    }
                }
            }
            _ => Ok(Value::Num(self.number()?)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn documents_round_trip() {
        let mut doc = FlatJson::new();
        doc.push("schema", Value::Str("lte-bench-v1".into()));
        doc.push("e2e.sf_per_s", Value::Num(371.254_871_3));
        doc.push("tiny", Value::Num(1.5e-9));
        doc.push("negative", Value::Num(-3.0));
        doc.push("rounds", Value::Arr(vec![1.0, 2.5, -0.125, 1e12]));
        doc.push("empty", Value::Arr(Vec::new()));
        doc.push(
            "cpu",
            Value::Str("Weird \"CPU\" \\ name\twith\ncontrols".into()),
        );
        let text = doc.render();
        let back = FlatJson::parse(&text).expect("own output parses");
        assert_eq!(back, doc);
        assert_eq!(back.num("e2e.sf_per_s"), Some(371.254_871_3));
        assert_eq!(back.text("schema"), Some("lte-bench-v1"));
        assert_eq!(back.arr("rounds").map(<[f64]>::len), Some(4));
        assert_eq!(back.num("rounds"), None);
        assert_eq!(back.num("missing"), None);
    }

    #[test]
    fn non_finite_numbers_become_null_and_read_back_as_nan() {
        let mut doc = FlatJson::new();
        doc.push("inf", Value::Num(f64::INFINITY));
        doc.push("arr", Value::Arr(vec![1.0, f64::NAN]));
        let text = doc.render();
        assert!(text.contains("\"inf\": null"));
        let back = FlatJson::parse(&text).expect("parses");
        assert!(back.num("inf").is_some_and(f64::is_nan));
        assert!(back.arr("arr").is_some_and(|a| a[1].is_nan()));
    }

    #[test]
    fn malformed_documents_are_errors_not_panics() {
        for bad in [
            "",
            "{",
            "{\"a\" 1}",
            "{\"a\": }",
            "{\"a\": [1, }",
            "{\"a\": 1,}",
            "{\"a\": 1} trailing",
            "{\"a\": \"open",
            "[1]",
        ] {
            assert!(FlatJson::parse(bad).is_err(), "accepted {bad:?}");
        }
        assert_eq!(FlatJson::parse(" { } "), Ok(FlatJson::new()));
        assert_eq!(
            FlatJson::parse("{\"a\":1,\"b\":[2,3]}").map(|d| d.entries.len()),
            Ok(2)
        );
    }
}
