//! A hand-rolled JSON writer, a minimal validator and a numeric reader.
//!
//! The workspace builds offline, so there is no serde; the writer covers
//! exactly what the exporters need (objects, arrays, strings, integers,
//! finite floats, booleans) and the validator exists so tests can assert
//! well-formedness of every exported byte without external tooling.
//! [`flatten`] is the one reader: it turns a document into its numeric
//! leaves by dotted path, which is all the perf tools compare.

use std::collections::BTreeMap;

/// Escapes `s` for use inside a JSON string literal (without the quotes).
#[must_use]
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Serializes an `f64` deterministically: shortest round-trip decimal,
/// with non-finite values clamped to `0` (JSON has no NaN/Infinity).
#[must_use]
pub fn number(value: f64) -> String {
    if value.is_finite() {
        let s = format!("{value}");
        // `{}` prints integral floats without a point; keep them numbers
        // either way — JSON does not distinguish.
        s
    } else {
        "0".to_owned()
    }
}

/// An incremental JSON writer with automatic comma placement.
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    /// One entry per open container: `true` once a member was emitted.
    stack: Vec<bool>,
    /// A key was just written; the next value must not emit a comma.
    pending_key: bool,
}

impl JsonWriter {
    /// A fresh writer.
    #[must_use]
    pub fn new() -> JsonWriter {
        JsonWriter::default()
    }

    fn before_value(&mut self) {
        if self.pending_key {
            self.pending_key = false;
            return;
        }
        if let Some(used) = self.stack.last_mut() {
            if *used {
                self.out.push(',');
            }
            *used = true;
        }
    }

    /// Opens an object.
    pub fn begin_object(&mut self) {
        self.before_value();
        self.out.push('{');
        self.stack.push(false);
    }

    /// Closes the innermost object.
    pub fn end_object(&mut self) {
        self.stack.pop();
        self.out.push('}');
    }

    /// Opens an array.
    pub fn begin_array(&mut self) {
        self.before_value();
        self.out.push('[');
        self.stack.push(false);
    }

    /// Closes the innermost array.
    pub fn end_array(&mut self) {
        self.stack.pop();
        self.out.push(']');
    }

    /// Writes an object key; the next call writes its value.
    pub fn key(&mut self, name: &str) {
        if let Some(used) = self.stack.last_mut() {
            if *used {
                self.out.push(',');
            }
            *used = true;
        }
        self.out.push('"');
        self.out.push_str(&escape(name));
        self.out.push_str("\":");
        self.pending_key = true;
    }

    /// Writes a string value.
    pub fn string(&mut self, value: &str) {
        self.before_value();
        self.out.push('"');
        self.out.push_str(&escape(value));
        self.out.push('"');
    }

    /// Writes an unsigned integer value.
    pub fn u64(&mut self, value: u64) {
        self.before_value();
        self.out.push_str(&value.to_string());
    }

    /// Writes a float value (deterministic shortest form).
    pub fn f64(&mut self, value: f64) {
        self.before_value();
        self.out.push_str(&number(value));
    }

    /// Writes a boolean value.
    pub fn bool(&mut self, value: bool) {
        self.before_value();
        self.out.push_str(if value { "true" } else { "false" });
    }

    /// Finishes and returns the JSON text.
    #[must_use]
    pub fn finish(self) -> String {
        self.out
    }
}

/// Validates that `text` is one well-formed JSON value.
///
/// # Errors
///
/// A message naming the byte offset of the first problem.
pub fn validate(text: &str) -> Result<(), String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    skip_ws(bytes, &mut pos);
    parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(())
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
    match bytes.get(*pos) {
        None => Err(format!("unexpected end of input at byte {pos}", pos = *pos)),
        Some(b'{') => {
            *pos += 1;
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(());
            }
            loop {
                skip_ws(bytes, pos);
                parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                skip_ws(bytes, pos);
                parse_value(bytes, pos)?;
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(());
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(());
            }
            loop {
                skip_ws(bytes, pos);
                parse_value(bytes, pos)?;
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(());
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
                }
            }
        }
        Some(b'"') => parse_string(bytes, pos),
        Some(b't') => literal(bytes, pos, b"true"),
        Some(b'f') => literal(bytes, pos, b"false"),
        Some(b'n') => literal(bytes, pos, b"null"),
        Some(_) => parse_number(bytes, pos),
    }
}

fn expect(bytes: &[u8], pos: &mut usize, want: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&want) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at byte {}", want as char, *pos))
    }
}

fn literal(bytes: &[u8], pos: &mut usize, word: &[u8]) -> Result<(), String> {
    if bytes[*pos..].starts_with(word) {
        *pos += word.len();
        Ok(())
    } else {
        Err(format!("bad literal at byte {}", *pos))
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
    expect(bytes, pos, b'"')?;
    while let Some(&b) = bytes.get(*pos) {
        match b {
            b'"' => {
                *pos += 1;
                return Ok(());
            }
            b'\\' => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *pos += 1,
                    Some(b'u') => {
                        if bytes.len() < *pos + 5
                            || !bytes[*pos + 1..*pos + 5].iter().all(u8::is_ascii_hexdigit)
                        {
                            return Err(format!("bad \\u escape at byte {}", *pos));
                        }
                        *pos += 5;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
            }
            0x00..=0x1f => return Err(format!("raw control char at byte {}", *pos)),
            _ => *pos += 1,
        }
    }
    Err("unterminated string".to_owned())
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let digits = |bytes: &[u8], pos: &mut usize| {
        let from = *pos;
        while bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
        *pos > from
    };
    if !digits(bytes, pos) {
        return Err(format!("expected a number at byte {start}"));
    }
    if bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        if !digits(bytes, pos) {
            return Err(format!("bad fraction at byte {}", *pos));
        }
    }
    if matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if !digits(bytes, pos) {
            return Err(format!("bad exponent at byte {}", *pos));
        }
    }
    Ok(())
}

/// Flattens every numeric leaf of one JSON document into
/// `dotted.path -> value`. Array elements use their index as the path
/// segment. Strings, booleans, and nulls are skipped; duplicate paths
/// keep the last value.
///
/// # Errors
///
/// The [`validate`] message when `text` is not one well-formed JSON value.
pub fn flatten(text: &str) -> Result<BTreeMap<String, f64>, String> {
    validate(text)?;
    let mut out = BTreeMap::new();
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    skip_ws(bytes, &mut pos);
    walk(bytes, &mut pos, "", &mut out);
    Ok(out)
}

fn join(path: &str, segment: &str) -> String {
    if path.is_empty() {
        segment.to_owned()
    } else {
        format!("{path}.{segment}")
    }
}

/// Consumes one already-validated JSON value, recording number leaves.
fn walk(bytes: &[u8], pos: &mut usize, path: &str, out: &mut BTreeMap<String, f64>) {
    skip_ws(bytes, pos);
    match bytes[*pos] {
        b'{' => {
            *pos += 1;
            loop {
                skip_ws(bytes, pos);
                if bytes[*pos] == b'}' {
                    *pos += 1;
                    return;
                }
                let key = take_string(bytes, pos);
                skip_ws(bytes, pos);
                *pos += 1; // ':'
                walk(bytes, pos, &join(path, &key), out);
                skip_ws(bytes, pos);
                if bytes[*pos] == b',' {
                    *pos += 1;
                }
            }
        }
        b'[' => {
            *pos += 1;
            let mut index = 0usize;
            loop {
                skip_ws(bytes, pos);
                if bytes[*pos] == b']' {
                    *pos += 1;
                    return;
                }
                walk(bytes, pos, &join(path, &index.to_string()), out);
                index += 1;
                skip_ws(bytes, pos);
                if bytes[*pos] == b',' {
                    *pos += 1;
                }
            }
        }
        b'"' => {
            take_string(bytes, pos);
        }
        b't' => *pos += 4,
        b'f' => *pos += 5,
        b'n' => *pos += 4,
        _ => {
            let start = *pos;
            while *pos < bytes.len()
                && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *pos += 1;
            }
            if let Ok(v) = std::str::from_utf8(&bytes[start..*pos])
                .unwrap_or("")
                .parse::<f64>()
            {
                out.insert(path.to_owned(), v);
            }
        }
    }
}

/// Consumes a validated JSON string, returning its content with simple
/// escapes resolved (`\uXXXX` becomes `?` — path segments only).
fn take_string(bytes: &[u8], pos: &mut usize) -> String {
    let mut s = String::new();
    *pos += 1; // opening quote
    loop {
        match bytes[*pos] {
            b'"' => {
                *pos += 1;
                return s;
            }
            b'\\' => {
                *pos += 1;
                match bytes[*pos] {
                    b'u' => {
                        s.push('?');
                        *pos += 5;
                    }
                    b'n' => {
                        s.push('\n');
                        *pos += 1;
                    }
                    b't' => {
                        s.push('\t');
                        *pos += 1;
                    }
                    other => {
                        s.push(other as char);
                        *pos += 1;
                    }
                }
            }
            other => {
                s.push(other as char);
                *pos += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_builds_nested_structures() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("name");
        w.string("a \"quoted\" name\n");
        w.key("list");
        w.begin_array();
        w.u64(1);
        w.u64(2);
        w.begin_object();
        w.key("ok");
        w.bool(true);
        w.end_object();
        w.end_array();
        w.key("pi");
        w.f64(3.25);
        w.end_object();
        let s = w.finish();
        validate(&s).unwrap();
        assert!(s.contains("\\\"quoted\\\""));
        assert!(s.contains("3.25"));
    }

    #[test]
    fn non_finite_floats_become_zero() {
        assert_eq!(number(f64::NAN), "0");
        assert_eq!(number(f64::INFINITY), "0");
        assert_eq!(number(1.5), "1.5");
    }

    #[test]
    fn flatten_walks_objects_arrays_and_skips_non_numbers() {
        let map = flatten("{\"a\":{\"b\":1.5,\"c\":[2,3]},\"s\":\"text\",\"t\":true,\"n\":null}")
            .unwrap();
        assert_eq!(map.get("a.b"), Some(&1.5));
        assert_eq!(map.get("a.c.0"), Some(&2.0));
        assert_eq!(map.get("a.c.1"), Some(&3.0));
        assert_eq!(map.len(), 3);
    }

    #[test]
    fn validator_accepts_and_rejects() {
        validate("{\"a\":[1,2.5,-3e2,true,null,\"x\"]}").unwrap();
        validate("  [ ]  ").unwrap();
        assert!(validate("{\"a\":}").is_err());
        assert!(validate("[1,]").is_err());
        assert!(validate("{\"a\":1} extra").is_err());
        assert!(validate("\"unterminated").is_err());
    }
}
