//! Minimal JSON support for the JSONL exporter and its tests: string
//! escaping, number formatting, and a small recursive-descent parser. No
//! external dependencies — the whole crate stays std-only.

use std::fmt::Write as _;

/// Appends a JSON string literal (with quotes) to `out`, escaping `"`, `\`,
/// control characters and newlines per RFC 8259.
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
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

/// Appends a JSON number for `v`; non-finite values become `null` (JSON has
/// no NaN/Infinity).
pub fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        // `{}` prints the shortest representation that round-trips exactly.
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer literal that fits in a `u64`, kept exact.
    UInt(u64),
    /// Any other number (parsed as f64).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            Json::UInt(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// The exact value of a non-negative integer literal below 2⁶⁴.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(v) => Some(*v),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Parses one JSON document, requiring it to consume the whole input.
pub fn parse(input: &str) -> Result<Json, String> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing bytes at offset {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    skip_ws(b, pos);
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at offset {pos}", c as char))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                expect(b, pos, b':')?;
                let val = parse_value(b, pos)?;
                fields.push((key, val));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at offset {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at offset {pos}")),
                }
            }
        }
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(_) => parse_number(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at offset {pos}"))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
    if let Ok(v) = text.parse::<u64>() {
        return Ok(Json::UInt(v));
    }
    text.parse::<f64>().map(Json::Num).map_err(|_| format!("invalid number {text:?} at {start}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at offset {pos}"));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex =
                            b.get(*pos + 1..*pos + 5).ok_or("truncated \\u escape".to_string())?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                            16,
                        )
                        .map_err(|e| e.to_string())?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at offset {pos}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (multi-byte sequences included).
                let rest = std::str::from_utf8(&b[*pos..]).map_err(|e| e.to_string())?;
                let c = rest.chars().next().expect("non-empty");
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn string_escaping_round_trips() {
        let nasty = "he said \"hi\\there\"\nnew\tline\u{1}é";
        let mut doc = String::new();
        write_str(&mut doc, nasty);
        assert_eq!(parse(&doc).unwrap(), Json::Str(nasty.to_string()));
    }

    #[test]
    fn numbers_round_trip_exactly() {
        for v in [0.0, -1.5, 1e-9, 123456789.123, f64::MAX, 2.0f64.powi(-40)] {
            let mut doc = String::new();
            write_f64(&mut doc, v);
            assert_eq!(parse(&doc).unwrap().as_f64().unwrap(), v, "{v}");
        }
        let mut doc = String::new();
        write_f64(&mut doc, f64::NAN);
        assert_eq!(doc, "null");
    }

    #[test]
    fn objects_and_arrays_parse() {
        let j = parse(r#"{"a": [1, 2.5, "x"], "b": {"c": true, "d": null}}"#).unwrap();
        assert_eq!(
            j.get("a"),
            Some(&Json::Arr(vec![Json::UInt(1), Json::Num(2.5), Json::Str("x".into())]))
        );
        assert_eq!(j.get("b").unwrap().get("c"), Some(&Json::Bool(true)));
        assert_eq!(j.get("b").unwrap().get("d"), Some(&Json::Null));
    }

    #[test]
    fn integer_literals_stay_exact() {
        for v in [0, 1 << 53, (1 << 53) + 1, 18080803159395780711, u64::MAX] {
            let j = parse(&v.to_string()).unwrap();
            assert_eq!(j.as_u64(), Some(v));
            assert_eq!(j.as_f64(), Some(v as f64));
        }
        for text in ["-1", "1.0", "2.5", "1e3", "18446744073709551616"] {
            assert_eq!(parse(text).unwrap().as_u64(), None, "{text}");
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1, 2,,]").is_err());
        assert!(parse("{} extra").is_err());
        assert!(parse("\"unterminated").is_err());
    }
}
