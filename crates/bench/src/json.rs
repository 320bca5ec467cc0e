//! A minimal JSON reader for the committed `BENCH_*.json` snapshots.
//!
//! The workspace's offline serde shim has no JSON backend, and the
//! snapshot *emitters* (`table::to_json`, `table::experiments_doc_json`)
//! deliberately build their documents by string formatting. The
//! committed-snapshot CI gate needs the inverse: parse a snapshot back
//! into a tree and check it still carries every field the current
//! emitters produce. This module is that inverse — a small
//! recursive-descent RFC 8259 parser, sufficient for (and tested
//! against) the emitters' output, not a general-purpose JSON library.

use std::collections::BTreeMap;

/// A parsed JSON value. Object member order is preserved in
/// [`Value::Object`]'s companion key list so schema checks can verify
/// emitter field order.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object: members by key, plus the key order as written.
    Object(BTreeMap<String, Value>, Vec<String>),
}

impl Value {
    /// Member lookup on objects; `None` otherwise.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(map, _) => map.get(key),
            _ => None,
        }
    }

    /// The object's keys in document order; empty otherwise.
    pub fn keys(&self) -> &[String] {
        match self {
            Value::Object(_, order) => order,
            _ => &[],
        }
    }

    /// The array's elements; `None` otherwise.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The string's contents; `None` otherwise.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }
}

/// Maximum container nesting depth the parser accepts.
///
/// The parser is recursive-descent, so each `[` / `{` consumes a stack
/// frame; a hostile (or merely buggy) document like `"[".repeat(10^6)`
/// would otherwise overflow the stack inside the CI schema gate instead
/// of returning an error. 128 is far above anything the emitters
/// produce (their documents nest 6 levels deep) while keeping worst-case
/// stack use trivially bounded.
pub const MAX_DEPTH: usize = 128;

/// Parses one JSON document (ignoring surrounding whitespace).
///
/// # Errors
///
/// Returns a human-readable description with a byte offset on malformed
/// input, trailing garbage, or nesting deeper than [`MAX_DEPTH`].
pub fn parse(input: &str) -> Result<Value, String> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&b) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!(
            "expected `{}` at byte {} (found {:?})",
            b as char,
            *pos,
            bytes.get(*pos).map(|&c| c as char)
        ))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
    if depth > MAX_DEPTH {
        return Err(format!(
            "nesting deeper than {MAX_DEPTH} at byte {pos}",
            pos = *pos
        ));
    }
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => parse_object(bytes, pos, depth),
        Some(b'[') => parse_array(bytes, pos, depth),
        Some(b'"') => Ok(Value::String(parse_string(bytes, pos)?)),
        Some(b't') => parse_keyword(bytes, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_keyword(bytes, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_keyword(bytes, pos, "null", Value::Null),
        Some(_) => parse_number(bytes, pos),
        None => Err("unexpected end of input".into()),
    }
}

fn parse_keyword(bytes: &[u8], pos: &mut usize, word: &str, value: Value) -> Result<Value, String> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("expected `{word}` at byte {pos}", pos = *pos))
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
    expect(bytes, pos, b'{')?;
    let mut map = BTreeMap::new();
    let mut order = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Object(map, order));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos, depth + 1)?;
        if map.insert(key.clone(), value).is_some() {
            return Err(format!("duplicate object key `{key}`"));
        }
        order.push(key);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Object(map, order));
            }
            other => return Err(format!("expected `,` or `}}` in object, found {other:?}")),
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Array(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth + 1)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Array(items));
            }
            other => return Err(format!("expected `,` or `]` in array, found {other:?}")),
        }
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let code = parse_hex4(bytes, *pos + 1)?;
                        *pos += 4;
                        if (0xDC00..=0xDFFF).contains(&code) {
                            return Err(format!(
                                "unpaired low surrogate \\u{code:04X} at byte {}",
                                *pos - 4
                            ));
                        }
                        if (0xD800..=0xDBFF).contains(&code) {
                            // High surrogate: RFC 8259 §7 requires it be
                            // followed by a `\u`-escaped low surrogate.
                            if bytes.get(*pos + 1..*pos + 3) != Some(br"\u") {
                                return Err(format!(
                                    "high surrogate \\u{code:04X} not followed by \\u escape"
                                ));
                            }
                            let low = parse_hex4(bytes, *pos + 3)?;
                            if !(0xDC00..=0xDFFF).contains(&low) {
                                return Err(format!(
                                    "high surrogate \\u{code:04X} followed by non-surrogate \\u{low:04X}"
                                ));
                            }
                            *pos += 6;
                            let scalar = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                            out.push(char::from_u32(scalar).ok_or("invalid surrogate pair")?);
                        } else {
                            out.push(char::from_u32(code).ok_or("invalid \\u escape")?);
                        }
                    }
                    other => return Err(format!("invalid escape {other:?}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the run up to the next `"` or `\`. Both are ASCII,
                // so the run ends on a char boundary of the input `&str`.
                let run = bytes[*pos..]
                    .iter()
                    .position(|&b| b == b'"' || b == b'\\')
                    .unwrap_or(bytes.len() - *pos);
                out.push_str(
                    std::str::from_utf8(&bytes[*pos..*pos + run]).map_err(|e| e.to_string())?,
                );
                *pos += run;
            }
        }
    }
}

fn parse_hex4(bytes: &[u8], at: usize) -> Result<u32, String> {
    let hex = bytes.get(at..at + 4).ok_or("truncated \\u escape")?;
    let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
    u32::from_str_radix(hex, 16).map_err(|e| e.to_string())
}

/// Parses a number following the RFC 8259 grammar exactly:
/// `-? (0 | [1-9][0-9]*) (\. [0-9]+)? ([eE] [+-]? [0-9]+)?`.
///
/// Anything `f64::parse` would accept beyond that — leading zeros,
/// leading `+`, bare `.`/`e` tails, `inf`, `NaN` — is rejected, so the
/// parser stays the true inverse of RFC-conforming emitters.
fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    let err = |pos: usize| format!("invalid number at byte {pos}");
    let digits = |pos: &mut usize| -> Result<(), String> {
        let from = *pos;
        while *pos < bytes.len() && bytes[*pos].is_ascii_digit() {
            *pos += 1;
        }
        if *pos == from {
            Err(err(from))
        } else {
            Ok(())
        }
    };

    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    // int: `0` alone, or a nonzero digit followed by any digits.
    match bytes.get(*pos) {
        Some(b'0') => *pos += 1,
        Some(b'1'..=b'9') => digits(pos)?,
        _ => return Err(err(*pos)),
    }
    // Leading zeros (`01`) are caught here: after the single `0` the
    // next digit is not part of any production, and a digit cannot
    // legally follow a complete number either, so reject explicitly.
    if *pos < bytes.len() && bytes[*pos].is_ascii_digit() {
        return Err(format!("leading zero in number at byte {start}"));
    }
    if bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        digits(pos)?;
    }
    if matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        digits(pos)?;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(Value::Number)
        .map_err(|_| format!("invalid number `{text}` at byte {start}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_structure() {
        let v = parse(r#"{"a":1.5,"b":[true,false,null,"x\n\"y\""],"c":{}}"#).unwrap();
        assert_eq!(v.keys(), ["a", "b", "c"]);
        assert_eq!(v.get("a"), Some(&Value::Number(1.5)));
        let arr = v.get("b").unwrap().as_array().unwrap();
        assert_eq!(arr.len(), 4);
        assert_eq!(arr[3].as_str(), Some("x\n\"y\""));
        assert_eq!(v.get("c").unwrap().keys().len(), 0);
    }

    #[test]
    fn round_trips_the_emitters() {
        use crate::table::{experiment_entry_json, experiments_doc_json, Table};
        let mut t = Table::new("T \"q\"", "exp\nnote", &["a", "b"]);
        t.push_row(vec!["1".into(), "x\\y ±0.5".into()]);
        let entry = experiment_entry_json("e0", "unit fixture", 1.25, &[t]);
        let doc = experiments_doc_json(7, true, "grid", 4, 1, &[entry]);
        let v = parse(&doc).unwrap();
        assert_eq!(
            v.keys(),
            ["seed", "quick", "engine", "seeds", "cores", "experiments"]
        );
        let exps = v.get("experiments").unwrap().as_array().unwrap();
        assert_eq!(exps[0].keys(), ["id", "what", "seconds", "tables"]);
        let table = &exps[0].get("tables").unwrap().as_array().unwrap()[0];
        assert_eq!(table.keys(), ["title", "expectation", "columns", "rows"]);
        assert_eq!(table.get("title").unwrap().as_str(), Some("T \"q\""));
        assert_eq!(
            table.get("expectation").unwrap().as_str(),
            Some("exp\nnote")
        );
        let rows = table.get("rows").unwrap().as_array().unwrap();
        assert_eq!(rows[0].as_array().unwrap()[1].as_str(), Some("x\\y ±0.5"));
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse("{").is_err());
        assert!(parse(r#"{"a":1} trailing"#).is_err());
        assert!(parse(r#"{"a":1,"a":2}"#).is_err());
        assert!(parse(r#"["unterminated"#).is_err());
        assert!(parse("01a").is_err());
    }

    /// The depth guard: nesting up to [`MAX_DEPTH`] parses, one level
    /// past it returns an error instead of overflowing the stack, and
    /// a pathologically deep document (far beyond any plausible stack)
    /// errors out the same way.
    #[test]
    fn depth_guard_rejects_deep_nesting() {
        let nested = |d: usize| format!("{}0{}", "[".repeat(d), "]".repeat(d));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let e = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(e.contains("nesting deeper than"), "{e}");
        assert!(parse(&"[".repeat(1_000_000)).is_err());
        // Mixed object/array nesting counts the same.
        let mixed = format!(
            "{}0{}",
            r#"{"k":["#.repeat(MAX_DEPTH / 2 + 1),
            "]}".repeat(MAX_DEPTH / 2 + 1)
        );
        assert!(parse(&mixed).is_err());
    }

    /// RFC 8259 number grammar: the loose pre-RFC scanner accepted all
    /// of these via `f64::parse`.
    #[test]
    fn rejects_non_rfc_numbers() {
        for bad in [
            "01", "00", "-01", "+5", "1.", ".5", "5e", "5e+", "1.e3", "1e2.5", "1-2", "--1", "-",
            "NaN", "inf",
        ] {
            assert!(parse(bad).is_err(), "`{bad}` should be rejected");
            assert!(
                parse(&format!("[{bad}]")).is_err(),
                "`[{bad}]` should be rejected"
            );
        }
    }

    #[test]
    fn accepts_rfc_numbers() {
        let cases: [(&str, f64); 9] = [
            ("0", 0.0),
            ("-0", -0.0),
            ("10", 10.0),
            ("-1.5", -1.5),
            ("0.25", 0.25),
            ("1e3", 1000.0),
            ("1E+3", 1000.0),
            ("2.5e-2", 0.025),
            ("1.25E2", 125.0),
        ];
        for (text, want) in cases {
            match parse(text) {
                Ok(Value::Number(got)) => assert_eq!(got.to_bits(), want.to_bits(), "`{text}`"),
                other => panic!("`{text}` → {other:?}"),
            }
        }
    }

    /// `\u` escapes: BMP scalars decode directly, surrogate *pairs*
    /// combine into one astral-plane scalar, and broken halves error.
    #[test]
    fn decodes_surrogate_pairs() {
        let v = parse(r#""A\u00e9\u2713""#).unwrap();
        assert_eq!(v.as_str(), Some("Aé✓"));
        // U+1D11E MUSICAL SYMBOL G CLEF as the pair D834 DD1E.
        let v = parse(r#""\uD834\uDD1E""#).unwrap();
        assert_eq!(v.as_str(), Some("\u{1D11E}"));
        // U+10348 GOTHIC LETTER HWAIR (D800 DF48), mixed with text.
        let v = parse(r#""x\uD800\uDF48y""#).unwrap();
        assert_eq!(v.as_str(), Some("x\u{10348}y"));
        for bad in [
            r#""\uD834""#,       // lone high surrogate at end of string
            r#""\uD834x""#,      // high surrogate followed by literal
            r#""\uD834\n""#,     // high surrogate followed by other escape
            r#""\uD834\uD834""#, // high followed by high
            r#""\uDD1E""#,       // lone low surrogate
            r#""\uD8""#,         // truncated hex
        ] {
            assert!(parse(bad).is_err(), "`{bad}` should be rejected");
        }
    }
}
