//! DML — the *Digibox Model Language*.
//!
//! A hand-written parser and printer for the YAML-like subset Digibox uses
//! for shareable model and setup files (paper, Fig. 3). Supported syntax:
//!
//! * nested maps via 2-space indentation: `power:` followed by indented keys;
//! * scalars: `null`/`~`, `true`/`false`, integers, floats, quoted and bare
//!   strings;
//! * inline (flow) lists: `attach: [L1, O1]`;
//! * block lists: lines starting with `- `;
//! * comments with `#` (outside quotes) and blank lines;
//! * multiple documents separated by `---`.
//!
//! Full YAML (anchors, tags, flow maps, multi-line strings) is deliberately
//! out of scope — DML documents are machine-written and machine-read.

use crate::{ModelError, Result, Value};
use std::collections::BTreeMap;

/// Parse a DML string holding exactly one document.
pub fn parse(input: &str) -> Result<Value> {
    let mut docs = parse_documents(input)?;
    match docs.len() {
        1 => Ok(docs.remove(0)),
        n => Err(ModelError::Parse { line: 0, reason: format!("expected 1 document, found {n}") }),
    }
}

/// Parse a DML string into its `---`-separated documents.
pub fn parse_documents(input: &str) -> Result<Vec<Value>> {
    let mut docs = Vec::new();
    let mut lines: Vec<Line> = Vec::new();
    for (i, raw) in input.lines().enumerate() {
        let lineno = i + 1;
        let stripped = strip_comment(raw);
        let trimmed = stripped.trim_end();
        if trimmed.trim().is_empty() {
            continue;
        }
        if trimmed.trim() == "---" {
            docs.push(parse_block(&lines)?);
            lines.clear();
            continue;
        }
        let indent = trimmed.len() - trimmed.trim_start().len();
        if !indent.is_multiple_of(2) {
            return Err(ModelError::Parse {
                line: lineno,
                reason: "indentation must be a multiple of 2 spaces".into(),
            });
        }
        lines.push(Line { no: lineno, depth: indent / 2, text: trimmed.trim_start().to_string() });
    }
    if !lines.is_empty() || docs.is_empty() {
        docs.push(parse_block(&lines)?);
    }
    Ok(docs)
}

/// Serialize a value as a DML document (no trailing `---`).
pub fn to_string(v: &Value) -> String {
    let mut out = String::new();
    write_value(v, 0, &mut out);
    out
}

/// Serialize several documents, `---`-separated.
pub fn documents_to_string(docs: &[Value]) -> String {
    let mut out = String::new();
    for (i, d) in docs.iter().enumerate() {
        if i > 0 {
            out.push_str("---\n");
        }
        write_value(d, 0, &mut out);
    }
    out
}

struct Line {
    no: usize,
    depth: usize,
    text: String,
}

fn strip_comment(line: &str) -> String {
    let mut out = String::with_capacity(line.len());
    let mut in_quotes = false;
    let mut escaped = false;
    for c in line.chars() {
        if escaped {
            escaped = false;
            out.push(c);
            continue;
        }
        match c {
            '\\' if in_quotes => {
                escaped = true;
                out.push(c);
            }
            '"' => {
                in_quotes = !in_quotes;
                out.push(c);
            }
            '#' if !in_quotes => break,
            _ => out.push(c),
        }
    }
    out
}

fn parse_block(lines: &[Line]) -> Result<Value> {
    if lines.is_empty() {
        return Ok(Value::map());
    }
    let (v, consumed) = parse_node(lines, 0, lines[0].depth)?;
    if consumed != lines.len() {
        return Err(ModelError::Parse {
            line: lines[consumed].no,
            reason: "unexpected de-indented content after document root".into(),
        });
    }
    Ok(v)
}

/// Parse the node starting at `lines[start]`, all at `depth`. Returns the
/// value and how many lines were consumed.
fn parse_node(lines: &[Line], start: usize, depth: usize) -> Result<(Value, usize)> {
    if lines[start].text.starts_with("- ") || lines[start].text == "-" {
        parse_list(lines, start, depth)
    } else {
        parse_map(lines, start, depth)
    }
}

fn parse_map(lines: &[Line], start: usize, depth: usize) -> Result<(Value, usize)> {
    let mut map = BTreeMap::new();
    let mut i = start;
    while i < lines.len() && lines[i].depth == depth && !lines[i].text.starts_with("- ") {
        let line = &lines[i];
        let (key, rest) = split_key(line)?;
        if map.contains_key(&key) {
            return Err(ModelError::Parse { line: line.no, reason: format!("duplicate key {key:?}") });
        }
        if rest.is_empty() {
            // nested block (map or list) on following, deeper lines
            if i + 1 < lines.len() && lines[i + 1].depth > depth {
                let (child, consumed) = parse_node(lines, i + 1, lines[i + 1].depth)?;
                map.insert(key, child);
                i += 1 + consumed;
            } else {
                // `key:` with nothing nested → null
                map.insert(key, Value::Null);
                i += 1;
            }
        } else {
            map.insert(key, parse_scalar_or_flow(&rest, line.no)?);
            i += 1;
        }
        if i < lines.len() && lines[i].depth > depth {
            return Err(ModelError::Parse {
                line: lines[i].no,
                reason: "unexpected indentation under scalar value".into(),
            });
        }
        if i < lines.len() && lines[i].depth < depth {
            break;
        }
    }
    Ok((Value::Map(map), i - start))
}

fn parse_list(lines: &[Line], start: usize, depth: usize) -> Result<(Value, usize)> {
    let mut items = Vec::new();
    let mut i = start;
    while i < lines.len() && lines[i].depth == depth && (lines[i].text.starts_with("- ") || lines[i].text == "-") {
        let line = &lines[i];
        let body = line.text.strip_prefix('-').unwrap().trim_start();
        if body.is_empty() {
            // nested structure as the list element
            if i + 1 < lines.len() && lines[i + 1].depth > depth {
                let (child, consumed) = parse_node(lines, i + 1, lines[i + 1].depth)?;
                items.push(child);
                i += 1 + consumed;
            } else {
                items.push(Value::Null);
                i += 1;
            }
        } else if body.contains(": ") || body.ends_with(':') {
            // inline `- key: value` single-line map entry (common in setups)
            let sub = Line { no: line.no, depth: 0, text: body.to_string() };
            let (v, _) = parse_map(std::slice::from_ref(&sub), 0, 0)?;
            items.push(v);
            i += 1;
        } else {
            items.push(parse_scalar_or_flow(body, line.no)?);
            i += 1;
        }
        if i < lines.len() && lines[i].depth < depth {
            break;
        }
    }
    Ok((Value::List(items), i - start))
}

fn split_key(line: &Line) -> Result<(String, String)> {
    // find the first `:` outside quotes
    let mut in_quotes = false;
    for (idx, c) in line.text.char_indices() {
        match c {
            '"' => in_quotes = !in_quotes,
            ':' if !in_quotes => {
                let key_raw = line.text[..idx].trim();
                let rest = line.text[idx + 1..].trim().to_string();
                if key_raw.is_empty() {
                    return Err(ModelError::Parse { line: line.no, reason: "empty key".into() });
                }
                let key = unquote(key_raw);
                return Ok((key, rest));
            }
            _ => {}
        }
    }
    Err(ModelError::Parse { line: line.no, reason: format!("expected `key: value`, got {:?}", line.text) })
}

fn parse_scalar_or_flow(s: &str, lineno: usize) -> Result<Value> {
    let s = s.trim();
    if s == "{}" {
        return Ok(Value::map()); // the only flow-map form DML supports
    }
    if let Some(inner) = s.strip_prefix('[') {
        let inner = inner
            .strip_suffix(']')
            .ok_or_else(|| ModelError::Parse { line: lineno, reason: "unterminated flow list".into() })?;
        let mut items = Vec::new();
        for part in split_flow_items(inner) {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            items.push(parse_scalar(part));
        }
        return Ok(Value::List(items));
    }
    Ok(parse_scalar(s))
}

/// Split a flow list body on commas outside quotes/brackets.
fn split_flow_items(s: &str) -> Vec<String> {
    let mut items = Vec::new();
    let mut cur = String::new();
    let mut in_quotes = false;
    let mut escaped = false;
    let mut bracket_depth = 0usize;
    for c in s.chars() {
        if escaped {
            escaped = false;
            cur.push(c);
            continue;
        }
        match c {
            '\\' if in_quotes => {
                escaped = true;
                cur.push(c);
            }
            '"' => {
                in_quotes = !in_quotes;
                cur.push(c);
            }
            '[' if !in_quotes => {
                bracket_depth += 1;
                cur.push(c);
            }
            ']' if !in_quotes => {
                bracket_depth = bracket_depth.saturating_sub(1);
                cur.push(c);
            }
            ',' if !in_quotes && bracket_depth == 0 => {
                items.push(std::mem::take(&mut cur));
            }
            _ => cur.push(c),
        }
    }
    if !cur.trim().is_empty() {
        items.push(cur);
    }
    items
}

fn parse_scalar(s: &str) -> Value {
    match s {
        "null" | "~" => return Value::Null,
        "true" => return Value::Bool(true),
        "false" => return Value::Bool(false),
        _ => {}
    }
    if s.starts_with('"') && s.ends_with('"') && s.len() >= 2 {
        return Value::Str(unescape(&s[1..s.len() - 1]));
    }
    if let Ok(i) = s.parse::<i64>() {
        return Value::Int(i);
    }
    // Floats must look numeric (avoid swallowing bare strings like `1.2.3`).
    if let Ok(x) = s.parse::<f64>() {
        if s.bytes().all(|b| b.is_ascii_digit() || matches!(b, b'.' | b'-' | b'+' | b'e' | b'E')) {
            return Value::Float(x);
        }
    }
    Value::Str(s.to_string())
}

fn unquote(s: &str) -> String {
    if s.starts_with('"') && s.ends_with('"') && s.len() >= 2 {
        unescape(&s[1..s.len() - 1])
    } else {
        s.to_string()
    }
}

fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('n') => out.push('\n'),
                Some('t') => out.push('\t'),
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                Some(other) => {
                    out.push('\\');
                    out.push(other);
                }
                None => out.push('\\'),
            }
        } else {
            out.push(c);
        }
    }
    out
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            _ => out.push(c),
        }
    }
    out
}

/// A bare string is one that parses back to itself as a string scalar.
fn needs_quotes(s: &str) -> bool {
    if s.is_empty() {
        return true;
    }
    if s != s.trim() {
        return true;
    }
    if matches!(s, "null" | "~" | "true" | "false" | "---") {
        return true;
    }
    if s.parse::<i64>().is_ok() || s.parse::<f64>().is_ok() {
        return true;
    }
    s.contains(':')
        || s.contains('#')
        || s.contains('[')
        || s.contains(']')
        || s.contains(',')
        || s.contains('"')
        || s.contains('\n')
        || s.contains('\t')
        || s.starts_with('-')
}

fn scalar_to_string(v: &Value) -> String {
    match v {
        Value::Null => "null".to_string(),
        Value::Bool(b) => b.to_string(),
        Value::Int(i) => i.to_string(),
        Value::Float(x) => {
            if x.fract() == 0.0 && x.is_finite() && x.abs() < 1e15 {
                format!("{x:.1}")
            } else {
                format!("{x}")
            }
        }
        Value::Str(s) => {
            if needs_quotes(s) {
                format!("\"{}\"", escape(s))
            } else {
                s.clone()
            }
        }
        _ => unreachable!("scalar_to_string called on container"),
    }
}

fn write_value(v: &Value, depth: usize, out: &mut String) {
    let pad = "  ".repeat(depth);
    match v {
        Value::Map(m) => {
            if m.is_empty() {
                // an empty root still needs to parse back to an empty map;
                // emit nothing (parse of empty input yields an empty map).
                return;
            }
            for (k, child) in m {
                let key = if needs_quotes(k) { format!("\"{}\"", escape(k)) } else { k.clone() };
                match child {
                    Value::Map(cm) if !cm.is_empty() => {
                        out.push_str(&format!("{pad}{key}:\n"));
                        write_value(child, depth + 1, out);
                    }
                    Value::Map(_) => {
                        // empty map has no block form; use the flow literal
                        out.push_str(&format!("{pad}{key}: {{}}\n"));
                    }
                    Value::List(items) if items.iter().all(Value::is_scalar) => {
                        let inline: Vec<String> = items.iter().map(scalar_to_string).collect();
                        out.push_str(&format!("{pad}{key}: [{}]\n", inline.join(", ")));
                    }
                    Value::List(_) => {
                        out.push_str(&format!("{pad}{key}:\n"));
                        write_value(child, depth + 1, out);
                    }
                    scalar => {
                        out.push_str(&format!("{pad}{key}: {}\n", scalar_to_string(scalar)));
                    }
                }
            }
        }
        Value::List(items) => {
            for item in items {
                match item {
                    Value::Map(m) if m.is_empty() => out.push_str(&format!("{pad}- {{}}\n")),
                    Value::List(l) if l.is_empty() => out.push_str(&format!("{pad}- []\n")),
                    Value::List(l) if l.iter().all(Value::is_scalar) => {
                        let inline: Vec<String> = l.iter().map(scalar_to_string).collect();
                        out.push_str(&format!("{pad}- [{}]\n", inline.join(", ")));
                    }
                    Value::Map(_) | Value::List(_) => {
                        out.push_str(&format!("{pad}-\n"));
                        write_value(item, depth + 1, out);
                    }
                    scalar => out.push_str(&format!("{pad}- {}\n", scalar_to_string(scalar))),
                }
            }
        }
        scalar => out.push_str(&format!("{pad}{}\n", scalar_to_string(scalar))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vmap;

    #[test]
    fn parses_paper_fig3_occupancy() {
        let doc = "\
meta:
  type: Occupancy
  version: v1
  name: O1
  managed: true
  # ..more config
triggered: true
";
        let v = parse(doc).unwrap();
        assert_eq!(v.get("triggered"), Some(&Value::Bool(true)));
        let meta = v.get("meta").unwrap();
        assert_eq!(meta.get("type").unwrap().as_str(), Some("Occupancy"));
        assert_eq!(meta.get("managed"), Some(&Value::Bool(true)));
    }

    #[test]
    fn parses_paper_fig3_room_with_attach() {
        let doc = "\
meta:
  type: Room
  version: v2
  name: MeetingRoom
  managed: true
  human_presence: true
  attach: [L1,O1]
";
        let v = parse(doc).unwrap();
        let attach = v.get("meta").unwrap().get("attach").unwrap().as_list().unwrap();
        assert_eq!(attach.len(), 2);
        assert_eq!(attach[0].as_str(), Some("L1"));
    }

    #[test]
    fn parses_multiple_documents() {
        let doc = "a: 1\n---\nb: 2\n";
        let docs = parse_documents(doc).unwrap();
        assert_eq!(docs.len(), 2);
        assert_eq!(docs[0].get("a"), Some(&Value::Int(1)));
        assert_eq!(docs[1].get("b"), Some(&Value::Int(2)));
    }

    #[test]
    fn parses_nested_pairs() {
        let doc = "\
power:
  intent: \"on\"
  status: \"on\"
intensity:
  intent: 0.2
  status: 0.4
";
        let v = parse(doc).unwrap();
        assert_eq!(
            v.get("intensity").unwrap().get("intent").unwrap().as_float(),
            Some(0.2)
        );
        assert_eq!(v.get("power").unwrap().get("intent").unwrap().as_str(), Some("on"));
    }

    #[test]
    fn parses_block_lists() {
        let doc = "\
mocks:
  - L1
  - O1
scenes:
  -
    name: room
    kind: Room
";
        let v = parse(doc).unwrap();
        assert_eq!(v.get("mocks").unwrap().as_list().unwrap().len(), 2);
        let scenes = v.get("scenes").unwrap().as_list().unwrap();
        assert_eq!(scenes[0].get("name").unwrap().as_str(), Some("room"));
    }

    #[test]
    fn scalar_types() {
        let doc = "a: 1\nb: 1.5\nc: true\nd: null\ne: hello world\nf: \"quoted: str\"\n";
        let v = parse(doc).unwrap();
        assert_eq!(v.get("a"), Some(&Value::Int(1)));
        assert_eq!(v.get("b"), Some(&Value::Float(1.5)));
        assert_eq!(v.get("c"), Some(&Value::Bool(true)));
        assert_eq!(v.get("d"), Some(&Value::Null));
        assert_eq!(v.get("e").unwrap().as_str(), Some("hello world"));
        assert_eq!(v.get("f").unwrap().as_str(), Some("quoted: str"));
    }

    #[test]
    fn roundtrip_complex() {
        let v = vmap! {
            "meta" => vmap! {
                "type" => "Room",
                "name" => "MeetingRoom",
                "attach" => vec!["L1", "O1"],
                "managed" => true,
            },
            "human_presence" => false,
            "temps" => vec![20.5, 21.0],
            "notes" => "needs: cleanup",
            "count" => 3,
        };
        let text = to_string(&v);
        let back = parse(&text).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn roundtrip_documents() {
        let docs = vec![vmap! { "a" => 1 }, vmap! { "b" => vec![1i64, 2, 3] }];
        let text = documents_to_string(&docs);
        let back = parse_documents(&text).unwrap();
        assert_eq!(docs, back);
    }

    #[test]
    fn rejects_odd_indent() {
        assert!(parse("a:\n   b: 1\n").is_err());
    }

    #[test]
    fn rejects_duplicate_keys() {
        assert!(parse("a: 1\na: 2\n").is_err());
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let doc = "# header\n\na: 1 # trailing\n\n# footer\n";
        let v = parse(doc).unwrap();
        assert_eq!(v.get("a"), Some(&Value::Int(1)));
    }

    #[test]
    fn hash_inside_quotes_preserved() {
        let v = parse("a: \"x # y\"\n").unwrap();
        assert_eq!(v.get("a").unwrap().as_str(), Some("x # y"));
    }

    #[test]
    fn quoted_strings_that_look_like_other_types() {
        let v = parse("a: \"true\"\nb: \"1\"\n").unwrap();
        assert_eq!(v.get("a").unwrap().as_str(), Some("true"));
        assert_eq!(v.get("b").unwrap().as_str(), Some("1"));
        // and they re-serialize with quotes
        let text = to_string(&v);
        assert!(text.contains("\"true\""));
        assert!(text.contains("\"1\""));
    }

    #[test]
    fn empty_input_is_empty_map() {
        assert_eq!(parse("").unwrap(), Value::map());
        assert_eq!(parse("# only comments\n").unwrap(), Value::map());
    }
}
