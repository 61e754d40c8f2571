//! Offline stand-in for `serde_json`: renders the `serde` shim's JSON model
//! to text (`to_string` / `to_string_pretty`).

use serde::{JsonValue, Serialize};
use std::fmt;

/// Serialization failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error: {}", self.0)
    }
}

impl std::error::Error for Error {}

/// Serializes `value` to compact JSON.
///
/// # Errors
///
/// Never fails for the shim's data model; the `Result` mirrors serde_json.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    render(&value.to_json_value(), None, 0, &mut out);
    Ok(out)
}

/// Serializes `value` to pretty-printed JSON (2-space indent).
///
/// # Errors
///
/// Never fails for the shim's data model; the `Result` mirrors serde_json.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    render(&value.to_json_value(), Some(2), 0, &mut out);
    Ok(out)
}

fn render(v: &JsonValue, indent: Option<usize>, depth: usize, out: &mut String) {
    match v {
        JsonValue::Null => out.push_str("null"),
        JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        JsonValue::Int(i) => out.push_str(&i.to_string()),
        JsonValue::UInt(u) => out.push_str(&u.to_string()),
        JsonValue::Float(x) => {
            if x.is_finite() {
                if x.fract() == 0.0 && x.abs() < 1e15 {
                    out.push_str(&format!("{x:.1}"));
                } else {
                    out.push_str(&format!("{x}"));
                }
            } else {
                out.push_str("null");
            }
        }
        JsonValue::Str(s) => escape_into(s, out),
        JsonValue::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(indent, depth + 1, out);
                render(item, indent, depth + 1, out);
            }
            newline_indent(indent, depth, out);
            out.push(']');
        }
        JsonValue::Object(entries) => {
            if entries.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(indent, depth + 1, out);
                escape_into(k, out);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                render(item, indent, depth + 1, out);
            }
            newline_indent(indent, depth, out);
            out.push('}');
        }
    }
}

fn newline_indent(indent: Option<usize>, depth: usize, out: &mut String) {
    if let Some(w) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', w * depth));
    }
}

fn escape_into(s: &str, out: &mut String) {
    out.push('"');
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
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_pretty() {
        let v = JsonValue::Object(vec![
            ("a".into(), JsonValue::Int(-3)),
            (
                "b".into(),
                JsonValue::Array(vec![JsonValue::Float(1.5), JsonValue::Null]),
            ),
            ("s".into(), JsonValue::Str("x\"y".into())),
        ]);
        struct Wrap(JsonValue);
        impl Serialize for Wrap {
            fn to_json_value(&self) -> JsonValue {
                self.0.clone()
            }
        }
        assert_eq!(
            to_string_pretty(&Wrap(v.clone())).unwrap(),
            "{\n  \"a\": -3,\n  \"b\": [\n    1.5,\n    null\n  ],\n  \"s\": \"x\\\"y\"\n}"
        );
        assert_eq!(
            to_string(&Wrap(v)).unwrap(),
            r#"{"a":-3,"b":[1.5,null],"s":"x\"y"}"#
        );
    }

    #[test]
    fn floats_keep_a_decimal_point() {
        struct W;
        impl Serialize for W {
            fn to_json_value(&self) -> JsonValue {
                JsonValue::Float(4.0)
            }
        }
        assert_eq!(to_string(&W).unwrap(), "4.0");
    }
}
