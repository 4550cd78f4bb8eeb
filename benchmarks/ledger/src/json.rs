//! Minimal JSON document writer (the workspace has no serde; reading
//! goes through `obs::parse_json`).

use std::fmt::Write as _;

/// A JSON value. Objects keep insertion order so files diff cleanly.
#[derive(Debug, Clone, PartialEq)]
pub enum J {
    Null,
    Bool(bool),
    Int(u64),
    /// Non-finite values are written as `null` — JSON has no NaN.
    Num(f64),
    Str(String),
    Arr(Vec<J>),
    Obj(Vec<(String, J)>),
}

impl J {
    pub fn str(s: &str) -> J {
        J::Str(s.to_string())
    }

    pub fn obj<const N: usize>(fields: [(&str, J); N]) -> J {
        J::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    pub fn arr(items: impl IntoIterator<Item = J>) -> J {
        J::Arr(items.into_iter().collect())
    }

    /// Compact single-line rendering.
    pub fn render(&self) -> String {
        let mut s = String::new();
        self.write(&mut s, None, 0);
        s
    }

    /// Indented rendering for files people read.
    pub fn pretty(&self) -> String {
        let mut s = String::new();
        self.write(&mut s, Some(2), 0);
        s.push('\n');
        s
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let nl = |out: &mut String, depth: usize| {
            if let Some(w) = indent {
                out.push('\n');
                out.extend(std::iter::repeat_n(' ', w * depth));
            }
        };
        match self {
            J::Null => out.push_str("null"),
            J::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            J::Int(i) => {
                let _ = write!(out, "{i}");
            }
            J::Num(x) if x.is_finite() => {
                // `{}` prints the shortest digits that round-trip, never
                // in exponent form: every measured digit is kept.
                let _ = write!(out, "{x}");
            }
            J::Num(_) => out.push_str("null"),
            J::Str(s) => push_str_lit(out, s),
            J::Arr(items) => {
                out.push('[');
                for (i, it) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    nl(out, depth + 1);
                    it.write(out, indent, depth + 1);
                }
                if !items.is_empty() {
                    nl(out, depth);
                }
                out.push(']');
            }
            J::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    nl(out, depth + 1);
                    push_str_lit(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                if !fields.is_empty() {
                    nl(out, depth);
                }
                out.push('}');
            }
        }
    }
}

fn push_str_lit(out: &mut String, s: &str) {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn documents_round_trip_through_the_obs_reader() {
        let doc = J::obj([
            ("name", J::str("avf \"replay\"\n")),
            ("ok", J::Bool(true)),
            ("n", J::Int(u64::MAX)),
            ("x", J::Num(0.1 + 0.2)),
            ("tiny", J::Num(1.5e-9)),
            ("nan", J::Num(f64::NAN)),
            ("items", J::arr([J::Int(1), J::Null, J::obj([])])),
        ]);
        for text in [doc.render(), doc.pretty()] {
            let back = obs::parse_json(&text).expect("valid JSON");
            assert_eq!(
                back.get("name").and_then(|v| v.as_str()),
                Some("avf \"replay\"\n")
            );
            assert_eq!(back.get("ok").and_then(|v| v.as_bool()), Some(true));
            assert_eq!(back.get("n").and_then(|v| v.as_u64()), Some(u64::MAX));
            assert_eq!(back.get("x").and_then(|v| v.as_f64()), Some(0.1 + 0.2));
            assert_eq!(back.get("tiny").and_then(|v| v.as_f64()), Some(1.5e-9));
            assert!(back.get("nan").is_some_and(|v| v.as_f64().is_none()));
            assert_eq!(
                back.get("items").and_then(|v| v.as_arr()).map(<[_]>::len),
                Some(3)
            );
        }
        assert!(!doc.render().contains('\n'));
    }
}
