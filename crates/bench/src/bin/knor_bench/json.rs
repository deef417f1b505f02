//! The one JSON writer. Run, trace and agree reports, the chrome trace
//! and the result line are all built as [`Json`] values — the type the
//! repository's own parser (`knor_bench::regression`) produces — and
//! rendered here, so anything this benchmark writes parses back with it.

pub use knor_bench::regression::Json;
use std::fmt::Write as _;

/// Render a value as compact single-line JSON.
pub fn render(v: &Json) -> String {
    let mut out = String::new();
    write_value(v, &mut out);
    out
}

fn write_value(v: &Json, out: &mut String) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        // `{}` on an f64 prints the shortest decimal that reads back as
        // the same bits: every digit measured, no digit invented.
        Json::Num(x) if x.is_finite() => write!(out, "{x}").expect("write to String"),
        // JSON has no NaN or infinity.
        Json::Num(_) => out.push_str("null"),
        Json::Str(s) => write_str(s, out),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(item, out);
            }
            out.push(']');
        }
        Json::Obj(fields) => {
            out.push('{');
            for (i, (k, val)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_str(k, out);
                out.push(':');
                write_value(val, out);
            }
            out.push('}');
        }
    }
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write to String"),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// An object from `(key, value)` pairs, in the order given.
pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
    Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

pub fn arr(items: impl IntoIterator<Item = Json>) -> Json {
    Json::Arr(items.into_iter().collect())
}

pub fn num(x: impl Into<f64>) -> Json {
    Json::Num(x.into())
}

/// Counts are exact below 2⁵³, which every count here is.
pub fn count(x: u64) -> Json {
    Json::Num(x as f64)
}

pub fn string(s: impl Into<String>) -> Json {
    Json::Str(s.into())
}

/// Write a report under the git-ignored `results/bench/` of the current
/// directory, creating it on demand.
pub fn write_report(file: &str, v: &Json) -> std::io::Result<std::path::PathBuf> {
    let dir = crate::inputs::results_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(file);
    std::fs::write(&path, render(v) + "\n")?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_every_kind_and_parses_back() {
        let v = obj([
            ("null", Json::Null),
            ("yes", Json::Bool(true)),
            ("int", count(1_000_000)),
            ("frac", num(0.1)),
            ("tiny", num(1.5e-9)),
            ("text", string("a \"quoted\" \\ line\nwith\ttabs and \u{1} control")),
            ("list", arr([num(1.0), string("two"), arr([])])),
            ("nested", obj([("k", num(-2.5))])),
        ]);
        let text = render(&v);
        assert!(!text.contains('\n'), "one line: {text}");
        assert_eq!(Json::parse(&text).expect("own output parses"), v);
    }

    #[test]
    fn numbers_keep_all_their_digits() {
        assert_eq!(render(&num(1.2034)), "1.2034");
        assert_eq!(render(&num(0.1 + 0.2)), "0.30000000000000004");
        assert_eq!(render(&count(42)), "42");
        let x: f64 = 1.234_567_890_123_456_7e-5;
        let back = Json::parse(&render(&num(x))).expect("parses");
        assert_eq!(back.as_f64().map(f64::to_bits), Some(x.to_bits()));
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(render(&arr([num(f64::NAN), num(f64::INFINITY)])), "[null,null]");
    }

    #[test]
    fn object_keys_keep_their_order() {
        let text = render(&obj([("b", num(1.0)), ("a", num(2.0))]));
        assert_eq!(text, r#"{"b":1,"a":2}"#);
    }
}
