//! Minimal JSON output (the benchmark has no dependencies beyond the
//! library it measures).

use std::fmt::Write;

/// A JSON value under construction.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A number; non-finite values render as `null`.
    Num(f64),
    /// An integer.
    Int(u64),
    /// A boolean.
    Bool(bool),
    /// A string.
    Str(String),
    /// An object with keys in insertion order.
    Obj(Vec<(String, Value)>),
    /// An array.
    Arr(Vec<Value>),
}

impl Value {
    /// An empty object.
    pub fn obj() -> Self {
        Value::Obj(Vec::new())
    }

    /// Append `key: value` to an object.
    pub fn set(&mut self, key: &str, value: Value) -> &mut Self {
        if let Value::Obj(kv) = self {
            kv.push((key.to_string(), value));
        }
        self
    }

    /// A `{"value": v, "unit": u}` metric entry.
    pub fn metric(value: f64, unit: &str) -> Self {
        let mut m = Value::obj();
        m.set("value", Value::Num(value))
            .set("unit", Value::Str(unit.to_string()));
        m
    }

    /// Render on one line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Value::Num(x) if x.is_finite() => {
                let _ = write!(out, "{x}");
            }
            Value::Num(_) => out.push_str("null"),
            Value::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Str(s) => write_str(out, s),
            Value::Obj(kv) => {
                out.push('{');
                for (i, (k, v)) in kv.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_str(out, k);
                    out.push_str(": ");
                    v.write(out);
                }
                out.push('}');
            }
            Value::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    v.write(out);
                }
                out.push(']');
            }
        }
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
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
    fn renders_nested_objects() {
        let mut v = Value::obj();
        v.set("a", Value::metric(1.5, "ms"))
            .set("b", Value::Str("x\"y".into()))
            .set("c", Value::Num(f64::NAN))
            .set("d", Value::Int(3))
            .set("e", Value::Bool(true))
            .set("f", Value::Arr(vec![Value::Int(1), Value::Num(0.5)]));
        assert_eq!(
            v.render(),
            r#"{"a": {"value": 1.5, "unit": "ms"}, "b": "x\"y", "c": null, "d": 3, "e": true, "f": [1, 0.5]}"#
        );
    }
}
