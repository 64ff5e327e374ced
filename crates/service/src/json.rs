//! Minimal hand-rolled JSON writing (the workspace builds without registry
//! access, so there is no serde_json; see also
//! `ampc_coloring_bench::Table::to_json`, which the job API embeds for its
//! metrics tables).

use std::fmt::Write;

/// Escapes and quotes a string as a JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// A JSON array of unsigned integers, written into one `String` sized for
/// one- to three-digit cells (a coloring's colours).
pub fn array_u64<I: IntoIterator<Item = u64>>(items: I) -> String {
    let items = items.into_iter();
    let mut out = String::with_capacity(2 + 4 * items.size_hint().0);
    out.push('[');
    for (index, value) in items.enumerate() {
        if index > 0 {
            out.push(',');
        }
        let _ = write!(out, "{value}");
    }
    out.push(']');
    out
}

/// Incremental JSON object builder; every value is already serialized.
#[derive(Debug, Default)]
pub struct Object {
    fields: Vec<(String, String)>,
}

impl Object {
    /// Creates an empty object.
    pub fn new() -> Self {
        Object::default()
    }

    /// Adds a field with an already-serialized JSON value.
    pub fn raw(mut self, key: &str, value: impl Into<String>) -> Self {
        self.fields.push((key.to_string(), value.into()));
        self
    }

    /// Adds a string field (escaped).
    pub fn str(self, key: &str, value: &str) -> Self {
        let value = string(value);
        self.raw(key, value)
    }

    /// Adds an unsigned integer field.
    pub fn u64(self, key: &str, value: u64) -> Self {
        self.raw(key, value.to_string())
    }

    /// Adds a `usize` field.
    pub fn usize(self, key: &str, value: usize) -> Self {
        self.raw(key, value.to_string())
    }

    /// Adds a float field (JSON has no NaN/inf; those render as null).
    pub fn f64(self, key: &str, value: f64) -> Self {
        let rendered = if value.is_finite() {
            format!("{value}")
        } else {
            "null".to_string()
        };
        self.raw(key, rendered)
    }

    /// Adds a boolean field.
    pub fn bool(self, key: &str, value: bool) -> Self {
        self.raw(key, if value { "true" } else { "false" })
    }

    /// Serializes the object.
    pub fn finish(self) -> String {
        let fields: Vec<String> = self
            .fields
            .into_iter()
            .map(|(key, value)| format!("{}:{}", string(&key), value))
            .collect();
        format!("{{{}}}", fields.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_and_nests() {
        let inner = Object::new().str("msg", "a \"b\"\nc").finish();
        let outer = Object::new()
            .u64("id", 7)
            .bool("ok", true)
            .f64("x", 1.5)
            .f64("bad", f64::NAN)
            .raw("inner", inner)
            .raw("xs", array_u64([1, 2, 3]))
            .finish();
        assert_eq!(
            outer,
            "{\"id\":7,\"ok\":true,\"x\":1.5,\"bad\":null,\
             \"inner\":{\"msg\":\"a \\\"b\\\"\\nc\"},\"xs\":[1,2,3]}"
        );
    }

    /// The one-buffer render is byte-identical to the `String`-per-cell
    /// render it replaced, from the empty array to a 100k-colour one.
    #[test]
    fn arrays() {
        let joined = |items: &[u64]| {
            let cells: Vec<String> = items.iter().map(|v| v.to_string()).collect();
            format!("[{}]", cells.join(","))
        };
        let colors: Vec<u64> = (0..100_000u64)
            .map(|v| v.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (40 + v % 24))
            .collect();
        let cases: [&[u64]; 5] = [
            &[],
            &[0],
            &[u64::MAX],
            &[9, 10, 99, 100, 1_000_000],
            &colors,
        ];
        for items in cases {
            assert_eq!(array_u64(items.iter().copied()), joined(items));
        }
        assert_eq!(array_u64([]), "[]");
    }
}
