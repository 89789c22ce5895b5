//! A minimal JSON object writer for the worker's one-line reports.

use std::fmt::Write as _;

/// An ordered JSON object under construction.
#[derive(Clone, Debug, Default)]
pub struct Object {
    fields: Vec<(String, String)>,
}

impl Object {
    /// An empty object.
    pub fn new() -> Object {
        Object::default()
    }

    fn raw(&mut self, key: &str, value: String) -> &mut Object {
        self.fields.push((quote(key), value));
        self
    }

    /// A number; non-finite values become `null`.
    pub fn num(&mut self, key: &str, value: f64) -> &mut Object {
        let text = if value.is_finite() {
            format!("{value:?}")
        } else {
            "null".to_string()
        };
        self.raw(key, text)
    }

    /// A whole number.
    pub fn int(&mut self, key: &str, value: u64) -> &mut Object {
        self.raw(key, value.to_string())
    }

    /// A boolean.
    pub fn bool(&mut self, key: &str, value: bool) -> &mut Object {
        self.raw(key, value.to_string())
    }

    /// A string.
    pub fn str(&mut self, key: &str, value: &str) -> &mut Object {
        self.raw(key, quote(value))
    }

    /// A nested object.
    pub fn obj(&mut self, key: &str, value: &Object) -> &mut Object {
        self.raw(key, value.render())
    }

    /// A list of numbers.
    pub fn nums(&mut self, key: &str, values: &[f64]) -> &mut Object {
        let items: Vec<String> = values.iter().map(|v| format!("{v:?}")).collect();
        self.raw(key, format!("[{}]", items.join(",")))
    }

    /// The object as one line of JSON.
    pub fn render(&self) -> String {
        let items: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("{k}:{v}"))
            .collect();
        format!("{{{}}}", items.join(","))
    }
}

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}
