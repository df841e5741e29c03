//! Minimal JSON emission: string escaping.
//!
//! The flight recorder emits JSONL by hand — the workspace has no serde —
//! so the one sharp edge lives here once: escaping a string literal. Its
//! fields are unsigned integers and strings, so no `NaN` / `Infinity`
//! literal can reach a dump.

use std::fmt::Write as _;

/// Appends `s` as a JSON string literal (quotes included) to `out`.
pub(crate) fn push_str_escaped(out: &mut String, s: &str) {
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
    fn escapes_specials() {
        let mut s = String::new();
        push_str_escaped(&mut s, "a\"b\\c\nd\u{1}");
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }
}
