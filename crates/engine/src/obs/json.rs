//! Minimal JSON emission helpers (escape + finite number formatting).
//!
//! The flight recorder emits JSONL by hand — the workspace has no serde —
//! so the two sharp edges live here once: string escaping and the
//! guarantee that no `NaN`/`Infinity` literal (which strict parsers reject)
//! ever reaches a dump.

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

/// Appends `v` as a JSON number, mapping non-finite values to 0.0 (a
/// non-finite field is an instrumentation bug; the dump must still be
/// parseable).
pub(crate) fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v:.6}");
    } else {
        out.push_str("0.0");
    }
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

    #[test]
    fn non_finite_never_leaks() {
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut s = String::new();
            push_f64(&mut s, v);
            assert_eq!(s, "0.0");
        }
        let mut s = String::new();
        push_f64(&mut s, 1.5);
        assert!(s.starts_with("1.5"));
    }
}
