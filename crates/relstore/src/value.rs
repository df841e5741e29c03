//! Scalar values and column types.
//!
//! The paper's SPJ machinery (§4) distinguishes attributes over *finite*
//! domains (which the insertion encoding must enumerate into SAT clauses)
//! from attributes over *infinite* domains (where a fresh constant can always
//! be chosen). [`Domain`] carries that distinction on every column.

use std::fmt;

/// The type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ValueType {
    /// 64-bit signed integer.
    Int,
    /// UTF-8 string.
    Str,
    /// Boolean.
    Bool,
}

impl fmt::Display for ValueType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValueType::Int => write!(f, "int"),
            ValueType::Str => write!(f, "str"),
            ValueType::Bool => write!(f, "bool"),
        }
    }
}

/// A scalar value stored in a tuple.
///
/// Values are totally ordered (within and across types) so that tables can be
/// kept in deterministic order and keys can be compared cheaply.
///
/// A value is 16 bytes: every row, index entry and interner attribute is an
/// array of them, and the paper's dataset (§5) is integers throughout, so
/// the string payload sits behind one thin pointer instead of widening
/// every cell to hold a `String` inline.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Value {
    /// An integer value.
    Int(i64),
    /// A string value (build one with `Value::from`).
    Str(Box<String>),
    /// A boolean value.
    Bool(bool),
}

impl Value {
    /// Returns the [`ValueType`] of this value.
    pub fn value_type(&self) -> ValueType {
        match self {
            Value::Int(_) => ValueType::Int,
            Value::Str(_) => ValueType::Str,
            Value::Bool(_) => ValueType::Bool,
        }
    }

    /// Returns the integer payload, if this is an [`Value::Int`].
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Returns the string payload, if this is a [`Value::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// An order-preserving 8-byte abbreviation, among values of one type:
    /// `a < b` implies `a.abbreviation() <= b.abbreviation()`, so a sort
    /// compares the abbreviations it keeps beside its entries and reads the
    /// values themselves only on a tie. An integer with its sign bit
    /// flipped, a boolean as `0` or `1`, a string's first 8 bytes
    /// big-endian, zero-padded (so `""` and `"\0"` tie, as do strings
    /// sharing those bytes). Across types it orders nothing: a column holds
    /// one type.
    pub fn abbreviation(&self) -> u64 {
        match self {
            Value::Int(i) => (*i as u64) ^ (1 << 63),
            Value::Bool(b) => u64::from(*b),
            Value::Str(s) => {
                let mut head = [0; 8];
                let n = s.len().min(8);
                head[..n].copy_from_slice(&s.as_bytes()[..n]);
                u64::from_be_bytes(head)
            }
        }
    }
}

impl Value {
    /// If this value's rendering (its [`fmt::Display`]) is a prefix of
    /// `text`, the rest of `text` — the rendering compared in place, with
    /// no `String` and no formatter in between (value filters run this
    /// once per text node an evaluation visits).
    pub fn strip_rendered<'a>(&self, text: &'a str) -> Option<&'a str> {
        match self {
            Value::Str(s) => text.strip_prefix(s.as_str()),
            Value::Bool(b) => text.strip_prefix(if *b { "true" } else { "false" }),
            Value::Int(i) => {
                // An optional '-', then the decimal digits, most significant
                // first (u64::MAX has 20).
                let mut digits = [0u8; 20];
                let mut at = digits.len();
                let mut n = i.unsigned_abs();
                loop {
                    at -= 1;
                    digits[at] = b'0' + (n % 10) as u8;
                    n /= 10;
                    if n == 0 {
                        break;
                    }
                }
                let digits = &digits[at..];
                let text = if *i < 0 {
                    text.strip_prefix('-')?
                } else {
                    text
                };
                // The matched bytes are ASCII, so the cut is a char boundary.
                text.as_bytes()
                    .starts_with(digits)
                    .then(|| &text[digits.len()..])
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Bool(b) => write!(f, "{b}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::from(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(Box::new(v))
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

/// The domain of a column: the set of values an attribute may take.
///
/// The insertion-translation algorithm (§4.3, Appendix A) treats the two
/// cases differently: a free variable over an [`Domain::Infinite`] domain can
/// always be instantiated with a fresh constant that avoids side effects,
/// while variables over a [`Domain::Finite`] domain contribute
/// `x = c₁ ∨ … ∨ x = cₖ` clauses to the SAT instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Domain {
    /// Unbounded domain (e.g. arbitrary integers or strings).
    Infinite,
    /// An explicitly enumerated finite domain.
    Finite(Vec<Value>),
}

impl Domain {
    /// Whether `v` is admissible in this domain.
    pub fn contains(&self, v: &Value) -> bool {
        match self {
            Domain::Infinite => true,
            Domain::Finite(vs) => vs.contains(v),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_types_round_trip() {
        assert_eq!(Value::Int(3).value_type(), ValueType::Int);
        assert_eq!(Value::from("x").value_type(), ValueType::Str);
        assert_eq!(Value::Bool(true).value_type(), ValueType::Bool);
    }

    #[test]
    fn strip_rendered_agrees_with_display() {
        for v in [
            Value::Int(0),
            Value::Int(7),
            Value::Int(-40),
            Value::Int(i64::MAX),
            Value::Int(i64::MIN),
            Value::from("CS320"),
            Value::from(""),
            Value::from("é"),
            Value::Bool(true),
            Value::Bool(false),
        ] {
            let text = v.to_string();
            assert_eq!(v.strip_rendered(&text), Some(""), "{v:?}");
            assert_eq!(v.strip_rendered(&format!("{text} é")), Some(" é"), "{v:?}");
            for other in ["", "-", "4", "+7", "07", "tru", "CS32", "-é"] {
                assert_eq!(
                    v.strip_rendered(other),
                    other.strip_prefix(text.as_str()),
                    "{v:?} against `{other}`"
                );
            }
        }
    }

    #[test]
    fn abbreviations_keep_the_order_within_a_type() {
        let ints = [i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX].map(Value::Int);
        let strs = [
            "",
            "\0",
            "\0\0",
            "a",
            "abcdefgh",
            "abcdefgh\0",
            "abcdefghz",
            "abcdefgi",
            "é",
        ]
        .map(Value::from);
        let bools = [false, true].map(Value::Bool);
        for values in [&ints[..], &strs, &bools] {
            for a in values {
                for b in values {
                    let (x, y) = (a.abbreviation(), b.abbreviation());
                    assert!(a >= b || x <= y, "{a:?} < {b:?} but {x:#x} > {y:#x}");
                }
            }
        }
        // Ties only where the first 8 bytes agree.
        assert_eq!(strs[0].abbreviation(), strs[1].abbreviation());
        assert_eq!(strs[4].abbreviation(), strs[6].abbreviation());
        assert_ne!(strs[4].abbreviation(), strs[7].abbreviation());
        assert_eq!(
            ints.map(|v| v.abbreviation())[..4],
            [0, 1, (1 << 63) - 1, 1 << 63]
        );
    }

    #[test]
    fn accessors_match_variants() {
        assert_eq!(Value::Int(7).as_int(), Some(7));
        assert_eq!(Value::Int(7).as_str(), None);
        assert_eq!(Value::from("ab").as_str(), Some("ab"));
    }

    #[test]
    fn infinite_domain_contains_everything() {
        assert!(Domain::Infinite.contains(&Value::Int(42)));
    }

    #[test]
    fn values_are_ordered_deterministically() {
        let mut v = vec![Value::Int(2), Value::Int(1)];
        v.sort();
        assert_eq!(v, vec![Value::Int(1), Value::Int(2)]);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Int(-4).to_string(), "-4");
        assert_eq!(Value::from("hi").to_string(), "hi");
        assert_eq!(ValueType::Str.to_string(), "str");
    }
}
