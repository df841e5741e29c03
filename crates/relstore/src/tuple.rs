//! Tuples: immutable sequences of [`Value`]s.

use crate::value::Value;
use std::fmt;
use std::ops::Index;
use std::sync::Arc;

/// An immutable relational tuple.
///
/// Tuples are small, frequently cloned (they are table rows, primary keys,
/// and the keys of the Skolem `gen_id` interner of §2.3), and compared. The
/// values sit behind an `Arc`, so a clone is a reference-count bump and the
/// copy-on-write pages of [`PagedMap`](crate::PagedMap) that hold tuples copy handles, not
/// values.
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Tuple(Arc<[Value]>);

impl Tuple {
    /// Builds a tuple from any iterable of values.
    pub fn from_values<I>(values: I) -> Self
    where
        I: IntoIterator<Item = Value>,
    {
        Tuple(values.into_iter().collect())
    }

    /// The empty tuple (used as the root's semantic attribute `$db`).
    pub fn empty() -> Self {
        Tuple::default()
    }

    /// Number of fields.
    pub fn arity(&self) -> usize {
        self.0.len()
    }

    /// All values in order.
    pub fn values(&self) -> &[Value] {
        &self.0
    }

    /// Projects the tuple onto the given positions. The identity projection
    /// — every position once, in order — hands back this tuple's own
    /// allocation rather than a copy of it.
    ///
    /// # Panics
    /// Panics if a position is out of range (projections are schema-derived).
    pub fn project(&self, positions: &[usize]) -> Tuple {
        let identity =
            positions.len() == self.arity() && positions.iter().copied().eq(0..self.arity());
        if identity {
            return self.clone();
        }
        Tuple(positions.iter().map(|&i| self.0[i].clone()).collect())
    }

    /// Concatenates two tuples (used when joining).
    pub fn concat(&self, other: &Tuple) -> Tuple {
        Tuple(self.0.iter().chain(other.0.iter()).cloned().collect())
    }

    /// Iterates over the values.
    pub fn iter(&self) -> std::slice::Iter<'_, Value> {
        self.0.iter()
    }
}

impl Index<usize> for Tuple {
    type Output = Value;
    fn index(&self, i: usize) -> &Value {
        &self.0[i]
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

impl FromIterator<Value> for Tuple {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Self {
        Tuple::from_values(iter)
    }
}

/// Convenience macro: `tuple![1, "a", true]`.
#[macro_export]
macro_rules! tuple {
    ($($v:expr),* $(,)?) => {
        $crate::Tuple::from_values([$($crate::Value::from($v)),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn macro_builds_mixed_tuples() {
        let t = tuple![1i64, "a", true];
        assert_eq!(t.arity(), 3);
        assert_eq!(t[0], Value::Int(1));
        assert_eq!(t[1], Value::from("a"));
        assert_eq!(t[2], Value::Bool(true));
    }

    #[test]
    fn project_selects_positions() {
        let t = tuple![10i64, 20i64, 30i64];
        assert_eq!(t.project(&[2, 0]), tuple![30i64, 10i64]);
    }

    #[test]
    fn the_identity_projection_is_the_same_allocation() {
        let t = tuple![10i64, 20i64];
        let same = |a: &Tuple, b: &Tuple| std::ptr::eq(a.values().as_ptr(), b.values().as_ptr());
        assert!(same(&t.project(&[0, 1]), &t));
        for other in [&[1, 0][..], &[0], &[0, 1, 1]] {
            let p = t.project(other);
            assert!(!same(&p, &t), "{other:?}");
        }
        assert_eq!(t.project(&[0, 1, 1]), tuple![10i64, 20i64, 20i64]);
    }

    #[test]
    fn concat_joins_in_order() {
        let a = tuple![1i64];
        let b = tuple!["x", "y"];
        assert_eq!(a.concat(&b), tuple![1i64, "x", "y"]);
    }

    #[test]
    fn empty_tuple_has_zero_arity() {
        assert_eq!(Tuple::empty().arity(), 0);
        assert_eq!(Tuple::empty(), Tuple::from_values([]));
    }

    #[test]
    fn display_is_parenthesized() {
        assert_eq!(tuple![1i64, "a"].to_string(), "(1, a)");
    }

    #[test]
    fn tuples_hash_and_compare_structurally() {
        use std::collections::HashSet;
        let mut s = HashSet::new();
        s.insert(tuple![1i64, "a"]);
        assert!(s.contains(&tuple![1i64, "a"]));
        assert!(!s.contains(&tuple![1i64, "b"]));
    }
}
